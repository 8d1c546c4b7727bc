// Deterministic concurrency checker (src/check/): oracle unit tests,
// executor determinism, seeded-bug detection, replay fidelity, shrinking,
// and schedule-file round-trips.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/executor.hpp"
#include "check/history.hpp"
#include "check/policy.hpp"
#include "check/schedule.hpp"

namespace {

using namespace wstm;
using check::CheckConfig;
using check::Checker;
using check::Op;
using check::OpKind;
using check::RunResult;
using check::Schedule;

// ---- linearizability oracle on hand-built histories ------------------------

Op make_op(int vid, OpKind kind, long a, long b, bool r0, bool r1, std::uint64_t invoke,
           std::uint64_t response) {
  Op op;
  op.vid = vid;
  op.kind = kind;
  op.a = a;
  op.b = b;
  op.r0 = r0;
  op.r1 = r1;
  op.invoke = invoke;
  op.response = response;
  op.complete = true;
  return op;
}

TEST(Oracle, AcceptsSequentialHistory) {
  std::vector<Op> ops = {
      make_op(0, OpKind::kInsert, 3, 0, true, false, 0, 1),
      make_op(0, OpKind::kContains, 3, 0, true, false, 2, 3),
      make_op(0, OpKind::kRemove, 3, 0, true, false, 4, 5),
      make_op(0, OpKind::kContains, 3, 0, false, false, 6, 7),
  };
  const auto r = check::check_linearizable(ops, 0, 0, 16);
  EXPECT_TRUE(r.ok) << r.diagnosis;
  EXPECT_EQ(r.witness.size(), 4u);
}

TEST(Oracle, AcceptsOverlappingOpsNeedingReorder) {
  // contains(5) overlaps insert(5) and already sees it: legal, linearize the
  // insert first even though its response comes later.
  std::vector<Op> ops = {
      make_op(0, OpKind::kInsert, 5, 0, true, false, 0, 3),
      make_op(1, OpKind::kContains, 5, 0, true, false, 1, 2),
  };
  const auto r = check::check_linearizable(ops, 0, std::uint64_t{1} << 5, 16);
  EXPECT_TRUE(r.ok) << r.diagnosis;
}

TEST(Oracle, RejectsLostUpdate) {
  // Both inserts of distinct keys claim success, but key 2 is missing from
  // the final contents: some committed update was lost.
  std::vector<Op> ops = {
      make_op(0, OpKind::kInsert, 1, 0, true, false, 0, 2),
      make_op(1, OpKind::kInsert, 2, 0, true, false, 1, 3),
  };
  const auto r = check::check_linearizable(ops, 0, std::uint64_t{1} << 1, 16);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.diagnosis.find("no legal linearization"), std::string::npos);
}

TEST(Oracle, RejectsRealTimeOrderViolation) {
  // remove(7) completed (returned true) strictly before contains(7) began,
  // yet contains(7) still observed the key with nobody re-inserting it.
  std::vector<Op> ops = {
      make_op(0, OpKind::kRemove, 7, 0, true, false, 0, 1),
      make_op(1, OpKind::kContains, 7, 0, true, false, 2, 3),
  };
  const auto r = check::check_linearizable(ops, std::uint64_t{1} << 7, 0, 16);
  EXPECT_FALSE(r.ok);
}

TEST(Oracle, RejectsNonAtomicPairRead) {
  // move(3 -> 4) is atomic, so no pair-read may observe "3 gone, 4 not yet
  // there". The pair-read overlaps nothing: it runs strictly after.
  std::vector<Op> ops = {
      make_op(0, OpKind::kMove, 3, 4, true, true, 0, 1),
      make_op(1, OpKind::kPairRead, 3, 4, false, false, 2, 3),
  };
  const auto r =
      check::check_linearizable(ops, std::uint64_t{1} << 3, std::uint64_t{1} << 4, 16);
  EXPECT_FALSE(r.ok);
}

TEST(Oracle, AllowsIncompleteOpToTakeEffectOrNot) {
  // The incomplete insert(9) may or may not have landed; both final states
  // are legal.
  std::vector<Op> ops = {make_op(0, OpKind::kInsert, 9, 0, false, false, 0, 0)};
  ops[0].complete = false;
  EXPECT_TRUE(check::check_linearizable(ops, 0, 0, 16).ok);
  EXPECT_TRUE(check::check_linearizable(ops, 0, std::uint64_t{1} << 9, 16).ok);
  EXPECT_FALSE(check::check_linearizable(ops, 0, std::uint64_t{1} << 8, 16).ok);
}

TEST(Oracle, RejectsKeyOutOfRange) {
  std::vector<Op> ops = {make_op(0, OpKind::kInsert, 64, 0, true, false, 0, 1)};
  const auto r = check::check_linearizable(ops, 0, 0, 64);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.diagnosis.find("out of range"), std::string::npos);
}

// ---- schedule file round-trip ---------------------------------------------

TEST(Schedule, TextRoundTrip) {
  Schedule s;
  s.config.structure = "rbtree";
  s.config.cm = "Adaptive-Dynamic";
  s.config.threads = 4;
  s.config.visible_reads = false;
  s.config.op_mix = "insert-heavy";
  s.config.seed = 0xabcdef;
  s.config.strategy = "pct";
  s.config.faults.p_abort = 0.125;
  s.config.faults.p_stall_any = 0.0625;
  s.config.faults.stall_steps = 7;
  s.config.liveness = true;
  s.config.bug = "blind-commit";
  s.decisions = {
      {0, check::Point::kBegin, check::Action::kProceed},
      {3, check::Point::kCas, check::Action::kFailCas},
      {1, check::Point::kCommit, check::Action::kInjectAbort},
      {2, check::Point::kReaderResolve, check::Action::kProceed},
  };
  const Schedule back = check::schedule_from_text(check::to_text(s));
  EXPECT_EQ(back.config.structure, s.config.structure);
  EXPECT_EQ(back.config.cm, s.config.cm);
  EXPECT_EQ(back.config.threads, s.config.threads);
  EXPECT_EQ(back.config.visible_reads, s.config.visible_reads);
  EXPECT_EQ(back.config.op_mix, s.config.op_mix);
  EXPECT_EQ(back.config.seed, s.config.seed);
  EXPECT_EQ(back.config.strategy, s.config.strategy);
  EXPECT_DOUBLE_EQ(back.config.faults.p_abort, s.config.faults.p_abort);
  EXPECT_DOUBLE_EQ(back.config.faults.p_stall_any, s.config.faults.p_stall_any);
  EXPECT_EQ(back.config.faults.stall_steps, s.config.faults.stall_steps);
  EXPECT_EQ(back.config.liveness, s.config.liveness);
  EXPECT_EQ(back.config.bug, s.config.bug);
  ASSERT_EQ(back.decisions.size(), s.decisions.size());
  for (std::size_t i = 0; i < s.decisions.size(); ++i) {
    EXPECT_EQ(back.decisions[i], s.decisions[i]) << "decision " << i;
  }
  EXPECT_EQ(s.injected_faults(), 2u);
}

TEST(Schedule, OldFilesWithoutNewKeysStillLoad) {
  // Schedules written before p_stall_any/liveness existed must keep loading
  // with the old defaults.
  const std::string old_text =
      "wstm-schedule v1\nstructure list\ncm Polka\nthreads 2\ng 0 B p\n";
  const Schedule s = check::schedule_from_text(old_text);
  EXPECT_DOUBLE_EQ(s.config.faults.p_stall_any, 0.0);
  EXPECT_FALSE(s.config.liveness);
  EXPECT_EQ(s.decisions.size(), 1u);
}

TEST(Schedule, RejectsMalformedText) {
  EXPECT_THROW(check::schedule_from_text("not a schedule"), std::runtime_error);
  EXPECT_THROW(check::schedule_from_text("wstm-schedule v1\ng 0 Z p\n"), std::runtime_error);
  EXPECT_THROW(check::schedule_from_text("wstm-schedule v1\nthreads banana\n"),
               std::runtime_error);
  EXPECT_THROW(check::schedule_from_text("wstm-schedule v1\nmystery 3\n"), std::runtime_error);
}

// ---- end-to-end determinism ------------------------------------------------

CheckConfig small_config() {
  CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 8;
  c.key_range = 8;
  c.cm = "Polka";
  c.seed = 7;
  return c;
}

TEST(CheckerDeterminism, SameSeedSameSchedule) {
  for (const char* strategy : {"random", "pct"}) {
    CheckConfig c = small_config();
    c.strategy = strategy;
    RunResult a = Checker(c).run_once(/*schedule_seed=*/99);
    RunResult b = Checker(c).run_once(/*schedule_seed=*/99);
    EXPECT_FALSE(a.violation) << strategy << ": " << a.diagnosis;
    EXPECT_FALSE(a.over_budget) << strategy;
    ASSERT_EQ(a.schedule.decisions.size(), b.schedule.decisions.size()) << strategy;
    EXPECT_EQ(a.schedule.decisions, b.schedule.decisions) << strategy;
    EXPECT_EQ(a.metrics.commits, b.metrics.commits) << strategy;
    EXPECT_EQ(a.metrics.aborts, b.metrics.aborts) << strategy;
  }
}

TEST(CheckerDeterminism, DifferentSeedsDiverge) {
  CheckConfig c = small_config();
  Checker checker(c);
  const RunResult a = checker.run_once(1);
  const RunResult b = checker.run_once(2);
  // Same program, different interleavings (astronomically unlikely to tie).
  EXPECT_NE(a.schedule.decisions, b.schedule.decisions);
}

TEST(CheckerDeterminism, ReplayReproducesBitIdentically) {
  CheckConfig c = small_config();
  c.faults.p_abort = 0.05;
  c.faults.p_fail_cas = 0.05;
  Checker checker(c);
  const RunResult once = checker.run_once(3);
  ASSERT_FALSE(once.over_budget);
  const RunResult again = checker.replay(once.schedule);
  EXPECT_EQ(again.divergences, 0u);
  EXPECT_EQ(once.schedule.decisions, again.schedule.decisions);
  EXPECT_EQ(once.violation, again.violation);
  EXPECT_EQ(once.metrics.commits, again.metrics.commits);
  EXPECT_EQ(once.metrics.aborts, again.metrics.aborts);
  EXPECT_EQ(once.metrics.injected_aborts, again.metrics.injected_aborts);
}

TEST(CheckerFaults, InjectedAbortsAreCountedAndHarmless) {
  CheckConfig c = small_config();
  c.cm = "Aggressive";  // no CM wait slices: keeps injection runs fast
  c.faults.p_abort = 0.1;
  c.faults.p_fail_cas = 0.1;
  c.faults.p_stall = 0.05;
  c.faults.stall_steps = 8;
  Checker checker(c);
  std::uint64_t injected = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const RunResult r = checker.run_once(seed);
    EXPECT_FALSE(r.violation) << r.diagnosis;
    injected += r.metrics.injected_aborts;
  }
  EXPECT_GT(injected, 0u) << "fault injector never fired at p=0.1";
}

// ---- step budget -----------------------------------------------------------

// An over-budget run's verdict is void (executor.hpp), and the ghost opacity
// checks assume token-serialized execution: a report counts while the token
// is held and is dropped once the budget has flipped the executor to
// free-run.
TEST(CheckerBudget, GhostReportsCountOnlyBeforeFreeRun) {
  check::RandomWalkPolicy policy(1, check::FaultOptions{});
  check::VirtualExecutor exec(/*num_threads=*/1, policy, /*max_steps=*/2, /*tick_ns=*/1000);
  std::thread worker([&] {
    exec.register_thread(0);  // decision 1 of 2: the token is held
    exec.on_opacity_violation("serialized");
    exec.on_point(check::Point::kBegin, nullptr);  // decision 2: free-run
    exec.on_opacity_violation("free-run");
    exec.thread_done();
  });
  worker.join();
  EXPECT_TRUE(exec.over_budget());
  EXPECT_EQ(exec.opacity_violations(), 1u);
  EXPECT_STREQ(exec.first_opacity_violation(), "serialized");
}

// End to end: contended orec runs whose budget runs out almost at once
// execute nearly everything concurrently, where the ghost checks would race
// the other workers. They report over budget, and no ghost violation.
TEST(CheckerBudget, TinyBudgetRunReportsNoGhostViolation) {
  CheckConfig c = small_config();
  c.backend = "orec";
  c.arbitration = "wait";
  c.ops_per_thread = 14;
  c.max_steps = 6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult r = Checker(c).run_once(seed);
    EXPECT_TRUE(r.over_budget) << "seed " << seed;
    EXPECT_EQ(r.diagnosis.find("opacity"), std::string::npos) << r.diagnosis;
  }
}

// ---- seeded bugs -----------------------------------------------------------

TEST(CheckerSeededBug, FindsBlindCommitWithinBudget) {
  CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 16;
  c.key_range = 16;
  c.cm = "Polka";
  c.bug = "blind-commit";
  c.op_mix = "insert-heavy";  // no retirement: lost updates stay memory-safe
  Checker checker(c);
  const auto er = checker.explore(/*num_schedules=*/40);
  ASSERT_GT(er.violations, 0u) << "blind-commit not found in 40 schedules";
  EXPECT_NE(er.first_violation.diagnosis.find("linearizability"), std::string::npos);

  // The failing schedule must reproduce and survive shrinking.
  const RunResult again = checker.replay(er.first_violation.schedule);
  EXPECT_TRUE(again.violation);
  const auto sr = checker.shrink(er.first_violation.schedule, /*max_replays=*/60);
  EXPECT_TRUE(sr.still_fails);
  EXPECT_LE(sr.schedule.decisions.size(), er.first_violation.schedule.decisions.size());
  EXPECT_TRUE(checker.replay(sr.schedule).violation) << "shrunk schedule lost the failure";
}

TEST(CheckerSeededBug, FindsSkipReaderAbortWithinBudget) {
  CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 16;
  c.key_range = 16;
  c.cm = "Polka";
  c.bug = "skip-reader-abort";  // visible-read mode atomicity bug
  // No retirement: with removes, two stale commits can retire the same node
  // and crash the replay or shrink instead of failing the oracle.
  c.op_mix = "insert-heavy";
  Checker checker(c);
  const auto er = checker.explore(/*num_schedules=*/40);
  ASSERT_GT(er.violations, 0u) << "skip-reader-abort not found in 40 schedules";

  const RunResult again = checker.replay(er.first_violation.schedule);
  EXPECT_TRUE(again.violation);
  const auto sr = checker.shrink(er.first_violation.schedule, /*max_replays=*/60);
  EXPECT_TRUE(sr.still_fails);
  EXPECT_TRUE(checker.replay(sr.schedule).violation) << "shrunk schedule lost the failure";
}

TEST(CheckerSeededBug, CleanProtocolSurvivesSameBudget) {
  CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 16;
  c.key_range = 16;
  c.cm = "Aggressive";  // no CM wait slices: keeps the 10-schedule run fast
  Checker checker(c);
  const auto er = checker.explore(/*num_schedules=*/10, /*stop_on_violation=*/true);
  EXPECT_EQ(er.violations, 0u) << er.first_violation.diagnosis;
}

// ---- decision parity with recorded schedules -------------------------------

// The conflict accounting of one run, which every conflict site feeds: the
// three conflict kinds, repeat conflicts, attempts that waited, parks and
// orec lock waits. `unparks` is not pinned: under the checker an unpark edge
// is a kUnpark schedule point and the counter stays 0.
struct ConflictCounts {
  std::uint64_t ww;
  std::uint64_t rw;
  std::uint64_t wr;
  std::uint64_t repeats;
  std::uint64_t waits;
  std::uint64_t parks;
  std::uint64_t lock_waits;
};

void expect_counts(const stm::ThreadMetrics& m, const ConflictCounts& want) {
  EXPECT_EQ(m.ww_conflicts, want.ww);
  EXPECT_EQ(m.rw_conflicts, want.rw);
  EXPECT_EQ(m.wr_conflicts, want.wr);
  EXPECT_EQ(m.repeat_conflicts, want.repeats);
  EXPECT_EQ(m.waits, want.waits);
  EXPECT_EQ(m.parks, want.parks);
  EXPECT_EQ(m.orec_lock_waits, want.lock_waits);
}

// Shrunk failing schedules of the six CI seeded bugs, recorded before the
// ablation-only STM paths were removed (tests/data/). They still carry the
// retired snapshot_ext/deferred_clock keys, which the parser ignores.
// Replaying must reproduce the recorded verdict, step count, commits, aborts,
// divergences and conflict counts exactly, so any change to an engine's
// schedule-point stream, to a CM decision or to the conflict accounting
// shows up here.
struct RecordedRun {
  const char* name;
  const char* file;
  std::uint64_t steps;
  std::uint64_t commits;
  std::uint64_t aborts;
  std::uint64_t divergences;
  ConflictCounts counts;
};

// The default printer dumps the struct's bytes, pointers included, into the
// listed test name; printing the file keeps the name stable across builds.
void PrintTo(const RecordedRun& rec, std::ostream* os) { *os << rec.file; }

class CheckerParity : public ::testing::TestWithParam<RecordedRun> {};

TEST_P(CheckerParity, RecordedScheduleReplaysIdentically) {
  const RecordedRun& rec = GetParam();
  const Schedule s = check::load_schedule(std::string(WSTM_TEST_DATA_DIR "/") + rec.file);
  const RunResult r = Checker(s.config).replay(s);
  EXPECT_TRUE(r.violation);
  EXPECT_EQ(r.steps, rec.steps);
  EXPECT_EQ(r.metrics.commits, rec.commits);
  EXPECT_EQ(r.metrics.aborts, rec.aborts);
  EXPECT_EQ(r.divergences, rec.divergences);
  expect_counts(r.metrics, rec.counts);
}

INSTANTIATE_TEST_SUITE_P(
    SeededBugs, CheckerParity,
    ::testing::Values(RecordedRun{"BlindCommit", "blind-commit.sched", 928, 72, 2, 0,
                                  {0, 1, 2, 0, 0, 0, 0}},
                      RecordedRun{"SkipReaderAbort", "skip-reader-abort.sched", 957, 72, 0, 1,
                                  {0, 0, 0, 0, 0, 0, 0}},
                      RecordedRun{"SkipCasRecheck", "skip-cas-recheck.sched", 1463, 72, 1, 0,
                                  {0, 0, 0, 0, 0, 0, 0}},
                      RecordedRun{"StampNoPending", "stamp-no-pending.sched", 2758, 72, 103, 0,
                                  {18, 76, 0, 0, 0, 0, 0}},
                      RecordedRun{"SkipReadValidation", "skip-read-validation.sched", 857, 72,
                                  1, 1, {0, 0, 0, 0, 0, 0, 0}},
                      RecordedRun{"ParkLostWakeup", "park-lost-wakeup.sched", 911, 72, 1, 1,
                                  {0, 1, 1, 0, 0, 1, 0}}),
    [](const ::testing::TestParamInfo<RecordedRun>& info) { return info.param.name; });

// ---- stall-anywhere fault + liveness layer under exploration ---------------

TEST(CheckerFaults, StallAnywhereStaysCleanAndReplays) {
  CheckConfig c = small_config();
  c.cm = "Aggressive";
  c.faults.p_stall_any = 0.08;
  c.faults.stall_steps = 6;
  Checker checker(c);
  const RunResult once = checker.run_once(11);
  EXPECT_FALSE(once.violation) << once.diagnosis;
  ASSERT_FALSE(once.over_budget);
  const RunResult again = checker.replay(once.schedule);
  EXPECT_EQ(again.divergences, 0u);
  EXPECT_EQ(once.schedule.decisions, again.schedule.decisions);
  EXPECT_EQ(once.metrics.commits, again.metrics.commits);
}

TEST(CheckerLiveness, SerialTokenNeverHasTwoHolders) {
  // Spurious aborts drive transactions up the escalation ladder until some
  // reach the irrevocable serial-fallback level; across many explored
  // interleavings the token must never admit two concurrent holders, and
  // every run must still linearize.
  CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 12;
  c.key_range = 8;
  c.cm = "Polka";
  c.liveness = true;
  c.faults.p_abort = 0.25;
  std::uint64_t total_acquisitions = 0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Checker checker(c);
    const RunResult r = checker.run_once(seed);
    EXPECT_FALSE(r.violation) << "seed " << seed << ": " << r.diagnosis;
    EXPECT_LE(r.max_token_holders, 1u) << "seed " << seed;
    EXPECT_EQ(r.token_overlap_violations, 0u) << "seed " << seed;
    total_acquisitions += r.token_acquisitions;
  }
  EXPECT_GT(total_acquisitions, 0u)
      << "escalation never reached the serial-fallback level; thresholds too loose";
}

TEST(CheckerLiveness, LivenessRunsReplayDeterministically) {
  CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 10;
  c.key_range = 8;
  c.cm = "Polka";
  c.liveness = true;
  c.faults.p_abort = 0.2;
  Checker checker(c);
  const RunResult once = checker.run_once(5);
  ASSERT_FALSE(once.over_budget);
  const RunResult again = checker.replay(once.schedule);
  EXPECT_EQ(again.divergences, 0u);
  EXPECT_EQ(once.schedule.decisions, again.schedule.decisions);
  EXPECT_EQ(once.metrics.commits, again.metrics.commits);
  EXPECT_EQ(once.token_acquisitions, again.token_acquisitions);
}

// ---- window invariants ride along ------------------------------------------

TEST(CheckerWindow, WindowManagerRunsStayClean) {
  CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 8;
  c.key_range = 8;
  c.cm = "Adaptive";
  c.window_n = 4;
  Checker checker(c);
  const auto er = checker.explore(/*num_schedules=*/3, /*stop_on_violation=*/true);
  EXPECT_EQ(er.violations, 0u) << er.first_violation.diagnosis;
}

// ---- window decision pins --------------------------------------------------

// CheckerParity pins the seeded-bug replays, none of which runs a window
// manager. These pins do the same for the window family: every variant on
// both engines in both arbitration modes, three policy seeds each (the first
// seeds from 1 up whose runs stay within the step budget: past it the
// executor free-runs, which no decision log captures). Each run's steps,
// commits, aborts, conflict counts and a hash of its full decision log must
// match the recorded values, so any change to a window decision, a frame
// assignment, a frame advance or the conflict accounting shows up here.
struct PinnedRun {
  std::uint64_t seed;
  std::uint64_t steps;
  std::uint64_t commits;
  std::uint64_t aborts;
  std::uint64_t decision_hash;
  ConflictCounts counts;
};

struct PinnedConfig {
  const char* name;
  const char* cm;
  const char* backend;
  const char* arbitration;
  std::array<PinnedRun, 3> runs;
};

void PrintTo(const PinnedConfig& pin, std::ostream* os) { *os << pin.name; }

// FNV-1a over every decision's (vid, point, action).
std::uint64_t hash_decisions(const std::vector<check::Decision>& decisions) {
  std::uint64_t h = 14695981039346656037ull;
  for (const check::Decision& d : decisions) {
    for (const std::uint64_t field : {std::uint64_t{d.vid}, static_cast<std::uint64_t>(d.point),
                                      static_cast<std::uint64_t>(d.action)}) {
      h ^= field;
      h *= 1099511628211ull;
    }
  }
  return h;
}

const PinnedConfig kWindowPins[] = {
    {"Online_dstm_abort", "Online", "dstm", "abort",
     {{{1, 871, 48, 33, 0x030f4e08094bfcf6, {1, 13, 19, 3, 0, 0, 0}},
       {2, 1098, 48, 51, 0x38527e07efca3b7a, {0, 17, 34, 13, 0, 0, 0}},
       {3, 781, 48, 27, 0x32c0446e179f9fbe, {1, 11, 15, 4, 0, 0, 0}}}}},
    {"Online_dstm_wait", "Online", "dstm", "wait",
     {{{1, 1140, 48, 42, 0x1db0e9f080335644, {0, 16, 31, 1, 5, 5, 0}},
       {2, 968, 48, 29, 0xdfe0db13fe0ec408, {0, 17, 15, 7, 3, 3, 0}},
       {3, 923, 48, 26, 0x5b46a78d682efb6b, {1, 15, 18, 1, 8, 8, 0}}}}},
    {"Online_orec_abort", "Online", "orec", "abort",
     {{{1, 1346, 48, 41, 0xf0bec1b9dad16996, {4, 34, 0, 2, 0, 0, 1}},
       {2, 1319, 48, 39, 0x866b22087daa2918, {3, 31, 0, 7, 0, 0, 1}},
       {3, 925, 48, 16, 0x10e89bdb446441b2, {4, 12, 0, 1, 0, 0, 3}}}}},
    {"Online_orec_wait", "Online", "orec", "wait",
     {{{2, 1177, 48, 22, 0x6a3640100e8724a7, {2, 20, 0, 2, 7, 7, 2}},
       {3, 1141, 48, 23, 0xbdbdab3fa3fcb10a, {4, 19, 0, 1, 3, 3, 3}},
       {4, 1169, 48, 26, 0x212f9ade671c0b29, {3, 18, 0, 2, 3, 3, 2}}}}},
    {"OnlineDynamic_dstm_abort", "Online-Dynamic", "dstm", "abort",
     {{{1, 782, 48, 23, 0x23c74fe8290c2aa0, {1, 10, 12, 3, 0, 0, 0}},
       {2, 871, 48, 33, 0x90f21d7a78e89425, {0, 14, 19, 6, 0, 0, 0}},
       {3, 985, 48, 44, 0xb579f68e3dc4de6f, {0, 17, 27, 4, 0, 0, 0}}}}},
    {"OnlineDynamic_dstm_wait", "Online-Dynamic", "dstm", "wait",
     {{{1, 999, 48, 26, 0xe91a2ba9e9fce020, {1, 13, 17, 2, 5, 5, 0}},
       {2, 998, 48, 28, 0x40d078208c5f7408, {1, 19, 20, 1, 11, 12, 0}},
       {3, 920, 48, 22, 0xbf530e19ba8d2678, {0, 8, 17, 0, 3, 3, 0}}}}},
    {"OnlineDynamic_orec_abort", "Online-Dynamic", "orec", "abort",
     {{{1, 1125, 48, 28, 0x1135b718139022b0, {3, 22, 0, 3, 0, 0, 2}},
       {2, 1253, 48, 36, 0xcf07106b4510c305, {3, 30, 0, 7, 0, 0, 3}},
       {3, 1272, 48, 42, 0xc562e8d63ceb60e4, {6, 34, 0, 6, 0, 0, 5}}}}},
    {"OnlineDynamic_orec_wait", "Online-Dynamic", "orec", "wait",
     {{{1, 1356, 48, 29, 0x93b287f23fe0147f, {4, 25, 0, 0, 4, 4, 2}},
       {3, 1196, 48, 25, 0x6a2659a9f20ef861, {4, 21, 0, 1, 5, 5, 1}},
       {4, 1262, 48, 27, 0xfb0a9171b7c48919, {2, 21, 0, 2, 6, 6, 1}}}}},
    {"Adaptive_dstm_abort", "Adaptive", "dstm", "abort",
     {{{1, 787, 48, 26, 0x648d8cce6fc6accf, {1, 12, 13, 4, 0, 0, 0}},
       {2, 1017, 48, 51, 0x582d990cc31d4157, {0, 25, 26, 16, 0, 0, 0}},
       {3, 904, 48, 35, 0xf2fab9e0212bb408, {2, 11, 22, 5, 0, 0, 0}}}}},
    {"Adaptive_dstm_wait", "Adaptive", "dstm", "wait",
     {{{1, 1229, 48, 51, 0xdcc126fd65663f6c, {1, 23, 36, 5, 9, 9, 0}},
       {2, 1057, 48, 40, 0x6c5c3ca734994048, {0, 26, 20, 10, 6, 6, 0}},
       {3, 1067, 48, 32, 0x38f62bebfdcd4a6a, {1, 16, 22, 0, 7, 7, 0}}}}},
    {"Adaptive_orec_abort", "Adaptive", "orec", "abort",
     {{{1, 1316, 48, 37, 0x1ef7ef4aa4ab51ae, {4, 30, 0, 3, 0, 0, 3}},
       {2, 1660, 48, 62, 0x568e28fea20311b4, {6, 53, 0, 13, 0, 0, 3}},
       {3, 970, 48, 20, 0x1d06fdf80f35b13b, {4, 16, 0, 2, 0, 0, 3}}}}},
    {"Adaptive_orec_wait", "Adaptive", "orec", "wait",
     {{{1, 1339, 48, 29, 0xc7d947b60273c1e8, {2, 27, 0, 2, 7, 7, 0}},
       {2, 1521, 48, 37, 0x065d7cd2991280f3, {2, 39, 0, 3, 9, 11, 2}},
       {3, 1216, 48, 27, 0x856242dc1b73c817, {5, 23, 0, 2, 4, 4, 1}}}}},
    {"AdaptiveDynamic_dstm_abort", "Adaptive-Dynamic", "dstm", "abort",
     {{{1, 794, 48, 26, 0x3f0064a06ccd72d4, {1, 9, 16, 2, 0, 0, 0}},
       {2, 871, 48, 33, 0x90f21d7a78e89425, {0, 14, 19, 6, 0, 0, 0}},
       {3, 959, 48, 48, 0xd40e11ec30bede48, {1, 28, 19, 11, 0, 0, 0}}}}},
    {"AdaptiveDynamic_dstm_wait", "Adaptive-Dynamic", "dstm", "wait",
     {{{1, 922, 48, 28, 0xee6026189629e848, {0, 16, 20, 4, 8, 8, 0}},
       {2, 1080, 48, 32, 0x0acb38c59ea42721, {1, 20, 24, 1, 12, 13, 0}},
       {3, 892, 48, 22, 0xffdae4fec8d46239, {0, 15, 16, 0, 9, 9, 0}}}}},
    {"AdaptiveDynamic_orec_abort", "Adaptive-Dynamic", "orec", "abort",
     {{{1, 1037, 48, 22, 0x0987563e543efb60, {2, 19, 0, 5, 0, 0, 2}},
       {2, 1263, 48, 36, 0x0d629cc3c64fd952, {3, 29, 0, 5, 0, 0, 3}},
       {3, 1397, 48, 47, 0xeb964f74b8f1c908, {3, 37, 0, 5, 0, 0, 2}}}}},
    {"AdaptiveDynamic_orec_wait", "Adaptive-Dynamic", "orec", "wait",
     {{{1, 1362, 48, 27, 0x2b9891deecf349de, {3, 25, 0, 0, 7, 7, 3}},
       {2, 1209, 48, 22, 0x9c70ef4e9e771ffa, {4, 19, 0, 1, 7, 7, 2}},
       {3, 1147, 48, 23, 0xe1643eca44169fd7, {4, 20, 0, 1, 6, 6, 1}}}}},
    {"AdaptiveImproved_dstm_abort", "Adaptive-Improved", "dstm", "abort",
     {{{1, 798, 48, 27, 0xd7993966f3d1980d, {1, 12, 14, 5, 0, 0, 0}},
       {2, 999, 48, 54, 0x645d0e6f0f082645, {0, 27, 27, 17, 0, 0, 0}},
       {3, 972, 48, 46, 0xf2f8f56804f47b3c, {2, 19, 25, 10, 0, 0, 0}}}}},
    {"AdaptiveImproved_dstm_wait", "Adaptive-Improved", "dstm", "wait",
     {{{1, 1190, 48, 47, 0xb0d1819947130e98, {0, 17, 33, 4, 3, 3, 0}},
       {2, 1007, 48, 31, 0x2c4755fb8d667364, {1, 17, 20, 4, 7, 7, 0}},
       {3, 961, 48, 26, 0x2a84c10c4f893d8d, {1, 12, 17, 1, 4, 4, 0}}}}},
    {"AdaptiveImproved_orec_abort", "Adaptive-Improved", "orec", "abort",
     {{{1, 1233, 48, 38, 0x06ef28f28280c929, {4, 31, 0, 5, 0, 0, 1}},
       {2, 1254, 48, 39, 0xd9ece88f2636ac3b, {5, 31, 0, 7, 0, 0, 2}},
       {3, 1098, 48, 27, 0x277205d4aa190411, {4, 22, 0, 3, 0, 0, 1}}}}},
    {"AdaptiveImproved_orec_wait", "Adaptive-Improved", "orec", "wait",
     {{{2, 1378, 48, 32, 0x4ca9962b3404d1c4, {1, 32, 0, 3, 6, 7, 1}},
       {3, 1148, 48, 21, 0x299cc40effa6a3dc, {6, 16, 0, 0, 8, 8, 2}},
       {4, 1396, 48, 31, 0xe62a6d4899011449, {2, 24, 0, 1, 6, 7, 2}}}}},
    {"AdaptiveImprovedDynamic_dstm_abort", "Adaptive-Improved-Dynamic", "dstm", "abort",
     {{{1, 794, 48, 26, 0x3f0064a06ccd72d4, {1, 9, 16, 2, 0, 0, 0}},
       {2, 871, 48, 33, 0x90f21d7a78e89425, {0, 14, 19, 6, 0, 0, 0}},
       {3, 959, 48, 48, 0xd40e11ec30bede48, {1, 28, 19, 11, 0, 0, 0}}}}},
    {"AdaptiveImprovedDynamic_dstm_wait", "Adaptive-Improved-Dynamic", "dstm", "wait",
     {{{1, 1009, 48, 36, 0x42c00a0f13db4e4a, {0, 16, 28, 5, 8, 8, 0}},
       {2, 1080, 48, 32, 0x0acb38c59ea42721, {1, 20, 24, 1, 12, 13, 0}},
       {3, 892, 48, 22, 0xffdae4fec8d46239, {0, 15, 16, 0, 9, 9, 0}}}}},
    {"AdaptiveImprovedDynamic_orec_abort", "Adaptive-Improved-Dynamic", "orec", "abort",
     {{{1, 1037, 48, 22, 0x0987563e543efb60, {2, 19, 0, 5, 0, 0, 2}},
       {2, 1263, 48, 36, 0x0d629cc3c64fd952, {3, 29, 0, 5, 0, 0, 3}},
       {3, 1397, 48, 47, 0xeb964f74b8f1c908, {3, 37, 0, 5, 0, 0, 2}}}}},
    {"AdaptiveImprovedDynamic_orec_wait", "Adaptive-Improved-Dynamic", "orec", "wait",
     {{{1, 1362, 48, 27, 0x2b9891deecf349de, {3, 25, 0, 0, 7, 7, 3}},
       {2, 1209, 48, 22, 0x9c70ef4e9e771ffa, {4, 19, 0, 1, 7, 7, 2}},
       {3, 1147, 48, 23, 0xe1643eca44169fd7, {4, 20, 0, 1, 6, 6, 1}}}}},
};

class WindowDecisionPin : public ::testing::TestWithParam<PinnedConfig> {};

TEST_P(WindowDecisionPin, RunsMatchRecordedDecisions) {
  const PinnedConfig& pin = GetParam();
  CheckConfig c;
  c.cm = pin.cm;
  c.backend = pin.backend;
  c.arbitration = pin.arbitration;
  c.threads = 3;
  c.ops_per_thread = 16;
  c.key_range = 16;
  c.window_n = 6;
  for (const PinnedRun& want : pin.runs) {
    const RunResult r = Checker(c).run_once(want.seed);
    SCOPED_TRACE("policy seed " + std::to_string(want.seed));
    EXPECT_FALSE(r.violation) << r.diagnosis;
    ASSERT_FALSE(r.over_budget);
    EXPECT_EQ(r.steps, want.steps);
    EXPECT_EQ(r.metrics.commits, want.commits);
    EXPECT_EQ(r.metrics.aborts, want.aborts);
    EXPECT_EQ(hash_decisions(r.schedule.decisions), want.decision_hash);
    expect_counts(r.metrics, want.counts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowFamily, WindowDecisionPin, ::testing::ValuesIn(kWindowPins),
    [](const ::testing::TestParamInfo<PinnedConfig>& info) { return info.param.name; });

}  // namespace
