// Deterministic concurrency checker (src/check/): oracle unit tests,
// executor determinism, seeded-bug detection, replay fidelity, shrinking,
// and schedule-file round-trips.
#include <gtest/gtest.h>

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

// Shrunk failing schedules of the six CI seeded bugs, recorded before the
// ablation-only STM paths were removed (tests/data/). They still carry the
// retired snapshot_ext/deferred_clock keys, which the parser ignores.
// Replaying must reproduce the recorded verdict, step count, commits, aborts
// and divergences exactly, so any change to an engine's schedule-point
// stream or to a CM decision shows up here.
struct RecordedRun {
  const char* name;
  const char* file;
  std::uint64_t steps;
  std::uint64_t commits;
  std::uint64_t aborts;
  std::uint64_t divergences;
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
}

INSTANTIATE_TEST_SUITE_P(
    SeededBugs, CheckerParity,
    ::testing::Values(RecordedRun{"BlindCommit", "blind-commit.sched", 928, 72, 2, 0},
                      RecordedRun{"SkipReaderAbort", "skip-reader-abort.sched", 957, 72, 0, 1},
                      RecordedRun{"SkipCasRecheck", "skip-cas-recheck.sched", 1463, 72, 1, 0},
                      RecordedRun{"StampNoPending", "stamp-no-pending.sched", 2758, 72, 103, 0},
                      RecordedRun{"SkipReadValidation", "skip-read-validation.sched", 857, 72,
                                  1, 1},
                      RecordedRun{"ParkLostWakeup", "park-lost-wakeup.sched", 911, 72, 1, 1}),
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

}  // namespace
