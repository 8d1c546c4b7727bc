// Trace subsystem tests: recorder ring semantics, binary/JSON sinks, the
// offline analyzer's attribution, and the ScheduleChecker as an oracle over
// both real concurrent runs and hand-built pathological traces.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "stm/runtime.hpp"
#include "trace/analyzer.hpp"
#include "trace/recorder.hpp"
#include "trace/schedule_checker.hpp"
#include "trace/sink.hpp"

namespace wstm::trace {
namespace {

Event mk(std::int64_t t, std::uint16_t thread, EventKind kind, std::uint64_t serial,
         std::uint8_t detail = 0, std::uint32_t enemy = kNoEnemy, std::uint64_t a0 = 0,
         std::uint64_t a1 = 0) {
  Event e;
  e.t_ns = t;
  e.thread = thread;
  e.kind = kind;
  e.serial = serial;
  e.detail = detail;
  e.enemy = enemy;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

// ---- recorder -------------------------------------------------------------

TEST(Recorder, WraparoundKeepsNewestAndCountsDrops) {
  Recorder::Options opts;
  opts.threads = 1;
  opts.capacity_per_thread = 8;
  Recorder rec(opts);
  ASSERT_EQ(rec.capacity_per_thread(), 8u);

  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.record(0, EventKind::kBegin, i);
  }
  EXPECT_EQ(rec.recorded(0), 20u);
  EXPECT_EQ(rec.dropped(0), 12u);

  const std::vector<Event> events = rec.drain_sorted();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].serial, 12 + i) << "drop-oldest must keep the newest events";
  }

  rec.clear();
  EXPECT_EQ(rec.recorded(0), 0u);
  EXPECT_TRUE(rec.drain_sorted().empty());
}

TEST(Recorder, OutOfRangeSlotIsIgnored) {
  Recorder::Options opts;
  opts.threads = 2;
  opts.capacity_per_thread = 4;
  Recorder rec(opts);
  rec.record(2, EventKind::kBegin, 1);
  rec.record(63, EventKind::kBegin, 1);
  EXPECT_EQ(rec.recorded(2), 0u);
  EXPECT_TRUE(rec.drain_sorted().empty());
}

// Every runtime slot has a ring, and the offline checker and the JSON sink
// keep per-thread state for every slot too.
TEST(Recorder, EverySlotIsRecordedCheckedAndExported) {
  Recorder::Options opts;
  opts.threads = stm::kMaxThreads + 1;  // clamped to the runtime's bound
  opts.capacity_per_thread = 4;
  Recorder rec(opts);
  EXPECT_EQ(rec.threads(), stm::kMaxThreads);
  const unsigned last = stm::kMaxThreads - 1;
  rec.record(last, EventKind::kBegin, 1);
  rec.record(last, EventKind::kCommit, 1);
  EXPECT_EQ(rec.recorded(last), 2u);

  const std::vector<Event> events = rec.drain_sorted();
  const CheckResult r = ScheduleChecker::check(events);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.events_checked, 2u);
  std::stringstream out;
  write_chrome_json(events, out);
  EXPECT_NE(out.str().find("\"ph\":\"X\""), std::string::npos) << "expected a duration event";
}

TEST(Recorder, CapacityRoundsUpToPowerOfTwo) {
  Recorder::Options opts;
  opts.threads = 1;
  opts.capacity_per_thread = 5;
  Recorder rec(opts);
  EXPECT_EQ(rec.capacity_per_thread(), 8u);
  EXPECT_THROW(Recorder(Recorder::Options{0, 8}), std::invalid_argument);
}

// ---- binary sink ----------------------------------------------------------

TEST(Sink, BinaryRoundTripPreservesEvents) {
  std::vector<Event> events{
      mk(100, 0, EventKind::kBegin, 1),
      mk(150, 1, EventKind::kConflict, 3, pack_conflict(stm::ConflictKind::kWriteWrite,
                                                        stm::Resolution::kAbortEnemy),
         0, 1),
      mk(200, 0, EventKind::kCommit, 1, 0, kNoEnemy, 100, 100),
      mk(250, 1, EventKind::kCiUpdate, 3, 0, kNoEnemy, pack_double(2.5), pack_double(0.75)),
  };
  std::stringstream buf;
  write_binary(events, buf);
  const std::vector<Event> back = read_binary(buf);
  ASSERT_EQ(back.size(), events.size());
  EXPECT_EQ(0, std::memcmp(back.data(), events.data(), events.size() * sizeof(Event)));
  EXPECT_DOUBLE_EQ(unpack_double(back[3].a0), 2.5);
}

TEST(Sink, BinaryRejectsGarbageAndTruncation) {
  {
    std::stringstream buf("definitely not a trace file");
    EXPECT_THROW(read_binary(buf), std::runtime_error);
  }
  {
    std::stringstream buf;
    write_binary({mk(1, 0, EventKind::kBegin, 1), mk(2, 0, EventKind::kCommit, 1)}, buf);
    std::string bytes = buf.str();
    bytes.resize(bytes.size() - 10);  // cut into the event payload
    std::stringstream cut(bytes);
    EXPECT_THROW(read_binary(cut), std::runtime_error);
  }
}

TEST(Sink, PathSuffixInsertsBeforeExtension) {
  EXPECT_EQ(path_with_suffix("out.json", "-list"), "out-list.json");
  EXPECT_EQ(path_with_suffix("dir.d/out.bin", "-r2"), "dir.d/out-r2.bin");
  EXPECT_EQ(path_with_suffix("trace", "-x"), "trace-x");
  EXPECT_EQ(path_with_suffix("some.dir/trace", "-x"), "some.dir/trace-x");
}

// ---- Chrome JSON sink -----------------------------------------------------

// Minimal JSON parser: enough to assert the sink's output is syntactically
// valid and to walk its structure. Throws std::runtime_error on bad input.
class MiniJson {
 public:
  static void validate(const std::string& text) {
    MiniJson p(text);
    p.skip_ws();
    p.value();
    p.skip_ws();
    if (p.pos_ != text.size()) throw std::runtime_error("trailing bytes after JSON value");
  }

 private:
  explicit MiniJson(const std::string& s) : s_(s) {}

  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string(what) + " at offset " + std::to_string(pos_));
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) pos_++;
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    pos_++;
  }
  void value() {
    switch (peek()) {
      case '{': object(); break;
      case '[': array(); break;
      case '"': string(); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: number(); break;
    }
  }
  void object() {
    expect('{');
    skip_ws();
    if (peek() == '}') { pos_++; return; }
    for (;;) {
      skip_ws();
      string();
      skip_ws();
      expect(':');
      skip_ws();
      value();
      skip_ws();
      if (peek() == ',') { pos_++; continue; }
      expect('}');
      return;
    }
  }
  void array() {
    expect('[');
    skip_ws();
    if (peek() == ']') { pos_++; return; }
    for (;;) {
      skip_ws();
      value();
      skip_ws();
      if (peek() == ',') { pos_++; continue; }
      expect(']');
      return;
    }
  }
  void string() {
    expect('"');
    while (peek() != '"') {
      if (s_[pos_] == '\\') pos_++;
      pos_++;
    }
    pos_++;
  }
  void literal(const char* lit) {
    for (const char* p = lit; *p; ++p) expect(*p);
  }
  void number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      pos_++;
    }
    if (pos_ == start) fail("expected a number");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Sink, ChromeJsonIsWellFormed) {
  std::vector<Event> events{
      mk(1000, 0, EventKind::kBegin, 1),
      mk(1100, 1, EventKind::kBegin, 4, 1),
      mk(1200, 0, EventKind::kConflict, 1, pack_conflict(stm::ConflictKind::kWriteWrite,
                                                         stm::Resolution::kAbortEnemy),
         1, 4),
      mk(1300, 1, EventKind::kAbort, 4, 0, kNoEnemy, 200),
      mk(1400, 0, EventKind::kWindowCommit, 1, 0, kNoEnemy, 3, 3),
      mk(1500, 0, EventKind::kCommit, 1, 0, kNoEnemy, 500, 500),
      mk(1600, 0, EventKind::kCiUpdate, 1, 1, kNoEnemy, pack_double(2.0), pack_double(0.5)),
      mk(1700, 0, EventKind::kBegin, 2),  // left open: run stopped mid-attempt
  };
  std::stringstream out;
  write_chrome_json(events, out);
  const std::string text = out.str();

  ASSERT_NO_THROW(MiniJson::validate(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos) << "expected duration events";
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos) << "expected a counter event";
  EXPECT_NE(text.find("tx(abort)"), std::string::npos);
}

TEST(Sink, WriteTraceFilePicksFormatByExtension) {
  const std::vector<Event> events{mk(10, 0, EventKind::kBegin, 1),
                                  mk(20, 0, EventKind::kCommit, 1)};
  const std::string dir = ::testing::TempDir();
  const std::string bin_path = dir + "/wstm_trace_test.bin";
  const std::string json_path = dir + "/wstm_trace_test.json";

  ASSERT_TRUE(write_trace_file(bin_path, events));
  std::ifstream bin(bin_path, std::ios::binary);
  EXPECT_EQ(read_binary(bin).size(), 2u);

  ASSERT_TRUE(write_trace_file(json_path, events));
  std::ifstream json(json_path);
  std::stringstream text;
  text << json.rdbuf();
  ASSERT_NO_THROW(MiniJson::validate(text.str()));
}

// ---- analyzer -------------------------------------------------------------

TEST(Analyzer, AttributesKillersAndChainsAcrossThreads) {
  // Thread 2 kills thread 0's attempt; thread 0 (before dying) kills thread
  // 1's. Expected chain depths: t0 attempt = 1, t1 attempt = 2.
  constexpr auto kKill =
      pack_conflict(stm::ConflictKind::kWriteWrite, stm::Resolution::kAbortEnemy);
  std::vector<Event> events{
      mk(100, 0, EventKind::kBegin, 5),
      mk(105, 2, EventKind::kBegin, 1),
      mk(110, 1, EventKind::kBegin, 7),
      mk(120, 0, EventKind::kConflict, 5, kKill, 1, 7),
      mk(130, 1, EventKind::kAbort, 7, 0, kNoEnemy, 20),
      mk(135, 2, EventKind::kConflict, 1, kKill, 0, 5),
      mk(140, 0, EventKind::kAbort, 5, 0, kNoEnemy, 40),
      mk(145, 2, EventKind::kCommit, 1, 0, kNoEnemy, 40, 40),
      mk(150, 1, EventKind::kBegin, 8, 1),
      mk(160, 1, EventKind::kCommit, 8, 0, kNoEnemy, 10, 50),
  };
  Analyzer an(events);

  ASSERT_EQ(an.attempts().size(), 4u);
  const Attempt* t0 = nullptr;
  const Attempt* t1 = nullptr;
  for (const Attempt& a : an.attempts()) {
    if (a.thread == 0 && a.serial == 5) t0 = &a;
    if (a.thread == 1 && a.serial == 7) t1 = &a;
  }
  ASSERT_NE(t0, nullptr);
  ASSERT_NE(t1, nullptr);

  EXPECT_EQ(t1->killer_slot, 0u);
  EXPECT_EQ(t1->killer_serial, 5u);
  EXPECT_EQ(t1->chain_depth, 2u) << "killer was itself killed";
  EXPECT_EQ(t0->killer_slot, 2u);
  EXPECT_EQ(t0->chain_depth, 1u);

  const auto wasted = an.wasted_by_killer();
  EXPECT_EQ(wasted.at(0), 20);  // t1's 20ns attempt, charged to thread 0
  EXPECT_EQ(wasted.at(2), 40);  // t0's 40ns attempt, charged to thread 2
  EXPECT_EQ(an.threads().at(0).caused_wasted_ns, 20);
  EXPECT_EQ(an.threads().at(2).caused_wasted_ns, 40);

  const auto hist = an.chain_depth_histogram();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);

  EXPECT_FALSE(an.summary().empty());
}

TEST(Analyzer, FrameOccupancyCountsHighEntriesAndBadCommits) {
  std::vector<Event> events{
      mk(100, 0, EventKind::kBegin, 1),
      mk(110, 0, EventKind::kPrioritySwitch, 1, 0, kNoEnemy, 3, 3),
      mk(115, 1, EventKind::kBegin, 1),
      mk(120, 1, EventKind::kPrioritySwitch, 1, 0, kNoEnemy, 3, 3),
      mk(130, 0, EventKind::kWindowCommit, 1, 0, kNoEnemy, 3, 3),
      mk(135, 0, EventKind::kCommit, 1, 0, kNoEnemy, 30, 30),
      mk(140, 1, EventKind::kWindowCommit, 1, 1, kNoEnemy, 3, 4),  // bad event
      mk(145, 1, EventKind::kCommit, 1, 0, kNoEnemy, 30, 30),
  };
  Analyzer an(events);
  ASSERT_EQ(an.frames().count(3), 1u);
  EXPECT_EQ(an.frames().at(3).high_entries, 2u);
  EXPECT_EQ(an.frames().at(3).distinct_threads, 2u);
  EXPECT_EQ(an.frames().at(3).commits, 1u);
  EXPECT_EQ(an.frames().at(4).commits, 1u);
  EXPECT_EQ(an.frames().at(4).bad_commits, 1u);
  EXPECT_EQ(an.high_high_frames(), 1u);
}

// ---- schedule checker -----------------------------------------------------

TEST(ScheduleChecker, RejectsLowBeatingHigh) {
  std::vector<Event> events{
      mk(100, 0, EventKind::kBegin, 1),
      mk(110, 0, EventKind::kResolve, 1, static_cast<std::uint8_t>(stm::Resolution::kAbortEnemy),
         1, 9, pack_resolve_prios(/*my_pc=*/1, /*my_p2=*/3, /*en_pc=*/0, /*en_p2=*/2)),
      mk(120, 0, EventKind::kCommit, 1),
  };
  const CheckResult r = ScheduleChecker::check(events);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations[0].find("LOW priority won against HIGH"), std::string::npos)
      << r.to_string();
}

TEST(ScheduleChecker, RejectsEarlyHighSwitchAndBackwardFrames) {
  std::vector<Event> events{
      mk(100, 0, EventKind::kBegin, 1),
      // Switched HIGH while the observed frame (3) was before the assigned
      // frame (5).
      mk(110, 0, EventKind::kPrioritySwitch, 1, 0, kNoEnemy, 5, 3),
      mk(120, 0, EventKind::kFrameAdvance, 1, 0, kNoEnemy, 2, 3),  // frame went backwards
      mk(130, 0, EventKind::kCommit, 1),
  };
  const CheckResult r = ScheduleChecker::check(events);
  EXPECT_EQ(r.total_violations, 2u) << r.to_string();
}

TEST(ScheduleChecker, RejectsBrokenLifecycle) {
  std::vector<Event> events{
      mk(100, 0, EventKind::kBegin, 2),
      mk(110, 0, EventKind::kBegin, 1),   // nested begin + serial going backwards
      mk(120, 0, EventKind::kCommit, 1),
      mk(130, 0, EventKind::kCommit, 1),  // close without an open attempt
  };
  const CheckResult r = ScheduleChecker::check(events);
  EXPECT_EQ(r.total_violations, 3u) << r.to_string();
}

TEST(ScheduleChecker, AcceptsMismatchedBadEventFlagOnlyWhenConsistent) {
  std::vector<Event> events{
      mk(100, 0, EventKind::kBegin, 1),
      mk(110, 0, EventKind::kWindowCommit, 1, /*bad=*/0, kNoEnemy, 3, 4),  // flag should be 1
      mk(120, 0, EventKind::kCommit, 1),
  };
  EXPECT_FALSE(ScheduleChecker::check(events).ok());
  events[1].detail = 1;
  EXPECT_TRUE(ScheduleChecker::check(events).ok());
}

// ---- live concurrent runs -------------------------------------------------

/// Runs the shared-counter workload under `cm_name` with a recorder attached
/// and returns the drained events.
std::vector<Event> record_counter_run(const std::string& cm_name, unsigned threads,
                                      int increments, Recorder& rec) {
  struct Cell {
    long value = 0;
  };
  cm::Params params;
  params.threads = threads;
  params.window_n = 8;
  stm::RuntimeConfig cfg;
  cfg.recorder = &rec;
  stm::Runtime rt(cm::make_manager(cm_name, params), cfg);
  stm::TObject<Cell> counter(Cell{0});

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      stm::ThreadCtx& tc = rt.attach_thread();
      for (int i = 0; i < increments; ++i) {
        rt.atomically(tc, [&](stm::Tx& tx) { counter.open_write(tx)->value += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.peek()->value, static_cast<long>(threads) * increments);
  return rec.drain_sorted();
}

TEST(TraceLive, ConcurrentRecordingMatchesMetricsAndLifecycle) {
  constexpr unsigned kThreads = 4;
  constexpr int kIncrements = 250;
  Recorder rec;
  const std::vector<Event> events =
      record_counter_run("Online", kThreads, kIncrements, rec);
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(rec.dropped(t), 0u) << "default capacity must hold this run";
  }

  std::uint64_t begins = 0, commits = 0, aborts = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kBegin) begins++;
    if (e.kind == EventKind::kCommit) commits++;
    if (e.kind == EventKind::kAbort) aborts++;
  }
  EXPECT_EQ(commits, static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(begins, commits + aborts) << "every attempt must open and close";

  const CheckResult r = ScheduleChecker::check(events);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.events_checked, events.size());

  // The analyzer must agree with the raw counts.
  Analyzer an(events);
  std::uint64_t an_commits = 0;
  for (const auto& [slot, ts] : an.threads()) an_commits += ts.commits;
  EXPECT_EQ(an_commits, commits);
}

TEST(TraceLive, ScheduleCheckerPassesAllWindowVariants) {
  for (const char* cm : {"Online", "Online-Dynamic", "Adaptive", "Adaptive-Improved",
                         "Adaptive-Improved-Dynamic"}) {
    Recorder rec;
    const std::vector<Event> events = record_counter_run(cm, 4, 150, rec);
    const CheckResult r = ScheduleChecker::check(events);
    EXPECT_TRUE(r.ok()) << cm << ": " << r.to_string();
    EXPECT_GT(r.resolves_checked + 1, 0u);
  }
}

TEST(TraceLive, HarnessWritesTraceFilesThroughRunConfig) {
  auto w = harness::make_workload("list", 100, 64);
  harness::RunConfig cfg;
  cfg.threads = 2;
  cfg.duration_ms = 80;
  cfg.trace_path = ::testing::TempDir() + "/wstm_harness_trace.bin";
  const harness::RunResult r = harness::run_workload("Adaptive", cm::Params{}, *w, cfg);
  EXPECT_TRUE(r.valid) << r.why;

  std::ifstream in(cfg.trace_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::vector<Event> events = read_binary(in);
  EXPECT_FALSE(events.empty());
  const CheckResult check = ScheduleChecker::check(events);
  EXPECT_TRUE(check.ok()) << check.to_string();
}

}  // namespace
}  // namespace wstm::trace
