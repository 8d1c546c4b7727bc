// Harness tests: workload construction and validation, the timed and
// fixed-commit runners, repetition cells, and the tables and JSON rows read
// from run records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "mini_json.hpp"

namespace wstm::harness {
namespace {

TEST(Workloads, FactoryBuildsEveryBenchmark) {
  for (const char* name : {"list", "rbtree", "skiplist", "vacation"}) {
    auto w = make_workload(name);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), name);
  }
  EXPECT_THROW(make_workload("queue"), std::invalid_argument);
}

TEST(Workloads, IntSetPopulatesHalfTheRange) {
  IntSetConfig cfg;
  cfg.kind = "list";
  cfg.key_range = 64;
  IntSetWorkload w(cfg);
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params));
  stm::ThreadCtx& tc = rt.attach_thread();
  w.populate(rt, tc);
  EXPECT_EQ(w.set().quiescent_elements().size(), 32u);
  std::string why;
  EXPECT_TRUE(w.validate(&why)) << why;
}

TEST(Workloads, ValidationCatchesSizeDrift) {
  IntSetConfig cfg;
  cfg.kind = "list";
  cfg.key_range = 16;
  IntSetWorkload w(cfg);
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params));
  stm::ThreadCtx& tc = rt.attach_thread();
  w.populate(rt, tc);
  // Run one op the workload doesn't know about: the book-keeping no longer
  // matches the structure, and validate must notice.
  auto* set = const_cast<structs::TxIntSet*>(&w.set());
  rt.atomically(tc, [&](stm::Tx& tx) { set->insert(tx, 1); });
  std::string why;
  EXPECT_FALSE(w.validate(&why));
  EXPECT_FALSE(why.empty());
}

TEST(Runner, TimedRunProducesCommitsAndValidates) {
  auto w = make_workload("list", 100, 64);
  RunConfig cfg;
  cfg.threads = 2;
  cfg.duration_ms = 120;
  const RunResult r = run_workload("Polka", cm::Params{}, *w, cfg);
  EXPECT_TRUE(r.valid) << r.why;
  EXPECT_GT(r.totals.commits, 0u);
  EXPECT_GT(r.summary.throughput_per_s, 0.0);
  EXPECT_GE(r.elapsed_ns, 100 * 1'000'000);
}

TEST(Runner, FixedCommitRunStopsAtTarget) {
  auto w = make_workload("rbtree", 100, 64);
  RunConfig cfg;
  cfg.threads = 2;
  cfg.fixed_commits = 500;
  const RunResult r = run_workload("Greedy", cm::Params{}, *w, cfg);
  EXPECT_TRUE(r.valid) << r.why;
  EXPECT_GE(r.totals.commits, 500u);
  // Threads stop promptly: no more than target + threads extra.
  EXPECT_LE(r.totals.commits, 500u + cfg.threads);
}

TEST(Runner, WindowManagersRunThroughTheHarness) {
  auto w = make_workload("skiplist", 100, 64);
  RunConfig cfg;
  cfg.threads = 2;
  cfg.duration_ms = 100;
  const RunResult r = run_workload("Adaptive-Improved-Dynamic", cm::Params{}, *w, cfg);
  EXPECT_TRUE(r.valid) << r.why;
  EXPECT_GT(r.totals.commits, 0u);
}

TEST(Runner, RepeatedRunsAggregate) {
  RunConfig cfg;
  cfg.threads = 2;
  cfg.duration_ms = 60;
  const Cell cell = repeat(cfg, 2, [](const RunConfig& run) {
    auto w = make_workload("list", 100, 64);
    return run_workload("Polka", cm::Params{}, *w, run);
  });
  ASSERT_EQ(cell.size(), 2u);
  std::string why;
  EXPECT_TRUE(cell_valid(cell, &why)) << why;
  EXPECT_GT(mean(cell, kThroughput), 0.0);
  EXPECT_DOUBLE_EQ(mean(cell, kThroughput),
                   (cell[0].summary.throughput_per_s + cell[1].summary.throughput_per_s) / 2);
  EXPECT_EQ(sum_totals(cell).commits, cell[0].totals.commits + cell[1].totals.commits);
}

TEST(Report, MetricNamesAreDistinct) {
  EXPECT_STRNE(kThroughput.label, kAbortsPerCommit.label);
  EXPECT_STRNE(kElapsedMs.label, kWastedFraction.label);
}

// Records every RunResult a metric getter was asked about, per metric.
std::vector<const RunResult*> g_seen[3];

TEST(Report, MatrixRunsEachCellOnceForEveryMetric) {
  MatrixSpec spec;
  spec.benchmarks = {"list"};
  spec.cms = {"Polka"};
  spec.thread_counts = {1};
  spec.base.duration_ms = 30;
  for (auto& seen : g_seen) seen.clear();
  const std::vector<Metric> metrics{
      {"first", 0, [](const RunResult& r) { return g_seen[0].push_back(&r), 1.0; }},
      {"second", 0, [](const RunResult& r) { return g_seen[1].push_back(&r), 2.0; }},
      {"third", 0, [](const RunResult& r) { return g_seen[2].push_back(&r), 3.0; }},
  };
  std::ostringstream out;
  testing::internal::CaptureStderr();
  EXPECT_TRUE(run_matrix_and_print(spec, metrics, out));
  const std::string progress = testing::internal::GetCapturedStderr();

  // One progress line: the cell ran once, not once per metric.
  std::size_t runs = 0;
  for (std::size_t at = progress.find("[list] Polka M=1"); at != std::string::npos;
       at = progress.find("[list] Polka M=1", at + 1)) {
    ++runs;
  }
  EXPECT_EQ(runs, 1u) << progress;
  // Every metric read the same single record.
  ASSERT_EQ(g_seen[0].size(), 1u);
  EXPECT_EQ(g_seen[1], g_seen[0]);
  EXPECT_EQ(g_seen[2], g_seen[0]);
  const std::string text = out.str();
  EXPECT_NE(text.find("# list — first"), std::string::npos) << text;
  EXPECT_NE(text.find("# list — second"), std::string::npos) << text;
  EXPECT_NE(text.find("# list — third"), std::string::npos) << text;
}

TEST(Report, RowCarriesEveryCounterOnce) {
  RunResult r;
  r.elapsed_ns = 1'000'000'000;
  int next = 1;
  r.totals.visit([&](const char*, auto& field) { field = next++; });
  r.summary = stm::summarize(r.totals, r.elapsed_ns);
  const std::string path = testing::TempDir() + "report_row.json";
  ASSERT_TRUE(write_report(
      path, JsonObject().add("cm", "Polka"),
      {cell_row(JsonObject().add("benchmark", "quote\"and\\slash").add("threads", 4), {r})}));

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<std::string> keys;
  ASSERT_NO_THROW(keys = MiniJson::keys(text.str())) << text.str();
  const auto count = [&](const std::string& key) {
    return std::count(keys.begin(), keys.end(), key);
  };
  std::size_t counters = 0;
  r.totals.visit([&](const char* name, auto) {
    ++counters;
    EXPECT_EQ(count(name), 1) << name;
  });
  EXPECT_EQ(counters, stm::ThreadMetrics::kCounters);
  for (const char* key : {"context", "rows", "host_cpus", "cm", "benchmark", "threads",
                          "attempts", "attempts_per_s", "throughput_per_s",
                          "aborts_per_commit", "valid"}) {
    EXPECT_EQ(count(key), 1) << key;
  }
  std::remove(path.c_str());
}

TEST(Report, CliRoundTripBuildsSpec) {
  Cli cli;
  register_matrix_flags(cli, "list", "Polka,Greedy", "1,2", 100, 1);
  const char* argv[] = {"prog", "--threads=1", "--ms=50", "--update-percent=60",
                        "--csv"};
  ASSERT_TRUE(cli.parse(5, argv));
  const MatrixSpec spec = matrix_from_cli(cli);
  EXPECT_EQ(spec.benchmarks, (std::vector<std::string>{"list"}));
  EXPECT_EQ(spec.cms, (std::vector<std::string>{"Polka", "Greedy"}));
  EXPECT_EQ(spec.thread_counts, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(spec.base.duration_ms, 50);
  EXPECT_EQ(spec.update_percent, 60u);
  EXPECT_TRUE(spec.csv);
}

}  // namespace
}  // namespace wstm::harness
