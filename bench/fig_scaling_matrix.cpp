// Scaling matrix for the process-wide hot-spot work (DESIGN.md §11): one
// closed-loop write-heavy run per M ∈ {2,4,8,16,32,64} on invisible reads,
// so the deferred commit clock is actually exercised. Each row reports
// throughput and the shared-line contention counters (clock_bumps,
// deferred_stamps, snapshot_interference, reader_stripe_retries,
// ebr_shard_syncs).
//
// --json=BENCH_scaling.json writes a machine-readable report gated in CI by
// tools/check_bench.py --mode scaling: per-row validation + attempt
// conservation always; the shared-line clause (bumps ≤ stamps/5 at M=8)
// only on hosts with enough CPUs to make the contention real.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("threads", "M values for the sweep (comma list)", std::string("2,4,8,16,32,64"));
  cli.add_flag("cm", "contention manager", std::string("Polka"));
  cli.add_flag("benchmark", "workload (BM_IntsetWriteHeavy-class: write-heavy intset)",
               std::string("hashtable"));
  cli.add_flag("key-range", "int-set key range (wide = low conflict)", std::int64_t{1024});
  cli.add_flag("update-percent", "percent of update transactions", std::int64_t{100});
  cli.add_flag("ms", "measured milliseconds per cell", std::int64_t{300});
  cli.add_flag("seed", "base RNG seed", std::int64_t{42});
  cli.add_flag("json", "write a machine-readable report here (empty = off)",
               std::string("BENCH_scaling.json"));
  cli.add_flag("csv", "CSV table instead of aligned text", false);
  if (!cli.parse(argc, argv)) return 1;

  const std::string cm_name = cli.get_string("cm");
  const std::string benchmark = cli.get_string("benchmark");
  const long key_range = cli.get_int("key-range");
  const long update_percent = cli.get_int("update-percent");
  const long ms = cli.get_int("ms");
  const std::vector<std::int64_t> sweep = cli.get_int_list("threads");

  std::cout << "== Scaling matrix: " << benchmark << " range " << key_range << ", "
            << update_percent << "% updates, " << cm_name << ", invisible reads ==\n\n";

  Table table({"M", "commits/s", "aborts/commit", "clock_bumps", "deferred_stamps",
               "stripe_retries", "ebr_syncs"});
  std::vector<harness::JsonObject> rows;
  bool all_valid = true;

  for (const std::int64_t m : sweep) {
    std::fprintf(stderr, "[M=%lld] ...\n", static_cast<long long>(m));
    auto workload = harness::make_workload(
        benchmark, static_cast<std::uint32_t>(update_percent), key_range, /*zipf_alpha=*/0.0);
    harness::RunConfig run;
    run.threads = static_cast<std::uint32_t>(m);
    run.duration_ms = ms;
    run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    run.runtime.visible_reads = false;
    const harness::Cell cell{harness::run_workload(cm_name, cm::Params{}, *workload, run)};
    const stm::ThreadMetrics& t = cell.front().totals;
    if (!cell.front().valid) {
      all_valid = false;
      std::fprintf(stderr, "VALIDATION FAILED [M=%lld]: %s\n", static_cast<long long>(m),
                   cell.front().why.c_str());
    }
    rows.push_back(
        harness::cell_row(harness::JsonObject().add("threads", m).add("cm", cm_name), cell));
    table.add_row({std::to_string(m), harness::format_mean(cell, harness::kThroughput),
                   harness::format_mean(cell, harness::kAbortsPerCommit),
                   std::to_string(t.clock_bumps), std::to_string(t.deferred_stamps),
                   std::to_string(t.reader_stripe_retries), std::to_string(t.ebr_shard_syncs)});
  }

  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_text()) << "\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    harness::write_report(json_path,
                          harness::JsonObject()
                              .add("benchmark", benchmark)
                              .add("key_range", key_range)
                              .add("update_percent", update_percent)
                              .add("ms", ms),
                          rows);
  }
  return all_valid ? 0 : 2;
}
