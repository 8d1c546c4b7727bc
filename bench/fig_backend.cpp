// Eager-vs-lazy backend sweep (DESIGN.md §12): the same write-heavy
// closed-loop cells run once per backend — dstm (eager locator acquisition)
// and orec (lazy TL2-style redo logging) — over intset + skiplist at
// M ∈ {2,8,32}, reporting throughput, abort rate and the orec commit-path
// counters (lock acquires, lock waits, write-backs).
//
// --json=BENCH_backend.json writes a machine-readable report gated in CI by
// tools/check_bench.py --mode backend: per-row validation, commits > 0 on
// BOTH backends, and attempt conservation (attempts == commits + aborts)
// always; the headline performance clause (orec ≥ 1.5× dstm attempts/s on
// the low-contention intset cell at M=8) only on hosts with ≥ 8 CPUs —
// an oversubscribed host serializes the "concurrent" committers, which
// erases exactly the acquisition-cost gap the clause measures.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("benchmarks", "comma-separated workloads for the sweep",
               std::string("list,skiplist"));
  cli.add_flag("threads", "M values (comma list)", std::string("2,8,32"));
  cli.add_flag("cm", "contention manager (same on both backends)", std::string("Polka"));
  cli.add_flag("key-range", "int-set key range (wide = low conflict)", std::int64_t{1024});
  cli.add_flag("update-percent", "percent of update transactions", std::int64_t{100});
  cli.add_flag("ms", "measured milliseconds per cell", std::int64_t{300});
  cli.add_flag("seed", "base RNG seed", std::int64_t{42});
  cli.add_flag("json", "write a machine-readable report here (empty = off)",
               std::string("BENCH_backend.json"));
  cli.add_flag("csv", "CSV table instead of aligned text", false);
  if (!cli.parse(argc, argv)) return 1;

  const std::string cm_name = cli.get_string("cm");
  const long key_range = cli.get_int("key-range");
  const long update_percent = cli.get_int("update-percent");
  const long ms = cli.get_int("ms");
  const std::vector<std::string> benchmarks = cli.get_string_list("benchmarks");
  const std::vector<std::int64_t> sweep = cli.get_int_list("threads");

  std::cout << "== Backend sweep: dstm (eager) vs orec (lazy), " << cm_name << ", range "
            << key_range << ", " << update_percent << "% updates ==\n\n";

  Table table({"benchmark", "backend", "M", "commits/s", "attempts/s", "aborts/commit",
               "orec_locks", "lock_waits", "write_backs"});
  std::vector<harness::JsonObject> rows;
  bool all_valid = true;

  auto run_cell = [&](const std::string& benchmark, std::int64_t m, const char* backend) {
    std::fprintf(stderr, "[%s M=%lld] %s ...\n", benchmark.c_str(), static_cast<long long>(m),
                 backend);
    auto workload = harness::make_workload(
        benchmark, static_cast<std::uint32_t>(update_percent), key_range, /*zipf_alpha=*/0.0);
    harness::RunConfig run;
    run.threads = static_cast<std::uint32_t>(m);
    run.duration_ms = ms;
    run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    run.runtime.backend = stm::parse_backend(backend);
    const harness::Cell cell{harness::run_workload(cm_name, cm::Params{}, *workload, run)};
    const stm::ThreadMetrics& t = cell.front().totals;
    if (!cell.front().valid) {
      all_valid = false;
      std::fprintf(stderr, "VALIDATION FAILED [%s M=%lld %s]: %s\n", benchmark.c_str(),
                   static_cast<long long>(m), backend, cell.front().why.c_str());
    }
    const harness::JsonObject config =
        harness::JsonObject().add("benchmark", benchmark).add("backend", backend).add("threads", m);
    rows.push_back(harness::cell_row(config, cell));
    table.add_row({benchmark, backend, std::to_string(m),
                   harness::format_mean(cell, harness::kThroughput),
                   harness::format_mean(cell, harness::kAttemptsPerSecond),
                   harness::format_mean(cell, harness::kAbortsPerCommit),
                   std::to_string(t.orec_lock_acquires), std::to_string(t.orec_lock_waits),
                   std::to_string(t.orec_write_backs)});
  };

  for (const std::string& benchmark : benchmarks) {
    for (const std::int64_t m : sweep) {
      run_cell(benchmark, m, "dstm");
      run_cell(benchmark, m, "orec");
    }
  }

  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_text()) << "\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    harness::write_report(json_path,
                          harness::JsonObject()
                              .add("cm", cm_name)
                              .add("key_range", key_range)
                              .add("update_percent", update_percent)
                              .add("ms", ms),
                          rows);
  }
  return all_valid ? 0 : 2;
}
