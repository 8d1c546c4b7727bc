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
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

struct Row {
  std::string benchmark;
  std::string backend;  // "dstm" | "orec"
  long threads = 0;
  double throughput_per_s = 0.0;
  double attempts_per_s = 0.0;
  double aborts_per_commit = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t orec_lock_acquires = 0;
  std::uint64_t orec_lock_waits = 0;
  std::uint64_t orec_write_backs = 0;
  bool valid = true;
};

void write_json(const std::string& path, const std::vector<Row>& rows, const std::string& cm,
                long key_range, long update_percent, long ms) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fig_backend: cannot write %s\n", path.c_str());
    return;
  }
  // host_cpus lets the CI gate decide whether the orec-vs-dstm throughput
  // clause is meaningful on this machine (see the header comment).
  out << "{\n  \"context\": {\"cm\": \"" << cm << "\", \"key_range\": " << key_range
      << ", \"update_percent\": " << update_percent << ", \"ms\": " << ms
      << ", \"host_cpus\": " << std::thread::hardware_concurrency() << "},\n"
      << "  \"backend\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"benchmark\": \"" << r.benchmark << "\", \"backend\": \"" << r.backend
        << "\", \"threads\": " << r.threads << ", \"throughput_per_s\": " << r.throughput_per_s
        << ", \"attempts_per_s\": " << r.attempts_per_s
        << ", \"aborts_per_commit\": " << r.aborts_per_commit << ", \"attempts\": " << r.attempts
        << ", \"commits\": " << r.commits << ", \"aborts\": " << r.aborts
        << ", \"orec_lock_acquires\": " << r.orec_lock_acquires
        << ", \"orec_lock_waits\": " << r.orec_lock_waits
        << ", \"orec_write_backs\": " << r.orec_write_backs
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "fig_backend: wrote %s\n", path.c_str());
}

}  // namespace

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
  std::vector<Row> rows;
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
    const harness::RunResult r = harness::run_workload(cm_name, cm::Params{}, *workload, run);

    Row row;
    row.benchmark = benchmark;
    row.backend = backend;
    row.threads = static_cast<long>(m);
    row.throughput_per_s = r.summary.throughput_per_s;
    row.aborts_per_commit = r.summary.aborts_per_commit;
    row.commits = r.totals.commits;
    row.aborts = r.totals.aborts;
    row.attempts = r.totals.commits + r.totals.aborts;
    if (r.elapsed_ns > 0) {
      row.attempts_per_s =
          static_cast<double>(row.attempts) / (static_cast<double>(r.elapsed_ns) / 1e9);
    }
    row.orec_lock_acquires = r.totals.orec_lock_acquires;
    row.orec_lock_waits = r.totals.orec_lock_waits;
    row.orec_write_backs = r.totals.orec_write_backs;
    row.valid = r.valid;
    if (!r.valid) {
      all_valid = false;
      std::fprintf(stderr, "VALIDATION FAILED [%s M=%lld %s]: %s\n", benchmark.c_str(),
                   static_cast<long long>(m), backend, r.why.c_str());
    }
    rows.push_back(row);

    table.add_row({benchmark, backend, std::to_string(m), Table::num(row.throughput_per_s, 0),
                   Table::num(row.attempts_per_s, 0), Table::num(row.aborts_per_commit, 3),
                   std::to_string(row.orec_lock_acquires), std::to_string(row.orec_lock_waits),
                   std::to_string(row.orec_write_backs)});
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
    write_json(json_path, rows, cm_name, key_range, update_percent, ms);
  }
  return all_valid ? 0 : 2;
}
