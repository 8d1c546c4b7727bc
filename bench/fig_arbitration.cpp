// Abort-vs-wait arbitration sweep (DESIGN.md §13): the same contended
// closed-loop cells run once per arbitration mode — abort (losers retry
// immediately, waits burn CPU in yield loops) and wait (requester-waits:
// losers park on the winner's descriptor until its commit/abort fires the
// unpark edge) — over a zipf-skewed skiplist at M ∈ {8,16,32}, reporting
// throughput plus the two costs parking exists to cut: involuntary context
// switches and total CPU time, both normalized per commit (getrusage deltas
// around each cell).
//
// --json=BENCH_arbitration.json writes a machine-readable report gated in
// CI by tools/check_bench.py --mode arbitration: per-row validation,
// commits > 0 and attempt conservation in BOTH modes, parks recorded only
// in wait mode; the headline performance clauses (wait cuts involuntary
// context switches AND CPU time per commit at M >= 16 without reducing
// attempts/s) only on hosts with >= 16 CPUs — on an oversubscribed host the
// scheduler preempts everything constantly, which drowns exactly the
// voluntary-vs-involuntary switch signal the clause measures.
#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "util/table.hpp"

namespace {

double rusage_cpu_ns(const rusage& ru) {
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("benchmarks", "comma-separated workloads for the sweep",
               std::string("skiplist"));
  cli.add_flag("threads", "M values (comma list)", std::string("8,16,32"));
  cli.add_flag("cm", "contention manager (same in both modes)", std::string("Polka"));
  cli.add_flag("key-range", "int-set key range (narrow = contended)", std::int64_t{256});
  cli.add_flag("zipf-alpha", "Zipf skew of the key draw (0 = uniform)", 1.2);
  cli.add_flag("update-percent", "percent of update transactions", std::int64_t{100});
  cli.add_flag("ms", "measured milliseconds per cell", std::int64_t{300});
  cli.add_flag("seed", "base RNG seed", std::int64_t{42});
  cli.add_flag("json", "write a machine-readable report here (empty = off)",
               std::string("BENCH_arbitration.json"));
  cli.add_flag("csv", "CSV table instead of aligned text", false);
  if (!cli.parse(argc, argv)) return 1;

  const std::string cm_name = cli.get_string("cm");
  const long key_range = cli.get_int("key-range");
  const double zipf_alpha = cli.get_double("zipf-alpha");
  const long update_percent = cli.get_int("update-percent");
  const long ms = cli.get_int("ms");
  const std::vector<std::string> benchmarks = cli.get_string_list("benchmarks");
  const std::vector<std::int64_t> sweep = cli.get_int_list("threads");

  std::cout << "== Arbitration sweep: abort (spin-retry) vs wait (requester-waits parking), "
            << cm_name << ", range " << key_range << ", zipf " << zipf_alpha << ", "
            << update_percent << "% updates ==\n\n";

  Table table({"benchmark", "mode", "M", "commits/s", "attempts/s", "aborts/commit",
               "nivcsw/commit", "cpu_us/commit", "parks", "park_ms", "spurious"});
  std::vector<harness::JsonObject> rows;
  bool all_valid = true;

  auto run_cell = [&](const std::string& benchmark, std::int64_t m, const char* mode) {
    std::fprintf(stderr, "[%s M=%lld] %s ...\n", benchmark.c_str(), static_cast<long long>(m),
                 mode);
    auto workload = harness::make_workload(benchmark, static_cast<std::uint32_t>(update_percent),
                                           key_range, zipf_alpha);
    harness::RunConfig run;
    run.threads = static_cast<std::uint32_t>(m);
    run.duration_ms = ms;
    run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    run.runtime.arbitration = stm::parse_arbitration(mode);

    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    const harness::Cell cell{harness::run_workload(cm_name, cm::Params{}, *workload, run)};
    rusage after{};
    getrusage(RUSAGE_SELF, &after);

    const stm::ThreadMetrics& t = cell.front().totals;
    if (!cell.front().valid) {
      all_valid = false;
      std::fprintf(stderr, "VALIDATION FAILED [%s M=%lld %s]: %s\n", benchmark.c_str(),
                   static_cast<long long>(m), mode, cell.front().why.c_str());
    }
    // Process-wide getrusage deltas across the cell. They include populate,
    // but both modes pay the identical populate, so the comparison stays fair.
    const long nivcsw = after.ru_nivcsw - before.ru_nivcsw;  // involuntary switches
    const long nvcsw = after.ru_nvcsw - before.ru_nvcsw;     // voluntary (parking raises these)
    const double cpu_ns = rusage_cpu_ns(after) - rusage_cpu_ns(before);  // user + system
    const double commits = static_cast<double>(t.commits);
    const double nivcsw_per_commit = t.commits > 0 ? nivcsw / commits : 0.0;
    const double cpu_us_per_commit = t.commits > 0 ? cpu_ns / 1e3 / commits : 0.0;
    const harness::JsonObject config =
        harness::JsonObject().add("benchmark", benchmark).add("mode", mode).add("threads", m);
    rows.push_back(harness::cell_row(config, cell)
                       .add("nivcsw", nivcsw)
                       .add("nvcsw", nvcsw)
                       .add("cpu_ns", cpu_ns)
                       .add("nivcsw_per_commit", nivcsw_per_commit)
                       .add("cpu_us_per_commit", cpu_us_per_commit));
    table.add_row({benchmark, mode, std::to_string(m),
                   harness::format_mean(cell, harness::kThroughput),
                   harness::format_mean(cell, harness::kAttemptsPerSecond),
                   harness::format_mean(cell, harness::kAbortsPerCommit),
                   Table::num(nivcsw_per_commit, 4), Table::num(cpu_us_per_commit, 1),
                   std::to_string(t.parks), Table::num(static_cast<double>(t.park_ns) / 1e6, 1),
                   std::to_string(t.spurious_wakeups)});
  };

  for (const std::string& benchmark : benchmarks) {
    for (const std::int64_t m : sweep) {
      run_cell(benchmark, m, "abort");
      run_cell(benchmark, m, "wait");
    }
  }

  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_text()) << "\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    harness::write_report(json_path,
                          harness::JsonObject()
                              .add("cm", cm_name)
                              .add("key_range", key_range)
                              .add("zipf_alpha", zipf_alpha)
                              .add("update_percent", update_percent)
                              .add("ms", ms),
                          rows);
  }
  return all_valid ? 0 : 2;
}
