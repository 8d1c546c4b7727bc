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
// attempts/s) only on hosts with >= 8 CPUs — on an oversubscribed host the
// scheduler preempts everything constantly, which drowns exactly the
// voluntary-vs-involuntary switch signal the clause measures.
#include <sys/resource.h>

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
  std::string mode;  // "abort" | "wait"
  long threads = 0;
  double throughput_per_s = 0.0;
  double attempts_per_s = 0.0;
  double aborts_per_commit = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  // Process-wide getrusage deltas across the cell (populate excluded is not
  // possible process-wide, but both modes pay the identical populate, so
  // the comparison stays fair).
  long nivcsw = 0;       // involuntary context switches
  long nvcsw = 0;        // voluntary context switches (parking raises these)
  double cpu_ns = 0.0;   // ru_utime + ru_stime
  std::uint64_t parks = 0;
  std::uint64_t park_ns = 0;
  std::uint64_t unparks = 0;
  std::uint64_t spurious_wakeups = 0;
  bool valid = true;

  double nivcsw_per_commit() const {
    return commits > 0 ? static_cast<double>(nivcsw) / static_cast<double>(commits) : 0.0;
  }
  double cpu_us_per_commit() const {
    return commits > 0 ? cpu_ns / 1e3 / static_cast<double>(commits) : 0.0;
  }
};

double rusage_cpu_ns(const rusage& ru) {
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

void write_json(const std::string& path, const std::vector<Row>& rows, const std::string& cm,
                long key_range, double zipf_alpha, long update_percent, long ms) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "fig_arbitration: cannot write %s\n", path.c_str());
    return;
  }
  // host_cpus lets the CI gate decide whether the ctx-switch/CPU-time
  // clauses are meaningful on this machine (see the header comment).
  out << "{\n  \"context\": {\"cm\": \"" << cm << "\", \"key_range\": " << key_range
      << ", \"zipf_alpha\": " << zipf_alpha << ", \"update_percent\": " << update_percent
      << ", \"ms\": " << ms << ", \"host_cpus\": " << std::thread::hardware_concurrency()
      << "},\n  \"arbitration\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"benchmark\": \"" << r.benchmark << "\", \"mode\": \"" << r.mode
        << "\", \"threads\": " << r.threads << ", \"throughput_per_s\": " << r.throughput_per_s
        << ", \"attempts_per_s\": " << r.attempts_per_s
        << ", \"aborts_per_commit\": " << r.aborts_per_commit << ", \"attempts\": " << r.attempts
        << ", \"commits\": " << r.commits << ", \"aborts\": " << r.aborts
        << ", \"nivcsw\": " << r.nivcsw << ", \"nvcsw\": " << r.nvcsw
        << ", \"cpu_ns\": " << r.cpu_ns << ", \"nivcsw_per_commit\": " << r.nivcsw_per_commit()
        << ", \"cpu_us_per_commit\": " << r.cpu_us_per_commit() << ", \"parks\": " << r.parks
        << ", \"park_ns\": " << r.park_ns << ", \"unparks\": " << r.unparks
        << ", \"spurious_wakeups\": " << r.spurious_wakeups
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "fig_arbitration: wrote %s\n", path.c_str());
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
  std::vector<Row> rows;
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
    const harness::RunResult r = harness::run_workload(cm_name, cm::Params{}, *workload, run);
    rusage after{};
    getrusage(RUSAGE_SELF, &after);

    Row row;
    row.benchmark = benchmark;
    row.mode = mode;
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
    row.nivcsw = after.ru_nivcsw - before.ru_nivcsw;
    row.nvcsw = after.ru_nvcsw - before.ru_nvcsw;
    row.cpu_ns = rusage_cpu_ns(after) - rusage_cpu_ns(before);
    row.parks = r.totals.parks;
    row.park_ns = r.totals.park_ns;
    row.unparks = r.totals.unparks;
    row.spurious_wakeups = r.totals.spurious_wakeups;
    row.valid = r.valid;
    if (!r.valid) {
      all_valid = false;
      std::fprintf(stderr, "VALIDATION FAILED [%s M=%lld %s]: %s\n", benchmark.c_str(),
                   static_cast<long long>(m), mode, r.why.c_str());
    }
    rows.push_back(row);

    table.add_row({benchmark, mode, std::to_string(m), Table::num(row.throughput_per_s, 0),
                   Table::num(row.attempts_per_s, 0), Table::num(row.aborts_per_commit, 3),
                   Table::num(row.nivcsw_per_commit(), 4),
                   Table::num(row.cpu_us_per_commit(), 1), std::to_string(row.parks),
                   Table::num(static_cast<double>(row.park_ns) / 1e6, 1),
                   std::to_string(row.spurious_wakeups)});
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
    write_json(json_path, rows, cm_name, key_range, zipf_alpha, update_percent, ms);
  }
  return all_valid ? 0 : 2;
}
