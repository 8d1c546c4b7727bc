#include "harness/report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "trace/sink.hpp"
#include "util/table.hpp"

namespace wstm::harness {

namespace {

/// Appends `s` as a quoted JSON string.
void add_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

double attempts_per_s(const RunResult& r) {
  if (r.elapsed_ns <= 0) return 0.0;
  return static_cast<double>(r.totals.commits + r.totals.aborts) /
         (static_cast<double>(r.elapsed_ns) / 1e9);
}

}  // namespace

const Metric kThroughput{"throughput (commits/s)", 0,
                         [](const RunResult& r) { return r.summary.throughput_per_s; }};
const Metric kAttemptsPerSecond{"attempts per second", 0, attempts_per_s};
const Metric kAbortsPerCommit{"aborts per commit", 3,
                              [](const RunResult& r) { return r.summary.aborts_per_commit; }};
const Metric kElapsedMs{"elapsed (ms)", 1, [](const RunResult& r) {
                          return static_cast<double>(r.elapsed_ns) / 1e6;
                        }};
const Metric kWastedFraction{"wasted-work fraction", 4,
                             [](const RunResult& r) { return r.summary.wasted_fraction; }};
const Metric kResponseUs{"mean response (us)", 1,
                         [](const RunResult& r) { return r.summary.mean_response_us; }};
const Metric kRepeatConflictsPerCommit{
    "repeat conflicts per commit", 3,
    [](const RunResult& r) { return r.summary.repeat_conflicts_per_commit; }};
const Metric kP50Us{"p50 latency (us)", 1, [](const RunResult& r) { return r.p50_us; }};
const Metric kP95Us{"p95 latency (us)", 1, [](const RunResult& r) { return r.p95_us; }};
const Metric kP99Us{"p99 latency (us)", 1, [](const RunResult& r) { return r.p99_us; }};

double mean(const Cell& cell, const Metric& metric) {
  if (cell.empty()) return 0.0;
  double sum = 0.0;
  for (const RunResult& r : cell) sum += metric.get(r);
  return sum / static_cast<double>(cell.size());
}

std::string format_mean(const Cell& cell, const Metric& metric) {
  return Table::num(mean(cell, metric), metric.precision);
}

void register_matrix_flags(Cli& cli, const std::string& default_benchmarks,
                           const std::string& default_cms, const std::string& default_threads,
                           std::int64_t default_ms, unsigned default_runs) {
  cli.add_flag("benchmarks", "comma-separated: list,rbtree,skiplist,vacation",
               default_benchmarks);
  cli.add_flag("cms", "comma-separated contention manager names", default_cms);
  cli.add_flag("threads", "comma-separated thread counts (M)", default_threads);
  cli.add_flag("ms", "measured milliseconds per run (paper: 10000)", default_ms);
  cli.add_flag("runs", "repetitions per point (paper: 6)",
               static_cast<std::int64_t>(default_runs));
  cli.add_flag("fixed-commits", "when > 0, run until this many commits instead of --ms",
               static_cast<std::int64_t>(0));
  cli.add_flag("key-range", "int-set key range", static_cast<std::int64_t>(256));
  cli.add_flag("update-percent", "percent of update transactions (int-set benchmarks)",
               static_cast<std::int64_t>(100));
  cli.add_flag("window-n", "window length N (paper: 50)", static_cast<std::int64_t>(50));
  cli.add_flag("frame-factor", "frame length factor phi", 1.0);
  cli.add_flag("frame-log-exp", "exponent e in ln(MN)^e for the frame length", 1.0);
  cli.add_flag("initial-c", "initial contention estimate C_i (0 = variant default)", 0.0);
  cli.add_flag("ci-alpha", "CI smoothing alpha (Adaptive-Improved)", 0.75);
  cli.add_flag("seed", "base RNG seed", static_cast<std::int64_t>(42));
  cli.add_flag("backend", "execution engine: dstm (eager locator) | orec (lazy TL2-style)",
               std::string("dstm"));
  cli.add_flag("arbitration",
               "conflict arbitration: abort (losers retry immediately) | wait "
               "(requester-waits: losers park until the winner's status transition)",
               std::string("abort"));
  cli.add_flag("visible-reads", "visible (paper) vs invisible (validated) reads", true);
  cli.add_flag("validate", "check structure invariants after each run", true);
  cli.add_flag("csv", "emit CSV instead of aligned tables", false);
  cli.add_flag("trace",
               "write per-cell event traces; .json = Chrome trace_event, else binary "
               "(a -<benchmark>-<cm>-M<threads> suffix is inserted per cell)",
               std::string{});
  cli.add_flag("trace-events", "trace ring capacity per thread",
               static_cast<std::int64_t>(1 << 16));
  cli.add_flag("watchdog",
               "enable the liveness layer: starvation watchdog + escalation ladder "
               "(backoff -> priority boost -> irrevocable serial fallback)",
               false);
  cli.add_flag("deadline-ms", "hard per-transaction deadline with --watchdog (0 = none)",
               static_cast<std::int64_t>(10'000));
  cli.add_flag("chaos",
               "inject live faults (thread stalls, spurious aborts, delayed commits, "
               "EBR pressure); implies nothing about --watchdog, combine them to "
               "exercise the escalation ladder",
               false);
  cli.add_flag("chaos-intensity", "scale factor for --chaos fault probabilities", 1.0);
  cli.add_flag("zipf-alpha",
               "Zipfian key skew for the int-set benchmarks (0 = uniform; serve "
               "experiments conventionally use 0.99)",
               0.0);
  cli.add_flag("serve",
               "open-loop mode: Poisson arrivals through the serving front-end "
               "(src/serve/) instead of closed-loop self-execution; --threads "
               "becomes the worker count",
               false);
  cli.add_flag("arrival-rate", "total offered load with --serve, requests/second", 100'000.0);
  cli.add_flag("policy",
               "admission policy with --serve: round-robin | key-hash | window-frame",
               std::string("round-robin"));
  cli.add_flag("producers", "arrival-generator threads with --serve",
               static_cast<std::int64_t>(1));
  cli.add_flag("queues", "submit queues with --serve (0 = one per worker)",
               static_cast<std::int64_t>(0));
  cli.add_flag("queue-capacity", "bounded submit-queue capacity with --serve",
               static_cast<std::int64_t>(1024));
  cli.add_flag("serve-deadline-ms",
               "relative per-request deadline with --serve (0 = none); queued "
               "requests past it are shed",
               static_cast<std::int64_t>(0));
  cli.add_flag("steal", "idle serve workers steal from other queues", false);
  cli.add_flag("block",
               "full submit queue blocks the producer instead of shedding "
               "(turns --serve back into a coupled loop; off = reject)",
               false);
}

MatrixSpec matrix_from_cli(const Cli& cli) {
  MatrixSpec spec;
  spec.benchmarks = cli.get_string_list("benchmarks");
  spec.cms = cli.get_string_list("cms");
  spec.thread_counts = cli.get_int_list("threads");
  spec.base.duration_ms = cli.get_int("ms");
  spec.base.fixed_commits = static_cast<std::uint64_t>(cli.get_int("fixed-commits"));
  spec.base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  stm::RuntimeConfig& rt = spec.base.runtime;
  rt.backend = stm::parse_backend(cli.get_string("backend"));
  rt.arbitration = stm::parse_arbitration(cli.get_string("arbitration"));
  rt.visible_reads = cli.get_bool("visible-reads");
  spec.base.validate = cli.get_bool("validate");
  spec.repetitions = static_cast<unsigned>(cli.get_int("runs"));
  spec.key_range = cli.get_int("key-range");
  spec.update_percent = static_cast<std::uint32_t>(cli.get_int("update-percent"));
  spec.params.window_n = static_cast<std::uint32_t>(cli.get_int("window-n"));
  spec.params.frame_factor = cli.get_double("frame-factor");
  spec.params.frame_log_exponent = cli.get_double("frame-log-exp");
  spec.params.initial_c = cli.get_double("initial-c");
  spec.params.ci_alpha = cli.get_double("ci-alpha");
  spec.csv = cli.get_bool("csv");
  spec.base.trace_path = cli.get_string("trace");
  spec.base.trace_events_per_thread =
      static_cast<std::size_t>(cli.get_int("trace-events"));
  if (cli.get_bool("watchdog")) {
    rt.liveness.enabled = true;
    rt.liveness.deadline_ns = cli.get_int("deadline-ms") * 1'000'000;
  }
  if (cli.get_bool("chaos")) {
    rt.chaos = resilience::default_chaos(cli.get_double("chaos-intensity"));
  }
  spec.zipf_alpha = cli.get_double("zipf-alpha");
  spec.serve = cli.get_bool("serve");
  spec.serve_config.arrival_rate = cli.get_double("arrival-rate");
  spec.serve_config.policy = cli.get_string("policy");
  spec.serve_config.producers = static_cast<unsigned>(cli.get_int("producers"));
  spec.serve_config.n_queues = static_cast<unsigned>(cli.get_int("queues"));
  spec.serve_config.queue_capacity = static_cast<std::size_t>(cli.get_int("queue-capacity"));
  spec.serve_config.deadline_ms = cli.get_int("serve-deadline-ms");
  spec.serve_config.steal = cli.get_bool("steal");
  spec.serve_config.backpressure =
      cli.get_bool("block") ? serve::Backpressure::kBlock : serve::Backpressure::kReject;
  return spec;
}

bool run_matrix_and_print(const MatrixSpec& spec, const std::vector<Metric>& metrics,
                          std::ostream& out) {
  bool all_valid = true;
  std::vector<std::string> header{"CM \\ M"};
  for (const auto m : spec.thread_counts) header.push_back(std::to_string(m));
  for (const std::string& benchmark : spec.benchmarks) {
    // cells[c][t]: CM c at thread count t, run once for every metric.
    std::vector<std::vector<Cell>> cells;
    for (const std::string& cm_name : spec.cms) {
      std::vector<Cell>& row = cells.emplace_back();
      for (const auto m : spec.thread_counts) {
        RunConfig cfg = spec.base;
        cfg.threads = static_cast<std::uint32_t>(m);
        if (!spec.base.trace_path.empty()) {
          cfg.trace_path = trace::path_with_suffix(
              spec.base.trace_path,
              "-" + benchmark + "-" + cm_name + "-M" + std::to_string(m));
        }
        std::fprintf(stderr, "[%s] %s M=%lld ...\n", benchmark.c_str(), cm_name.c_str(),
                     static_cast<long long>(m));
        row.push_back(repeat(cfg, spec.repetitions, [&](const RunConfig& run) {
          auto workload =
              make_workload(benchmark, spec.update_percent, spec.key_range, spec.zipf_alpha);
          return spec.serve
                     ? run_open_loop(cm_name, spec.params, *workload, run, spec.serve_config)
                     : run_workload(cm_name, spec.params, *workload, run);
        }));
        std::string why;
        if (!cell_valid(row.back(), &why)) {
          all_valid = false;
          std::fprintf(stderr, "VALIDATION FAILED [%s/%s/M=%lld]: %s\n", benchmark.c_str(),
                       cm_name.c_str(), static_cast<long long>(m), why.c_str());
        }
      }
    }

    for (const Metric& metric : metrics) {
      Table table(header);
      for (std::size_t c = 0; c < spec.cms.size(); ++c) {
        std::vector<std::string> row{spec.cms[c]};
        for (const Cell& cell : cells[c]) row.push_back(format_mean(cell, metric));
        table.add_row(std::move(row));
      }
      out << "# " << benchmark << " — " << metric.label << "\n"
          << (spec.csv ? table.to_csv() : table.to_text()) << "\n";
    }
  }
  return all_valid;
}

JsonObject& JsonObject::raw(std::string_view key, std::string_view json) {
  if (!body_.empty()) body_ += ", ";
  add_json_string(body_, key);
  body_ += ": ";
  body_ += json;
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, std::string_view value) {
  std::string quoted;
  add_json_string(quoted, value);
  return raw(key, quoted);
}

JsonObject& JsonObject::add(std::string_view key, double value) {
  if (!std::isfinite(value)) return raw(key, "null");
  // Shortest round-trip digits, in plain notation unless that runs long.
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed);
  if (res.ec != std::errc{}) res = std::to_chars(buf, buf + sizeof(buf), value);
  return raw(key, std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
}

JsonObject cell_row(JsonObject config, const Cell& cell) {
  const stm::ThreadMetrics totals = sum_totals(cell);
  totals.visit([&](const char* name, auto value) { config.add(name, value); });
  config.add("attempts", totals.commits + totals.aborts)
      .add("attempts_per_s", mean(cell, kAttemptsPerSecond))
      .add("throughput_per_s", mean(cell, kThroughput))
      .add("aborts_per_commit", mean(cell, kAbortsPerCommit))
      .add("valid", cell_valid(cell));
  return config;
}

bool write_report(const std::string& path, JsonObject context,
                  const std::vector<JsonObject>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  // host_cpus lets a gate decide whether a clause that needs real
  // concurrency is meaningful on the host that produced the report.
  context.add("host_cpus", std::thread::hardware_concurrency());
  out << "{\n  \"context\": " << context.str() << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    " << rows[i].str() << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return static_cast<bool>(out);
}

}  // namespace wstm::harness
