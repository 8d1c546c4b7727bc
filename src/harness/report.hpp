// Views of run records (harness/runner.hpp): the metric table every bench
// prints from, the shared experiment-matrix driver, and the one JSON writer
// of the bench reports.
//
// The figure-reproduction benches are all "sweep benchmarks × contention
// managers × thread counts, print one table per benchmark and metric" with
// different metrics and CM sets, so the sweep and the CLI plumbing live
// here.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cm/registry.hpp"
#include "harness/open_loop.hpp"
#include "harness/runner.hpp"
#include "util/cli.hpp"

namespace wstm::harness {

/// A per-cell table quantity: the mean over the cell's runs of `get`,
/// printed with `precision` decimals.
struct Metric {
  const char* label;
  int precision;
  double (*get)(const RunResult&);
};

// The metric table. Throughput is commits/s, or completed requests/s in an
// open-loop (--serve) cell. The percentiles are per-operation wall time in
// the closed loop and submit-to-completion sojourn in the open loop.
extern const Metric kThroughput;                // Figs. 2, 3
extern const Metric kAttemptsPerSecond;         // (commits + aborts) / s
extern const Metric kAbortsPerCommit;           // Fig. 4
extern const Metric kElapsedMs;                 // Fig. 5 (fixed-commit runs)
extern const Metric kWastedFraction;
extern const Metric kResponseUs;
extern const Metric kRepeatConflictsPerCommit;
extern const Metric kP50Us;
extern const Metric kP95Us;
extern const Metric kP99Us;

/// Mean of `metric` over the cell's runs (0 for an empty cell).
double mean(const Cell& cell, const Metric& metric);

/// mean() rendered with the metric's precision, as every table prints it.
std::string format_mean(const Cell& cell, const Metric& metric);

struct MatrixSpec {
  std::vector<std::string> benchmarks;
  std::vector<std::string> cms;
  std::vector<std::int64_t> thread_counts;
  RunConfig base;
  cm::Params params;
  unsigned repetitions = 1;
  std::uint32_t update_percent = 100;
  long key_range = 256;
  double zipf_alpha = 0.0;
  bool csv = false;
  /// Open-loop mode (--serve): each cell runs run_open_loop with
  /// `serve_config` instead of the closed-loop runner.
  bool serve = false;
  ServeConfig serve_config;
};

/// Registers the flags shared by all figure benches (threads, seconds,
/// runs, key-range, update%, window knobs, csv, ...).
void register_matrix_flags(Cli& cli, const std::string& default_benchmarks,
                           const std::string& default_cms, const std::string& default_threads,
                           std::int64_t default_ms, unsigned default_runs);

/// Builds a spec from parsed flags.
MatrixSpec matrix_from_cli(const Cli& cli);

/// Runs every cell of the matrix once and prints, per benchmark, one table
/// per metric (columns = thread counts, rows = CMs), all read from the same
/// records. Progress notes go to stderr. Returns false if any run failed
/// validation.
bool run_matrix_and_print(const MatrixSpec& spec, const std::vector<Metric>& metrics,
                          std::ostream& out);

/// One JSON object under construction: fields in insertion order, string
/// values escaped, non-finite numbers written as null.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, std::string_view value);
  JsonObject& add(std::string_view key, double value);
  template <std::integral T>
  JsonObject& add(std::string_view key, T value) {
    if constexpr (std::is_same_v<T, bool>) {
      return raw(key, value ? "true" : "false");
    } else {
      return raw(key, std::to_string(value));
    }
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(std::string_view key, std::string_view json);
  std::string body_;
};

/// The report row of one cell: `config`, then every counter summed over the
/// runs under its field name, then `attempts` (commits + aborts), the means
/// of `attempts_per_s`, `throughput_per_s` and `aborts_per_commit`, and
/// `valid` (every run validated). Benches append their own fields after.
JsonObject cell_row(JsonObject config, const Cell& cell);

/// Writes {"context": {<context>, "host_cpus": N}, "rows": [<rows>]} to
/// `path`, the one shape of every bench report (tools/check_bench.py).
/// Returns false after printing why when the file cannot be written.
bool write_report(const std::string& path, JsonObject context,
                  const std::vector<JsonObject>& rows);

}  // namespace wstm::harness
