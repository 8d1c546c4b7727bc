// wstm-chaos: chaos-mode progress assertion runner.
//
// Runs real multithreaded workloads with live fault injection (thread
// stalls, spurious aborts, delayed commits, EBR pressure) AND the liveness
// layer armed, then asserts progress floors per cell:
//
//   * the workload still validates (no lost ops, structure invariants hold);
//   * no worker thread died on an exception (incl. TxTimeoutError);
//   * commits were made (no silent hang);
//   * the irrevocable serial-fallback token never had two holders;
//   * serial fallbacks stay a small fraction of commits (the ladder is a
//     safety valve, not the steady state).
//
// --serve switches to the open-loop serving front-end (src/serve/) under
// the same injection, now including stall-at-dequeue faults, and asserts
// the serving progress floors instead: every accepted request is resolved
// (completed, shed at its deadline, or cancelled — nothing starves in a
// queue), completions happen, and completed-but-late requests stay below
// --max-miss-fraction. A request sitting past its deadline is *shed and
// counted*, never silently stuck — that accounting identity is the gate.
//
// Exit 0 when every cell holds its floors, 1 with a readable report
// otherwise. CI runs this over all six window CM variants.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "harness/open_loop.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "resilience/chaos.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace wstm;

struct CellVerdict {
  std::string label;
  bool ok = true;
  std::vector<std::string> failures;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("benchmarks", "comma-separated: list,rbtree,skiplist,vacation",
               std::string("list,vacation"));
  cli.add_flag("cms", "comma-separated contention manager names",
               std::string("Online,Online-Dynamic,Adaptive,Adaptive-Dynamic,"
                           "Adaptive-Improved,Adaptive-Improved-Dynamic"));
  cli.add_flag("threads", "worker threads per cell", std::int64_t{4});
  cli.add_flag("ms", "measured milliseconds per cell", std::int64_t{250});
  cli.add_flag("seed", "base RNG seed", std::int64_t{42});
  cli.add_flag("backend", "execution engine: dstm | orec", std::string("dstm"));
  cli.add_flag("arbitration", "conflict arbitration: abort | wait (requester-waits parking)",
               std::string("abort"));
  cli.add_flag("intensity", "chaos fault-probability scale factor", 1.0);
  cli.add_flag("deadline-ms", "hard per-transaction deadline (0 = none)",
               std::int64_t{10'000});
  cli.add_flag("max-serial-fraction",
               "floor: serial fallbacks must stay below this fraction of commits", 0.05);
  cli.add_flag("key-range", "int-set key range", std::int64_t{64});
  cli.add_flag("update-percent", "percent of update transactions", std::int64_t{100});
  cli.add_flag("serve", "open-loop serving front-end cells instead of the closed loop", false);
  cli.add_flag("arrival-rate", "total offered load with --serve, requests/second", 50'000.0);
  cli.add_flag("policy", "admission policy with --serve", std::string("window-frame"));
  cli.add_flag("producers", "producer threads with --serve", std::int64_t{1});
  cli.add_flag("serve-deadline-ms", "per-request deadline with --serve (0 = none)",
               std::int64_t{100});
  cli.add_flag("max-miss-fraction",
               "floor with --serve: completed-past-deadline fraction of completions", 0.05);
  cli.add_flag("csv", "emit CSV instead of an aligned table", false);
  if (!cli.parse(argc, argv)) return 2;

  harness::RunConfig run;
  run.threads = static_cast<std::uint32_t>(cli.get_int("threads"));
  run.duration_ms = cli.get_int("ms");
  run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  run.runtime.backend = stm::parse_backend(cli.get_string("backend"));
  run.runtime.arbitration = stm::parse_arbitration(cli.get_string("arbitration"));
  run.runtime.liveness.enabled = true;
  run.runtime.liveness.deadline_ns = cli.get_int("deadline-ms") * 1'000'000;
  run.runtime.chaos = resilience::default_chaos(cli.get_double("intensity"));

  const auto benchmarks = cli.get_string_list("benchmarks");
  const auto cms = cli.get_string_list("cms");
  const double max_serial_fraction = cli.get_double("max-serial-fraction");
  const auto update_percent = static_cast<std::uint32_t>(cli.get_int("update-percent"));
  const long key_range = cli.get_int("key-range");

  cm::Params params;
  params.threads = run.threads;

  const bool serve_mode = cli.get_bool("serve");
  const double max_miss_fraction = cli.get_double("max-miss-fraction");
  std::vector<CellVerdict> verdicts;
  Table table(serve_mode ? std::vector<std::string>{"cell", "offered", "completed", "expired",
                                                    "cancel", "timeout", "misses", "chaos",
                                                    "verdict"}
                         : std::vector<std::string>{"cell", "commits", "aborts", "chaos",
                                                    "escal", "serial", "flags", "verdict"});

  for (const std::string& benchmark : benchmarks) {
    for (const std::string& cm_name : cms) {
      if (serve_mode) {
        CellVerdict v;
        v.label = benchmark + "/" + cm_name + "/" + cli.get_string("policy");
        std::fprintf(stderr, "[chaos-serve] %s ...\n", v.label.c_str());
        harness::RunResult r;
        try {
          auto workload = harness::make_workload(benchmark, update_percent, key_range);
          harness::ServeConfig serve_cfg;
          serve_cfg.arrival_rate = cli.get_double("arrival-rate");
          serve_cfg.producers = static_cast<unsigned>(cli.get_int("producers"));
          serve_cfg.policy = cli.get_string("policy");
          serve_cfg.deadline_ms = cli.get_int("serve-deadline-ms");
          r = harness::run_open_loop(cm_name, params, *workload, run, serve_cfg);
        } catch (const std::exception& e) {
          v.ok = false;
          v.failures.push_back(std::string("run threw: ") + e.what());
          verdicts.push_back(std::move(v));
          table.add_row({verdicts.back().label, "-", "-", "-", "-", "-", "-", "-", "FAIL"});
          continue;
        }

        const stm::ThreadMetrics& t = r.totals;
        if (!r.valid) v.failures.push_back("validation failed: " + r.why);
        if (t.serve_completed == 0) v.failures.push_back("no completions (silent hang)");
        // The starvation gate: every dequeued request must be resolved —
        // committed, shed at its deadline, cancelled by shutdown, or timed
        // out by the liveness ladder. A gap means a request vanished into a
        // queue past its deadline with nothing to show for it.
        const std::uint64_t resolved =
            t.serve_completed + t.serve_expired + t.serve_cancelled + t.timeouts;
        if (resolved != t.serve_dequeued) {
          v.failures.push_back("request starvation: dequeued " +
                               std::to_string(t.serve_dequeued) + " but resolved only " +
                               std::to_string(resolved));
        }
        if (r.server.accepted != r.server.enqueued || r.server.enqueued != r.server.dequeued) {
          v.failures.push_back(
              "queue accounting broken: accepted=" + std::to_string(r.server.accepted) +
              " enqueued=" + std::to_string(r.server.enqueued) +
              " dequeued=" + std::to_string(r.server.dequeued));
        }
        if (t.serve_completed > 0) {
          const double miss_frac = static_cast<double>(t.serve_deadline_misses) /
                                   static_cast<double>(t.serve_completed);
          if (miss_frac > max_miss_fraction) {
            v.failures.push_back("deadline-miss fraction " + std::to_string(miss_frac) +
                                 " exceeds floor " + std::to_string(max_miss_fraction));
          }
        }
        v.ok = v.failures.empty();

        table.add_row({v.label, std::to_string(r.offered), std::to_string(t.serve_completed),
                       std::to_string(t.serve_expired), std::to_string(t.serve_cancelled),
                       std::to_string(t.timeouts), std::to_string(t.serve_deadline_misses),
                       std::to_string(t.chaos_faults), v.ok ? "ok" : "FAIL"});
        verdicts.push_back(std::move(v));
        continue;
      }

      CellVerdict v;
      v.label = benchmark + "/" + cm_name;
      std::fprintf(stderr, "[chaos] %s ...\n", v.label.c_str());
      harness::RunResult r;
      try {
        auto workload = harness::make_workload(benchmark, update_percent, key_range);
        r = harness::run_workload(cm_name, params, *workload, run);
      } catch (const std::exception& e) {
        v.ok = false;
        v.failures.push_back(std::string("run threw: ") + e.what());
        verdicts.push_back(std::move(v));
        table.add_row({verdicts.back().label, "-", "-", "-", "-", "-", "-", "FAIL"});
        continue;
      }

      if (!r.valid) v.failures.push_back("validation failed: " + r.why);
      for (const std::string& e : r.thread_errors) v.failures.push_back(e);
      if (r.totals.commits == 0) v.failures.push_back("no commits (silent hang)");
      if (r.totals.timeouts > 0) {
        v.failures.push_back("hit the hard deadline " + std::to_string(r.totals.timeouts) +
                             " time(s): the escalation ladder failed to make progress");
      }
      if (r.liveness_stats.max_token_holders > 1 ||
          r.liveness_stats.token_overlap_violations > 0) {
        v.failures.push_back(
            "serial-token invariant broken: max_holders=" +
            std::to_string(r.liveness_stats.max_token_holders) +
            " overlaps=" + std::to_string(r.liveness_stats.token_overlap_violations));
      }
      if (r.totals.commits > 0) {
        const double frac = static_cast<double>(r.totals.serial_fallbacks) /
                            static_cast<double>(r.totals.commits);
        if (frac > max_serial_fraction) {
          v.failures.push_back("serial-fallback fraction " + std::to_string(frac) +
                               " exceeds floor " + std::to_string(max_serial_fraction));
        }
      }
      v.ok = v.failures.empty();

      table.add_row({v.label, std::to_string(r.totals.commits),
                     std::to_string(r.totals.aborts), std::to_string(r.totals.chaos_faults),
                     std::to_string(r.totals.escalations),
                     std::to_string(r.totals.serial_fallbacks),
                     std::to_string(r.totals.watchdog_flags), v.ok ? "ok" : "FAIL"});
      verdicts.push_back(std::move(v));
    }
  }

  std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_text());

  bool all_ok = true;
  for (const CellVerdict& v : verdicts) {
    if (v.ok) continue;
    all_ok = false;
    std::fprintf(stderr, "FAIL %s\n", v.label.c_str());
    for (const std::string& f : v.failures) std::fprintf(stderr, "  %s\n", f.c_str());
  }
  if (all_ok) {
    std::printf("all %zu chaos cells held their %sprogress floors\n", verdicts.size(),
                serve_mode ? "serving " : "");
    return 0;
  }
  return 1;
}
