// Serving front-end scaling: admission policy × arrival rate, open loop.
//
// Sweeps the three admission policies over a ramp of Poisson arrival rates
// on a Zipfian-skewed skiplist intset and reports, per cell, sustained
// throughput (completions/s) and the sojourn percentiles. Below saturation
// every policy tracks the offered rate. Past it, window-frame is meant to
// keep same-key requests in one queue instead of aborting across workers,
// which would show as higher sustained throughput or a flatter p99 than
// round-robin's. On a 4-CPU host neither is reproduced yet (EXPERIMENTS.md,
// "Serving front-end").
//
// --json=BENCH_serve.json writes a machine-readable report gated in CI by
// tools/check_bench.py --mode serve: exact request conservation always, and
// window-frame must either out-sustain round-robin by the throughput ratio
// or beat its p99 wherever the host has at least `threads` CPUs.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wstm;
  Cli cli;
  cli.add_flag("policies", "admission policies to sweep (comma list)",
               std::string("round-robin,key-hash,window-frame"));
  cli.add_flag("rates", "arrival rates to sweep, requests/s (comma list)",
               std::string("250000,1000000"));
  cli.add_flag("threads", "worker thread counts M to sweep (comma list)",
               std::string("8"));
  cli.add_flag("ms", "production window per cell, milliseconds", std::int64_t{300});
  cli.add_flag("runs", "repetitions per cell (means reported)", std::int64_t{1});
  cli.add_flag("cm", "contention manager for the serving runtime", std::string("Polka"));
  cli.add_flag("benchmark", "workload (must be open-loop capable)", std::string("skiplist"));
  cli.add_flag("update", "update percentage", std::int64_t{100});
  cli.add_flag("range", "key range", std::int64_t{64});
  cli.add_flag("zipf-alpha", "Zipf skew of the key draw (0 = uniform)", 1.2);
  cli.add_flag("producers", "open-loop producer threads", std::int64_t{2});
  cli.add_flag("queue-capacity", "bounded queue capacity", std::int64_t{1024});
  cli.add_flag("deadline-ms", "per-request relative deadline, 0 = none", std::int64_t{0});
  cli.add_flag("seed", "base RNG seed", std::int64_t{42});
  cli.add_flag("json", "write a machine-readable report here (empty = off)", std::string(""));
  cli.add_flag("csv", "CSV tables instead of aligned text", false);
  if (!cli.parse(argc, argv)) return 1;

  const auto policies = cli.get_string_list("policies");
  const std::string cm_name = cli.get_string("cm");
  const std::string benchmark = cli.get_string("benchmark");
  const std::vector<std::int64_t> thread_counts = cli.get_int_list("threads");
  const double zipf_alpha = cli.get_double("zipf-alpha");
  const unsigned runs = static_cast<unsigned>(cli.get_int("runs"));

  std::vector<double> rates;
  for (const std::string& r : cli.get_string_list("rates")) rates.push_back(std::stod(r));

  std::cout << "== Serving front-end: policy x arrival rate, " << benchmark << " zipf "
            << zipf_alpha << ", " << cm_name << " ==\n\n";

  // An open-loop record's throughput is completions/s and its percentiles
  // are sojourn times; the offered rate is the producers' achieved rate.
  const harness::Metric offered{"offered/s", 0,
                                [](const harness::RunResult& r) { return r.offered_per_s; }};
  std::vector<harness::JsonObject> rows;
  bool all_valid = true;
  for (const std::int64_t threads : thread_counts) {
  for (const double rate : rates) {
    std::vector<std::string> header{"policy \\ M=" + std::to_string(threads) + " rate " +
                                    Table::num(rate, 0)};
    header.insert(header.end(), {"completed/s", "p50 us", "p95 us", "p99 us", "aborts/commit",
                                 "shed", "expired", "maxq"});
    Table table(header);

    for (const std::string& policy : policies) {
      std::fprintf(stderr, "[M=%lld rate=%.0f] %s ...\n", static_cast<long long>(threads), rate,
                   policy.c_str());
      harness::RunConfig base;
      base.threads = static_cast<std::uint32_t>(threads);
      base.duration_ms = cli.get_int("ms");
      base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      harness::ServeConfig serve_cfg;
      serve_cfg.arrival_rate = rate;
      serve_cfg.producers = static_cast<unsigned>(cli.get_int("producers"));
      serve_cfg.policy = policy;
      serve_cfg.queue_capacity = static_cast<std::size_t>(cli.get_int("queue-capacity"));
      serve_cfg.deadline_ms = cli.get_int("deadline-ms");
      const harness::Cell cell =
          harness::repeat(base, runs, [&](const harness::RunConfig& run) {
            auto workload = harness::make_workload(
                benchmark, static_cast<std::uint32_t>(cli.get_int("update")),
                cli.get_int("range"), zipf_alpha);
            return harness::run_open_loop(cm_name, cm::Params{}, *workload, run, serve_cfg);
          });
      std::string why;
      if (!harness::cell_valid(cell, &why)) {
        all_valid = false;
        std::fprintf(stderr, "VALIDATION FAILED [%s M=%lld @ %.0f/s]: %s\n", policy.c_str(),
                     static_cast<long long>(threads), rate, why.c_str());
      }

      // Queue stats summed over runs (max_depth is the max): after a
      // graceful drain accepted == enqueued == dequeued, and check_bench
      // gates on that identity.
      serve::TxServer::Stats q;
      for (const harness::RunResult& r : cell) {
        q.accepted += r.server.accepted;
        q.enqueued += r.server.enqueued;
        q.dequeued += r.server.dequeued;
        q.rejected_full += r.server.rejected_full;
        q.max_depth = std::max(q.max_depth, r.server.max_depth);
      }
      rows.push_back(harness::cell_row(harness::JsonObject()
                                           .add("policy", policy)
                                           .add("threads", threads)
                                           .add("arrival_rate", rate),
                                       cell)
                         .add("offered_per_s", harness::mean(cell, offered))
                         .add("p50_us", harness::mean(cell, harness::kP50Us))
                         .add("p95_us", harness::mean(cell, harness::kP95Us))
                         .add("p99_us", harness::mean(cell, harness::kP99Us))
                         .add("accepted", q.accepted)
                         .add("enqueued", q.enqueued)
                         .add("dequeued", q.dequeued)
                         .add("rejected_full", q.rejected_full)
                         .add("max_depth", q.max_depth));
      table.add_row({policy, harness::format_mean(cell, harness::kThroughput),
                     harness::format_mean(cell, harness::kP50Us),
                     harness::format_mean(cell, harness::kP95Us),
                     harness::format_mean(cell, harness::kP99Us),
                     harness::format_mean(cell, harness::kAbortsPerCommit),
                     std::to_string(q.rejected_full),
                     std::to_string(harness::sum_totals(cell).serve_expired),
                     std::to_string(q.max_depth)});
    }
    std::cout << (cli.get_bool("csv") ? table.to_csv() : table.to_text()) << "\n";
  }
  }

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    harness::write_report(json_path,
                          harness::JsonObject()
                              .add("cm", cm_name)
                              .add("benchmark", benchmark)
                              .add("zipf_alpha", zipf_alpha),
                          rows);
  }
  return all_valid ? 0 : 2;
}
