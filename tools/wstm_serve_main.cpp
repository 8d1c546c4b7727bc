// wstm-serve: load-test CLI for the serving front-end (src/serve/).
//
// Two modes:
//
//   * Fixed rate (default): drive one open-loop run at --rate and print the
//     full serving report — offered/accepted/completed rates, sojourn
//     percentiles, queue accounting, shed/expired/miss counters.
//
//   * --saturate: find the saturation point of a (policy, workload, M)
//     configuration. Doubles the arrival rate from --rate until the system
//     stops sustaining it (completions fall below --sustain-fraction of
//     offered), then binary-searches the bracket and reports the highest
//     sustained rate. This is the per-policy capacity number the
//     fig_serve_scaling sweep brackets from both sides.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "harness/open_loop.hpp"
#include "harness/workload.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"

namespace {

using namespace wstm;

struct CliConfig {
  std::string cm;
  std::string benchmark;
  harness::RunConfig run;
  harness::ServeConfig serve;
  std::uint32_t update_percent = 100;
  long key_range = 64;
  double zipf_alpha = 1.2;
};

harness::RunResult run_once(const CliConfig& cfg, double rate) {
  auto workload =
      harness::make_workload(cfg.benchmark, cfg.update_percent, cfg.key_range, cfg.zipf_alpha);
  harness::ServeConfig serve = cfg.serve;
  serve.arrival_rate = rate;
  return harness::run_open_loop(cfg.cm, cm::Params{}, *workload, cfg.run, serve);
}

void print_report(const harness::RunResult& r, double rate) {
  std::printf("rate %.0f/s: offered %.0f/s accepted %.0f/s completed %.0f/s\n", rate,
              r.offered_per_s, r.accepted_per_s, r.summary.throughput_per_s);
  std::printf("  sojourn p50 %.1f us  p95 %.1f us  p99 %.1f us  (%llu sampled ops)\n", r.p50_us,
              r.p95_us, r.p99_us, static_cast<unsigned long long>(r.latency_count));
  std::printf("  queues: accepted %llu  shed-full %llu  max depth %llu\n",
              static_cast<unsigned long long>(r.server.accepted),
              static_cast<unsigned long long>(r.server.rejected_full),
              static_cast<unsigned long long>(r.server.max_depth));
  std::printf("  expired %llu  deadline misses %llu  cancelled %llu  aborts/commit %.3f%s\n",
              static_cast<unsigned long long>(r.totals.serve_expired),
              static_cast<unsigned long long>(r.totals.serve_deadline_misses),
              static_cast<unsigned long long>(r.totals.serve_cancelled),
              r.summary.aborts_per_commit, r.valid ? "" : "  VALIDATION FAILED");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("cm", "contention manager for the serving runtime", std::string("Polka"));
  cli.add_flag("benchmark", "open-loop-capable workload", std::string("skiplist"));
  cli.add_flag("threads", "worker threads", std::int64_t{8});
  cli.add_flag("ms", "production window per run, milliseconds", std::int64_t{300});
  cli.add_flag("rate", "arrival rate, requests/s (the starting rate with --saturate)",
               100'000.0);
  cli.add_flag("policy", "admission policy: round-robin | key-hash | window-frame",
               std::string("round-robin"));
  cli.add_flag("producers", "producer threads", std::int64_t{2});
  cli.add_flag("queues", "submit queues (0 = one per worker)", std::int64_t{0});
  cli.add_flag("queue-capacity", "bounded queue capacity", std::int64_t{1024});
  cli.add_flag("deadline-ms", "per-request relative deadline (0 = none)", std::int64_t{0});
  cli.add_flag("block", "full queue blocks the producer instead of shedding", false);
  cli.add_flag("steal", "idle workers steal from other queues", false);
  cli.add_flag("update-percent", "percent of update transactions", std::int64_t{100});
  cli.add_flag("key-range", "int-set key range", std::int64_t{64});
  cli.add_flag("zipf-alpha", "Zipf skew of the key draw (0 = uniform)", 1.2);
  cli.add_flag("seed", "base RNG seed", std::int64_t{42});
  cli.add_flag("backend", "execution engine: dstm | orec", std::string("dstm"));
  cli.add_flag("arbitration", "conflict arbitration: abort | wait (requester-waits parking)",
               std::string("abort"));
  cli.add_flag("saturate", "search for the highest sustained arrival rate", false);
  cli.add_flag("sustain-fraction",
               "--saturate: a rate is sustained when completions reach this fraction of "
               "offered load",
               0.95);
  cli.add_flag("search-steps", "--saturate: binary-search refinement steps", std::int64_t{4});
  if (!cli.parse(argc, argv)) return 2;

  CliConfig cfg;
  cfg.cm = cli.get_string("cm");
  cfg.benchmark = cli.get_string("benchmark");
  cfg.update_percent = static_cast<std::uint32_t>(cli.get_int("update-percent"));
  cfg.key_range = cli.get_int("key-range");
  cfg.zipf_alpha = cli.get_double("zipf-alpha");
  cfg.run.threads = static_cast<std::uint32_t>(cli.get_int("threads"));
  cfg.run.duration_ms = cli.get_int("ms");
  cfg.run.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cfg.run.runtime.backend = stm::parse_backend(cli.get_string("backend"));
  cfg.run.runtime.arbitration = stm::parse_arbitration(cli.get_string("arbitration"));
  cfg.serve.policy = cli.get_string("policy");
  cfg.serve.producers = static_cast<unsigned>(cli.get_int("producers"));
  cfg.serve.n_queues = static_cast<unsigned>(cli.get_int("queues"));
  cfg.serve.queue_capacity = static_cast<std::size_t>(cli.get_int("queue-capacity"));
  cfg.serve.deadline_ms = cli.get_int("deadline-ms");
  cfg.serve.backpressure =
      cli.get_bool("block") ? serve::Backpressure::kBlock : serve::Backpressure::kReject;
  cfg.serve.steal = cli.get_bool("steal");

  try {
    if (!cli.get_bool("saturate")) {
      const harness::RunResult r = run_once(cfg, cli.get_double("rate"));
      print_report(r, cli.get_double("rate"));
      return r.valid ? 0 : 1;
    }

    // Saturation search: geometric ramp to bracket, then binary refine.
    const double sustain = cli.get_double("sustain-fraction");
    bool all_valid = true;
    auto sustained = [&](double rate, double* completed) {
      const harness::RunResult r = run_once(cfg, rate);
      all_valid = all_valid && r.valid;
      *completed = r.summary.throughput_per_s;
      const bool ok = r.summary.throughput_per_s >= sustain * r.offered_per_s;
      std::fprintf(stderr, "[saturate] %.0f/s -> completed %.0f/s %s\n", rate,
                   r.summary.throughput_per_s, ok ? "sustained" : "NOT sustained");
      return ok;
    };

    double completed = 0.0;
    double good = 0.0, good_completed = 0.0;
    double rate = cli.get_double("rate");
    for (int i = 0; i < 12; ++i) {  // bracket: at most x4096 the start rate
      if (!sustained(rate, &completed)) break;
      good = rate;
      good_completed = completed;
      rate *= 2;
    }
    if (good == 0.0) {
      std::printf("not sustained even at %.0f/s (completed %.0f/s); lower --rate\n",
                  cli.get_double("rate"), completed);
      return all_valid ? 0 : 1;
    }
    double bad = rate;
    for (std::int64_t i = 0; i < cli.get_int("search-steps"); ++i) {
      const double mid = (good + bad) / 2;
      if (sustained(mid, &completed)) {
        good = mid;
        good_completed = completed;
      } else {
        bad = mid;
      }
    }
    std::printf("%s/%s %s M=%llu: saturation ~%.0f requests/s (completed %.0f/s; "
                "next probe %.0f/s was not sustained)\n",
                cfg.benchmark.c_str(), cfg.cm.c_str(), cfg.serve.policy.c_str(),
                static_cast<unsigned long long>(cfg.run.threads), good, good_completed, bad);
    return all_valid ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wstm-serve: %s\n", e.what());
    return 2;
  }
}
