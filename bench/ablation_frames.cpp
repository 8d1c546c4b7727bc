// Ablations for the design choices called out in DESIGN.md §4:
//   1. frame-length factor phi (static Online is sensitive; dynamic is not),
//   2. static vs dynamic frames at a fixed workload,
//   3. CI smoothing alpha for Adaptive-Improved,
//   4. the random initial delay itself (initial C near zero forces alpha=1,
//      i.e. q_i = 0 — no delay — degenerating toward RandomizedRounds).
#include <iostream>

#include "harness/report.hpp"
#include "util/table.hpp"

namespace {

using namespace wstm;

bool all_valid = true;

harness::Cell run_point(const std::string& cm_name, cm::Params params,
                        const harness::RunConfig& base, const std::string& benchmark,
                        unsigned runs) {
  harness::Cell cell = harness::repeat(base, runs, [&](const harness::RunConfig& run) {
    auto workload = harness::make_workload(benchmark, 100, 256);
    return harness::run_workload(cm_name, params, *workload, run);
  });
  std::string why;
  if (!harness::cell_valid(cell, &why)) {
    all_valid = false;
    std::fprintf(stderr, "VALIDATION FAILED [%s]: %s\n", cm_name.c_str(), why.c_str());
  }
  return cell;
}

std::string tput(const harness::Cell& cell) {
  return harness::format_mean(cell, harness::kThroughput);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("benchmark", "workload for the ablations", std::string("list"));
  cli.add_flag("threads", "worker threads M", static_cast<std::int64_t>(8));
  cli.add_flag("ms", "measured milliseconds per run", static_cast<std::int64_t>(300));
  cli.add_flag("runs", "repetitions per point", static_cast<std::int64_t>(1));
  cli.add_flag("factors", "frame factors to sweep", std::string("0.25,0.5,1,2,4"));
  cli.add_flag("alphas", "CI smoothing alphas to sweep", std::string("0.25,0.5,0.75,0.9"));
  cli.add_flag("seed", "base RNG seed", static_cast<std::int64_t>(42));
  cli.add_flag("csv", "emit CSV", false);
  if (!cli.parse(argc, argv)) return 1;

  const std::string benchmark = cli.get_string("benchmark");
  harness::RunConfig base;
  base.threads = static_cast<std::uint32_t>(cli.get_int("threads"));
  base.duration_ms = cli.get_int("ms");
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto runs = static_cast<unsigned>(cli.get_int("runs"));
  const bool csv = cli.get_bool("csv");

  std::cout << "== Ablations (" << benchmark << ", M=" << base.threads << ") ==\n\n";

  {
    Table t({"frame factor", "Online tput", "Online-Dynamic tput"});
    for (const auto& f : cli.get_string_list("factors")) {
      cm::Params params;
      params.frame_factor = std::stod(f);
      std::fprintf(stderr, "[ablation/frame-factor] phi=%s ...\n", f.c_str());
      const auto st = run_point("Online", params, base, benchmark, runs);
      const auto dy = run_point("Online-Dynamic", params, base, benchmark, runs);
      t.add_row({f, tput(st), tput(dy)});
    }
    std::cout << "# 1+2. frame-length factor, static vs dynamic frames\n"
              << (csv ? t.to_csv() : t.to_text()) << "\n";
  }

  {
    Table t({"CI alpha", "Adaptive-Improved tput", "Adaptive-Improved-Dynamic tput"});
    for (const auto& a : cli.get_string_list("alphas")) {
      cm::Params params;
      params.ci_alpha = std::stod(a);
      std::fprintf(stderr, "[ablation/ci-alpha] alpha=%s ...\n", a.c_str());
      const auto st = run_point("Adaptive-Improved", params, base, benchmark, runs);
      const auto dy = run_point("Adaptive-Improved-Dynamic", params, base, benchmark, runs);
      t.add_row({a, tput(st), tput(dy)});
    }
    std::cout << "# 3. CI smoothing alpha (Adaptive-Improved)\n"
              << (csv ? t.to_csv() : t.to_text()) << "\n";
  }

  {
    Table t({"variant", "throughput", "aborts/commit"});
    struct Cfg {
      const char* label;
      double initial_c;
    };
    for (const Cfg cfg : {Cfg{"random delay on (C=M)", 0.0}, Cfg{"random delay off (C~0)", 1e-6}}) {
      cm::Params params;
      params.initial_c = cfg.initial_c;
      std::fprintf(stderr, "[ablation/delay] %s ...\n", cfg.label);
      const auto r = run_point("Online-Dynamic", params, base, benchmark, runs);
      t.add_row({cfg.label, tput(r), harness::format_mean(r, harness::kAbortsPerCommit)});
    }
    // RandomizedRounds = Online without frames at all, for reference.
    const auto rr = run_point("RandomizedRounds", cm::Params{}, base, benchmark, runs);
    t.add_row({"RandomizedRounds (no window)", tput(rr),
               harness::format_mean(rr, harness::kAbortsPerCommit)});
    std::cout << "# 4. random initial delay on/off\n" << (csv ? t.to_csv() : t.to_text());
  }
  return all_valid ? 0 : 2;
}
