// wstm-check: deterministic concurrency checking for the STM (src/check/).
//
//   wstm-check explore [flags]            run N random/PCT schedules; exit 1
//                                         and write --out on the first oracle
//                                         violation (0 = all clean)
//   wstm-check replay  <schedule> [flags] re-execute a recorded schedule
//                                         bit-identically; exit 1 if the
//                                         violation reproduces
//   wstm-check shrink  <schedule> [flags] greedily minimize a failing
//                                         schedule, write --out
//
// With --expect-violation the explore exit code flips (0 = a violation was
// found), so CI can assert that a seeded bug IS caught within a budget.
//
// Everything a run needs is in the schedule file, so
// `wstm-check replay fail.sched` works with no further flags.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "check/checker.hpp"
#include "check/schedule.hpp"
#include "util/cli.hpp"

namespace {

using wstm::check::CheckConfig;
using wstm::check::Checker;
using wstm::check::RunResult;
using wstm::check::Schedule;

void add_config_flags(wstm::Cli& cli, const CheckConfig& d) {
  cli.add_flag("structure", "data structure: list|rbtree|skiplist|hashtable", d.structure);
  cli.add_flag("cm", "contention manager name (see --cms on bench binaries)", d.cm);
  cli.add_flag("threads", "virtual worker threads", static_cast<std::int64_t>(d.threads));
  cli.add_flag("ops", "operations per thread", static_cast<std::int64_t>(d.ops_per_thread));
  cli.add_flag("key-range", "keys drawn from [0, key-range); max 64",
               static_cast<std::int64_t>(d.key_range));
  cli.add_flag("backend", "execution engine: dstm (eager locator) | orec (lazy TL2-style)",
               d.backend);
  cli.add_flag("arbitration",
               "conflict arbitration: abort (requester-wins/aborts) | wait "
               "(requester parks on the enemy; adds kPark/kUnpark points)",
               d.arbitration);
  cli.add_flag("visible-reads", "visible (true) or invisible (false) read mode",
               d.visible_reads);
  cli.add_flag("op-mix", "op mix: default|insert-heavy", d.op_mix);
  cli.add_flag("update-percent", "percent of single-key ops that write",
               static_cast<std::int64_t>(d.update_percent));
  cli.add_flag("pair-percent", "percent of ops that are atomic move/pair-read",
               static_cast<std::int64_t>(d.pair_percent));
  cli.add_flag("seed", "base seed for op streams, RNGs and policy seeds",
               static_cast<std::int64_t>(d.seed));
  cli.add_flag("strategy", "exploration strategy: random|pct", d.strategy);
  cli.add_flag("pct-depth", "PCT bug depth d (d-1 priority change points)",
               static_cast<std::int64_t>(d.pct_depth));
  cli.add_flag("max-steps", "scheduling-step budget per run (0 = auto)",
               static_cast<std::int64_t>(d.max_steps));
  cli.add_flag("window-n", "window length N for window managers",
               static_cast<std::int64_t>(d.window_n));
  cli.add_flag("p-abort", "spurious-abort injection probability", d.faults.p_abort);
  cli.add_flag("p-fail-cas", "forced locator-CAS failure probability", d.faults.p_fail_cas);
  cli.add_flag("p-stall", "stalled-commit injection probability", d.faults.p_stall);
  cli.add_flag("p-stall-any", "stall injection probability at ANY protocol point",
               d.faults.p_stall_any);
  cli.add_flag("stall-steps", "scheduling steps a stalled commit waits",
               static_cast<std::int64_t>(d.faults.stall_steps));
  cli.add_flag("liveness",
               "arm the escalation ladder + serial-fallback token (checker-tuned "
               "thresholds, no sleeps, no watchdog thread)",
               d.liveness);
  cli.add_flag("bug",
               "seeded protocol bug: none|blind-commit|skip-reader-abort|"
               "skip-cas-recheck|stamp-no-pending|skip-read-validation (orec)|"
               "park-lost-wakeup (arbitration=wait)",
               d.bug);
}

CheckConfig config_from_cli(const wstm::Cli& cli) {
  CheckConfig c;
  c.structure = cli.get_string("structure");
  c.cm = cli.get_string("cm");
  c.threads = static_cast<unsigned>(cli.get_int("threads"));
  c.ops_per_thread = static_cast<unsigned>(cli.get_int("ops"));
  c.key_range = cli.get_int("key-range");
  c.backend = cli.get_string("backend");
  c.arbitration = cli.get_string("arbitration");
  c.visible_reads = cli.get_bool("visible-reads");
  c.op_mix = cli.get_string("op-mix");
  c.update_percent = static_cast<std::uint32_t>(cli.get_int("update-percent"));
  c.pair_percent = static_cast<std::uint32_t>(cli.get_int("pair-percent"));
  c.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  c.strategy = cli.get_string("strategy");
  c.pct_depth = static_cast<std::uint32_t>(cli.get_int("pct-depth"));
  c.max_steps = static_cast<std::uint64_t>(cli.get_int("max-steps"));
  c.window_n = static_cast<std::uint32_t>(cli.get_int("window-n"));
  c.faults.p_abort = cli.get_double("p-abort");
  c.faults.p_fail_cas = cli.get_double("p-fail-cas");
  c.faults.p_stall = cli.get_double("p-stall");
  c.faults.p_stall_any = cli.get_double("p-stall-any");
  c.faults.stall_steps = static_cast<std::uint32_t>(cli.get_int("stall-steps"));
  c.liveness = cli.get_bool("liveness");
  c.bug = cli.get_string("bug");
  return c;
}

void print_run(const RunResult& r) {
  std::printf("steps=%llu decisions=%zu switches=%zu faults=%zu commits=%llu aborts=%llu "
              "injected=%llu%s\n",
              static_cast<unsigned long long>(r.steps), r.schedule.decisions.size(),
              r.schedule.context_switches(), r.schedule.injected_faults(),
              static_cast<unsigned long long>(r.metrics.commits),
              static_cast<unsigned long long>(r.metrics.aborts),
              static_cast<unsigned long long>(r.metrics.injected_aborts),
              r.over_budget ? " OVER-BUDGET" : "");
  if (r.schedule.config.liveness) {
    std::printf("serial-token: acquisitions=%llu max_holders=%llu overlaps=%llu\n",
                static_cast<unsigned long long>(r.token_acquisitions),
                static_cast<unsigned long long>(r.max_token_holders),
                static_cast<unsigned long long>(r.token_overlap_violations));
  }
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <explore|replay|shrink> [schedule-file] [--flags]\n"
               "  explore            run --schedules seeds, stop at the first violation\n"
               "  replay <file>      re-execute a recorded schedule bit-identically\n"
               "  shrink <file>      greedily minimize a failing schedule\n"
               "run '%s explore --help' for the full flag list\n",
               prog, prog);
  return 2;
}

int cmd_explore(int argc, const char* const* argv) {
  wstm::Cli cli;
  add_config_flags(cli, CheckConfig{});
  cli.add_flag("schedules", "number of schedules to explore", std::int64_t{200});
  cli.add_flag("keep-going", "do not stop at the first violation", false);
  cli.add_flag("expect-violation", "invert the exit code: fail when NO violation is found",
               false);
  cli.add_flag("out", "where to write the first failing schedule", std::string("fail.sched"));
  if (!cli.parse(argc, argv)) return 2;

  Checker checker(config_from_cli(cli));
  const auto n = static_cast<unsigned>(cli.get_int("schedules"));
  const bool expect = cli.get_bool("expect-violation");
  const wstm::check::ExploreResult er = checker.explore(n, !cli.get_bool("keep-going"));

  std::printf("explored %u/%u schedules (%s, seed %llu): %u violation(s)\n", er.schedules_run, n,
              checker.config().strategy.c_str(),
              static_cast<unsigned long long>(checker.config().seed), er.violations);
  if (er.violations > 0) {
    const RunResult& r = er.first_violation;
    print_run(r);
    std::printf("%s\n", r.diagnosis.c_str());
    const std::string out = cli.get_string("out");
    if (wstm::check::save_schedule(out, r.schedule)) {
      std::printf("failing schedule written to %s\n", out.c_str());
    } else {
      std::fprintf(stderr, "wstm-check: cannot write %s\n", out.c_str());
    }
  }
  if (expect) return er.violations > 0 ? 0 : 1;
  return er.violations > 0 ? 1 : 0;
}

int cmd_replay(const std::string& path, int argc, const char* const* argv) {
  wstm::Cli cli;
  cli.add_flag("quiet", "print only the verdict", false);
  if (!cli.parse(argc, argv)) return 2;

  const Schedule schedule = wstm::check::load_schedule(path);
  Checker checker(schedule.config);
  const RunResult r = checker.replay(schedule);
  if (!cli.get_bool("quiet")) print_run(r);
  if (r.divergences > 0) {
    std::printf("replay diverged from the log (%llu divergence(s))\n",
                static_cast<unsigned long long>(r.divergences));
  }
  if (r.violation) {
    std::printf("violation reproduced:\n%s\n", r.diagnosis.c_str());
    return 1;
  }
  std::printf("no violation\n");
  return 0;
}

int cmd_shrink(const std::string& path, int argc, const char* const* argv) {
  wstm::Cli cli;
  cli.add_flag("out", "where to write the minimized schedule", std::string());
  cli.add_flag("max-replays", "replay budget for shrinking", std::int64_t{500});
  if (!cli.parse(argc, argv)) return 2;

  const Schedule schedule = wstm::check::load_schedule(path);
  Checker checker(schedule.config);
  const Checker::ShrinkResult sr =
      checker.shrink(schedule, static_cast<unsigned>(cli.get_int("max-replays")));
  if (!sr.still_fails) {
    std::fprintf(stderr, "wstm-check: %s does not reproduce a violation; nothing to shrink\n",
                 path.c_str());
    return 1;
  }
  std::printf("shrunk %zu -> %zu decisions (%zu switches, %zu faults) in %u replays\n",
              schedule.decisions.size(), sr.schedule.decisions.size(),
              sr.schedule.context_switches(), sr.schedule.injected_faults(), sr.replays);
  std::string out = cli.get_string("out");
  if (out.empty()) out = path + ".min";
  if (!wstm::check::save_schedule(out, sr.schedule)) {
    std::fprintf(stderr, "wstm-check: cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("minimized schedule written to %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "explore") return cmd_explore(argc - 1, argv + 1);
    if (command == "replay" || command == "shrink") {
      if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr, "wstm-check: %s needs a schedule file\n", command.c_str());
        return 2;
      }
      // argv[2] is the schedule file; pass the rest through the flag parser.
      const std::string path = argv[2];
      argv[2] = argv[1];
      if (command == "replay") return cmd_replay(path, argc - 2, argv + 2);
      return cmd_shrink(path, argc - 2, argv + 2);
    }
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wstm-check: %s\n", e.what());
    return 2;
  }
}
