// Window-tuning walkthrough: runs an adaptive window-based contention
// manager on a contended list and shows its internals evolve — the per-
// thread contention estimates C_i, the contention-intensity (CI) values,
// window restarts caused by bad events, the tau estimate that sets static
// frame lengths, and dynamic frame contraction. Useful for understanding
// what the knobs in window::WindowOptions actually do before sweeping
// bench/ablation_frames.
//
//   ./build/examples/window_tuning --cm=Adaptive-Improved-Dynamic --threads=8
#include <cstdio>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "window/window_cm.hpp"

int main(int argc, char** argv) {
  using namespace wstm;

  Cli cli;
  cli.add_flag("cm", "a window manager: Online, Online-Dynamic, Adaptive, "
                     "Adaptive-Improved, Adaptive-Improved-Dynamic",
               std::string("Adaptive-Improved-Dynamic"));
  cli.add_flag("threads", "worker threads", static_cast<std::int64_t>(4));
  cli.add_flag("transactions", "transactions per thread", static_cast<std::int64_t>(4000));
  cli.add_flag("window-n", "window length N", static_cast<std::int64_t>(50));
  cli.add_flag("key-range", "keys drawn from [0, range)", static_cast<std::int64_t>(64));
  if (!cli.parse(argc, argv)) return 1;

  const std::string cm_name = cli.get_string("cm");
  if (!cm::is_window_manager(cm_name)) {
    std::fprintf(stderr, "%s is not a window-based manager\n", cm_name.c_str());
    return 1;
  }

  const auto threads = static_cast<unsigned>(cli.get_int("threads"));
  cm::Params params;
  params.threads = threads;
  params.window_n = static_cast<std::uint32_t>(cli.get_int("window-n"));

  stm::Runtime rt(cm::make_manager(cm_name, params));
  auto* wcm = dynamic_cast<window::WindowCM*>(&rt.manager());

  auto set = structs::make_intset("list");
  const long range = cli.get_int("key-range");
  const auto per_thread = static_cast<int>(cli.get_int("transactions"));

  std::vector<std::thread> workers;
  std::vector<unsigned> slots(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt.attach_thread();
      slots[t] = tc.slot();
      Xoshiro256 rng(7 + t);
      for (int i = 0; i < per_thread; ++i) {
        const long key = static_cast<long>(rng.below(static_cast<std::uint64_t>(range)));
        if (rng.below(2) == 0) {
          rt.atomically(tc, [&](stm::Tx& tx) { return set->insert(tx, key); });
        } else {
          rt.atomically(tc, [&](stm::Tx& tx) { return set->remove(tx, key); });
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  std::printf("%s after %u threads x %d transactions (N = %u):\n\n", cm_name.c_str(), threads,
              per_thread, params.window_n);
  std::printf("%-8s %-10s %-10s %-10s %-10s %-10s\n", "thread", "windows", "bad-events",
              "C_i", "CI", "delay q_i");
  for (unsigned t = 0; t < threads; ++t) {
    const auto snap = wcm->snapshot(slots[t]);
    std::printf("%-8u %-10llu %-10llu %-10.2f %-10.3f %-10llu\n", t,
                static_cast<unsigned long long>(snap.windows_started),
                static_cast<unsigned long long>(snap.bad_events), snap.c_est, snap.ci,
                static_cast<unsigned long long>(snap.delay_q));
  }
  // Dynamic frames end when they drain, so tau sets no frame length there
  // (and abort-mode dynamic variants do not estimate it at all).
  if (wcm->options().dynamic_frames) {
    std::printf("\ndynamic frame contractions: %llu (frames advanced as soon as drained)\n",
                static_cast<unsigned long long>(wcm->controller().advances()));
  } else {
    std::printf("\nglobal tau estimate: %.1f us (frame length scales with it)\n",
                static_cast<double>(wcm->tau_estimate_ns()) / 1000.0);
  }
  const stm::ThreadMetrics m = rt.total_metrics();
  std::printf("commits: %llu, aborts: %llu\n", static_cast<unsigned long long>(m.commits),
              static_cast<unsigned long long>(m.aborts));
  return 0;
}
