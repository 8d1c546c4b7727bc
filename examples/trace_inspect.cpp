// Tracing walkthrough: records a short contended run under a window-based
// contention manager, then inspects it programmatically — the Analyzer's
// attempt/wasted-work reconstruction, per-frame HIGH occupancy, and the
// ScheduleChecker's invariant replay. Also writes both sink formats so the
// result can be opened in chrome://tracing or fed to the wstm-trace CLI.
//
//   ./build/examples/trace_inspect --cm=Adaptive --threads=4
//   ./build/tools/wstm-trace summary trace_inspect.bin
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "trace/analyzer.hpp"
#include "trace/recorder.hpp"
#include "trace/schedule_checker.hpp"
#include "trace/sink.hpp"
#include "util/affinity.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

struct Cell {
  long value = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wstm;

  Cli cli;
  cli.add_flag("cm", "contention manager to trace", std::string("Adaptive"));
  cli.add_flag("threads", "worker threads", static_cast<std::int64_t>(4));
  cli.add_flag("transactions", "transactions per thread", static_cast<std::int64_t>(2000));
  cli.add_flag("out", "output basename (.bin and .json are written)",
               std::string("trace_inspect"));
  if (!cli.parse(argc, argv)) return 1;

  const std::string cm_name = cli.get_string("cm");
  const auto threads = static_cast<unsigned>(cli.get_int("threads"));
  const auto transactions = static_cast<int>(cli.get_int("transactions"));

  // 1. Record: the recorder outlives the runtime; tracing is enabled simply
  //    by handing the runtime a non-null pointer.
  trace::Recorder recorder;
  cm::Params params;
  params.threads = threads;
  params.window_n = 16;
  stm::RuntimeConfig rt_config;
  rt_config.recorder = &recorder;
  stm::Runtime rt(cm::make_manager(cm_name, params), rt_config);

  // A tiny pool of hot accounts: every transaction opens two of them for
  // write, so attempts overlap and conflicts (the interesting part of a
  // trace) actually happen.
  constexpr int kAccounts = 4;
  std::vector<std::unique_ptr<stm::TObject<Cell>>> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(std::make_unique<stm::TObject<Cell>>(Cell{0}));
  }
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      pin_current_thread(t);
      stm::ThreadCtx& tc = rt.attach_thread();
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < transactions; ++i) {
        const auto from = static_cast<std::size_t>(rng.below(kAccounts));
        auto to = static_cast<std::size_t>(rng.below(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        rt.atomically(tc, [&](stm::Tx& tx) {
          accounts[from]->open_write(tx)->value -= 1;
          accounts[to]->open_write(tx)->value += 1;
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  long total = 0;
  for (const auto& a : accounts) total += a->peek()->value;
  const std::vector<trace::Event> events = recorder.drain_sorted();
  std::printf("recorded %zu events over %llu commits (account sum %ld, expected 0)\n",
              events.size(), static_cast<unsigned long long>(rt.total_metrics().commits),
              total);
  for (unsigned t = 0; t < threads; ++t) {
    if (recorder.dropped(t) > 0) {
      std::printf("  note: thread %u dropped %llu events to ring wraparound\n", t,
                  static_cast<unsigned long long>(recorder.dropped(t)));
    }
  }

  // 2. Analyze: reconstruction and wasted-work attribution.
  trace::Analyzer analyzer(events);
  std::printf("\n%s", analyzer.summary().c_str());

  const auto wasted = analyzer.wasted_by_killer();
  if (!wasted.empty()) {
    std::printf("wasted ns by killer:");
    for (const auto& [slot, ns] : wasted) {
      if (slot == trace::kNoEnemy) {
        std::printf(" unattributed:%lld", static_cast<long long>(ns));
      } else {
        std::printf(" t%u:%lld", slot, static_cast<long long>(ns));
      }
    }
    std::printf("\n");
  }

  // 3. Check: replay the window-CM invariants over the recorded decisions.
  const trace::CheckResult check = trace::ScheduleChecker::check(events);
  std::printf("\n%s", check.to_string().c_str());

  // 4. Export both formats.
  const std::string base = cli.get_string("out");
  if (!trace::write_trace_file(base + ".bin", events) ||
      !trace::write_trace_file(base + ".json", events)) {
    std::fprintf(stderr, "failed to write %s.{bin,json}\n", base.c_str());
    return 1;
  }
  std::printf("\nwrote %s.bin (wstm-trace) and %s.json (chrome://tracing)\n", base.c_str(),
              base.c_str());
  return check.ok() ? 0 : 1;
}
