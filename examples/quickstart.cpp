// Quickstart: the smallest complete wstm program.
//
//   1. pick a contention manager and build a Runtime,
//   2. wrap shared state in TObject<T>,
//   3. attach each thread and run transactions with atomically().
//
// The example runs concurrent bank transfers: the invariant (total balance
// is conserved) only holds because each transfer commits atomically.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "util/rng.hpp"

int main() {
  using namespace wstm;

  constexpr unsigned kThreads = 4;
  constexpr int kAccounts = 6;
  constexpr long kInitialBalance = 1000;
  constexpr int kTransfersPerThread = 5000;

  // Any manager from cm::manager_names() works here; Online-Dynamic is the
  // paper's best-performing window-based contention manager.
  cm::Params params;
  params.threads = kThreads;
  stm::Runtime rt(cm::make_manager("Online-Dynamic", params));

  std::vector<std::unique_ptr<stm::TObject<long>>> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(std::make_unique<stm::TObject<long>>(kInitialBalance));
  }

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      stm::ThreadCtx& tc = rt.attach_thread();  // once per OS thread
      Xoshiro256 rng(t + 1);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const auto from = static_cast<std::size_t>(rng.below(kAccounts));
        auto to = static_cast<std::size_t>(rng.below(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        const long amount = static_cast<long>(rng.below(100));

        // The lambda may run several times (aborted attempts retry); all
        // its shared-memory effects go through open_read/open_write.
        rt.atomically(tc, [&](stm::Tx& tx) {
          long* a = accounts[from]->open_write(tx);
          if (*a < amount) return;  // insufficient funds: commit a no-op
          long* b = accounts[to]->open_write(tx);
          *a -= amount;
          *b += amount;
        });
      }
    });
  }
  for (auto& w : workers) w.join();

  long total = 0;
  for (const auto& account : accounts) total += *account->peek();
  const stm::ThreadMetrics m = rt.total_metrics();
  std::printf("accounts total: %ld (expected %ld)\n", total,
              static_cast<long>(kAccounts) * kInitialBalance);
  std::printf("commits: %llu, aborts: %llu (%.3f aborts/commit)\n",
              static_cast<unsigned long long>(m.commits),
              static_cast<unsigned long long>(m.aborts),
              m.commits ? static_cast<double>(m.aborts) / static_cast<double>(m.commits) : 0.0);
  return total == static_cast<long>(kAccounts) * kInitialBalance ? 0 : 1;
}
