// Yielding wait for contention managers.
//
// A machine may have fewer hardware threads than benchmark threads (many CI
// containers do), so a waiting transaction must let its enemy actually run:
// the wait yields to the OS scheduler on every round. Pure spinning would
// deadlock progress under oversubscription.
#pragma once

#include <chrono>
#include <thread>

namespace wstm {

/// Sleep for a bounded duration while yielding; used by contention managers
/// that grant an enemy a time slice (Polka). Returns early if `done()`
/// becomes true.
template <typename Predicate>
bool yield_until(std::chrono::nanoseconds budget, Predicate&& done) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::yield();
  }
  return done();
}

}  // namespace wstm
