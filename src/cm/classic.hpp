// The classic contention managers the paper compares against (Section
// III-A), plus two kept for the ablation benches and the tests.
//
//   Polka       — karma priorities + exponential backoff while waiting; the
//                 "published best" CM (Scherer & Scott, PODC'05).
//   Greedy      — static timestamps, abort the younger unless the older is
//                 waiting (Guerraoui, Herlihy, Pochon, PODC'05).
//   Priority    — static timestamps, younger always aborts itself.
//   Aggressive  — always abort the enemy.
//   RandomizedRounds — random priorities redrawn after every abort
//                 (Schneider & Wattenhofer, DISC'09); the subroutine the
//                 window Online algorithm builds on.
//
// All waiting is yielding (never a hard spin) so enemies can run even when
// software threads outnumber hardware threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "cm/manager.hpp"
#include "util/cacheline.hpp"

namespace wstm::cm {

class Polka final : public ContentionManager {
 public:
  std::string name() const override { return "Polka"; }
  stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                          stm::ConflictKind kind) override;
  void on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) override;
  void on_open(stm::ThreadCtx& self, stm::TxDesc& tx) override;
  void on_commit(stm::ThreadCtx& self, stm::TxDesc& tx) override;

 private:
  // The accrued karma persists across the retries of one logical transaction.
  std::array<CacheAligned<std::uint32_t>, stm::kMaxThreads> saved_karma_{};
};

class Greedy final : public ContentionManager {
 public:
  std::string name() const override { return "Greedy"; }
  stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                          stm::ConflictKind kind) override;
};

class Priority final : public ContentionManager {
 public:
  std::string name() const override { return "Priority"; }
  stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                          stm::ConflictKind kind) override;
};

class Aggressive final : public ContentionManager {
 public:
  std::string name() const override { return "Aggressive"; }
  stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                          stm::ConflictKind kind) override;
};

class RandomizedRounds final : public ContentionManager {
 public:
  /// `threads` is M, the range of the random priority draw.
  explicit RandomizedRounds(std::uint32_t threads) : threads_(threads) {}

  std::string name() const override { return "RandomizedRounds"; }
  stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                          stm::ConflictKind kind) override;
  void on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) override;
  void on_abort(stm::ThreadCtx& self, stm::TxDesc& tx) override;

 private:
  std::uint32_t threads_;
};

}  // namespace wstm::cm
