#include <thread>

#include "cm/schedulers.hpp"
#include "stm/runtime.hpp"

namespace wstm::cm {

// The aborter registers itself with the victim (TxDesc::aborted_by, with a
// reference so the pointer stays valid); the victim's retry then waits for
// the aborter to finish before restarting — "stolen" behind it. Conflicts
// themselves resolve Karma-free: the attacker wins (the steal compensates
// for the aggression by damping repeat conflicts).
stm::Resolution StealOnAbort::resolve(stm::ThreadCtx& self, stm::TxDesc& tx,
                                      stm::TxDesc& enemy, stm::ConflictKind kind) {
  (void)self, (void)kind;
  // Register as the enemy's aborter before the runtime kills it.
  tx.add_ref();
  stm::TxDesc* prev = enemy.aborted_by.exchange(&tx, std::memory_order_acq_rel);
  if (prev != nullptr) prev->release();
  return stm::Resolution::kAbortEnemy;
}

void StealOnAbort::on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) {
  (void)tx, (void)is_retry;
  PerThread& st = *state_[self.slot()];
  if (st.aborter != nullptr) {
    // We were stolen: wait until the transaction that aborted us finished
    // (through the runtime's hook when attached, so the checker can
    // schedule the aborter meanwhile).
    if (waiter_ != nullptr) {
      waiter_->wait_until_inactive(self, tx, *st.aborter);
    } else {
      while (st.aborter->is_active()) std::this_thread::yield();
    }
    st.aborter->release();
    st.aborter = nullptr;
  }
}

void StealOnAbort::on_abort(stm::ThreadCtx& self, stm::TxDesc& tx) {
  PerThread& st = *state_[self.slot()];
  stm::TxDesc* by = tx.aborted_by.exchange(nullptr, std::memory_order_acq_rel);
  if (by != nullptr) {
    // Defer the wait to the next on_begin so cleanup finishes first.
    if (st.aborter != nullptr) st.aborter->release();
    st.aborter = by;
  }
}

}  // namespace wstm::cm
