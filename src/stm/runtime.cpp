// The engine-agnostic runtime: thread registry, the attempt loop, CM
// arbitration, liveness escalation, parking and shutdown. The object-level
// protocols live in the engines (dstm/engine.cpp, orec/engine.cpp).
#include "stm/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <new>
#include <stdexcept>
#include <thread>

#include "cm/registry.hpp"
#include "stm/dstm/engine.hpp"
#include "stm/orec/engine.hpp"
#include "trace/recorder.hpp"

namespace wstm::stm {

namespace {
/// Releases the slot reference held by the current_tx_ published pointer;
/// deferred through EBR so enemies dereferencing the pointer stay safe.
void release_desc_ref(void* desc_ptr) { static_cast<TxDesc*>(desc_ptr)->release(); }
}  // namespace

Runtime::Runtime(cm::ManagerPtr manager, Config config)
    : manager_(std::move(manager)), config_(config) {
  if (!manager_) throw std::invalid_argument("Runtime requires a contention manager");
  if (config_.backend == BackendKind::kOrec) {
    backend_ = std::make_unique<OrecEngine>(*this, config_.orec_table_bits);
  } else {
    backend_ = std::make_unique<DstmEngine>(*this);
  }
  // By name, not by a virtual: decorators that forward name() (perfbench's
  // probe) then keep the decision without forwarding anything new.
  clocked_ = cm::is_timed_manager(manager_->name()) || config_.liveness.enabled ||
             config_.recorder != nullptr;
  manager_->attach_recorder(config_.recorder);
  manager_->attach_wait_hooks(&park_waiter_);
  for (auto& p : parked_on_) p->store(-1, std::memory_order_relaxed);
  if (config_.liveness.enabled) {
    liveness_owned_ = std::make_unique<resilience::LivenessManager>(config_.liveness);
    liveness_ = liveness_owned_.get();
    // The monitor thread is a real-time mechanism; under the deterministic
    // checker it would observe the virtual clock racily and break replay,
    // so only the worker-driven parts of the ladder run there.
    if (config_.checker == nullptr && config_.liveness.watchdog_period_ns > 0) {
      try {
        // The watchdog dereferences published descriptors when kicking, so
        // it needs its own EBR slot (workers are then capped at 63). If the
        // domain is full, detection still runs but kicks are disabled.
        watchdog_ebr_ = ebr_.attach();
      } catch (...) {
      }
      liveness_->start_watchdog([this](unsigned slot) { watchdog_kick(slot); });
    }
  }
  if (config_.chaos.enabled && config_.checker == nullptr) {
    chaos_owned_ = std::make_unique<resilience::ChaosInjector>(config_.chaos);
    chaos_ = chaos_owned_.get();
  }
}

Runtime::~Runtime() {
  // Quiescence-safe teardown: refuse new attempts and drain in-flight ones
  // (bounded) before the watchdog and the thread registry go away.
  shutdown();
  if (liveness_ != nullptr) liveness_->stop_watchdog();
  if (watchdog_ebr_.attached()) watchdog_ebr_.detach();
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (unsigned i = 0; i < kMaxThreads; ++i) {
    // detach_locked skips contexts the caller already detached (the slot
    // array only holds live ones, so no double handling is possible).
    if (threads_[i]) detach_locked(*threads_[i]);
  }
}

void Runtime::shutdown() noexcept {
  stopping_.store(true, std::memory_order_seq_cst);
  const std::int64_t deadline = now_ns() + config_.shutdown_drain_timeout_ns;
  // Kicking stragglers requires dereferencing published descriptors, which
  // needs an EBR pin; use a scratch handle so shutdown works from any
  // thread. With all kMaxThreads slots taken we only wait (attach throws).
  ebr::Handle scratch;
  bool have_scratch = false;
  try {
    scratch = ebr_.attach();
    have_scratch = true;
  } catch (...) {
  }
  for (;;) {
    bool active = false;
    for (unsigned i = 0; i < kMaxThreads; ++i) {
      if (attempt_active_[i]->load(std::memory_order_seq_cst) != 0) {
        active = true;
        break;
      }
    }
    if (!active) break;
    if (config_.shutdown_drain_timeout_ns > 0 && now_ns() >= deadline) break;
    if (have_scratch) {
      // Abort in-flight stragglers so contention-manager waits unwind into
      // the retry loop, where the stopping gate turns them into
      // RuntimeStoppedError. Irrevocable holders refuse the kill and drain
      // by committing.
      scratch.pin();
      for (unsigned i = 0; i < kMaxThreads; ++i) {
        if (attempt_active_[i]->load(std::memory_order_acquire) == 0) continue;
        if (TxDesc* d = current_tx_[i]->load(std::memory_order_acquire)) {
          if (d->try_abort()) signal_status_change(nullptr, d);
        }
      }
      scratch.unpin();
    }
    std::this_thread::yield();
  }
  if (have_scratch) scratch.detach();
}

void Runtime::watchdog_kick(unsigned slot) {
  if (!watchdog_ebr_.attached()) return;
  watchdog_ebr_.pin();
  // A stalled attempt holds objects open; aborting it lets conflicting
  // threads proceed, and the victim unwinds at its next schedule point.
  // try_abort refuses irrevocable holders by itself.
  if (TxDesc* d = current_tx_[slot]->load(std::memory_order_acquire)) {
    if (d->try_abort()) signal_status_change(nullptr, d);
  }
  watchdog_ebr_.unpin();
}

ThreadCtx& Runtime::attach_thread() {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (unsigned i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (slot_used_[i].compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      const std::uint64_t seed = config_.seed * 0x9e3779b97f4a7c15ULL + i + 1;
      threads_[i].reset(new ThreadCtx(this, i, ebr_.attach(), seed));
      ThreadCtx& tc = *threads_[i];
      tc.pool_ = util::Pool::acquire();
      tc.ebr_.set_pool(tc.pool_);
      tc.ebr_.set_sync_counter(&tc.metrics_.ebr_shard_syncs);
      backend_->attach(tc);
      return tc;
    }
  }
  throw std::runtime_error("Runtime: all thread slots in use");
}

void Runtime::detach_thread(ThreadCtx& tc) {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  detach_locked(tc);
}

void Runtime::detach_locked(ThreadCtx& tc) {
  const unsigned slot = tc.slot_;
  // Idempotence: a second detach of the same context (or a detach racing
  // the destructor) must not touch a slot that has moved on.
  if (tc.detached_ || threads_[slot].get() != &tc) return;
  // Drop the published descriptor's slot reference (no enemy can be pinned
  // on it once this thread has stopped running transactions and the caller
  // serializes detach with workload completion).
  TxDesc* prev = current_tx_[slot]->exchange(nullptr, std::memory_order_acq_rel);
  if (prev != nullptr) prev->release();
  tc.detached_ = true;
  // Release the EBR slot now (pending garbage moves to the domain) and park
  // the pool for the next attacher; the context itself is retired, not
  // destroyed, so stale references stay valid until Runtime teardown.
  tc.ebr_.detach();
  if (tc.pool_ != nullptr) {
    util::Pool::park(tc.pool_);
    tc.pool_ = nullptr;
  }
  retired_threads_.push_back(std::move(threads_[slot]));
  slot_used_[slot].store(false, std::memory_order_release);
}

std::uint32_t Runtime::liveness_pre_begin(ThreadCtx& tc, std::int64_t first_begin) {
  const resilience::LivenessConfig& lc = liveness_->config();

  // Hard deadline across attempts: surface a structured error instead of
  // retrying forever. The logical transaction ends here; its escalation
  // state resets so the *next* transaction starts clean.
  if (lc.deadline_ns > 0) {
    const std::int64_t age = now_ns() - first_begin;
    if (age > lc.deadline_ns) {
      const std::uint32_t aborts = tc.consecutive_aborts_;
      tc.metrics_.timeouts++;
      tc.consecutive_aborts_ = 0;
      tc.escalation_level_ = 0;
      throw resilience::TxTimeoutError(tc.slot_, aborts, age);
    }
  }

  // Collect watchdog detections here so the trace event is recorded by the
  // ring's owning thread (once the attempt's serial exists).
  tc.pending_watchdog_flags_ = liveness_->take_flags(tc.slot_);
  if (tc.pending_watchdog_flags_ != 0) tc.metrics_.watchdog_flags++;

  const std::uint32_t aborts = tc.consecutive_aborts_;
  std::uint32_t level = 0;
  if (aborts >= lc.serial_after) {
    level = 3;
  } else if (aborts >= lc.boost_after) {
    level = 2;
  } else if (aborts >= lc.backoff_after) {
    level = 1;
  }
  tc.escalation_level_ = level;
  tc.attempt_irrevocable_ = false;
  if (level == 0) return 0;

  tc.metrics_.escalations++;
  if (level < 3 && lc.backoff_base_us > 0) {
    // Capped randomized exponential backoff, drawn from the thread RNG so
    // seeded runs stay reproducible. Skipped at level 3: the transaction is
    // about to run serially, delaying it only extends the storm.
    const std::uint32_t over = aborts - lc.backoff_after;
    const std::uint64_t cap =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(lc.backoff_base_us)
                                    << std::min<std::uint32_t>(over, 10),
                                lc.backoff_cap_us);
    const std::uint64_t us = tc.rng_.below(cap + 1);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
  if (level >= 3 && liveness_->try_acquire_token(tc.slot_)) {
    // Token acquisition is strictly non-blocking: a failed CAS means "run
    // this attempt boosted"; blocking here would deadlock the serialized
    // deterministic executor (the waiter holds the execution token).
    tc.attempt_irrevocable_ = true;
    tc.metrics_.serial_fallbacks++;
  }
  return level;
}

TxDesc* Runtime::begin_attempt(ThreadCtx& tc, std::int64_t first_begin, bool is_retry) {
  sched_point(check::Point::kBegin);  // no descriptor yet: directives ignored

  // Shutdown gate, Dekker-paired with shutdown(): our seq_cst store of the
  // active flag is ordered against its seq_cst store of stopping_, so
  // either we observe stopping_ and refuse, or the drain loop observes our
  // flag and waits for this attempt to finish.
  attempt_active_[tc.slot_]->store(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) [[unlikely]] {
    attempt_active_[tc.slot_]->store(0, std::memory_order_release);
    throw resilience::RuntimeStoppedError(tc.slot_);
  }

  // Unwind protection until the descriptor is published: anything that
  // throws in between (the liveness deadline check, the pool allocation,
  // the retire-list chunk) must not leak the active flag — shutdown() would
  // spin on it until the drain timeout — nor the EBR pin, nor the
  // serial-fallback token, which has no other release path and would
  // disable serial fallback for the rest of the run.
  struct BeginGuard {
    Runtime* rt;
    ThreadCtx* tc;
    bool armed = true;
    ~BeginGuard() {
      if (!armed) return;
      if (tc->attempt_irrevocable_) {
        tc->attempt_irrevocable_ = false;
        rt->liveness_->release_token(tc->slot_);
      }
      if (tc->ebr_.pinned()) tc->ebr_.unpin();
      rt->attempt_active_[tc->slot_]->store(0, std::memory_order_release);
    }
  } guard{this, &tc};

  std::uint32_t level = 0;
  if (liveness_ != nullptr) level = liveness_pre_begin(tc, first_begin);

  auto* desc = new (util::Pool::allocate(tc.pool_, sizeof(TxDesc))) TxDesc();
  desc->thread_slot = tc.slot_;
  desc->serial = ++tc.serial_;
  if (tc.timed_) {
    // First attempts reuse the timestamp atomically() just took; only
    // retries need a fresh clock read. Untimed attempts keep both at 0:
    // nothing in this runtime reads them.
    desc->begin_ns = is_retry ? now_ns() : first_begin;
    desc->first_begin_ns = first_begin;
  }
  if (level >= 2) {
    // Escalation state becomes visible to enemies with the descriptor
    // itself: both fields are set before the publishing store below, so
    // no enemy ever observes a half-escalated attempt. Level 1 is purely a
    // backoff stage (already slept in liveness_pre_begin) and carries no
    // arbitration boost.
    desc->boost.store(level, std::memory_order_relaxed);
    if (tc.attempt_irrevocable_) desc->irrevocable.store(true, std::memory_order_relaxed);
  }

  // Publish with both references in place: the slot pointer's (released
  // via EBR when the next attempt replaces it) and the executing thread's.
  // This thread is the slot's only writer while attached, so a plain load
  // of the old value and a release store need no RMW.
  desc->refs.store(2, std::memory_order_relaxed);
  TxDesc* prev = current_tx_[tc.slot_]->load(std::memory_order_relaxed);
  current_tx_[tc.slot_]->store(desc, std::memory_order_release);
  // Pin only now, so that the publishing store is visible before retire()
  // reads the epoch and an enemy still able to load `prev` is pinned in an
  // epoch the retirement waits out. This is a hardware-mapping argument,
  // not a C++ memory-model guarantee: a release store is outside the
  // seq_cst total order, and only the x86, ARMv8 and POWER mappings of the
  // pin's seq_cst store and epoch re-load keep the publishing store ahead
  // of the epoch read. Neither TSan nor the serialized checker can detect
  // a violation (DESIGN.md §5).
  tc.ebr_.pin();
  if (prev != nullptr) tc.ebr_.retire(prev, &release_desc_ref);

  tc.current_ = desc;
  guard.armed = false;  // published: commit/abort cleanup owns the state now
  tc.waited_this_attempt_ = false;
  backend_->begin(tc);
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kBegin, desc->serial, is_retry ? 1 : 0);
    if (liveness_ != nullptr) {
      if (tc.pending_watchdog_flags_ != 0) {
        rec->record(tc.slot_, trace::EventKind::kWatchdog, desc->serial,
                    tc.pending_watchdog_flags_, trace::kNoEnemy, tc.consecutive_aborts_,
                    static_cast<std::uint64_t>(desc->begin_ns - first_begin));
      }
      if (level > 0) {
        rec->record(tc.slot_, trace::EventKind::kEscalate, desc->serial,
                    static_cast<std::uint8_t>(level), trace::kNoEnemy, tc.consecutive_aborts_);
      }
      if (tc.attempt_irrevocable_) {
        rec->record(tc.slot_, trace::EventKind::kSerialToken, desc->serial, 1);
      }
    }
  }
  tc.pending_watchdog_flags_ = 0;
  if (liveness_ != nullptr) {
    liveness_->note_attempt_begin(tc.slot_, desc->begin_ns, first_begin,
                                  tc.consecutive_aborts_);
  }
  manager_->on_begin(tc, *desc, is_retry);
  // After on_begin: the manager resets per-attempt priority state there
  // (WindowCM redraws pi2 and drops to low), so the boost must land last.
  if (level >= 2) manager_->on_boost(tc, *desc, level);
  return desc;
}

bool Runtime::finish_attempt_commit(ThreadCtx& tc) {
  if (sched_point(check::Point::kCommit) == check::Action::kInjectAbort) {
    injected_abort(tc);  // spurious abort at the commit boundary
  }
  const bool committed = backend_->commit(tc);
  cleanup_attempt(tc, committed);
  return committed;
}

void Runtime::finish_attempt_abort(ThreadCtx& tc) {
  sched_point(check::Point::kAbort);  // visibility only: directives ignored
  TxDesc* desc = tc.current_;
  // Demote before the kill, mirroring abort_self: a user exception escaping
  // the lambda of an irrevocable attempt lands here with the flag still
  // set, and try_abort refuses irrevocable descriptors — without the
  // demotion the status would stay kActive forever and enemies would wait
  // on the dead attempt indefinitely.
  demote_irrevocable(tc, desc);
  desc->try_abort();  // may already be aborted (remote kill or restart())
  signal_status_change(&tc, desc);
  cleanup_attempt(tc, /*committed=*/false);
}

void Runtime::demote_irrevocable(ThreadCtx& tc, TxDesc* desc) {
  if (liveness_ == nullptr || !desc->irrevocable.load(std::memory_order_relaxed)) return;
  desc->irrevocable.store(false, std::memory_order_release);
  liveness_->release_token(tc.slot_);
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kSerialToken, desc->serial, 0);
  }
}

void Runtime::cleanup_attempt(ThreadCtx& tc, bool committed) {
  TxDesc* desc = tc.current_;
  // Engine teardown first, while still pinned: DSTM clears reader stripes
  // and the invisible read set; orec releases still-held commit locks and
  // drops unapplied redo-log clones.
  backend_->end(tc, committed);

  // One clock read serves elapsed-time and response-time accounting (and
  // the trace event), and only timed transactions take it — now_ns() is a
  // measurable cost at millions of attempts per second.
  const std::int64_t end_ns = tc.timed_ ? now_ns() : 0;
  const std::int64_t elapsed = end_ns - desc->begin_ns;
  if (committed) {
    for (const auto& r : tc.commit_retires_) tc.ebr_.retire(r.ptr, r.deleter);
    tc.commit_retires_.clear();
    tc.allocs_.clear();  // ownership passed to the data structure
    tc.metrics_.commits++;
    if (tc.timed_) {
      tc.metrics_.timed_commits++;
      tc.metrics_.committed_ns += elapsed;
      tc.metrics_.response_ns += end_ns - desc->first_begin_ns;
    }
    if (trace::Recorder* rec = config_.recorder) {
      rec->record(tc.slot_, trace::EventKind::kCommit, desc->serial, 0, trace::kNoEnemy,
                  static_cast<std::uint64_t>(elapsed),
                  static_cast<std::uint64_t>(end_ns - desc->first_begin_ns));
    }
    manager_->on_commit(tc, *desc);
    // Chaos: EBR reclamation pressure — retire a burst of dummy blocks
    // while still pinned, stressing epoch advancement and the retire-chunk
    // machinery under concurrent load.
    if (chaos_ != nullptr) [[unlikely]] {
      if (const std::uint32_t burst = chaos_->ebr_pressure_due(tc.slot_)) {
        tc.metrics_.chaos_faults++;
        for (std::uint32_t i = 0; i < burst; ++i) {
          tc.ebr_.retire(::operator new(64), [](void* p) { ::operator delete(p); });
        }
        if (trace::Recorder* rec = config_.recorder) {
          rec->record(tc.slot_, trace::EventKind::kChaos, desc->serial,
                      static_cast<std::uint8_t>(resilience::ChaosInjector::Fault::kEbrPressure),
                      trace::kNoEnemy, burst);
        }
      }
    }
  } else {
    for (const auto& a : tc.allocs_) a.deleter(a.ptr);
    tc.allocs_.clear();
    tc.commit_retires_.clear();
    tc.metrics_.aborts++;
    tc.metrics_.wasted_ns += elapsed;  // 0 when untimed
    if (trace::Recorder* rec = config_.recorder) {
      // Best-effort killer attribution from a manager-registered aborter
      // (Steal-On-Abort); the offline analyzer joins the winner's conflict
      // events for the general case.
      std::uint32_t killer = trace::kNoEnemy;
      std::uint64_t killer_serial = 0;
      if (const TxDesc* by = desc->aborted_by.load(std::memory_order_acquire)) {
        killer = by->thread_slot;
        killer_serial = by->serial;
      }
      rec->record(tc.slot_, trace::EventKind::kAbort, desc->serial,
                  tc.injected_abort_ ? 1 : 0, killer,
                  static_cast<std::uint64_t>(elapsed), killer_serial);
    }
    manager_->on_abort(tc, *desc);
  }
  if (tc.waited_this_attempt_) tc.metrics_.waits++;

  // Release a leftover aborter registration the manager did not claim
  // (e.g. the registering enemy lost the kill race and we committed). The
  // relaxed load skips the RMW in the common case; a registration landing
  // after it is dropped by this descriptor's last release().
  if (desc->aborted_by.load(std::memory_order_relaxed) != nullptr) {
    if (TxDesc* by = desc->aborted_by.exchange(nullptr, std::memory_order_acq_rel)) {
      by->release();
    }
  }

  // Escalation bookkeeping for the logical transaction (cheap enough to
  // keep unconditional; only the liveness layer reads it).
  if (committed) {
    tc.consecutive_aborts_ = 0;
    tc.escalation_level_ = 0;
  } else {
    tc.consecutive_aborts_++;
  }
  if (liveness_ != nullptr) {
    // The commit path releases the serial-fallback token here; every abort
    // path (abort_self, finish_attempt_abort) already demoted before its
    // try_abort, for which demote_irrevocable is a no-op.
    demote_irrevocable(tc, desc);
    tc.attempt_irrevocable_ = false;
    liveness_->note_attempt_end(tc.slot_, committed);
  }

  tc.injected_abort_ = false;
  tc.current_ = nullptr;
  desc->release();  // the executing thread's reference
  tc.ebr_.unpin();
  attempt_active_[tc.slot_]->store(0, std::memory_order_release);
}

void Runtime::note_conflict(ThreadCtx& tc, const TxDesc& enemy) {
  if (tc.last_enemy_slot_ == enemy.thread_slot && tc.last_enemy_serial_ == enemy.serial) {
    tc.metrics_.repeat_conflicts++;
  } else {
    tc.last_enemy_slot_ = enemy.thread_slot;
    tc.last_enemy_serial_ = enemy.serial;
  }
}

void Runtime::trace_conflict(ThreadCtx& tc, const TxDesc& enemy, ConflictKind kind,
                             Resolution res) {
  trace::Recorder* rec = config_.recorder;
  if (rec == nullptr) return;
  const std::uint64_t serial = tc.current_->serial;
  rec->record(tc.slot_, trace::EventKind::kConflict, serial, trace::pack_conflict(kind, res),
              enemy.thread_slot, enemy.serial);
  if (res == Resolution::kRetry) {
    rec->record(tc.slot_, trace::EventKind::kWait, serial, 0, enemy.thread_slot, enemy.serial);
  }
}

void Runtime::abort_self(ThreadCtx& tc) {
  TxDesc* desc = tc.current_;
  // Irrevocability means "enemies cannot kill us", not "we cannot fail
  // ourselves" (invisible-read validation, restart(), injected faults).
  // Demote first so try_abort goes through and the token frees up.
  demote_irrevocable(tc, desc);
  desc->try_abort();
  signal_status_change(&tc, desc);
  throw TxAbort{};
}

Resolution Runtime::arbitrate(ThreadCtx& tc, TxDesc& me, TxDesc& enemy, ConflictKind kind) {
  if (liveness_ == nullptr) [[likely]] {
    return manager_->resolve(tc, me, enemy, kind);
  }
  // Serial fallback short-circuits every manager policy: the token holder
  // cannot lose a conflict, and everyone else waits for it. `me` reads its
  // own flag (owner-written), `enemy` needs acquire.
  if (me.irrevocable.load(std::memory_order_relaxed)) return Resolution::kAbortEnemy;
  // The hard deadline is also enforced here: conflict loops (a Greedy-style
  // kRetry spin, or parking behind the token holder) are the one place an
  // attempt can wait unboundedly without reaching begin_attempt again.
  const resilience::LivenessConfig& lc = liveness_->config();
  if (lc.deadline_ns > 0) {
    const std::int64_t age = now_ns() - me.first_begin_ns;
    if (age > lc.deadline_ns) {
      const std::uint32_t aborts = tc.consecutive_aborts_;
      tc.metrics_.timeouts++;
      tc.consecutive_aborts_ = 0;
      tc.escalation_level_ = 0;
      // Unwinds through atomically()'s catch(...): finish_attempt_abort
      // cleans the attempt, then the error reaches the caller.
      throw resilience::TxTimeoutError(tc.slot_, aborts, age);
    }
  }
  if (enemy.irrevocable.load(std::memory_order_acquire)) {
    // Waiting out the serial-token holder. In wait mode the holder's commit
    // fires this descriptor's unpark edge, so park instead of burning the
    // scheduler; the 100µs slice only bounds a missed edge.
    if (!park_until_inactive(tc, me, enemy, 100'000)) yield_safe();
    return Resolution::kRetry;  // the caller's loop re-examines the enemy
  }
  return manager_->resolve_with_boost(tc, me, enemy, kind);
}

bool Runtime::park_until_inactive(ThreadCtx& tc, const TxDesc& me, const TxDesc& enemy,
                                  std::int64_t max_wait_ns) noexcept {
  if (config_.arbitration != ArbitrationMode::kWait) [[likely]] return false;
  // Serial-token holders never park: the token's contract is that the
  // attempt runs to completion, and everyone else waits for *it*.
  if (tc.attempt_irrevocable_) return false;
  if (max_wait_ns <= 0 || &me == &enemy) return false;
  const unsigned enemy_slot = enemy.thread_slot;
  if (enemy_slot >= kMaxThreads) return false;
  // Deadlock freedom by refusal: if the enemy's park chain already reaches
  // back to this slot, parking would close a waiter cycle — fall back to
  // the caller's abort/yield path instead. The walk follows thread slots
  // only (never descriptor pointers, whose pool storage may be recycled);
  // slot reuse can at worst refuse a safe park, never admit a cycle.
  if (park_would_cycle(tc.slot_, enemy_slot)) return false;

  if (config_.checker != nullptr) {
    // Checker mode: the park is a schedule point. The executor marks this
    // virtual thread blocked at kPark arrival and keeps it ineligible until
    // the enemy's kUnpark edge (or a deadlock-oracle force-wake) clears it.
    // Spurious-wakeup semantics as in real mode: the caller re-checks.
    if (enemy.status.load(std::memory_order_acquire) != TxStatus::kActive) return true;
    parked_on_[tc.slot_]->store(static_cast<int>(enemy_slot), std::memory_order_seq_cst);
    check::ParkEdge edge{&me, &enemy};
    sched_point(check::Point::kPark, &edge);
    parked_on_[tc.slot_]->store(-1, std::memory_order_release);
    tc.metrics_.parks++;
    return true;
  }

  // Bound the slice by the liveness deadline: a parked transaction must
  // still reach its TxTimeoutError, so never sleep past the attempt's
  // remaining budget.
  std::int64_t slice = max_wait_ns;
  std::int64_t t0 = 0;
  if (liveness_ != nullptr) {
    const std::int64_t deadline_ns = liveness_->config().deadline_ns;
    if (deadline_ns > 0) {
      t0 = now_ns();
      const std::int64_t remaining = me.first_begin_ns + deadline_ns - t0;
      if (remaining <= 0) return false;  // arbitrate()'s deadline check fires
      slice = std::min(slice, remaining);
    }
  }
  if (t0 == 0) t0 = now_ns();
  // seq_cst publish before the wait: two threads parking on each other both
  // publish before they walk (inside park_would_cycle on the next attempt)
  // — at least one of any forming cycle observes the other and refuses.
  parked_on_[tc.slot_]->store(static_cast<int>(enemy_slot), std::memory_order_seq_cst);
  if (liveness_ != nullptr) liveness_->set_parked(tc.slot_, true);
  const ParkingLot::ParkResult r = parking_lot_.park(enemy, slice);
  const std::int64_t woke = now_ns();
  if (liveness_ != nullptr) {
    liveness_->set_parked(tc.slot_, false);
    liveness_->heartbeat(tc.slot_, woke);  // waking *is* progress
  }
  parked_on_[tc.slot_]->store(-1, std::memory_order_release);
  tc.metrics_.parks++;
  tc.metrics_.park_ns += static_cast<std::uint64_t>(woke - t0);
  if (r.spurious) tc.metrics_.spurious_wakeups++;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kPark, me.serial, r.spurious ? 1 : 0,
                enemy_slot, static_cast<std::uint64_t>(woke - t0), enemy.serial);
  }
  return true;
}

void Runtime::signal_status_change(ThreadCtx* tc, const TxDesc* desc) noexcept {
  if (config_.arbitration != ArbitrationMode::kWait) [[likely]] return;
  if (desc == nullptr) return;
  if (config_.checker != nullptr) {
    // The unpark edge is a schedule point: the executor wakes every virtual
    // thread blocked on `desc` at arrival. Watchdog/shutdown callers pass a
    // null tc and never run under the checker, so sched_point's thread-local
    // vid is always valid here.
    sched_point(check::Point::kUnpark, desc);
    return;
  }
  const unsigned woken = parking_lot_.unpark_all(desc);
  if (woken == 0 || tc == nullptr) return;
  tc->metrics_.unparks += woken;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc->slot_, trace::EventKind::kUnpark, desc->serial, 0, desc->thread_slot,
                woken);
  }
}

bool Runtime::park_would_cycle(unsigned waiter_slot, unsigned enemy_slot) const noexcept {
  unsigned cur = enemy_slot;
  for (unsigned hops = 0; hops < kMaxThreads; ++hops) {
    if (cur == waiter_slot) return true;
    const int next = parked_on_[cur]->load(std::memory_order_seq_cst);
    if (next < 0 || static_cast<unsigned>(next) >= kMaxThreads) return false;
    cur = static_cast<unsigned>(next);
  }
  return true;  // chain longer than the thread count: refuse conservatively
}

void Runtime::chaos_at_open(ThreadCtx& tc) {
  const auto inj = chaos_->at_open(tc.rng_);
  if (inj.fault == resilience::ChaosInjector::Fault::kNone) return;
  tc.metrics_.chaos_faults++;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kChaos, tc.current_->serial,
                static_cast<std::uint8_t>(inj.fault), trace::kNoEnemy, inj.slept_us);
  }
  // The serial-fallback holder is exempt from spurious aborts: the token's
  // contract is that the attempt runs to completion.
  if (inj.fault == resilience::ChaosInjector::Fault::kSpuriousAbort &&
      !tc.current_->irrevocable.load(std::memory_order_relaxed)) {
    abort_self(tc);
  }
}

void Runtime::chaos_at_commit(ThreadCtx& tc) {
  const auto inj = chaos_->at_commit(tc.rng_, tc.attempt_irrevocable_);
  if (inj.fault == resilience::ChaosInjector::Fault::kNone) return;
  tc.metrics_.chaos_faults++;
  if (trace::Recorder* rec = config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kChaos, tc.current_->serial,
                static_cast<std::uint8_t>(inj.fault), trace::kNoEnemy, inj.slept_us);
  }
  if (inj.fault == resilience::ChaosInjector::Fault::kSpuriousAbort) {
    abort_self(tc);  // same unwinding as a failed commit-time validation
  }
}

void Runtime::injected_abort(ThreadCtx& tc) {
  tc.injected_abort_ = true;
  tc.metrics_.injected_aborts++;
  abort_self(tc);
}

ThreadMetrics Runtime::total_metrics() const {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  ThreadMetrics total;
  for (const auto& t : threads_) {
    if (t) total += t->metrics_;
  }
  return total;
}

void Runtime::reset_metrics() {
  std::lock_guard<std::mutex> lock(attach_mutex_);
  for (const auto& t : threads_) {
    if (t) t->metrics_.reset();
  }
}

}  // namespace wstm::stm
