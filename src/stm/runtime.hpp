// STM runtime: thread registry, transaction execution loop, and the
// open-for-read / open-for-write protocol entry points.
//
// Typical use:
//
//   stm::Runtime rt(cm::make_manager("Polka", cm::Params{.threads = 4}));
//   stm::ThreadCtx& tc = rt.attach_thread();     // once per OS thread
//   int found = rt.atomically(tc, [&](stm::Tx& tx) {
//     const Node* head = list.head.open_read(tx);
//     ...
//     Node* n = node.open_write(tx);
//     n->value = 7;
//     return 1;
//   });
//
// The lambda may run many times (every abort restarts it — greedy
// contention management); it must be pure apart from TObject accesses and
// tx.make / tx.retire_on_commit allocations.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/hooks.hpp"
#include "cm/manager.hpp"
#include "stm/backend.hpp"
#include "stm/park.hpp"
#include "ebr/ebr.hpp"
#include "resilience/chaos.hpp"
#include "resilience/errors.hpp"
#include "resilience/liveness.hpp"
#include "stm/fwd.hpp"
#include "stm/metrics.hpp"
#include "stm/tobject.hpp"
#include "stm/tx.hpp"
#include "util/cacheline.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace wstm::trace {
class Recorder;
}

namespace wstm::stm {

/// Thrown (internally) to unwind an aborted attempt. User code should let
/// it propagate out of the atomically() lambda.
struct TxAbort {};

/// Open-addressed pointer→index map, generation-stamped so the per-attempt
/// reset is O(1) (no clearing); capacity persists across attempts, matching
/// the log vectors' allocation discipline. Both engines index their logs
/// with it — keys are opaque pointers (TObjectBase* or orec-word addresses).
class InvisReadIndex {
 public:
  static constexpr std::uint32_t kNotFound = UINT32_MAX;

  void reset() noexcept {
    ++gen_;
    size_ = 0;
  }

  /// Index of `obj` in the read set, or kNotFound when absent.
  std::uint32_t find(const void* obj) const noexcept {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(obj) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return kNotFound;  // empty in this generation
      if (s.obj == obj) return s.idx;
    }
  }

  /// Pre: `obj` is absent. `idx` is its position in the indexed log.
  void insert(const void* obj, std::uint32_t idx) {
    if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(obj) & mask;
    while (slots_[i].gen == gen_) i = (i + 1) & mask;
    slots_[i] = Slot{obj, idx, gen_};
    ++size_;
  }

 private:
  struct Slot {
    const void* obj;
    std::uint32_t idx;
    std::uint64_t gen;
  };

  static std::size_t hash(const void* obj) noexcept {
    // Fibonacci hash over the pointer bits above the allocation alignment.
    std::uint64_t v = reinterpret_cast<std::uintptr_t>(obj) >> 4;
    v *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(v ^ (v >> 29));
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    // gen_ starts at 1, so zero-filled slots read as empty.
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{nullptr, 0, 0});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = hash(s.obj) & mask;
      while (slots_[i].gen == gen_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t gen_ = 1;
};

/// Per-OS-thread context. Obtain via Runtime::attach_thread(); not
/// thread-safe, use only from the owning thread.
class ThreadCtx {
 public:
  unsigned slot() const noexcept { return slot_; }
  ThreadMetrics& metrics() noexcept { return metrics_; }
  Xoshiro256& rng() noexcept { return rng_; }
  Runtime& runtime() noexcept { return *rt_; }
  /// The attempt currently executing on this thread (null between
  /// transactions). Until the attempt is exposed this is the thread's
  /// never-published descriptor, which the next unexposed attempt reuses in
  /// place (DESIGN.md §5); enemies only ever reach published descriptors,
  /// through Runtime::tx_of_slot or an orec lock word.
  TxDesc* current() noexcept { return current_; }

  ~ThreadCtx() {
    for (const TrackedAlloc& a : checker_arena_) a.deleter(a.ptr);
  }

 private:
  friend class Runtime;
  friend class Tx;
  friend class DstmEngine;
  friend class OrecEngine;

  struct TrackedAlloc {
    void* ptr;
    void (*deleter)(void*);
  };

  ThreadCtx(Runtime* rt, unsigned slot, ebr::Handle handle, std::uint64_t seed)
      : rt_(rt), slot_(slot), ebr_(std::move(handle)), rng_(seed) {}

  /// The in-flight attempt's descriptor has been published (Runtime::publish).
  bool published() const noexcept { return current_ != spare_; }

  Runtime* rt_;
  unsigned slot_;
  ebr::Handle ebr_;
  Xoshiro256 rng_;
  /// Slab pool for TxDesc/Locator/clone blocks, acquired at attach.
  util::Pool* pool_ = nullptr;
  /// Set once by detach_thread; makes a second detach a safe no-op.
  bool detached_ = false;
  TxDesc* current_ = nullptr;
  /// The thread's never-published descriptor: attempts run on it until
  /// they are exposed, and it is reused in place while none is. publish()
  /// hands it to current_tx_ and clears this; the next attempt allocates a
  /// fresh one.
  TxDesc* spare_ = nullptr;
  std::uint64_t serial_ = 0;
  /// Logical transactions begun on this thread (the timing sample clock).
  std::uint64_t logical_txs_ = 0;
  /// The in-flight logical transaction is timed (Runtime::begin_logical):
  /// its attempts carry timestamps and feed the ThreadMetrics timing sums.
  bool timed_ = false;
  ThreadMetrics metrics_;
  std::vector<TrackedAlloc> allocs_;
  std::vector<TrackedAlloc> commit_retires_;
  /// Checker runs only: this thread's committed Tx::make allocations, freed
  /// with the context at Runtime teardown instead of by an EBR retire or
  /// the data structure, so the nodes a seeded bug's lost update orphans
  /// are freed too.
  std::vector<TrackedAlloc> checker_arena_;
  bool waited_this_attempt_ = false;
  /// The current attempt is dying from a checker-injected fault (recorded
  /// as detail bit0 of the kAbort trace event, then cleared).
  bool injected_abort_ = false;
  /// Watchdog detections collected by liveness_pre_begin, recorded into the
  /// trace once the attempt's descriptor (and serial) exists.
  std::uint8_t pending_watchdog_flags_ = 0;
  // Identity of the last conflicting enemy attempt (repeat-conflict metric).
  std::uint32_t last_enemy_slot_ = UINT32_MAX;
  std::uint64_t last_enemy_serial_ = 0;
  // Liveness escalation state for the in-flight *logical* transaction
  // (survives attempt retries, reset on commit/timeout). All owner-thread
  // only; the shared view enemies arbitrate on lives in TxDesc.
  std::uint32_t consecutive_aborts_ = 0;
  std::uint32_t escalation_level_ = 0;
  bool attempt_irrevocable_ = false;
};

/// Handle passed to the user's transaction body.
class Tx {
 public:
  const void* open_read(TObjectBase& obj);  // defined after Runtime below
  void* open_write(TObjectBase& obj);

  /// Allocate an object tied to this transaction: deleted automatically if
  /// the transaction aborts, kept (caller/structure owns it) on commit.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    T* p = new T(std::forward<Args>(args)...);
    tc_->allocs_.push_back({p, [](void* q) { delete static_cast<T*>(q); }});
    return p;
  }

  /// Defer deletion of `obj` (typically an unlinked node) until after this
  /// transaction commits *and* an EBR grace period has passed. No-op if the
  /// transaction aborts.
  template <typename T>
  void retire_on_commit(T* obj) {
    tc_->commit_retires_.push_back({obj, [](void* q) { delete static_cast<T*>(q); }});
  }

  /// Explicitly abort and retry this transaction (e.g. user-level retry).
  /// Routed through Runtime::abort_self so an irrevocable (serial-fallback)
  /// transaction is demoted and releases the token first. Defined after
  /// Runtime below.
  [[noreturn]] void restart();

  TxDesc& desc() noexcept { return *desc_; }
  ThreadCtx& thread() noexcept { return *tc_; }
  Xoshiro256& rng() noexcept { return tc_->rng(); }

 private:
  friend class Runtime;
  Tx(Runtime* rt, ThreadCtx* tc, TxDesc* desc) : rt_(rt), tc_(tc), desc_(desc) {}

  Runtime* rt_;
  ThreadCtx* tc_;
  TxDesc* desc_;
};

struct RuntimeConfig {
  std::uint64_t seed = 0x5eed;  // base seed for per-thread RNGs

  /// Execution engine (DESIGN.md §12). kDstm: eager obstruction-free
  /// per-object locators — the paper's substrate, with the read mode
  /// below. kOrec: lazy TL2-style engine (redo-log write buffering over a
  /// striped orec table, commit-time lock acquisition, timestamp read-set
  /// validation against the same commit clock). The CM family, liveness ladder, metrics, trace and checker
  /// apply identically to both.
  BackendKind backend = BackendKind::kDstm;

  /// Conflict-arbitration mode (DESIGN.md §13). kAbort: the historical
  /// requester-wins behavior — kRetry resolutions spin/yield inside the CM.
  /// kWait: requester-waits — losing transactions park futex-style on the
  /// enemy descriptor (src/stm/park.hpp) and the enemy's commit/abort path
  /// wakes them, so contended cores sleep instead of burning. Parking is
  /// bounded by the liveness deadline and visible to the watchdog; serial-
  /// token holders never park. Under the checker, parks become kPark/kUnpark
  /// schedule points with a deadlock-freedom oracle.
  ArbitrationMode arbitration = ArbitrationMode::kAbort;

  /// log2 of the orec-table size (orec backend only). Every TObject hashes
  /// to one of 2^bits versioned write-locks; smaller tables raise false
  /// sharing of locks, which the engine must (and tests do) tolerate.
  std::uint32_t orec_table_bits = 16;

  /// DSTM read mode, mirroring DSTM2's two options (the paper used visible):
  ///  * visible (default): readers announce themselves in the per-object
  ///    reader records; writers abort them eagerly, no validation needed.
  ///  * invisible: readers leave no trace; instead the read set
  ///    (object, observed version) is validated under a TL2-GV5-style
  ///    deferred commit clock (DESIGN.md §11): write-commits stamp
  ///    `clock+1` into their descriptor without touching the shared line,
  ///    and opens fast-accept per object, so a full pass runs only when a
  ///    fresh stamp trips one (amortized O(1) per open). Writers never see
  ///    readers, so read-write conflicts surface as the reader's own
  ///    validation aborts.
  bool visible_reads = true;

  /// Optional event recorder (non-owning; must outlive the Runtime). Null
  /// disables tracing: every instrumentation site then costs one
  /// predictable null-pointer branch. See trace/recorder.hpp.
  trace::Recorder* recorder = nullptr;

  /// Optional deterministic-checker hook (non-owning; must outlive the
  /// Runtime). Null disables checking: every schedule point then costs one
  /// predictable null-pointer branch, mirroring `recorder`. See
  /// check/hooks.hpp and src/check/executor.hpp. Under a checker the
  /// runtime owns every committed Tx::make allocation until it is destroyed
  /// (retire_on_commit frees nothing earlier), so a structure run under it
  /// must leave its nodes alone (structs::TxIntSet::disown_nodes).
  check::SchedulerHook* checker = nullptr;

  /// Deliberately seeded protocol bugs, off by default. They exist so the
  /// checker (and CI) can prove it finds real abort/commit boundary bugs —
  /// never enable outside tests. Each one removes a recheck the protocol's
  /// safety argument depends on.
  struct DebugFaults {
    /// Commit with a plain store instead of the Active→Committed CAS,
    /// skipping the recheck that detects a remote kill between the last
    /// open and the commit point (lost-update bug).
    bool blind_commit = false;
    /// Visible reads: acquire without resolving the reader bitmap, letting
    /// announced readers keep stale snapshots (atomicity bug).
    bool skip_reader_abort = false;
    /// Invisible reads: skip the locator recheck after read-set validation
    /// in open_read, breaking the snapshot argument (opacity bug).
    bool skip_cas_recheck = false;
    /// Deferred clock: fast-accept a committed stamp without checking the
    /// commit-pending set, treating a writer that was still mid-commit at
    /// snapshot establishment as if its switch preceded the snapshot
    /// (opacity bug — the exact staleness window the pending rule closes;
    /// see DESIGN.md §11).
    bool stamp_no_pending = false;
    /// Orec backend: commit after lock acquisition WITHOUT the read-set
    /// timestamp validation, publishing writes derived from a snapshot that
    /// may already be stale (the classic TL2 validation invariant, broken
    /// on purpose; serializability bug).
    bool orec_skip_validation = false;
    /// Requester-waits arbitration: skip the unpark edge on COMMIT paths
    /// (both backends), keeping only the abort-path edges — the classic
    /// lost-wakeup bug. In real mode every park is slice-bounded, so the
    /// effect degrades to timeout stalls; under the checker the parked
    /// thread stays blocked and the deadlock-freedom oracle fires.
    bool park_lost_wakeup = false;
  };
  DebugFaults bugs;

  /// Liveness layer (src/resilience/): starvation watchdog + escalation
  /// ladder + irrevocable serial fallback. Disabled by default; when
  /// enabled the Runtime owns a LivenessManager and keeps a raw pointer on
  /// the hot path (same null-toggle idiom as `recorder` and `checker`).
  resilience::LivenessConfig liveness;

  /// Live chaos injection (src/resilience/chaos.hpp): thread stalls,
  /// spurious aborts, delayed commits, EBR reclamation pressure. Disabled
  /// by default; never combine with `checker` (the deterministic executor
  /// has its own fault injector).
  resilience::ChaosConfig chaos;

  /// Bound on how long Runtime::shutdown() waits for in-flight attempts to
  /// drain before teardown proceeds anyway.
  std::int64_t shutdown_drain_timeout_ns = 1'000'000'000;
};

/// Also the managers' cm::WaitHooks: the wait verb they park through.
class Runtime final : private cm::WaitHooks {
 public:
  static_assert(ebr::Domain::kMaxThreads >= kMaxThreads,
                "every thread slot attaches its own EBR handle");
  /// When nothing but the metrics reads the attempt clock, each thread
  /// times its first logical transaction and then every this-many-th.
  static constexpr std::uint64_t kTimingSamplePeriod = 64;

  using Config = RuntimeConfig;

  explicit Runtime(cm::ManagerPtr manager, Config config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Claims a thread slot. The returned context stays valid until the
  /// Runtime is destroyed (detach_thread retires it but does not free it,
  /// so a stale reference cannot dangle).
  ThreadCtx& attach_thread();
  /// Releases `tc`'s slot for reuse and drops its published descriptor.
  /// Idempotent: detaching an already-detached context is a no-op, and the
  /// destructor skips contexts that were detached explicitly. The context's
  /// metrics leave the total_metrics() sum at this point (callers aggregate
  /// before detaching, as the harness does).
  void detach_thread(ThreadCtx& tc);

  cm::ContentionManager& manager() noexcept { return *manager_; }
  ebr::Domain& ebr_domain() noexcept { return ebr_; }

  /// The descriptor thread `slot` published last (may be null). It is the
  /// in-flight attempt only if that attempt was exposed (DESIGN.md §5):
  /// an orec attempt that took no lock leaves the previous one here,
  /// finished. Dereference only while pinned (i.e. inside a transaction) —
  /// the pointer is protected by EBR. seq_cst pairs with publish()'s
  /// exchange in the argument of DESIGN.md §5.
  TxDesc* tx_of_slot(unsigned slot) noexcept {
    return current_tx_[slot]->load(std::memory_order_seq_cst);
  }

  /// Runs `fn(Tx&)` as a transaction, retrying on aborts until it commits.
  /// Returns fn's result.
  template <typename F>
  auto atomically(ThreadCtx& tc, F&& fn) {
    using Result = std::invoke_result_t<F&, Tx&>;
    const std::int64_t first_begin = begin_logical(tc);
    bool is_retry = false;
    for (;;) {
      TxDesc* desc = begin_attempt(tc, first_begin, is_retry);
      Tx tx(this, &tc, desc);
      try {
        if constexpr (std::is_void_v<Result>) {
          fn(tx);
          if (finish_attempt_commit(tc)) return;
        } else {
          Result result = fn(tx);
          if (finish_attempt_commit(tc)) return result;
        }
        // Lost the commit race (killed between the last open and the commit
        // point); finish_attempt_commit already cleaned up as an abort.
      } catch (const TxAbort&) {
        finish_attempt_abort(tc);
      } catch (...) {
        // Any escaping exception (a user error, resilience::TxTimeoutError)
        // ends the logical transaction, so the escalation ladder must not
        // carry into the next one — cleanup_attempt just counted the
        // aborted attempt, undoing e.g. enforce_deadline()'s pre-throw reset.
        finish_attempt_abort(tc);
        tc.consecutive_aborts_ = 0;
        tc.escalation_level_ = 0;
        throw;
      }
      is_retry = true;
    }
  }

  /// Sum of metrics over all ever-attached threads. Call after workers have
  /// joined (or accept slightly stale per-thread values).
  ThreadMetrics total_metrics() const;
  /// Clears all per-thread metrics (between warmup and measurement).
  void reset_metrics();

  /// Quiescence-safe teardown, also run by the destructor. Marks the
  /// runtime as stopping (any later begin_attempt throws
  /// resilience::RuntimeStoppedError), then drains in-flight attempts — the
  /// EBR domain's pinned handles — with a bounded timeout
  /// (RuntimeConfig::shutdown_drain_timeout_ns), kicking non-irrevocable
  /// published stragglers via try_abort so contention-manager waits
  /// unwind. Idempotent and safe to call concurrently with workers; callers
  /// must still stop *invoking* atomically() (i.e. observe the error and
  /// exit their loops) before the Runtime object itself is destroyed.
  void shutdown() noexcept;
  bool stopping() const noexcept { return stopping_.load(std::memory_order_acquire); }

  /// Liveness manager when RuntimeConfig::liveness.enabled, else null.
  const resilience::LivenessManager* liveness() const noexcept { return liveness_; }
  /// Chaos injector when RuntimeConfig::chaos.enabled, else null. The
  /// non-const overload exists for the serve worker pool, whose at_dequeue
  /// roll happens outside the Runtime's own hot path.
  const resilience::ChaosInjector* chaos() const noexcept { return chaos_; }
  resilience::ChaosInjector* chaos() noexcept { return chaos_; }

  /// Which execution engine this runtime was built with (DESIGN.md §12).
  BackendKind backend_kind() const noexcept { return backend_->kind(); }

 private:
  friend class Tx;
  friend class DstmEngine;
  friend class OrecEngine;

  /// Engine dispatch: shared prologue, the backend's open protocol, then
  /// the manager's open hook (Polka's karma), once per successful open.
  const void* open_read(ThreadCtx& tc, TObjectBase& obj) {
    open_prologue(tc);
    const void* payload = backend_->open_read(tc, obj);
    manager_->on_open(tc, *tc.current_);
    return payload;
  }
  void* open_write(ThreadCtx& tc, TObjectBase& obj) {
    open_prologue(tc);
    void* payload = backend_->open_write(tc, obj);
    manager_->on_open(tc, *tc.current_);
    return payload;
  }

  /// Shared open_read/open_write prologue: liveness heartbeat (one now_ns,
  /// taken only when the watchdog consumes it — configurations without the
  /// liveness layer never pay for the clock read here) and chaos injection.
  void open_prologue(ThreadCtx& tc) {
    if (liveness_ != nullptr) liveness_->heartbeat(tc.slot_, now_ns());
    if (chaos_ != nullptr) [[unlikely]] chaos_at_open(tc);
  }

  /// Starts a logical transaction: decides whether it is timed and returns
  /// its first attempt's timestamp, 0 when it is not. A clocked runtime
  /// times every transaction; otherwise only the metrics would consume the
  /// clock, and they take a 1-in-kTimingSamplePeriod sample per thread.
  std::int64_t begin_logical(ThreadCtx& tc) noexcept {
    tc.timed_ = clocked_ || tc.logical_txs_++ % kTimingSamplePeriod == 0;
    return tc.timed_ ? now_ns() : 0;
  }

  TxDesc* begin_attempt(ThreadCtx& tc, std::int64_t first_begin, bool is_retry);
  bool finish_attempt_commit(ThreadCtx& tc);  // false = lost the commit race
  void finish_attempt_abort(ThreadCtx& tc);

  /// Deterministic-checker schedule point: blocks until the installed hook
  /// grants this thread the token (no-op without a hook) and returns the
  /// action to take. Callers handle kInjectAbort/kFailCas where meaningful.
  check::Action sched_point(check::Point p, const void* obj = nullptr) {
    check::SchedulerHook* h = config_.checker;
    if (h == nullptr) [[likely]] return check::Action::kProceed;
    return h->on_point(p, obj);
  }

  /// A protocol site's schedule point that may take an injected abort:
  /// sched_point, unwinding through injected_abort on kInjectAbort. Inline:
  /// every open iteration of both engines runs one.
  void step(ThreadCtx& tc, check::Point p, const void* obj = nullptr) {
    if (sched_point(p, obj) == check::Action::kInjectAbort) [[unlikely]] injected_abort(tc);
  }

  /// Acts on a kInjectAbort directive: marks the abort as injected (traced
  /// in the kAbort event detail) and unwinds via abort_self.
  [[noreturn]] void injected_abort(ThreadCtx& tc);

  /// Throws TxAbort if the calling transaction has been killed remotely.
  /// Inline: both engines run it at every open.
  void ensure_alive(ThreadCtx& tc) {
    if (!tc.current_->is_active()) throw TxAbort{};
  }
  /// Kills the own transaction and throws TxAbort.
  [[noreturn]] void abort_self(ThreadCtx& tc);

  /// One conflict of the in-flight attempt with the active `enemy`, found
  /// by either engine: counts it (by kind, and as a repeat when the enemy
  /// attempt is the last one this thread met), arbitrates, traces, and acts
  /// on the resolution — kills the enemy and fires its unpark edge, aborts
  /// self (throws), or marks the attempt as having waited; the caller then
  /// re-examines the conflict. Arbitration is the manager's resolve() when
  /// the liveness layer is off; otherwise an irrevocable self wins, the
  /// deadline is enforced, an irrevocable enemy is waited on, and a
  /// strictly higher escalation boost wins outright. Leaves the attempt
  /// unpublished: no manager keeps it past resolve(), and a parked waiter
  /// is named by its slot, never by its descriptor.
  Resolution contend(ThreadCtx& tc, TxDesc& enemy, ConflictKind kind);

  /// Exposure (DESIGN.md §5): makes the in-flight attempt's descriptor
  /// reachable by other threads. Called just before another thread could
  /// first learn its address — at begin on DSTM and under the liveness
  /// layer, before the first lock CAS on orec. No-op once the attempt is
  /// published.
  void publish(ThreadCtx& tc) {
    if (!tc.published()) publish_spare(tc);
  }
  /// publish() body: one seq_cst exchange into current_tx_, then the EBR
  /// retirement of the descriptor it replaces. Requires the pin.
  void publish_spare(ThreadCtx& tc);

  // ---- requester-waits arbitration (DESIGN.md §13) ------------------------

  /// cm::WaitHooks: parks the calling thread on `enemy` until its status
  /// leaves Active, an unpark edge fires, or the slice expires. Returns
  /// false without waiting when parking is unavailable (abort mode,
  /// irrevocable self, exhausted deadline, would-be waiter cycle). Real
  /// mode parks on the ParkingLot with the beacon marked parked; checker
  /// mode blocks at a kPark schedule point instead.
  bool park_until_inactive(ThreadCtx& tc, const TxDesc& me, const TxDesc& enemy,
                           std::int64_t max_wait_ns) noexcept override;

  /// cm::WaitHooks: yields only when no checker is installed.
  void yield_safe() noexcept override {
    if (config_.checker == nullptr) std::this_thread::yield();
  }

  /// Unpark edge: called right after any status transition of `desc`
  /// (commit, self-abort, enemy kill, watchdog kick, shutdown drain); every
  /// caller is in runtime.cpp.
  /// No-op in abort mode; fires a kUnpark schedule point under the checker,
  /// otherwise wakes the descriptor's WaitSite. `tc` is the transitioning
  /// thread's context when available (metrics/trace), null from the
  /// watchdog and shutdown paths.
  void signal_status_change(ThreadCtx* tc, const TxDesc* desc) noexcept;

  /// True when parking `waiter_slot` on `enemy_slot` would close a cycle in
  /// the thread-level wait-for graph (slot-indexed, so no descriptor is
  /// ever dereferenced; slot reuse can only cause a spurious refusal).
  bool park_would_cycle(unsigned waiter_slot, unsigned enemy_slot) const noexcept;

  /// Escalation-ladder policy, run at the top of begin_attempt: deadline
  /// check, watchdog flag collection, backoff sleep, serial-fallback token
  /// acquisition. Returns the level this attempt runs at (0 = normal ... 3
  /// = irrevocable).
  std::uint32_t liveness_pre_begin(ThreadCtx& tc, std::int64_t first_begin);

  /// Liveness hard deadline across attempts: once the logical transaction
  /// that began at `first_begin` is older than it, resets the thread's
  /// escalation state and throws resilience::TxTimeoutError.
  void enforce_deadline(ThreadCtx& tc, std::int64_t first_begin);

  /// Chaos injection hooks (no-ops when chaos_ is null).
  void chaos_at_open(ThreadCtx& tc);
  void chaos_at_commit(ThreadCtx& tc);

  /// Watchdog callback: aborts slot's current attempt (stall remediation).
  void watchdog_kick(unsigned slot);

  void cleanup_attempt(ThreadCtx& tc, bool committed);

  /// Clears `desc`'s irrevocable flag and releases the serial-fallback
  /// token (with a trace event). Owner-thread only; no-op when the liveness
  /// layer is off or the flag is already clear. Every path out of an
  /// irrevocable attempt funnels through this before (or instead of) a
  /// try_abort, which refuses while the flag is set.
  void demote_irrevocable(ThreadCtx& tc, TxDesc* desc);

  /// detach_thread body; requires attach_mutex_ held.
  void detach_locked(ThreadCtx& tc);

  cm::ManagerPtr manager_;
  Config config_;
  /// Something reads the attempt timestamps: the manager (by name, see
  /// cm::is_timed_manager), the liveness layer or a trace recorder. Fixed
  /// at construction.
  bool clocked_ = true;
  /// Every attempt is exposed at begin: DSTM hands its descriptor to
  /// locators, reader stripes and the commit-pending slots on every open,
  /// and the liveness watchdog kicks attempts through current_tx_. Fixed at
  /// construction; false only for orec without the liveness layer.
  bool publish_at_begin_ = true;
  /// The execution engine (DstmEngine or OrecEngine per config_.backend),
  /// constructed once in the ctor; never null after construction.
  std::unique_ptr<Backend> backend_;
  ebr::Domain ebr_;
  /// Process-wide commit clock shared by both engines. DSTM (invisible
  /// reads) advances it only from extension passes that trip over a fresh
  /// commit stamp (DESIGN.md §11); orec bumps it on every write-commit
  /// (DESIGN.md §12). All protocol-relevant accesses are seq_cst — the
  /// opacity arguments lean on the single total order over {bump, reader
  /// clock sample, commit-pending announce/retract, locator install/load}.
  CacheAligned<std::atomic<std::uint64_t>> commit_clock_{};
  std::array<CacheAligned<std::atomic<TxDesc*>>, kMaxThreads> current_tx_{};
  std::array<std::unique_ptr<ThreadCtx>, kMaxThreads> threads_{};
  /// Detached contexts, kept until Runtime destruction so references held by
  /// callers (and a double detach_thread) stay safe after the slot recycles.
  std::vector<std::unique_ptr<ThreadCtx>> retired_threads_;
  std::array<std::atomic<bool>, kMaxThreads> slot_used_{};
  mutable std::mutex attach_mutex_;

  // Liveness/chaos (owned; the raw pointers are the hot-path toggles).
  std::unique_ptr<resilience::LivenessManager> liveness_owned_;
  resilience::LivenessManager* liveness_ = nullptr;
  std::unique_ptr<resilience::ChaosInjector> chaos_owned_;
  resilience::ChaosInjector* chaos_ = nullptr;
  /// EBR handle for the watchdog thread (it dereferences published TxDesc
  /// pointers when kicking); used only from the watchdog thread while it
  /// runs, detached by the destructor after the watchdog has joined.
  /// Absent (never attached) when the domain had no free slot.
  ebr::Handle watchdog_ebr_;

  // Shutdown gate: Dekker-style with the EBR pin (begin_attempt pins, a
  // seq_cst store, then loads stopping_; shutdown stores stopping_ seq_cst
  // then scans the domain for pinned handles).
  std::atomic<bool> stopping_{false};

  // ---- requester-waits state (DESIGN.md §13; inert in abort mode) ---------

  /// Hashed WaitSites the losers block on; unpark edges fan out from here.
  ParkingLot parking_lot_;
  /// Thread-level wait-for graph: slot a parked thread is waiting on, -1
  /// when not parked. Written by the parking thread around its park, read
  /// by park_would_cycle. Slot-indexed on purpose — the cycle walk never
  /// dereferences a descriptor.
  std::array<CacheAligned<std::atomic<int>>, kMaxThreads> parked_on_{};
};

inline const void* Tx::open_read(TObjectBase& obj) { return rt_->open_read(*tc_, obj); }
inline void* Tx::open_write(TObjectBase& obj) { return rt_->open_write(*tc_, obj); }
inline void Tx::restart() { rt_->abort_self(*tc_); }

// ---- TObject template methods (need the complete Tx) ----------------------

template <typename T>
const T* TObject<T>::open_read(Tx& tx) {
  return static_cast<const T*>(tx.open_read(*this));
}

template <typename T>
T* TObject<T>::open_write(Tx& tx) {
  return static_cast<T*>(tx.open_write(*this));
}

}  // namespace wstm::stm
