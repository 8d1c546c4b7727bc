// Per-layer instrumentation for the traced run: sampled spans kept in
// per-thread tracers, and a forwarding contention-manager decorator that
// times calls into the CM layer.
//
// A span records its kind, start, end, parent span and request id. Spans of
// one thread nest strictly (tx > attempt > cm.resolve, ...), so each tracer
// keeps its open spans on a small stack and derives self time (duration
// minus the time covered by child spans) when a span closes. Tracers are
// only read after the threads that own them have joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cm/manager.hpp"

namespace pb {

enum SpanKind : std::uint8_t {
  kTx,
  kAttempt,
  kCmResolve,
  kCmOnBegin,
  kCmOnAbort,
  kCmOnCommit,
  kServeSubmit,
  kServeQueue,
  kServeExec,
  kNumSpanKinds,
};

const char* span_name(SpanKind kind) noexcept;

struct SpanRecord {
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t req;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t self_ns;
  std::uint32_t thread;
  SpanKind kind;
};

/// One thread's spans and per-layer tallies.
class Tracer {
 public:
  explicit Tracer(std::uint32_t thread_index) : thread_(thread_index) {}

  /// Opens a span as a child of the innermost open span.
  void open(SpanKind kind, std::int64_t now, std::uint64_t req = 0);
  /// Closes the innermost open span at `now`; returns its duration.
  std::int64_t close(std::int64_t now);
  /// Records an already-finished span [start, end] under the innermost open
  /// span (leaf calls timed by the caller).
  void leaf(SpanKind kind, std::int64_t start, std::int64_t end);
  /// Records a finished root span (derived spans such as serve.queue).
  void root(SpanKind kind, std::int64_t start, std::int64_t end, std::uint64_t req);
  /// Drops open spans left by a request that never finished (timeout).
  void clear_stack() noexcept { depth_ = 0; }
  int depth() const noexcept { return depth_; }

  // True while the current transaction is a sampled one: CM calls and body
  // stamps record spans only then.
  bool sampling = false;

  // Per-attempt stamps of the sampled transaction in flight.
  std::int64_t call_ns = 0;       // atomically() entry (closed loop only)
  std::uint32_t attempts = 0;     // body entries so far
  std::int64_t last_exit_ns = 0;  // when the previous body run ended
  std::int64_t last_body_ns = 0;  // duration of the previous body run

  // Sampled-stamp distributions (ns).
  std::vector<std::int64_t> begin_ns, commit_ns, retry_ns, op_ns;
  std::vector<std::int64_t> resolve_ns, on_begin_ns, on_abort_ns;
  std::vector<std::int64_t> exec_ns, submit_ns, queue_ns;
  std::uint64_t sampled_tx = 0;
  std::uint64_t sampled_attempts = 0;
  std::int64_t body_committed_ns = 0;
  std::int64_t body_all_ns = 0;

  // CM call counts over every transaction of the traced phase.
  std::uint64_t resolves = 0;
  std::uint64_t abort_self = 0;

  // Per-kind span totals.
  std::uint64_t count[kNumSpanKinds] = {};
  std::int64_t total_ns[kNumSpanKinds] = {};
  std::int64_t self_total_ns[kNumSpanKinds] = {};
  std::uint64_t nest_violations = 0;

  /// The first spans of each kind, kept verbatim for --spans-out.
  std::vector<SpanRecord> kept;
  static constexpr std::uint64_t kKeepPerKind = 1024;

 private:
  struct Open {
    SpanKind kind;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t req;
    std::int64_t start;
    std::int64_t child_ns;
  };
  void finish(const SpanRecord& rec);
  std::uint64_t next_id() noexcept { return (std::uint64_t{thread_} + 1) << 40 | ++serial_; }

  std::uint32_t thread_;
  std::uint64_t serial_ = 0;
  Open stack_[8];
  int depth_ = 0;
};

/// The tracers of one traced phase. While a phase is active every thread
/// that asks for its tracer gets its own, created on first use.
class TracePhase {
 public:
  TracePhase() = default;
  TracePhase(const TracePhase&) = delete;
  TracePhase& operator=(const TracePhase&) = delete;

  /// Makes this the active phase (or clears it with nullptr). Call only
  /// while the threads that trace are quiescent.
  static void activate(TracePhase* phase) noexcept;

  Tracer* create();
  /// All tracers; read only after their threads have joined or gone idle.
  const std::vector<std::unique_ptr<Tracer>>& tracers() const { return tracers_; }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<Tracer>> tracers_;
};

/// The calling thread's tracer in the active phase, or null when no phase
/// is active.
Tracer* current_tracer() noexcept;

/// Forwarding decorator around a manager from cm::make_manager. Forwards
/// every virtual (frame_schedule included, which window-frame admission
/// reads), counts resolve() calls and their outcomes, and times CM calls of
/// sampled transactions as cm.* spans.
class ProbeCM final : public wstm::cm::ContentionManager {
 public:
  explicit ProbeCM(wstm::cm::ManagerPtr inner) : inner_(std::move(inner)) {}

  /// Hands the hooks the Runtime attached to this decorator (its wait verb
  /// and recorder) to the wrapped manager. attach_* are not virtual, so the
  /// Runtime only ever reaches the decorator; without this the wrapped
  /// manager would never park. Call once, right after the Runtime is built.
  void forward_hooks() noexcept {
    inner_->attach_recorder(recorder_);
    inner_->attach_wait_hooks(waiter_);
  }

  std::string name() const override { return inner_->name(); }
  wstm::stm::Resolution resolve(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx,
                                wstm::stm::TxDesc& enemy,
                                wstm::stm::ConflictKind kind) override;
  void on_boost(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx,
                std::uint32_t level) override {
    inner_->on_boost(self, tx, level);
  }
  void on_begin(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx, bool is_retry) override;
  void on_open(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx) override {
    inner_->on_open(self, tx);
  }
  void on_commit(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx) override;
  void on_abort(wstm::stm::ThreadCtx& self, wstm::stm::TxDesc& tx) override;
  void on_window_start(wstm::stm::ThreadCtx& self, std::uint32_t n_transactions) override {
    inner_->on_window_start(self, n_transactions);
  }
  bool frame_schedule(wstm::cm::FrameSchedule* out) const override {
    return inner_->frame_schedule(out);
  }

 private:
  wstm::cm::ManagerPtr inner_;
};

}  // namespace pb
