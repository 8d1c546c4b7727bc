// The window-based contention managers (the paper's contribution).
//
// One class implements the whole family; the five published variants are
// points in its option space (see make_window_manager below):
//
//   Online                    static frames, C_i known (configured)
//   Online-Dynamic            + frame contraction/expansion via controller
//   Adaptive                  C_i guessed, doubling on bad events
//   Adaptive-Improved         C_i from the contention-intensity estimator
//   Adaptive-Improved-Dynamic + dynamic frames
//
// Mechanics per thread P_i (paper Section II):
//  * A window = the next N logical transactions of the thread. Windows
//    auto-roll: when one ends the next begins at the next transaction.
//  * At window start the thread draws q_i uniform in [0, α_i − 1] with
//    α_i = C_i / ln(MN) (clamped to [1, N]). Transaction j's assigned frame
//    is F_ij = q_i + j.
//  * The transaction runs immediately but in LOW priority (π1 = 1) until
//    frame F_ij begins, then switches to HIGH (π1 = 0) until it commits.
//  * π2 is a RandomizedRounds priority in [1, M], redrawn at every attempt
//    begin and at the low→high switch.
//  * Conflicts resolve by lexicographic (π1, π2, slot) — lower wins.
//  * Bad event: the transaction commits only after its assigned frame has
//    passed. Adaptive doubles C_i and restarts the window with the
//    remaining transactions; Adaptive-Improved recomputes C_i from CI.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "cm/manager.hpp"
#include "util/cacheline.hpp"
#include "window/ci_estimator.hpp"
#include "window/controller.hpp"
#include "window/frame_clock.hpp"

namespace wstm::window {

struct WindowOptions {
  std::uint32_t threads = 1;  // M: sizes the π2 draw and the CI mapping
  std::uint32_t window_n = 50;
  bool dynamic_frames = false;

  enum class Adapt { kNone, kDoubling, kContentionIntensity };
  Adapt adapt = Adapt::kNone;

  /// Initial contention estimate C_i. 0 selects the default: M for
  /// non-adaptive variants ("C_i known": each transaction expected to
  /// conflict with its column), 1 for adaptive variants (the paper's
  /// starting guess).
  double initial_c = 0.0;

  /// Frame length Φ = frame_factor · ln(MN)^frame_log_exponent · τ_est.
  double frame_factor = 1.0;
  double frame_log_exponent = 1.0;

  /// CI smoothing for Adaptive-Improved.
  double ci_alpha = 0.75;

  /// τ estimate before the first commit is measured.
  std::int64_t tau_init_ns = 20'000;

  /// Requester-waits arbitration (DESIGN.md §13): a low-priority loser
  /// against a high-priority winner parks for up to one frame length
  /// instead of burning the abort — the winner's commit (which also drives
  /// the frame controller's complete_tx/advance) is the unpark edge, and by
  /// wakeup the loser's own frame has typically begun. Equal-class losses
  /// (π2/slot ties) still abort: RandomizedRounds' symmetry-breaking
  /// depends on them.
  bool requester_waits = false;
};

class WindowCM final : public cm::ContentionManager {
 public:
  WindowCM(std::string name, WindowOptions options);

  std::string name() const override { return name_; }

  stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                          stm::ConflictKind kind) override;
  void on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) override;
  void on_commit(stm::ThreadCtx& self, stm::TxDesc& tx) override;
  void on_abort(stm::ThreadCtx& self, stm::TxDesc& tx) override;
  void on_window_start(stm::ThreadCtx& self, std::uint32_t n_transactions) override;
  /// Escalation-ladder boost: forced high priority with the assigned frame
  /// pinned to the observed frame (the transaction behaves as if its frame
  /// had just begun), and π2 = 0 — below every regular draw in [1, M].
  void on_boost(stm::ThreadCtx& self, stm::TxDesc& tx, std::uint32_t level) override;

  /// Serving-layer frame query. Dynamic variants report the shared
  /// controller frame directly. Static variants have only per-thread
  /// FrameClocks that restart every window, so no global frame exists;
  /// instead the schedule reports a synthetic frame — wall-clock elapsed
  /// since construction over the current frame length Φ — which is monotone
  /// apart from Φ re-estimates and advances at the same rate as the
  /// per-thread clocks. α comes from a racy beacon holding the last c_est
  /// any thread set.
  bool frame_schedule(cm::FrameSchedule* out) const override;

  // --- introspection (tests, diagnostics, EXPERIMENTS.md reporting) ---

  struct ThreadSnapshot {
    std::uint32_t window_n = 0;
    std::uint32_t next_index = 0;
    std::uint64_t delay_q = 0;
    double c_est = 0.0;
    double ci = 0.0;
    std::uint64_t windows_started = 0;
    std::uint64_t bad_events = 0;
  };
  ThreadSnapshot snapshot(unsigned slot) const;

  /// The committed-attempt duration estimate that sets the static frame
  /// length Φ and bounds a requester-waits park. Dynamic variants in abort
  /// mode never read it, so they do not sample it: it keeps its initial
  /// value (WindowOptions::tau_init_ns).
  std::int64_t tau_estimate_ns() const noexcept {
    return tau_ns_.load(std::memory_order_relaxed);
  }
  const WindowController& controller() const noexcept { return controller_; }
  const WindowOptions& options() const noexcept { return options_; }

 private:
  struct PerThread {
    bool in_window = false;
    std::uint32_t pending_n = 0;  // size of the next window (0 = default N)
    std::uint32_t n = 0;
    std::uint32_t j = 0;  // index of the current/next transaction
    std::uint64_t q = 0;
    double c_est = 1.0;
    std::uint64_t base_frame = 0;      // dynamic: controller frame at window start
    FrameClock clock;                  // static variants
    std::uint64_t assigned_frame = 0;  // F for the in-flight transaction
    bool high = false;
    bool conflicted_this_attempt = false;
    CiEstimator ci;
    std::uint64_t windows_started = 0;
    std::uint64_t bad_events = 0;
    std::uint64_t last_seen_frame = 0;  // tracing: last frame this thread observed
  };

  void start_window(stm::ThreadCtx& self, PerThread& st);
  /// Recomputes π1 (and redraws π2 at the low→high edge).
  void refresh_priority(stm::ThreadCtx& self, PerThread& st, stm::TxDesc& tx);
  std::uint64_t frame_now(const PerThread& st) const;
  void note_tau_sample(std::int64_t sample_ns);

  /// Tracing: records a kFrameAdvance when this thread's observed frame
  /// moved since it last looked. No-op without a recorder.
  void maybe_trace_frame(stm::ThreadCtx& self, PerThread& st, const stm::TxDesc& tx);
  /// Dynamic variants: runs the controller's contraction rule and records
  /// any advance it performed.
  void advance_dynamic(stm::ThreadCtx& self, const stm::TxDesc& tx);

  std::string name_;
  WindowOptions options_;
  WindowController controller_;
  std::atomic<std::int64_t> tau_ns_;
  /// Commits sample τ only where something reads it: static frames and
  /// requester-waits park bounds.
  const bool samples_tau_;
  /// frame_schedule() support: construction epoch for the static-variant
  /// synthetic frame, and a last-writer-wins c_est beacon, stored where a
  /// thread sets its c_est (first window start, adaptive bad-event update)
  /// so cross-thread readers never touch PerThread state.
  std::int64_t epoch_ns_ = 0;
  std::atomic<double> c_beacon_{0.0};
  std::array<CacheAligned<PerThread>, stm::kMaxThreads> state_{};
};

/// Factory for the five published variants (and "Adaptive-Dynamic" as an
/// extension): name must be one of Online, Online-Dynamic, Adaptive,
/// Adaptive-Dynamic, Adaptive-Improved, Adaptive-Improved-Dynamic.
/// Throws std::invalid_argument otherwise.
cm::ManagerPtr make_window_manager(const std::string& name, WindowOptions options);

}  // namespace wstm::window
