// Execution-engine concept (DESIGN.md §12). A Backend owns the object-level
// synchronization protocol of one Runtime — how an attempt snapshots the
// world, resolves reads and writes, and publishes at commit — while the
// Runtime keeps everything engine-agnostic above it: CM arbitration,
// metrics, tracing, liveness escalation, chaos and the deterministic
// checker. An engine reaches it through one entry per protocol site:
// Runtime::contend at every conflict with an active enemy, Runtime::step at
// every schedule point that may take an injected abort. The Runtime calls
// the manager's on_open after each successful open and fires the commit
// unpark edge itself. The two engines are peers: DstmEngine (eager
// obstruction-free locators, dstm/engine.cpp) and OrecEngine (lazy
// lock-based TL2-style redo logs, orec/engine.cpp).
#pragma once

#include <stdexcept>
#include <string>

#include "stm/fwd.hpp"

namespace wstm::stm {

inline const char* backend_name(BackendKind k) noexcept {
  return k == BackendKind::kOrec ? "orec" : "dstm";
}

inline BackendKind parse_backend(const std::string& name) {
  if (name == "dstm") return BackendKind::kDstm;
  if (name == "orec") return BackendKind::kOrec;
  throw std::invalid_argument("unknown backend '" + name + "' (expected dstm|orec)");
}

inline const char* arbitration_name(ArbitrationMode m) noexcept {
  return m == ArbitrationMode::kWait ? "wait" : "abort";
}

inline ArbitrationMode parse_arbitration(const std::string& name) {
  if (name == "abort") return ArbitrationMode::kAbort;
  if (name == "wait") return ArbitrationMode::kWait;
  throw std::invalid_argument("unknown arbitration mode '" + name +
                              "' (expected abort|wait)");
}

class Backend {
 public:
  virtual ~Backend() = default;
  virtual BackendKind kind() const noexcept = 0;

  /// Sets up the engine's per-slot state for a freshly attached thread
  /// context. Called by Runtime::attach_thread under its attach mutex,
  /// before the context runs any attempt.
  virtual void attach(ThreadCtx& tc) = 0;

  /// Attempt-local engine state reset (snapshot establishment, log reset).
  /// Called by Runtime::begin_attempt once the attempt is pinned and its
  /// descriptor set up (published already on DSTM and under the liveness
  /// layer; orec publishes lazily, DESIGN.md §5), before the CM's on_begin
  /// hook.
  virtual void begin(ThreadCtx& tc) = 0;

  /// Resolve a transactional read to a payload the attempt may dereference
  /// until it ends. Throws TxAbort when the attempt must die; conflicts go
  /// through Runtime::contend so CM decisions (and the irrevocability
  /// short-circuits) apply identically on both engines.
  virtual const void* open_read(ThreadCtx& tc, TObjectBase& obj) = 0;

  /// Resolve a transactional write to a private mutable payload.
  virtual void* open_write(ThreadCtx& tc, TObjectBase& obj) = 0;

  /// Engine-specific commit protocol through the status transition and
  /// anything that must precede the unpark edge (orec's write-back).
  /// Returns false when the attempt lost its commit race to a remote kill;
  /// throws TxAbort when validation/acquisition aborts the attempt.
  virtual bool commit(ThreadCtx& tc) = 0;

  /// Per-attempt teardown on both outcomes (drop read/write sets, release
  /// anything still held after a mid-commit death). Runs at the top of
  /// Runtime::cleanup_attempt, while the attempt is still EBR-pinned.
  virtual void end(ThreadCtx& tc, bool committed) = 0;
};

}  // namespace wstm::stm
