// Shared enums and forward declarations for the STM core.
#pragma once

#include <cstdint>

namespace wstm::stm {

class Runtime;
class Tx;
class ThreadCtx;
struct TxDesc;
class TObjectBase;
class Backend;
class DstmEngine;
class OrecEngine;

/// Thread slots per Runtime. Everything indexed by a thread slot — the
/// runtime's registries, the engines' per-slot logs, per-slot manager,
/// liveness and chaos state, the trace recorder's rings and the trace
/// tools' per-thread tables — is sized by this one bound. The EBR domain
/// keeps its own slot count; Runtime asserts that it is at least this.
inline constexpr unsigned kMaxThreads = 128;

/// Which execution engine a Runtime drives (DESIGN.md §12). The CM layer,
/// metrics, trace, liveness and checker sit above this choice.
enum class BackendKind : std::uint8_t {
  kDstm = 0,  // eager, obstruction-free per-object locators (the paper's substrate)
  kOrec = 1,  // lazy TL2-style redo logs over a striped orec table
};

/// Lifecycle of one transaction attempt. Committed/Aborted are absorbing:
/// the only transitions are Active -> Committed (self, at commit) and
/// Active -> Aborted (self or any enemy, via CAS).
enum class TxStatus : std::uint32_t { kActive = 0, kCommitted = 1, kAborted = 2 };

/// What kind of conflict a contention manager is asked to resolve, always
/// from the perspective of the transaction doing the open.
enum class ConflictKind : std::uint8_t {
  kWriteWrite,  // I want to acquire; enemy is the active owner
  kWriteRead,   // I want to acquire; enemy is an active visible reader
  kReadWrite,   // I want to read; enemy is the active owner
};

/// How the runtime lets a losing transaction wait out a conflict
/// (RuntimeConfig::arbitration). kAbort is the historical behavior: every
/// kRetry resolution spins/yields in the CM or burns an abort. kWait arms
/// the parking layer (src/stm/park.hpp): losers block futex-style on the
/// enemy descriptor's status word and the winner's commit/abort path wakes
/// them, trading CPU burn for a condvar round trip.
enum class ArbitrationMode : std::uint8_t {
  kAbort = 0,  // requester-wins/aborts; waits are spin/yield loops
  kWait = 1,   // requester-waits; losers park at safe points
};

/// Contention-manager verdict for one conflict.
enum class Resolution : std::uint8_t {
  kAbortEnemy,  // runtime CASes the enemy's status to Aborted and proceeds
  kAbortSelf,   // runtime aborts the calling transaction (it will retry)
  kRetry,       // state may have changed (enemy finished / after a wait);
                // runtime re-examines the conflict from scratch
};

}  // namespace wstm::stm
