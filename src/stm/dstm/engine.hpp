// Eager obstruction-free execution engine over the Backend concept
// (DESIGN.md §5, §11, §12): the DSTM locator protocol the paper runs on.
//
// Writers acquire objects at open time by CASing in a fresh Locator that
// names them as owner; an active previous owner is a conflict handed to
// Runtime::contend. Reads come in DSTM2's two modes:
//  * visible (the paper's): readers announce themselves in the object's
//    striped reader records and acquiring writers resolve every active
//    reader, so no read-set validation is needed;
//  * invisible: readers leave no trace and keep an (object, version) read
//    set, validated under a deferred commit clock — write-commits stamp
//    `clock+1` into their descriptor without touching the shared line, and
//    opens fast-accept per object against the attempt's (clock, pending-set)
//    snapshot, so a validation pass runs only when a fresh stamp trips it.
// The CM family, liveness ladder, parking, metrics, trace and checker stay
// in Runtime and apply identically to the orec engine (stm/orec/engine.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "stm/backend.hpp"
#include "stm/runtime.hpp"

namespace wstm::stm {

class DstmEngine final : public Backend {
 public:
  explicit DstmEngine(Runtime& rt);
  ~DstmEngine() override;

  BackendKind kind() const noexcept override { return BackendKind::kDstm; }
  void attach(ThreadCtx& tc) override;
  void begin(ThreadCtx& tc) override;
  const void* open_read(ThreadCtx& tc, TObjectBase& obj) override;
  void* open_write(ThreadCtx& tc, TObjectBase& obj) override;
  bool commit(ThreadCtx& tc) override;
  void end(ThreadCtx& tc, bool committed) override;

 private:
  struct InvisRead {
    TObjectBase* obj;
    const void* version;  // committed version observed at open
  };

  /// Per-attempt state of one thread slot, created fresh by attach() (so a
  /// recycled slot starts like a new thread) and reused across attempts.
  /// Cache-line aligned: the owner writes it on every open, and slots are
  /// allocated back to back.
  struct alignas(kCacheLine) SlotState {
    std::vector<TObjectBase*> read_set;  // visible mode: objects with our bit
    std::vector<InvisRead> invis_reads;  // invisible mode: validation set
    InvisReadIndex invis_index;          // dedup map over invis_reads
    /// Acquired at least one object this attempt → commit stamps.
    bool wrote = false;
    // Deferred-clock snapshot (DESIGN.md §11): the pair (snapshot_clock,
    // pending_at_snapshot). Commits with stamp <= snapshot_clock whose owner
    // is not in the pending set are provably ordered before the snapshot
    // instant and may be fast-accepted per open without touching the shared
    // clock line.
    std::uint64_t snapshot_clock = 0;
    /// False until an establishment completes without mid-scan interference;
    /// while false every open takes the extension path.
    bool snapshot_valid = false;
    /// Descriptors announced in commit_pending_ at establishment time. Raw
    /// identities, compared only (never dereferenced) — pool recycling can
    /// only cause a spurious refusal, which is the safe direction.
    std::vector<const TxDesc*> pending_at_snapshot;
    /// Establishment scratch (per-slot sequence pre-scan + candidate pending
    /// set), kept allocated across attempts like the read-set vectors.
    std::vector<std::uint64_t> pending_seq_scratch;
    std::vector<const TxDesc*> pending_scratch;
    /// EWMA of the measured extension-pass cost, feeding the
    /// validation_saved_ns estimate for skipped passes.
    std::int64_t validate_pass_ewma_ns = 0;
  };

  SlotState& state(const ThreadCtx& tc) noexcept { return *slots_[tc.slot()]; }

  const void* open_read_visible(ThreadCtx& tc, SlotState& s, TObjectBase& obj);
  const void* open_read_invisible(ThreadCtx& tc, SlotState& s, TObjectBase& obj);

  /// Invisible-read mode: the committed version of `obj` as of now.
  /// Re-loads the locator after the owner-status read and retries on
  /// change, so a commit that lands between the two loads is never misread
  /// as the old version. Never blocks.
  static const void* committed_version(const TxDesc* me, TObjectBase& obj);

  /// One full pass over invis_reads; aborts self on any mismatch.
  void validate_pass(ThreadCtx& tc, SlotState& s);
  /// Decides per opened object whether its resolved version's producing
  /// switch is provably ordered before the attempt's snapshot (owner
  /// committed with stamp <= snapshot_clock and not in the pending set →
  /// skip, no shared-line access), otherwise raises the clock to cover the
  /// triggering stamp and runs one extension pass + snapshot
  /// re-establishment. `owner`/`st` are the replaced/loaded locator's owner
  /// and its status as resolved by the caller; `st` is stable here because
  /// kActive owners were already handled as conflicts.
  void validate_or_extend(ThreadCtx& tc, SlotState& s, TxDesc* owner, TxStatus st);
  /// One extension pass: raise the clock to `trigger_stamp` if needed,
  /// re-establish the snapshot (sample + pending scan with the interference
  /// rule), and run the full validation pass.
  void extend(ThreadCtx& tc, SlotState& s, std::uint64_t trigger_stamp);
  /// Establishes the raw material for (snapshot_clock, pending_at_snapshot):
  /// per-slot sequence pre-scan, clock sample, pending scan, sequence
  /// re-scan. Returns true with the sampled clock in `clock_out` and the
  /// mid-commit writers in s.pending_scratch when the bracket was stable;
  /// false on mid-scan interference (a commit retracted inside the bracket),
  /// in which case the caller must leave the old snapshot untouched — it
  /// stays sound for its own clock value. Does NOT validate the read set;
  /// callers pair it with validate_pass.
  bool snapshot_establish(ThreadCtx& tc, SlotState& s, std::uint64_t& clock_out);
  void note_pass_cost(SlotState& s, std::int64_t pass_ns) noexcept;
  void note_skipped_pass(ThreadCtx& tc, const SlotState& s) noexcept;

  /// Resolve the visible readers present at acquire time.
  void resolve_readers(ThreadCtx& tc, TObjectBase& obj);

  Runtime& rt_;
  /// RuntimeConfig::visible_reads, cached for the hot paths.
  const bool visible_;
  std::array<std::unique_ptr<SlotState>, kMaxThreads> slots_;
  /// Commit-pending slots, one cache line per thread. `desc` is non-null
  /// from just before a write-commit reads its stamp until just after its
  /// status CAS; `seq` counts completed retractions so a snapshot
  /// establishment can detect a commit that started *and* finished inside
  /// its scan bracket (the interference rule, DESIGN.md §11).
  struct alignas(kCacheLine) CommitPending {
    std::atomic<TxDesc*> desc{nullptr};
    std::atomic<std::uint64_t> seq{0};
  };
  std::array<CommitPending, kMaxThreads> commit_pending_{};
  /// One past the highest slot ever attached; bounds the pending scans.
  /// Monotone, updated by attach() under the Runtime's attach mutex, read
  /// with acquire.
  std::atomic<unsigned> attached_high_water_{0};
};

}  // namespace wstm::stm
