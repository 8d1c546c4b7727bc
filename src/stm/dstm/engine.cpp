// The DSTM locator protocol. See tobject.hpp for the locator layout and
// DESIGN.md §5 (visible reads) and §11 (deferred clock) for the consistency
// arguments.
#include "stm/dstm/engine.hpp"

#include <new>

#include "trace/recorder.hpp"

namespace wstm::stm {

DstmEngine::DstmEngine(Runtime& rt) : rt_(rt), visible_(rt.config_.visible_reads) {}

DstmEngine::~DstmEngine() = default;

void DstmEngine::attach(ThreadCtx& tc) {
  const unsigned slot = tc.slot_;
  slots_[slot] = std::make_unique<SlotState>();
  // Bounds the pending scans; monotone under the Runtime's attach mutex.
  if (slot + 1 > attached_high_water_.load(std::memory_order_relaxed)) {
    attached_high_water_.store(slot + 1, std::memory_order_release);
  }
}

void DstmEngine::begin(ThreadCtx& tc) {
  SlotState& s = state(tc);
  s.wrote = false;
  if (visible_) return;
  // Refresh the (clock, pending-set) snapshot for this attempt's
  // fast-accepts. A snapshot's claim — "every commit with stamp <=
  // snapshot_clock whose owner is not in the pending set completed before
  // the establishment instant" — is about the global commit order, not
  // about any one attempt, so on mid-scan interference the previous
  // attempt's snapshot is kept: older merely accepts fewer stamps
  // (DESIGN.md §11).
  std::uint64_t clock = 0;
  if (snapshot_establish(tc, s, clock)) {
    s.snapshot_clock = clock;
    s.pending_at_snapshot.swap(s.pending_scratch);
    s.snapshot_valid = true;
  } else {
    tc.metrics_.snapshot_interference++;
  }
}

void DstmEngine::end(ThreadCtx& tc, bool /*committed*/) {
  SlotState& s = state(tc);
  for (TObjectBase* obj : s.read_set) {
    tc.metrics_.reader_stripe_retries += obj->readers_.clear(tc.slot_);
  }
  s.read_set.clear();
  s.invis_reads.clear();
  s.invis_index.reset();
}

bool DstmEngine::commit(ThreadCtx& tc) {
  SlotState& s = state(tc);
  TxDesc* desc = tc.current_;
  // Invisible reads: a read-only attempt serializes at its snapshot-
  // establishment instant — every fast-accepted read was proven ordered
  // before it, every extension re-validated the whole set — so no
  // commit-time pass is needed. A writing attempt runs one full pass: that
  // last validation is its serialization point (the classic DSTM doctrine
  // for the validation→status-CAS window). Throws TxAbort into the
  // atomically() retry loop on failure.
  if (!visible_) {
    if (s.wrote) {
      validate_pass(tc, s);
    } else {
      note_skipped_pass(tc, s);
    }
  }
  // Chaos: delayed commit (sleep between the decision and the status CAS —
  // the classic window for lost-update bugs) or a spurious late abort.
  if (rt_.chaos_ != nullptr) [[unlikely]] rt_.chaos_at_commit(tc);
  // Retraction guard for the commit-pending slot: every exit (status CAS
  // taken or lost, blind-commit bug, checker-injected abort unwinding from
  // the schedule point below) must clear the announcement and bump the
  // slot's retraction sequence, or snapshot establishments would refuse
  // this thread's stamps forever.
  struct PendingGuard {
    CommitPending* slot = nullptr;
    ~PendingGuard() {
      if (slot == nullptr) return;
      slot->desc.store(nullptr, std::memory_order_seq_cst);
      slot->seq.store(slot->seq.load(std::memory_order_relaxed) + 1,
                      std::memory_order_seq_cst);
    }
  } pending_guard;
  if (!visible_ && s.wrote) {
    // Deferred stamping (TL2-GV5 adapted to the locator protocol; proof in
    // DESIGN.md §11). Order matters and is all seq_cst: announce in the
    // per-thread commit-pending slot, read the clock, stamp G+1 into the
    // descriptor, status-CAS, retract. A snapshot establishment that could
    // mis-order this commit either scans the announcement (the stamp lands
    // in its pending set) or brackets the retraction (its per-slot sequence
    // check detects the interference); in every other interleaving the
    // stamp-read follows the establishment's clock sample, so the stamp
    // exceeds its snapshot and is refused by value.
    CommitPending& cp = commit_pending_[tc.slot_];
    cp.desc.store(desc, std::memory_order_seq_cst);
    pending_guard.slot = &cp;
    const std::uint64_t g = rt_.commit_clock_->load(std::memory_order_seq_cst);
    // Relaxed store: readers load the stamp only after an acquire load of
    // status observes kCommitted, so the CAS below publishes it.
    desc->commit_stamp.store(g + 1, std::memory_order_relaxed);
    tc.metrics_.deferred_stamps++;
    // The stamp→CAS window is exactly what the commit-pending rule closes;
    // give the checker a schedule point inside it so exploration (and the
    // seeded stamp_no_pending bug) can stall a writer here.
    rt_.step(tc, check::Point::kCommit);  // PendingGuard retracts during unwind
  }
  if (rt_.config_.bugs.blind_commit) [[unlikely]] {
    // SEEDED BUG: a plain store cannot detect a remote kill that landed
    // between the last open and here — the enemy already proceeded on our
    // old version, so "committing" anyway loses the update.
    desc->status.store(TxStatus::kCommitted, std::memory_order_seq_cst);
    return true;  // PendingGuard retracts on return
  }
  TxStatus expected = TxStatus::kActive;
  // false: killed by an enemy between the last open and the commit point.
  // Either way PendingGuard retracts on return (a lost CAS retracts too —
  // the spurious sequence bump at worst costs somebody one establishment
  // retry).
  return desc->status.compare_exchange_strong(expected, TxStatus::kCommitted,
                                              std::memory_order_seq_cst);
}

const void* DstmEngine::open_read(ThreadCtx& tc, TObjectBase& obj) {
  SlotState& s = state(tc);
  return visible_ ? open_read_visible(tc, s, obj) : open_read_invisible(tc, s, obj);
}

const void* DstmEngine::open_read_visible(ThreadCtx& tc, SlotState& s, TObjectBase& obj) {
  TxDesc* me = tc.current_;

  // Announce visibility first (flag protocol: the stripe bit-set must
  // precede the locator load so an acquiring writer either sees our bit in
  // its stripe scan or we see its locator — both orders get the conflict
  // resolved).
  if (!obj.readers_.announced(tc.slot_)) {
    tc.metrics_.reader_stripe_retries += obj.readers_.announce(tc.slot_);
    s.read_set.push_back(&obj);
  }

  for (;;) {
    rt_.step(tc, check::Point::kRead, &obj);
    rt_.ensure_alive(tc);
    Locator* l = obj.loc_.load(std::memory_order_seq_cst);
    TxDesc* owner = l->owner;
    const TxStatus st = owner == nullptr || owner == me
                            ? TxStatus::kCommitted
                            : owner->status.load(std::memory_order_acquire);
    if (st != TxStatus::kActive) {
      // Re-check our own status after the load. A writer that killed this
      // attempt between ensure_alive above and the load may since have
      // committed over an object the attempt already read, so the version
      // resolved here could be newer than that read — a torn view handed to
      // user code. Writers kill visible readers before they commit (and the
      // acquire status load above orders that kill before this check), so
      // an attempt still active here holds a consistent view.
      rt_.ensure_alive(tc);
      return st == TxStatus::kCommitted ? l->new_version : l->old_version;
    }
    // Active enemy writer. The loop re-reads whatever the manager decided;
    // even if a killed enemy committed first we proceed.
    rt_.contend(tc, *owner, ConflictKind::kReadWrite);
  }
}

const void* DstmEngine::open_read_invisible(ThreadCtx& tc, SlotState& s, TObjectBase& obj) {
  TxDesc* me = tc.current_;
  for (;;) {
    rt_.step(tc, check::Point::kRead, &obj);
    rt_.ensure_alive(tc);
    Locator* l = obj.loc_.load(std::memory_order_seq_cst);
    TxDesc* owner = l->owner;
    const void* version = nullptr;
    // Resolved status of a foreign owner (only consulted then); kActive
    // never reaches the validation below — it is contended away first.
    TxStatus owner_st = TxStatus::kCommitted;
    if (owner == nullptr || owner == me) {
      version = l->new_version;
    } else {
      const TxStatus st = owner->status.load(std::memory_order_acquire);
      owner_st = st;
      if (st == TxStatus::kCommitted) {
        version = l->new_version;
      } else if (st == TxStatus::kAborted) {
        version = l->old_version;
      } else {
        // Eager conflict with an active writer, same arbitration as the
        // visible path.
        rt_.contend(tc, *owner, ConflictKind::kReadWrite);
        continue;
      }
    }
    // Incremental validation (DSTM): everything read so far must still be
    // current, and this object's locator must not have changed while we
    // validated — then the whole read set is a snapshot as of this instant.
    // The per-object stamp check stands in for the O(R) pass unless a fresh
    // stamp trips it (amortized O(1), no shared-line access on the fast
    // path).
    validate_or_extend(tc, s, owner, owner_st);
    // Schedule point inside the validate→recheck window: this is the exact
    // preemption the recheck below exists to survive, so the checker must be
    // able to interleave a writer here.
    rt_.step(tc, check::Point::kRead, &obj);
    // SEEDED BUG (skip_cas_recheck): dropping the locator recheck lets a
    // writer slip between the validation above and our use of `version`,
    // so the read set is no longer a snapshot of one instant.
    if (!rt_.config_.bugs.skip_cas_recheck &&
        obj.loc_.load(std::memory_order_seq_cst) != l) {
      continue;
    }
    // Ghost opacity oracle (checker builds only, under the schedule token
    // so it cannot perturb exploration): the version about to be handed to
    // the user must still be the committed one — no schedule point sits
    // between the recheck above and the return, so a mismatch means the
    // recheck was skipped (seeded skip_cas_recheck) or regressed and a
    // writer slipped its commit into the validate→recheck window. Own
    // acquisitions are exempt: they legitimately return the pre-acquire
    // version via new_version while committed_version reports old_version.
    if (rt_.config_.checker != nullptr && owner != me &&
        committed_version(me, obj) != version) {
      rt_.config_.checker->on_opacity_violation(
          "open_read_invisible returned a version superseded before return");
    }
    // Own acquisitions are protected by ownership, not validation.
    if (owner != me) {
      const std::uint32_t idx = s.invis_index.find(&obj);
      if (idx != InvisReadIndex::kNotFound) {
        // Re-read: the set already covers this object; appending again
        // would make R the read *count* and validation O(reads · R). The
        // recorded version must match what we just resolved — validation
        // (or the fast-path invariant) keeps the entry current and the
        // recheck pinned `version` to the same instant, so a mismatch is a
        // torn snapshot. Defense in depth: abort rather than assert.
        if (s.invis_reads[idx].version != version) rt_.abort_self(tc);
        tc.metrics_.dup_reads++;
      } else {
        s.invis_index.insert(&obj, static_cast<std::uint32_t>(s.invis_reads.size()));
        s.invis_reads.push_back({&obj, version});
      }
    }
    return version;
  }
}

const void* DstmEngine::committed_version(const TxDesc* me, TObjectBase& obj) {
  for (;;) {
    Locator* l = obj.loc_.load(std::memory_order_seq_cst);
    TxDesc* owner = l->owner;
    if (owner == nullptr) return l->new_version;
    // If we acquired the object after reading it, the version we observed
    // became our locator's old_version (clone-on-write keeps it in place).
    if (owner == me) return l->old_version;
    const TxStatus st = owner->status.load(std::memory_order_acquire);
    // A replacer may have swapped the locator between the two loads above
    // (only possible once `owner` resolved, i.e. committed or aborted): the
    // status we just read then describes a superseded locator generation,
    // and pairing it with l's version pointers can report a version that
    // was already replaced — re-read instead of relying on lucky ordering.
    // No schedule point separates the two loads, so the serialized checker
    // cannot pin this window; it is exercised by the real-thread churn tests
    // (InvisibleReads.ReadersSeeConsistentPairsUnderChurn, under TSan in CI).
    // The analogous validate->recheck window in open_read_invisible does
    // have a point and is pinned by
    // InvisibleChecker.CommitInValidateRecheckWindowIsCaught.
    if (obj.loc_.load(std::memory_order_seq_cst) != l) continue;
    // An aborted or still-active owner leaves old_version current.
    return st == TxStatus::kCommitted ? l->new_version : l->old_version;
  }
}

void DstmEngine::validate_pass(ThreadCtx& tc, SlotState& s) {
  const TxDesc* me = tc.current_;
  tc.metrics_.validations++;
  tc.metrics_.validated_reads += s.invis_reads.size();
  for (const InvisRead& r : s.invis_reads) {
    if (committed_version(me, *r.obj) != r.version) rt_.abort_self(tc);
  }
}

void DstmEngine::note_pass_cost(SlotState& s, std::int64_t pass_ns) noexcept {
  s.validate_pass_ewma_ns =
      s.validate_pass_ewma_ns == 0 ? pass_ns : (3 * s.validate_pass_ewma_ns + pass_ns) / 4;
}

void DstmEngine::note_skipped_pass(ThreadCtx& tc, const SlotState& s) noexcept {
  tc.metrics_.validations_skipped++;
  tc.metrics_.validation_saved_ns += s.validate_pass_ewma_ns;
}

bool DstmEngine::snapshot_establish(ThreadCtx& tc, SlotState& s, std::uint64_t& clock_out) {
  const unsigned hi = attached_high_water_.load(std::memory_order_acquire);
  auto& seqs = s.pending_seq_scratch;
  seqs.resize(hi);
  // Pass 1, before the clock sample: per-slot retraction sequences. A
  // commit whose status CAS could land after the sample but whose slot the
  // pending scan would find already retracted is exactly the one a single
  // scan mis-orders; it necessarily bumps its sequence inside this bracket.
  for (unsigned i = 0; i < hi; ++i) {
    seqs[i] = commit_pending_[i].seq.load(std::memory_order_seq_cst);
  }
  const std::uint64_t clock = rt_.commit_clock_->load(std::memory_order_seq_cst);
  // Pass 2, after the sample: the commit-pending set, then the sequence
  // re-read (per slot, in that order — the proof needs the re-read to
  // follow the slot's pending read). Case analysis per announced writer W
  // with stamp <= clock whose switch might postdate the sample: W still
  // announced here → lands in the pending set, refused by identity; W
  // retracted first → its sequence bump is inside the bracket, detected as
  // interference; W announced only after its slot was scanned → its clock
  // read follows our sample, so its stamp exceeds `clock` and is refused
  // by value. (DESIGN.md §11.)
  s.pending_scratch.clear();
  bool stable = true;
  for (unsigned i = 0; i < hi; ++i) {
    const CommitPending& cp = commit_pending_[i];
    if (const TxDesc* w = cp.desc.load(std::memory_order_seq_cst)) {
      if (w != tc.current_) s.pending_scratch.push_back(w);
    }
    stable &= cp.seq.load(std::memory_order_seq_cst) == seqs[i];
  }
  clock_out = clock;
  return stable;
}

void DstmEngine::validate_or_extend(ThreadCtx& tc, SlotState& s, TxDesc* owner, TxStatus st) {
  if (owner == tc.current_) {
    // Own acquisition: the returned clone is transaction-local, so this
    // open adds no new shared observation and the recorded set cannot have
    // become newly inconsistent through it — nothing to validate.
    note_skipped_pass(tc, s);
    return;
  }
  std::uint64_t trigger = 0;
  bool fast = false;
  bool owner_pending = false;
  if (s.snapshot_valid) {
    if (owner == nullptr) {
      // Initial locator: never switched. The version has been current since
      // the object was published, and whichever validated read led us to
      // this object proves the publishing commit precedes the snapshot.
      fast = true;
    } else if (st == TxStatus::kCommitted) {
      trigger = owner->commit_stamp.load(std::memory_order_acquire);
      for (const TxDesc* w : s.pending_at_snapshot) owner_pending |= (w == owner);
      // SEEDED BUG (stamp_no_pending): dropping the pending-set membership
      // check treats a writer that was still mid-commit at snapshot
      // establishment — its status CAS possibly after the establishment
      // instant — as pre-snapshot (opacity bug, DESIGN.md §11).
      fast = trigger <= s.snapshot_clock &&
             (!owner_pending || rt_.config_.bugs.stamp_no_pending);
    }
    // st == kAborted: old_version is current, but its *producing* writer's
    // identity is gone (only its stamp could be carried, and the pending
    // rule needs the identity) — take the extension path. Rare: an aborted
    // locator is replaced by the next acquirer.
  }
  if (fast) {
    note_skipped_pass(tc, s);
    if (rt_.config_.checker != nullptr && owner_pending) {
      // Ghost oracle (checker builds only): a fast-accept's soundness
      // precondition is that the owner's switch is provably ordered before
      // the snapshot instant; an owner recorded as mid-commit at
      // establishment has no such proof — its status CAS may have landed
      // after the establishment, which is the exact staleness window the
      // seeded stamp_no_pending bug opens. (Recorded entries may here be
      // legitimately superseded — the attempt serializes at its snapshot
      // instant — so no full-set re-check.)
      rt_.config_.checker->on_opacity_violation(
          "deferred-clock fast path accepted a stamp from a writer that was "
          "mid-commit at snapshot establishment");
    }
    return;
  }
  extend(tc, s, trigger);
}

void DstmEngine::extend(ThreadCtx& tc, SlotState& s, std::uint64_t trigger_stamp) {
  // Raise the clock to cover the triggering stamp first, so this extension
  // is the one shared-line write amortized over the whole clock generation:
  // every other thread tripping over the same generation finds the clock
  // already raised, re-establishes, and fast-accepts from then on. Stamps
  // are G+1 for some observed clock G <= current, so the raise is by one.
  if (trigger_stamp != 0) {
    std::uint64_t cur = rt_.commit_clock_->load(std::memory_order_seq_cst);
    while (cur < trigger_stamp) {
      if (rt_.commit_clock_->compare_exchange_weak(cur, trigger_stamp,
                                                   std::memory_order_seq_cst)) {
        tc.metrics_.clock_bumps++;
        if (trace::Recorder* rec = rt_.config_.recorder) {
          rec->record(tc.slot_, trace::EventKind::kClockBump, tc.current_->serial, 0,
                      trace::kNoEnemy, trigger_stamp);
        }
        break;
      }
    }
  }
  std::uint64_t clock = 0;
  const bool stable = snapshot_establish(tc, s, clock);
  const std::int64_t t0 = now_ns();
  validate_pass(tc, s);  // aborts self on any stale entry
  note_pass_cost(s, now_ns() - t0);
  tc.metrics_.extensions++;
  if (stable) {
    // Advance. A per-entry pending-writer rule is subsumed by the
    // commit-pending scan: an entry's still-active owner either had
    // announced before the scan (its commits stay refusable by identity) or
    // will read its stamp after our sample (refusable by value) — see
    // DESIGN.md §11.
    s.snapshot_clock = clock;
    s.pending_at_snapshot.swap(s.pending_scratch);
    s.snapshot_valid = true;
  } else {
    tc.metrics_.snapshot_interference++;
  }
  if (trace::Recorder* rec = rt_.config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kSnapshotExtend, tc.current_->serial,
                stable ? 1 : 0, trace::kNoEnemy,
                static_cast<std::uint64_t>(s.invis_reads.size()), clock);
  }
}

void* DstmEngine::open_write(ThreadCtx& tc, TObjectBase& obj) {
  SlotState& s = state(tc);
  TxDesc* me = tc.current_;

  for (;;) {
    rt_.step(tc, check::Point::kWrite, &obj);
    rt_.ensure_alive(tc);
    Locator* l = obj.loc_.load(std::memory_order_seq_cst);
    TxDesc* owner = l->owner;
    if (owner == me) return l->new_version;  // already acquired in this attempt

    void* current = nullptr;
    void* dead = nullptr;
    // Resolved status of the replaced locator's owner (stable: it already
    // left kActive); feeds the invisible-mode validation below, which
    // treats the clone's base as a fresh shared observation.
    TxStatus prev_st = TxStatus::kCommitted;
    if (owner == nullptr) {
      current = l->new_version;
    } else {
      const TxStatus st = owner->status.load(std::memory_order_acquire);
      prev_st = st;
      if (st == TxStatus::kCommitted) {
        current = l->new_version;
        dead = l->old_version;
      } else if (st == TxStatus::kAborted) {
        current = l->old_version;
        dead = l->new_version;
      } else {
        rt_.contend(tc, *owner, ConflictKind::kWriteWrite);
        continue;
      }
    }

    // Same post-load re-check as open_read_visible: the clone's base must
    // not be newer than anything this attempt already read.
    rt_.ensure_alive(tc);
    void* clone = obj.make_clone(tc.pool_, current);
    auto* fresh = new (util::Pool::allocate(tc.pool_, sizeof(Locator)))
        Locator{me, current, clone, nullptr, obj.destroy_};
    me->add_ref();
    const check::Action cas_act = rt_.sched_point(check::Point::kCas, &obj);
    if (cas_act == check::Action::kInjectAbort) {
      obj.destroy_(fresh->new_version);
      util::Pool::deallocate(fresh);
      me->release();
      rt_.injected_abort(tc);
    }
    if (cas_act != check::Action::kFailCas &&
        obj.loc_.compare_exchange_strong(l, fresh, std::memory_order_seq_cst)) {
      // `l` is now unreachable for new opens; readers pinned in EBR may
      // still hold it, so retire rather than free. The losing version dies
      // with it.
      l->dead_version = dead;
      tc.ebr_.retire(l, &Locator::reclaim);
      s.wrote = true;  // commit must stamp
      if (visible_) {
        // SEEDED BUG (skip_reader_abort): acquiring without resolving the
        // visible readers leaves them on snapshots this write supersedes.
        if (!rt_.config_.bugs.skip_reader_abort) resolve_readers(tc, obj);
      } else {
        // DSTM validates on every open: the clone's base (the replaced
        // locator's committed version) is a fresh shared observation the
        // user code is about to see, so the set + base must still be one
        // snapshot. The fast path keys off the *replaced* locator's owner —
        // the producer of the base version.
        validate_or_extend(tc, s, owner, prev_st);
      }
      return fresh->new_version;
    }
    // Lost the install race; roll back the speculative locator.
    obj.destroy_(fresh->new_version);
    util::Pool::deallocate(fresh);
    me->release();
  }
}

void DstmEngine::resolve_readers(ThreadCtx& tc, TObjectBase& obj) {
  TxDesc* me = tc.current_;
  // Scan all stripes of the acquire-time reader snapshot (the flag
  // protocol's seq_cst pairing is per stripe word; a reader announcing
  // after its stripe was scanned sees our installed locator instead).
  for (unsigned stripe = 0; stripe < ReaderStripes::kStripes; ++stripe) {
    std::uint64_t bits = obj.readers_.load_stripe(stripe, std::memory_order_seq_cst);
    if (stripe == ReaderStripes::stripe_of(tc.slot_)) {
      bits &= ~ReaderStripes::bit_of(tc.slot_);
    }
    while (bits != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const unsigned slot = ReaderStripes::slot_at(stripe, bit);
      for (;;) {
        rt_.step(tc, check::Point::kReaderResolve, &obj);
        rt_.ensure_alive(tc);
        TxDesc* enemy = rt_.tx_of_slot(slot);
        if (enemy == nullptr || enemy == me || !enemy->is_active()) break;
        // A killed reader is done; kRetry re-examines it.
        if (rt_.contend(tc, *enemy, ConflictKind::kWriteRead) == Resolution::kAbortEnemy) break;
      }
    }
  }
}

}  // namespace wstm::stm
