// TL2-style lazy engine. Protocol summary (DESIGN.md §12):
//
//   begin     rv := commit clock (the attempt's read version)
//   read      (orec, body, orec) sandwich; locked-by-active → CM conflict;
//             version > rv → extend (sample clock, revalidate set, raise rv)
//   write     read protocol to snapshot the base, then buffer a redo clone
//   commit    sort write set by orec address → CAS-acquire each lock (CM
//             arbitration on contention) → validate read set → wv :=
//             ++clock → status CAS → write back bodies → release at wv
//   abort     restore the saved pre-lock words, drop unapplied clones
//
// Safety leans on two invariants. (V) Validation invariant: every read
// entry's orec still carries the word observed at first read — checked
// whenever rv advances and once under locks at commit, so the read set is a
// consistent snapshot at the attempt's serialization point. (L) Lock-order
// invariant: commit locks are acquired in global orec-address order, so
// committers cannot deadlock among themselves; every wait loop carries a
// schedule point, so the serialized checker always regains control.
#include "stm/orec/engine.hpp"

#include <algorithm>

#include "trace/recorder.hpp"

namespace wstm::stm {

OrecEngine::OrecEngine(Runtime& rt, std::uint32_t log2_orecs)
    : rt_(rt), table_(log2_orecs) {}

OrecEngine::~OrecEngine() = default;

void OrecEngine::attach(ThreadCtx& tc) {
  std::unique_ptr<TxLogs>& slot = logs_[tc.slot_];
  if (!slot) slot = std::make_unique<TxLogs>();
}

std::atomic<std::uint64_t>& OrecEngine::orec_of(TObjectBase& obj) {
  std::uint64_t id = obj.orec_id_.load(std::memory_order_relaxed);
  if (id == 0) [[unlikely]] {
    // First touch: claim an id. A racing loser adopts the winner's — the
    // skipped id is just a gap. Under the serialized checker the fetch_add
    // order equals the (deterministic) first-access order, which is what
    // makes the whole orec mapping replay-stable.
    const std::uint64_t fresh = next_obj_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (obj.orec_id_.compare_exchange_strong(id, fresh, std::memory_order_relaxed)) {
      id = fresh;
    }
  }
  return table_.of_id(id);
}

const void* OrecEngine::committed_body(const TObjectBase& obj) noexcept {
  // The write-back store is release; pairing acquire makes the payload's
  // contents visible. Null means "never written back": the committed
  // payload is the initial locator's version, frozen in orec mode.
  if (const void* b = obj.orec_body_.load(std::memory_order_acquire)) return b;
  return obj.loc_.load(std::memory_order_relaxed)->new_version;
}

void OrecEngine::begin(ThreadCtx& tc) {
  TxLogs& lg = logs(tc);
  lg.reads.clear();
  lg.read_index.reset();
  lg.writes.clear();  // clones were freed by end(); entries are stale
  lg.write_index.reset();
  lg.locks.clear();
  lg.lock_order.clear();
  // rv: every version <= rv was written back before this attempt began, so
  // reading it can never observe a half-committed write set.
  lg.rv = rt_.commit_clock_->load(std::memory_order_seq_cst);
}

const void* OrecEngine::read_consistent(ThreadCtx& tc, TObjectBase& obj,
                                        std::atomic<std::uint64_t>& orec, check::Point point,
                                        ConflictKind kind, std::uint64_t& word_out) {
  TxDesc* me = tc.current_;
  for (;;) {
    rt_.step(tc, point, &obj);
    rt_.ensure_alive(tc);
    const std::uint64_t w1 = orec.load(std::memory_order_seq_cst);
    if (OrecTable::locked(w1)) {
      // Owner descriptors stay valid while we are EBR-pinned (the published
      // slot reference is only dropped through an EBR retire), and statuses
      // are absorbing, so a stale owner can never read back as kActive.
      TxDesc* owner = OrecTable::owner_of(w1);
      if (owner == me) {
        // Already ours (an irrevocable encounter-time lock, or a colliding
        // object sharing the orec with our commit): the committed body is
        // unchanged until write-back, and the read set must record the
        // pre-lock word so validation compares like with like.
        word_out = saved_word_of(logs(tc), &orec);
        return committed_body(obj);
      }
      const TxStatus st = owner->status.load(std::memory_order_acquire);
      if (st != TxStatus::kActive) {
        // Resolved mid-commit: a committed owner is writing back (release
        // imminent), an aborted one is restoring the saved word. Re-read;
        // the schedule point above keeps the checker's executor live.
        continue;
      }
      // Loop re-reads; a killed owner's rollback restores the word.
      rt_.contend(tc, *owner, kind);
      continue;
    }
    const void* payload = committed_body(obj);
    // Sandwich recheck: an unchanged word brackets the payload load — a
    // concurrent committer's lock CAS is seq_cst and precedes its body
    // store, so reading its body here forces the re-read below to see the
    // lock. Unchanged ⟹ `payload` is the committed version for w1.
    if (orec.load(std::memory_order_seq_cst) != w1) continue;
    if (OrecTable::version_of(w1) > logs(tc).rv) {
      // Version younger than rv: the snapshot cannot absorb it directly.
      // Extend rv (full revalidation; aborts on failure) and re-read.
      extend(tc);
      continue;
    }
    if (me->irrevocable.load(std::memory_order_relaxed)) [[unlikely]] {
      // Serial-fallback token holder: a lazy engine's conflicts normally
      // surface only at commit — too late for a transaction that is
      // forbidden to abort (commit-time validation failure would have
      // nowhere to go). So an irrevocable attempt locks every touched orec
      // at encounter time, DSTM-eager style: its validation then trivially
      // passes (everything is locked by itself), enemies wait or lose at
      // their own opens, and nobody can steal the locks (try_abort refuses
      // irrevocable targets). The liveness layer published the descriptor
      // at begin already; the call keeps every lock CAS behind a publish.
      rt_.publish(tc);
      std::uint64_t expected = w1;
      if (!orec.compare_exchange_strong(expected, OrecTable::pack_owner(me),
                                        std::memory_order_seq_cst)) {
        continue;  // lost a race; re-examine the new word
      }
      logs(tc).locks.push_back({&orec, w1});
      tc.metrics_.orec_lock_acquires++;
    }
    word_out = w1;
    return payload;
  }
}

void OrecEngine::record_read(ThreadCtx& tc, std::atomic<std::uint64_t>& orec,
                             std::uint64_t word) {
  TxLogs& lg = logs(tc);
  const std::uint32_t idx = lg.read_index.find(&orec);
  if (idx != InvisReadIndex::kNotFound) {
    // Objects sharing this orec were read under one version. A mismatch is
    // unreachable while (V) holds — any version move past the recorded word
    // either trips the rv check (extend revalidates this entry) or shows a
    // lock (contended) — so it is defense in depth: abort, don't assert.
    if (lg.reads[idx].seen != word) rt_.abort_self(tc);
    tc.metrics_.dup_reads++;
    return;
  }
  lg.read_index.insert(&orec, static_cast<std::uint32_t>(lg.reads.size()));
  lg.reads.push_back({&orec, word});
}

void OrecEngine::extend(ThreadCtx& tc) {
  // Sample first, then validate: entries proven unchanged after the sample
  // held their versions continuously from first read through the pass, in
  // particular at the sample instant — so the whole set is consistent there
  // and rv may advance to it (the TL2 extension argument).
  const std::uint64_t clock = rt_.commit_clock_->load(std::memory_order_seq_cst);
  validate_read_set(tc);
  logs(tc).rv = clock;
  tc.metrics_.extensions++;
  if (trace::Recorder* rec = rt_.config_.recorder) {
    rec->record(tc.slot_, trace::EventKind::kSnapshotExtend, tc.current_->serial, 1,
                trace::kNoEnemy, static_cast<std::uint64_t>(logs(tc).reads.size()), clock);
  }
}

void OrecEngine::validate_read_set(ThreadCtx& tc) {
  TxLogs& lg = logs(tc);
  TxDesc* me = tc.current_;
  tc.metrics_.validations++;
  tc.metrics_.validated_reads += lg.reads.size();
  for (const ReadEntry& r : lg.reads) {
    for (;;) {
      rt_.step(tc, check::Point::kOrecValidate, r.orec);
      rt_.ensure_alive(tc);
      const std::uint64_t w = r.orec->load(std::memory_order_seq_cst);
      if (w == r.seen) break;
      if (!OrecTable::locked(w)) {
        // The version moved past what we read: the snapshot is stale and
        // cannot be repaired (the old version is gone for good).
        rt_.abort_self(tc);
      }
      TxDesc* owner = OrecTable::owner_of(w);
      if (owner == me) {
        // Locked by our own commit: compare the pre-lock word we replaced.
        if (saved_word_of(lg, r.orec) == r.seen) break;
        rt_.abort_self(tc);
      }
      const TxStatus st = owner->status.load(std::memory_order_acquire);
      if (st != TxStatus::kActive) continue;  // releasing/restoring; re-read
      // An active committer holds a lock over something we read — the same
      // read-write conflict the open path contends.
      rt_.contend(tc, *owner, ConflictKind::kReadWrite);
    }
  }
}

bool OrecEngine::ghost_read_set_valid(ThreadCtx& tc) {
  TxLogs& lg = logs(tc);
  TxDesc* me = tc.current_;
  for (const ReadEntry& r : lg.reads) {
    const std::uint64_t w = r.orec->load(std::memory_order_seq_cst);
    if (w == r.seen) continue;
    if (OrecTable::locked(w) && OrecTable::owner_of(w) == me &&
        saved_word_of(lg, r.orec) == r.seen) {
      continue;
    }
    return false;
  }
  return true;
}

std::uint64_t OrecEngine::saved_word_of(const TxLogs& lg,
                                        const std::atomic<std::uint64_t>* orec) const {
  for (const LockEntry& l : lg.locks) {
    if (l.orec == orec) return l.saved;
  }
  return UINT64_MAX;  // never equals an unlocked word (those have bit0 == 0)
}

const void* OrecEngine::open_read(ThreadCtx& tc, TObjectBase& obj) {
  TxLogs& lg = logs(tc);
  // Read-own-writes: the redo clone is this attempt's view of the object.
  const std::uint32_t widx = lg.write_index.find(&obj);
  if (widx != InvisReadIndex::kNotFound) return lg.writes[widx].clone;
  std::atomic<std::uint64_t>& orec = orec_of(obj);
  std::uint64_t word = 0;
  const void* payload =
      read_consistent(tc, obj, orec, check::Point::kRead, ConflictKind::kReadWrite, word);
  record_read(tc, orec, word);
  // Ghost opacity oracle (checker builds only, under the schedule token):
  // no schedule point sits between read_consistent's sandwich recheck and
  // here, so the payload must still be the committed body — a mismatch
  // means the sandwich argument regressed.
  if (rt_.config_.checker != nullptr && committed_body(obj) != payload) {
    rt_.config_.checker->on_opacity_violation(
        "orec open_read returned a payload superseded before return");
  }
  return payload;
}

void* OrecEngine::open_write(ThreadCtx& tc, TObjectBase& obj) {
  TxLogs& lg = logs(tc);
  const std::uint32_t widx = lg.write_index.find(&obj);
  if (widx != InvisReadIndex::kNotFound) return lg.writes[widx].clone;
  // Lazy acquisition: snapshot a consistent base (recorded as a read — the
  // commit-time validation then proves the clone was derived from the
  // still-current version), buffer a private clone, lock nothing yet.
  std::atomic<std::uint64_t>& orec = orec_of(obj);
  std::uint64_t word = 0;
  const void* base =
      read_consistent(tc, obj, orec, check::Point::kWrite, ConflictKind::kWriteWrite, word);
  record_read(tc, orec, word);
  void* clone = obj.make_clone(tc.pool_, base);
  lg.write_index.insert(&obj, static_cast<std::uint32_t>(lg.writes.size()));
  lg.writes.push_back({&obj, &orec, clone});
  return clone;
}

void OrecEngine::acquire_locks(ThreadCtx& tc) {
  TxLogs& lg = logs(tc);
  TxDesc* me = tc.current_;
  // A lock word names its owner: the descriptor must be published (and so
  // EBR-protected) before the first CAS can expose it.
  rt_.publish(tc);
  // Canonical global order (orec address) makes concurrent committers
  // deadlock-free; objects hashed to one orec collapse to a single lock
  // (equal pointers sort adjacent and are skipped).
  lg.lock_order.resize(lg.writes.size());
  for (std::uint32_t i = 0; i < lg.writes.size(); ++i) lg.lock_order[i] = i;
  std::sort(lg.lock_order.begin(), lg.lock_order.end(),
            [&lg](std::uint32_t a, std::uint32_t b) {
              return lg.writes[a].orec < lg.writes[b].orec;
            });
  const std::atomic<std::uint64_t>* prev = nullptr;
  for (const std::uint32_t idx : lg.lock_order) {
    std::atomic<std::uint64_t>& orec = *lg.writes[idx].orec;
    if (&orec == prev) continue;
    prev = &orec;
    for (;;) {
      // An injected abort unwinds here; end() releases whatever is held.
      rt_.step(tc, check::Point::kOrecLock, lg.writes[idx].obj);
      rt_.ensure_alive(tc);
      std::uint64_t w = orec.load(std::memory_order_seq_cst);
      if (!OrecTable::locked(w)) {
        // One CAS is both acquisition and owner publication: losers always
        // see who beat them, so there is an enemy to contend with.
        if (orec.compare_exchange_strong(w, OrecTable::pack_owner(me),
                                         std::memory_order_seq_cst)) {
          lg.locks.push_back({&orec, w});
          tc.metrics_.orec_lock_acquires++;
          break;
        }
        continue;  // contended CAS; re-examine the new word
      }
      TxDesc* owner = OrecTable::owner_of(w);
      // Already ours: an irrevocable attempt encounter-locked it at open
      // time (the LockEntry with the saved word exists since then).
      if (owner == me) break;
      const TxStatus st = owner->status.load(std::memory_order_acquire);
      if (st != TxStatus::kActive) continue;  // releasing/restoring; re-read
      // Commit-time write-write conflict. Runtime::contend keeps the
      // liveness contract intact here: an irrevocable self short-circuits to
      // kAbortEnemy (lock "stealing" happens only by killing the holder,
      // which try_abort refuses for irrevocable enemies), and an
      // irrevocable enemy short-circuits to kRetry — so the serial-fallback
      // token holder's locks can never be stolen and it never waits forever.
      // A killed holder's rollback restores the word; the loop re-reads.
      tc.metrics_.orec_lock_waits++;
      rt_.contend(tc, *owner, ConflictKind::kWriteWrite);
    }
  }
}

bool OrecEngine::commit(ThreadCtx& tc) {
  TxLogs& lg = logs(tc);
  TxDesc* me = tc.current_;
  if (rt_.chaos_ != nullptr) [[unlikely]] rt_.chaos_at_commit(tc);
  if (lg.writes.empty()) {
    // Read-only: every read was rv-consistent at open, so the attempt
    // serializes at its last extension (or begin).
    if (!tc.published()) {
      // No other thread holds this descriptor's address: there is no
      // remote kill to detect and no waiter to wake (DESIGN.md §5).
      me->status.store(TxStatus::kCommitted, std::memory_order_relaxed);
      return true;
    }
    // Published (by the liveness layer at begin): the status CAS is
    // required — a remote kill must not be reported as a commit.
    TxStatus expected = TxStatus::kActive;
    return me->status.compare_exchange_strong(expected, TxStatus::kCommitted,
                                              std::memory_order_seq_cst);
  }
  acquire_locks(tc);
  if (rt_.config_.bugs.orec_skip_validation) [[unlikely]] {
    // SEEDED BUG: commit without the read-set validation, publishing writes
    // derived from a snapshot that may have been overwritten since — the
    // exact unsoundness invariant (V) protects against. Under the checker a
    // ghost pass evaluates the skipped validation: a would-have-failed
    // commit is reported as the opacity violation and then aborted rather
    // than published, so exploration observes the bug deterministically
    // instead of crashing on the downstream use-after-free (a stale commit
    // can resurrect an already-EBR-retired node).
    if (rt_.config_.checker != nullptr && !ghost_read_set_valid(tc)) {
      rt_.config_.checker->on_opacity_violation(
          "orec commit skipped a read-set validation that would have failed");
      rt_.abort_self(tc);  // throws; end() releases the held locks
    }
  } else {
    validate_read_set(tc);
  }
  // wv: eager bump on the shared clock. The deferred-stamping machinery
  // stays DSTM-only — orec readers key validation off orec words, which
  // must carry a real clock value at release time, so there is no orec-side
  // consumer for a lazy stamp (DESIGN.md §12).
  const std::uint64_t wv = rt_.commit_clock_->fetch_add(1, std::memory_order_seq_cst) + 1;
  tc.metrics_.clock_bumps++;
  TxStatus expected = TxStatus::kActive;
  if (!me->status.compare_exchange_strong(expected, TxStatus::kCommitted,
                                          std::memory_order_seq_cst)) {
    return false;  // remote kill between the last open and here; end() unlocks
  }
  // Runtime::finish_attempt_commit fires the unpark edge after this
  // write-back: waiters waking into still-locked orecs would only spin.
  writeback_and_release(tc, wv);
  return true;
}

void OrecEngine::writeback_and_release(ThreadCtx& tc, std::uint64_t wv) {
  TxLogs& lg = logs(tc);
  for (const WriteEntry& w : lg.writes) {
    TObjectBase& obj = *w.obj;
    void* old = obj.orec_body_.load(std::memory_order_relaxed);
    // Release store: a reader whose sandwich admits this body also sees its
    // contents. The replaced body may still be referenced by pinned readers
    // — EBR-retire it. The initial version (old == null) stays owned by the
    // locator and dies with the object.
    obj.orec_body_.store(w.clone, std::memory_order_release);
    if (old != nullptr) tc.ebr_.retire(old, obj.destroy_);
    tc.metrics_.orec_write_backs++;
  }
  // Release write-covering orecs at wv; locks that cover only reads (an
  // irrevocable attempt's encounter-time read locks) go back to their saved
  // word — the body never changed, and a spurious version bump would only
  // force other readers into needless extensions/aborts.
  const std::uint64_t packed = OrecTable::pack_version(wv);
  for (const LockEntry& l : lg.locks) {
    bool covers_write = false;
    for (const WriteEntry& w : lg.writes) {
      if (w.orec == l.orec) {
        covers_write = true;
        break;
      }
    }
    l.orec->store(covers_write ? packed : l.saved, std::memory_order_seq_cst);
  }
  lg.locks.clear();
  lg.writes.clear();  // clone ownership passed to the objects
  lg.write_index.reset();
}

void OrecEngine::end(ThreadCtx& tc, bool /*committed*/) {
  TxLogs& lg = logs(tc);
  // Locks still held ⟹ the attempt died mid-commit (validation failure,
  // remote kill, injected abort): restore the pre-lock words so waiting
  // committers and validators resume. Restoring the exact saved word keeps
  // every reader sandwich honest — the body never changed under this lock.
  for (auto it = lg.locks.rbegin(); it != lg.locks.rend(); ++it) {
    it->orec->store(it->saved, std::memory_order_seq_cst);
  }
  lg.locks.clear();
  // Unapplied redo clones were never published; free them directly.
  for (const WriteEntry& w : lg.writes) {
    if (w.clone != nullptr) w.obj->destroy_(w.clone);
  }
  lg.writes.clear();
  lg.write_index.reset();
  lg.reads.clear();
  lg.read_index.reset();
}

}  // namespace wstm::stm
