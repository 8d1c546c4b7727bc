#include "ebr/ebr.hpp"

#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace wstm::ebr {

namespace {

/// Shard the calling thread most plausibly shares a NUMA node with: its
/// current CPU on Linux, a stable hash of the thread identity elsewhere
/// (still spreads attach traffic, just without locality).
unsigned home_shard() noexcept {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu >= 0) return static_cast<unsigned>(cpu) % Domain::kShards;
#endif
  const auto tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<unsigned>(tid) % Domain::kShards;
}

}  // namespace

// ---------------------------------------------------------------- Handle --

Handle::Handle(Handle&& other) noexcept
    : domain_(std::exchange(other.domain_, nullptr)),
      slot_(other.slot_),
      pinned_(std::exchange(other.pinned_, false)),
      retire_count_(other.retire_count_),
      pool_(std::exchange(other.pool_, nullptr)),
      sync_counter_(std::exchange(other.sync_counter_, nullptr)),
      bins_(other.bins_) {
  for (Bin& bin : other.bins_) bin = Bin{};
}

Handle& Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    detach();
    domain_ = std::exchange(other.domain_, nullptr);
    slot_ = other.slot_;
    pinned_ = std::exchange(other.pinned_, false);
    retire_count_ = other.retire_count_;
    pool_ = std::exchange(other.pool_, nullptr);
    sync_counter_ = std::exchange(other.sync_counter_, nullptr);
    bins_ = other.bins_;
    for (Bin& bin : other.bins_) bin = Bin{};
  }
  return *this;
}

Handle::~Handle() { detach(); }

void Handle::pin() noexcept {
  auto& slot = *domain_->slots_[slot_];
  // Publish the observed epoch with the active bit, then verify the epoch
  // did not advance past us before the store became visible. seq_cst on the
  // store orders it against the subsequent global re-load on every platform.
  std::uint64_t e = domain_->global_epoch_.load(std::memory_order_acquire);
  for (;;) {
    slot.store((e << 1) | 1ULL, std::memory_order_seq_cst);
    const std::uint64_t now = domain_->global_epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
  pinned_ = true;
}

void Handle::unpin() noexcept {
  domain_->slots_[slot_]->store(0, std::memory_order_release);
  pinned_ = false;
}

void Handle::push_retired(Bin& bin, Retired r) {
  Chunk* chunk = bin.chunks;
  if (chunk == nullptr || chunk->count == Chunk::kCapacity) {
    chunk = static_cast<Chunk*>(util::Pool::allocate(pool_, sizeof(Chunk)));
    chunk->next = bin.chunks;
    chunk->count = 0;
    bin.chunks = chunk;
  }
  chunk->items[chunk->count++] = r;
}

void Handle::free_bin(Bin& bin) {
  Chunk* chunk = bin.chunks;
  bin.chunks = nullptr;
  while (chunk != nullptr) {
    for (std::uint32_t i = 0; i < chunk->count; ++i) chunk->items[i].deleter(chunk->items[i].ptr);
    Chunk* next = chunk->next;
    util::Pool::deallocate(chunk);
    chunk = next;
  }
}

void Handle::retire(void* ptr, void (*deleter)(void*)) {
  // seq_cst: the caller's unlinking store, when seq_cst too, precedes this
  // load in the single total order, so a thread that could still load the
  // unlinked pointer read the epoch before this load did and is pinned no
  // later than the tag (the descriptor publication argument, DESIGN.md §5).
  const std::uint64_t e = domain_->global_epoch_.load(std::memory_order_seq_cst);
  Bin& bin = bins_[e % bins_.size()];
  if (bin.epoch != e) {
    // The bin was last used at e - 3k (k >= 1), i.e. at least two epochs
    // ago: its contents are unreachable by any pinned thread.
    free_bin(bin);
    bin.epoch = e;
  }
  push_retired(bin, Retired{ptr, deleter});
  if (++retire_count_ % Domain::kAdvanceInterval == 0) {
    if (domain_->try_advance() && sync_counter_ != nullptr) ++*sync_counter_;
    collect(domain_->global_epoch_.load(std::memory_order_acquire));
  }
}

void Handle::collect(std::uint64_t global_epoch) {
  for (Bin& bin : bins_) {
    if (bin.chunks != nullptr && bin.epoch + 2 <= global_epoch) free_bin(bin);
  }
}

std::size_t Handle::pending() const noexcept {
  std::size_t n = 0;
  for (const Bin& bin : bins_) {
    for (const Chunk* c = bin.chunks; c != nullptr; c = c->next) n += c->count;
  }
  return n;
}

void Handle::detach() {
  if (domain_ == nullptr) return;
  if (pinned_) unpin();
  domain_->release_slot(slot_, std::move(bins_));
  domain_ = nullptr;
}

// ---------------------------------------------------------------- Domain --

Domain::~Domain() { drain(); }

Handle Domain::attach() {
  // Start in the shard covering the calling CPU and wrap: threads attaching
  // from different NUMA nodes land in different slot regions, and a sparse
  // process keeps whole shards empty for try_advance to skip.
  const unsigned home = home_shard();
  for (unsigned s = 0; s < kShards; ++s) {
    const unsigned shard = (home + s) % kShards;
    for (unsigned j = 0; j < kSlotsPerShard; ++j) {
      const unsigned i = shard * kSlotsPerShard + j;
      bool expected = false;
      if (slot_used_[i].compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
        slots_[i]->store(0, std::memory_order_release);
        // seq_cst: the population hint must precede this thread's first pin
        // in the single total order so an advance scan that skips the shard
        // on hint==0 is ordered before the pin (see Shard's comment).
        shards_[shard].attached.fetch_add(1, std::memory_order_seq_cst);
        return Handle(this, i);
      }
    }
  }
  throw std::runtime_error("ebr::Domain: all thread slots in use");
}

bool Domain::try_advance() noexcept {
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  for (unsigned shard = 0; shard < kShards; ++shard) {
    // Empty shards contribute nothing to the epoch condition; skipping them
    // turns the scan cost from O(kMaxThreads) cache misses into O(occupied
    // slots) — the point of sharding the slot array.
    if (shards_[shard].attached.load(std::memory_order_seq_cst) == 0) continue;
    const unsigned base = shard * kSlotsPerShard;
    for (unsigned j = 0; j < kSlotsPerShard; ++j) {
      const unsigned i = base + j;
      if (!slot_used_[i].load(std::memory_order_acquire)) continue;
      const std::uint64_t v = slots_[i]->load(std::memory_order_acquire);
      if ((v & 1ULL) != 0 && (v >> 1) != e) return false;  // pinned in an older epoch
    }
  }
  std::uint64_t expected = e;
  return global_epoch_.compare_exchange_strong(expected, e + 1, std::memory_order_acq_rel);
}

bool Domain::any_pinned() const noexcept {
  for (unsigned shard = 0; shard < kShards; ++shard) {
    // The hint is raised before a handle's first pin (seq_cst, see Shard),
    // so reading 0 orders this scan before any pin in the shard.
    if (shards_[shard].attached.load(std::memory_order_seq_cst) == 0) continue;
    const unsigned base = shard * kSlotsPerShard;
    for (unsigned j = 0; j < kSlotsPerShard; ++j) {
      if ((slots_[base + j]->load(std::memory_order_seq_cst) & 1ULL) != 0) return true;
    }
  }
  return false;
}

void Domain::drain() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.orphan_mutex);
    for (const Retired& r : shard.orphans) r.deleter(r.ptr);
    shard.orphans.clear();
  }
}

void Domain::release_slot(unsigned slot, std::array<Handle::Bin, 3>&& bins) {
  Shard& shard = shards_[shard_of(slot)];
  {
    std::lock_guard<std::mutex> lock(shard.orphan_mutex);
    for (Handle::Bin& bin : bins) {
      Handle::Chunk* chunk = bin.chunks;
      bin.chunks = nullptr;
      while (chunk != nullptr) {
        for (std::uint32_t i = 0; i < chunk->count; ++i)
          shard.orphans.push_back(chunk->items[i]);
        Handle::Chunk* next = chunk->next;
        util::Pool::deallocate(chunk);
        chunk = next;
      }
    }
  }
  slots_[slot]->store(0, std::memory_order_release);
  slot_used_[slot].store(false, std::memory_order_release);
  shard.attached.fetch_sub(1, std::memory_order_seq_cst);
}

}  // namespace wstm::ebr
