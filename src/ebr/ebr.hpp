// Epoch-based memory reclamation (EBR).
//
// DSTM-style STMs continually supersede object versions and locators that
// concurrent readers may still be traversing. DSTM2 (the paper's platform)
// leaned on the JVM garbage collector for this; in C++ we use classic
// three-epoch EBR (Fraser): threads "pin" the global epoch around every
// transaction, retired memory is tagged with the epoch it was retired in,
// and a tagged batch is freed once the global epoch has advanced twice —
// at which point no pinned thread can still hold a reference.
//
// Usage:
//   ebr::Domain domain;
//   ebr::Handle h = domain.attach();            // once per thread
//   { ebr::Guard g(h);                          // around each critical region
//     ... read shared structures ...
//     h.retire(old_version);                    // unlink, defer free
//   }
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/cacheline.hpp"
#include "util/pool.hpp"

namespace wstm::ebr {

/// One deferred deallocation.
struct Retired {
  void* ptr;
  void (*deleter)(void*);
};

class Domain;

/// Per-thread participation in a Domain. Not thread-safe; each thread uses
/// its own Handle. Movable so the owning thread context can hold it by value.
class Handle {
 public:
  Handle() = default;
  Handle(Handle&& other) noexcept;
  Handle& operator=(Handle&& other) noexcept;
  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;
  ~Handle();

  bool attached() const noexcept { return domain_ != nullptr; }

  /// Enter a critical region: after pin() returns, memory retired by other
  /// threads from this point on will not be freed until unpin().
  void pin() noexcept;
  void unpin() noexcept;
  bool pinned() const noexcept { return pinned_; }

  /// Defer deallocation of `ptr` until two epoch advances have passed.
  /// Must be called while pinned (the caller just unlinked the object).
  void retire(void* ptr, void (*deleter)(void*));

  template <typename T>
  void retire(T* ptr) {
    retire(ptr, [](void* p) { delete static_cast<T*>(p); });
  }

  /// Number of retirements not yet freed through this handle.
  std::size_t pending() const noexcept;

  /// Route retire-list chunks through `pool` (see util/pool.hpp) instead of
  /// the global allocator. Optional; null keeps per-chunk global allocations
  /// (still amortized over Chunk::kCapacity retirements).
  void set_pool(util::Pool* pool) noexcept { pool_ = pool; }

  /// Optional metrics hook: incremented once per successful full-domain
  /// epoch sync this handle's retires triggered (the `ebr_shard_syncs`
  /// counter — how often this thread paid for the cross-shard scan + global
  /// epoch CAS). The pointee must outlive the handle.
  void set_sync_counter(std::uint64_t* counter) noexcept { sync_counter_ = counter; }

  /// Detach from the domain; pending garbage is handed to the domain and
  /// freed at domain destruction or quiescent drain.
  void detach();

 private:
  friend class Domain;
  Handle(Domain* domain, unsigned slot) noexcept : domain_(domain), slot_(slot) {}

  /// Fixed-capacity retirement batch. Retired nodes are tracked in chunks
  /// (not per-node heap records) so the steady-state retire path allocates
  /// once per kCapacity nodes, from the recycling pool.
  struct Chunk {
    static constexpr std::uint32_t kCapacity = 63;  // block is exactly 1 KiB
    Chunk* next;
    std::uint32_t count;
    Retired items[kCapacity];
  };

  struct Bin {
    std::uint64_t epoch = 0;
    Chunk* chunks = nullptr;
  };

  void push_retired(Bin& bin, Retired r);
  /// Runs the deleters of everything in `bin` and recycles its chunks.
  void free_bin(Bin& bin);
  void collect(std::uint64_t global_epoch);

  Domain* domain_ = nullptr;
  unsigned slot_ = 0;
  bool pinned_ = false;
  unsigned retire_count_ = 0;
  util::Pool* pool_ = nullptr;
  std::uint64_t* sync_counter_ = nullptr;
  std::array<Bin, 3> bins_{};
};

/// RAII pin/unpin.
class Guard {
 public:
  explicit Guard(Handle& h) noexcept : h_(h) { h_.pin(); }
  ~Guard() { h_.unpin(); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  Handle& h_;
};

class Domain {
 public:
  static constexpr unsigned kMaxThreads = 128;
  /// Thread slots are grouped into contiguous shards (stmgc-style). attach()
  /// steers a thread toward the shard covering its current CPU, so the
  /// epoch-advance scan touches slot lines with some NUMA locality and —
  /// more importantly — can skip whole shards with no attached threads via
  /// a per-shard population hint instead of walking all kMaxThreads slots.
  /// Orphaned garbage (detached handles) is likewise binned per shard under
  /// per-shard locks, so concurrent thread churn in different shards never
  /// serializes on one process-wide mutex.
  static constexpr unsigned kShards = 8;
  static constexpr unsigned kSlotsPerShard = kMaxThreads / kShards;
  static_assert(kMaxThreads % kShards == 0, "shards must tile the slot array");
  /// retire() attempts an epoch advance every this many retirements.
  static constexpr unsigned kAdvanceInterval = 64;

  static constexpr unsigned shard_of(unsigned slot) noexcept {
    return slot / kSlotsPerShard;
  }

  Domain() = default;
  ~Domain();
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Claim a thread slot, preferring the shard covering the calling CPU.
  /// Throws std::runtime_error when all slots are taken.
  Handle attach();

  std::uint64_t epoch() const noexcept { return global_epoch_.load(std::memory_order_acquire); }

  /// Advance the epoch if every pinned thread has observed the current one.
  /// Scans shard by shard, skipping shards whose population hint is zero.
  /// Returns true when the epoch moved (a full cross-shard sync happened).
  bool try_advance() noexcept;

  /// Free everything immediately. Caller must guarantee no thread is pinned
  /// (quiescence) — used between benchmark phases and in tests.
  void drain();

  /// True when some attached handle is pinned. The slot loads are seq_cst,
  /// so a caller that makes a seq_cst store before the scan forms a Dekker
  /// pair with pin(): either the scan sees the pin, or the pinning thread's
  /// next seq_cst load sees the store (Runtime::shutdown's gate).
  bool any_pinned() const noexcept;

 private:
  friend class Handle;

  void release_slot(unsigned slot, std::array<Handle::Bin, 3>&& bins);

  /// Per-shard state: a population hint for the advance scan's skip test
  /// and a private orphan bin so detach churn in one shard never contends
  /// with another. The hint is advisory for *speed* only — correctness of
  /// try_advance rests on slot_used_/slots_, which the hint conservatively
  /// over-approximates: it is raised (seq_cst) before the claiming thread
  /// can first pin and lowered only after its slot is fully released, so a
  /// scan that observes 0 is seq_cst-ordered before any pin in that shard.
  struct alignas(kCacheLine) Shard {
    std::atomic<unsigned> attached{0};
    std::mutex orphan_mutex;
    std::vector<Retired> orphans;
  };

  // Slot value: (epoch << 1) | active-bit.
  std::array<CacheAligned<std::atomic<std::uint64_t>>, kMaxThreads> slots_{};
  std::array<std::atomic<bool>, kMaxThreads> slot_used_{};
  std::atomic<std::uint64_t> global_epoch_{1};

  std::array<Shard, kShards> shards_{};
};

}  // namespace wstm::ebr
