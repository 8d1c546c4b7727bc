// The four built-in admission policies (see scheduler.hpp for the design
// space they span). All state is atomic and placement is lock-free: place()
// runs on every submit and on_executed() on every completion, so neither may
// serialize producers or workers.
#include "serve/scheduler.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "cm/manager.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"

namespace wstm::serve {

namespace {

/// One splitmix64 round as a stateless mixer: full-avalanche, so adjacent
/// intset keys spread uniformly over queues.
std::uint64_t mix(std::uint64_t key, std::uint64_t seed) noexcept {
  std::uint64_t s = key ^ (seed * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

std::uint32_t round_up_pow2_u32(std::uint32_t v) noexcept {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// --- round-robin -----------------------------------------------------------

class RoundRobin final : public AdmissionScheduler {
 public:
  explicit RoundRobin(const SchedulerConfig& config) : AdmissionScheduler(config.n_queues) {}

  std::string name() const override { return "round-robin"; }

  unsigned place(const TxRequest& req) override {
    (void)req;
    return static_cast<unsigned>(next_.fetch_add(1, std::memory_order_relaxed) % n_queues_);
  }

 private:
  std::atomic<std::uint64_t> next_{0};
};

// --- key-hash --------------------------------------------------------------

class KeyHash final : public AdmissionScheduler {
 public:
  explicit KeyHash(const SchedulerConfig& config)
      : AdmissionScheduler(config.n_queues), seed_(config.seed | 1) {}

  std::string name() const override { return "key-hash"; }

  unsigned place(const TxRequest& req) override {
    return static_cast<unsigned>(mix(req.key, seed_) % n_queues_);
  }

 private:
  std::uint64_t seed_;
};

// --- conflict-graph --------------------------------------------------------

// Hot-key clustering after Adaptive Transaction Scheduling (Yoo & Lee,
// SPAA'08), which decides *when* to serialize (one global lane once
// contention is high); here the decision is *per key*: a fixed
// open-addressed table of abort-rate EWMAs, fed by worker feedback, marks
// keys hot, and hot keys hash into a set of serialization lanes while cold
// keys round-robin for load balance. When the global abort rate is high the
// lane set shrinks to hot_lane_fraction of the queues, concentrating
// conflicting work on few workers — the single global lane falls out at
// n_queues * fraction <= 1.
//
// Heat is 8.8 fixed point (1.0 == 256) so the table stays one atomic word
// per key and updates are plain CAS loops.
class ConflictGraph final : public AdmissionScheduler {
 public:
  explicit ConflictGraph(const SchedulerConfig& config)
      : AdmissionScheduler(config.n_queues),
        seed_(config.seed | 1),
        mask_(round_up_pow2_u32(config.table_size < 64 ? 64 : config.table_size) - 1),
        hot_threshold_fp_(static_cast<std::uint32_t>(config.hot_threshold * 256.0)),
        hot_lanes_(std::max(1U, static_cast<unsigned>(
                                    std::lround(config.n_queues * config.hot_lane_fraction)))),
        slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(mask_) + 1)) {}

  std::string name() const override { return "conflict-graph"; }

  unsigned place(const TxRequest& req) override {
    const std::uint64_t h = mix(req.key, seed_);
    if (heat_of(req.key) >= hot_threshold_fp_) {
      // Hot key: serialize by key. Under high global contention the lane
      // set shrinks so hot keys also stop running beside *each other*.
      const bool contended = global_heat_.load(std::memory_order_relaxed) >= hot_threshold_fp_;
      const unsigned lanes = contended ? hot_lanes_ : n_queues_;
      return static_cast<unsigned>(h % lanes);
    }
    return static_cast<unsigned>(next_.fetch_add(1, std::memory_order_relaxed) % n_queues_);
  }

  void on_executed(std::uint64_t key, std::uint32_t aborts) override {
    // Global abort-rate EWMA (per executed request, 1/16 smoothing).
    const std::uint32_t sample_fp = aborts > 255 ? 255U * 256U : aborts * 256U;
    ewma_update(global_heat_, sample_fp);

    // Per-key EWMA. Keys that never abort are not tracked: the table only
    // holds keys that have shown contention, so a Zipfian tail can't evict
    // the hot head.
    Slot* slot = find(key);
    if (slot == nullptr) {
      if (aborts == 0) return;
      slot = claim(key);
      if (slot == nullptr) return;  // probe window full of hotter keys
    }
    ewma_update(slot->heat_fp, sample_fp);
  }

  /// Test/diagnostic hook: current heat of `key` in aborts-per-request.
  double heat(std::uint64_t key) const {
    return static_cast<double>(const_cast<ConflictGraph*>(this)->heat_of(key)) / 256.0;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> key{0};  // key + 1; 0 = empty
    std::atomic<std::uint32_t> heat_fp{0};
  };

  static constexpr unsigned kProbes = 8;
  static constexpr unsigned kEwmaShift = 4;  // 1/16 smoothing

  static void ewma_update(std::atomic<std::uint32_t>& cell, std::uint32_t sample_fp) noexcept {
    std::uint32_t cur = cell.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t next = cur - (cur >> kEwmaShift) + (sample_fp >> kEwmaShift);
      if (cell.compare_exchange_weak(cur, next, std::memory_order_relaxed)) return;
    }
  }

  Slot* find(std::uint64_t key) noexcept {
    const std::uint64_t tagged = key + 1;
    std::uint64_t idx = mix(key, seed_ ^ 0xc0ffee);
    for (unsigned p = 0; p < kProbes; ++p, ++idx) {
      Slot& s = slots_[idx & mask_];
      if (s.key.load(std::memory_order_acquire) == tagged) return &s;
    }
    return nullptr;
  }

  /// Claims an empty slot in the probe window, or evicts the coldest slot
  /// if its heat has decayed below the hot threshold (hot keys are never
  /// evicted). Racy eviction can lose one key's history — it re-learns.
  Slot* claim(std::uint64_t key) noexcept {
    const std::uint64_t tagged = key + 1;
    std::uint64_t idx = mix(key, seed_ ^ 0xc0ffee);
    Slot* coldest = nullptr;
    std::uint32_t coldest_heat = ~0U;
    for (unsigned p = 0; p < kProbes; ++p, ++idx) {
      Slot& s = slots_[idx & mask_];
      std::uint64_t expected = 0;
      if (s.key.compare_exchange_strong(expected, tagged, std::memory_order_acq_rel)) {
        return &s;
      }
      if (expected == tagged) return &s;  // someone else claimed it for us
      const std::uint32_t h = s.heat_fp.load(std::memory_order_relaxed);
      if (h < coldest_heat) {
        coldest_heat = h;
        coldest = &s;
      }
    }
    if (coldest != nullptr && coldest_heat < hot_threshold_fp_) {
      coldest->heat_fp.store(0, std::memory_order_relaxed);
      coldest->key.store(tagged, std::memory_order_release);
      return coldest;
    }
    return nullptr;
  }

  std::uint32_t heat_of(std::uint64_t key) noexcept {
    Slot* s = find(key);
    return s != nullptr ? s->heat_fp.load(std::memory_order_relaxed) : 0;
  }

  std::uint64_t seed_;
  std::uint32_t mask_;
  std::uint32_t hot_threshold_fp_;
  unsigned hot_lanes_;
  std::unique_ptr<Slot[]> slots_;
  alignas(kCacheLine) std::atomic<std::uint64_t> next_{0};
  alignas(kCacheLine) std::atomic<std::uint32_t> global_heat_{0};
};

// --- window-frame ----------------------------------------------------------

// Maps the window CMs' frame assignment onto queue placement: a request's
// key draws a deterministic pseudo-delay q_k in [0, α) — the same range a
// window thread draws its q_i from — and is assigned frame
// current_frame + q_k, landing in queue (frame mod n_queues). Two requests
// on the same key always share a frame, hence a queue (serialized); keys
// with different q_k land in different frames, hence — while α spans several
// queues — different queues (spread). As the frame clock advances the whole
// assignment rotates across workers, so no queue is permanently hot even
// under a skewed key distribution: that rotation is exactly what the static
// key-hash policy lacks. Against a non-window manager there is no frame
// clock and the policy degrades to key-hash placement.
class WindowFrame final : public AdmissionScheduler {
 public:
  explicit WindowFrame(const SchedulerConfig& config)
      : AdmissionScheduler(config.n_queues),
        seed_(config.seed | 1),
        manager_(config.manager) {}

  std::string name() const override { return "window-frame"; }

  unsigned place(const TxRequest& req) override {
    cm::FrameSchedule fs;
    if (manager_ == nullptr || !manager_->frame_schedule(&fs)) {
      return static_cast<unsigned>(mix(req.key, seed_) % n_queues_);
    }
    const std::uint64_t alpha = fs.alpha == 0 ? 1 : fs.alpha;
    const std::uint64_t q_k = mix(req.key, seed_) % alpha;
    return static_cast<unsigned>((fs.current_frame + q_k) % n_queues_);
  }

 private:
  std::uint64_t seed_;
  const cm::ContentionManager* manager_;
};

}  // namespace

std::unique_ptr<AdmissionScheduler> make_scheduler(const std::string& policy,
                                                   const SchedulerConfig& config) {
  if (config.n_queues == 0) throw std::invalid_argument("make_scheduler: n_queues must be > 0");
  if (policy == "round-robin") return std::make_unique<RoundRobin>(config);
  if (policy == "key-hash") return std::make_unique<KeyHash>(config);
  if (policy == "conflict-graph") return std::make_unique<ConflictGraph>(config);
  if (policy == "window-frame") return std::make_unique<WindowFrame>(config);
  throw std::invalid_argument("unknown admission policy: " + policy);
}

std::vector<std::string> scheduler_names() {
  return {"round-robin", "key-hash", "conflict-graph", "window-frame"};
}

}  // namespace wstm::serve
