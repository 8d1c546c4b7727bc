// The three built-in admission policies (see scheduler.hpp for the design
// space they span). All state is atomic and placement is lock-free: place()
// runs on every submit, so it may not serialize producers.
#include "serve/scheduler.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>

#include "cm/manager.hpp"
#include "util/rng.hpp"

namespace wstm::serve {

namespace {

/// One splitmix64 round as a stateless mixer: full-avalanche, so adjacent
/// intset keys spread uniformly over queues.
std::uint64_t mix(std::uint64_t key, std::uint64_t seed) noexcept {
  std::uint64_t s = key ^ (seed * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
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
  if (policy == "window-frame") return std::make_unique<WindowFrame>(config);
  throw std::invalid_argument("unknown admission policy: " + policy);
}

std::vector<std::string> scheduler_names() {
  return {"round-robin", "key-hash", "window-frame"};
}

}  // namespace wstm::serve
