#include "probe.hpp"

#include "util/timing.hpp"

namespace pb {

using wstm::now_ns;
namespace stm = wstm::stm;

const char* span_name(SpanKind kind) noexcept {
  switch (kind) {
    case kTx: return "tx";
    case kAttempt: return "attempt";
    case kCmResolve: return "cm.resolve";
    case kCmOnBegin: return "cm.on_begin";
    case kCmOnAbort: return "cm.on_abort";
    case kCmOnCommit: return "cm.on_commit";
    case kServeSubmit: return "serve.submit";
    case kServeQueue: return "serve.queue";
    case kServeExec: return "serve.exec";
    case kNumSpanKinds: break;
  }
  return "?";
}

void Tracer::open(SpanKind kind, std::int64_t now, std::uint64_t req) {
  if (depth_ == static_cast<int>(std::size(stack_))) {
    ++nest_violations;
    return;
  }
  const Open* parent = depth_ > 0 ? &stack_[depth_ - 1] : nullptr;
  if (parent != nullptr && now < parent->start) ++nest_violations;
  stack_[depth_++] = Open{kind, next_id(), parent != nullptr ? parent->id : 0,
                          parent != nullptr ? parent->req : req, now, 0};
}

std::int64_t Tracer::close(std::int64_t now) {
  if (depth_ == 0) {
    ++nest_violations;
    return 0;
  }
  const Open o = stack_[--depth_];
  const std::int64_t dur = now - o.start;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
  finish(SpanRecord{o.id, o.parent, o.req, o.start, now, dur - o.child_ns, thread_, o.kind});
  return dur;
}

void Tracer::leaf(SpanKind kind, std::int64_t start, std::int64_t end) {
  Open* parent = depth_ > 0 ? &stack_[depth_ - 1] : nullptr;
  if (parent != nullptr) {
    if (start < parent->start) ++nest_violations;
    parent->child_ns += end - start;
  }
  finish(SpanRecord{next_id(), parent != nullptr ? parent->id : 0,
                    parent != nullptr ? parent->req : 0, start, end, end - start, thread_, kind});
}

void Tracer::root(SpanKind kind, std::int64_t start, std::int64_t end, std::uint64_t req) {
  finish(SpanRecord{next_id(), 0, req, start, end, end - start, thread_, kind});
}

void Tracer::finish(const SpanRecord& rec) {
  // A span that ends before it starts, or whose children cover more than
  // its own duration, did not nest.
  if (rec.end_ns < rec.start_ns || rec.self_ns < 0) ++nest_violations;
  if (count[rec.kind]++ < kKeepPerKind) kept.push_back(rec);
  total_ns[rec.kind] += rec.end_ns - rec.start_ns;
  self_total_ns[rec.kind] += rec.self_ns;
}

namespace {
std::atomic<TracePhase*> g_phase{nullptr};

struct ThreadBinding {
  TracePhase* phase = nullptr;
  Tracer* tracer = nullptr;
};
thread_local ThreadBinding t_binding;
}  // namespace

void TracePhase::activate(TracePhase* phase) noexcept {
  g_phase.store(phase, std::memory_order_release);
}

Tracer* TracePhase::create() {
  std::lock_guard<std::mutex> lock(mutex_);
  tracers_.push_back(std::make_unique<Tracer>(static_cast<std::uint32_t>(tracers_.size())));
  Tracer* t = tracers_.back().get();
  t->kept.reserve(Tracer::kKeepPerKind * kNumSpanKinds);
  return t;
}

Tracer* current_tracer() noexcept {
  TracePhase* s = g_phase.load(std::memory_order_acquire);
  if (s == nullptr) return nullptr;
  if (t_binding.phase != s) {
    try {
      t_binding.tracer = s->create();
    } catch (...) {
      return nullptr;  // out of memory: this thread goes untraced
    }
    t_binding.phase = s;
  }
  return t_binding.tracer;
}

stm::Resolution ProbeCM::resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                                 stm::ConflictKind kind) {
  Tracer* t = current_tracer();
  if (t == nullptr) return inner_->resolve(self, tx, enemy, kind);
  t->resolves++;
  const bool timed = t->sampling;
  const std::int64_t start = timed ? now_ns() : 0;
  const stm::Resolution r = inner_->resolve(self, tx, enemy, kind);
  if (r == stm::Resolution::kAbortSelf) t->abort_self++;
  if (timed) {
    const std::int64_t end = now_ns();
    t->leaf(kCmResolve, start, end);
    t->resolve_ns.push_back(end - start);
  }
  return r;
}

void ProbeCM::on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) {
  Tracer* t = current_tracer();
  if (t == nullptr || !t->sampling) return inner_->on_begin(self, tx, is_retry);
  const std::int64_t start = now_ns();
  inner_->on_begin(self, tx, is_retry);
  const std::int64_t end = now_ns();
  t->leaf(kCmOnBegin, start, end);
  t->on_begin_ns.push_back(end - start);
}

void ProbeCM::on_commit(stm::ThreadCtx& self, stm::TxDesc& tx) {
  Tracer* t = current_tracer();
  if (t == nullptr || !t->sampling) return inner_->on_commit(self, tx);
  const std::int64_t start = now_ns();
  inner_->on_commit(self, tx);
  t->leaf(kCmOnCommit, start, now_ns());
}

void ProbeCM::on_abort(stm::ThreadCtx& self, stm::TxDesc& tx) {
  Tracer* t = current_tracer();
  if (t == nullptr || !t->sampling) return inner_->on_abort(self, tx);
  const std::int64_t start = now_ns();
  inner_->on_abort(self, tx);
  const std::int64_t end = now_ns();
  t->leaf(kCmOnAbort, start, end);
  t->on_abort_ns.push_back(end - start);
}

}  // namespace pb
