// perfbench: runs one benchmark workload against the library's public entry
// points (stm::Runtime + atomically, structs::make_intset,
// cm::make_manager, serve::TxServer::submit) and prints the run's metrics
// as one JSON line on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--arbitration abort|wait] [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice in fresh systems, untraced then traced (half the time each), and
// prints the per-layer metrics plus the tracing overhead; a table of span
// self times goes to stderr. README.md describes the workloads and every
// metric.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "cm/registry.hpp"
#include "probe.hpp"
#include "serve/server.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"
#include "util/zipf.hpp"
#include "window/window_cm.hpp"

namespace pb {
namespace {

namespace stm = wstm::stm;
namespace cm = wstm::cm;
namespace serve = wstm::serve;
namespace structs = wstm::structs;
using wstm::now_ns;
using wstm::Xoshiro256;
using wstm::ZipfSampler;

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  bool open_loop;
  stm::BackendKind backend;
  const char* cm;
  const char* set_kind;
  long key_range;
  double zipf_alpha;        // 0 = uniform keys
  unsigned lookup_pct;      // contains(); the rest splits evenly into insert/remove
  unsigned workers;         // closed loop: client threads; open loop: server workers
  unsigned round_tx;        // closed loop: commits each worker makes per round
  unsigned latency_period;  // closed loop: time 1 in N transactions
  unsigned trace_period;    // traced run: spans for 1 in N transactions
  double rate_per_s;        // open loop: offered Poisson rate
};

constexpr Workload kWorkloads[] = {
    {"readmostly-orec", false, stm::BackendKind::kOrec, "Polka", "hashtable", 16384, 0.0, 90, 4,
     50000, 16, 64, 0.0},
    {"hotspot-window", false, stm::BackendKind::kDstm, "Adaptive-Improved-Dynamic", "skiplist",
     256, 1.2, 0, 4, 5000, 1, 8, 0.0},
    {"serve-window", true, stm::BackendKind::kOrec, "Adaptive-Improved-Dynamic", "skiplist", 256,
     1.2, 0, 2, 0, 1, 16, 180000.0},
};

constexpr std::int64_t kWarmupNs = 200'000'000;      // closed loop
constexpr double kServeRoundSeconds = 0.25;           // open loop
constexpr std::int64_t kDeadlineNs = 20'000'000;      // per served request
constexpr std::size_t kQueueCapacity = 8192;          // per server queue
constexpr std::int64_t kDrainStallNs = 200'000'000;   // give up on expired requests
constexpr int kSetupRepeats = 11;

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t s = seed ^ (tag * 0xd1b54a32d192ed03ULL);
  return wstm::splitmix64(s);
}

enum class OpKind : std::uint8_t { kContains, kInsert, kRemove };

struct Op {
  OpKind kind = OpKind::kContains;
  long key = 0;
};

/// Seeded operation stream: the same seed yields the same operations.
class OpGen {
 public:
  OpGen(const Workload& w, const ZipfSampler* zipf, std::uint64_t seed)
      : zipf_(zipf), range_(w.key_range), lookup_pct_(w.lookup_pct), rng_(seed) {}

  Op next() {
    Op op;
    op.key = zipf_ != nullptr ? static_cast<long>(zipf_->sample(rng_))
                              : static_cast<long>(rng_.below(static_cast<std::uint64_t>(range_)));
    const unsigned r = static_cast<unsigned>(rng_.below(100));
    op.kind = r < lookup_pct_ ? OpKind::kContains
              : (r - lookup_pct_) % 2 == 0 ? OpKind::kInsert
                                           : OpKind::kRemove;
    return op;
  }
  Xoshiro256& rng() noexcept { return rng_; }

 private:
  const ZipfSampler* zipf_;
  long range_;
  unsigned lookup_pct_;
  Xoshiro256 rng_;
};

bool apply(structs::TxIntSet& set, stm::Tx& tx, const Op& op) {
  switch (op.kind) {
    case OpKind::kContains: return set.contains(tx, op.key);
    case OpKind::kInsert: return set.insert(tx, op.key);
    case OpKind::kRemove: return set.remove(tx, op.key);
  }
  return false;
}

// ---- small statistics -------------------------------------------------------

/// Nearest-rank percentile; reorders `v`. 0 when empty.
double percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Sleep for the bulk of the wait and spin through the last stretch, so
/// arrivals stay on schedule at high rates. The spin does not yield: a
/// yielding generator that shares a CPU with a worker it just woke can fall
/// milliseconds behind schedule.
void wait_until_ns(std::int64_t when) {
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= when) return;
    const std::int64_t left = when - now;
    if (left > 200'000) std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
  }
}

// ---- the system under test --------------------------------------------------

struct System {
  std::unique_ptr<structs::TxIntSet> set;
  std::unique_ptr<stm::Runtime> rt;  // destroyed before the set it ran on
  std::unique_ptr<serve::TxServer> server;
  const wstm::window::WindowCM* window = nullptr;  // window managers only
  std::size_t initial_size = 0;
};

/// Runtime construction, populate, and (open loop) server start: the work
/// setup_s times.
std::unique_ptr<System> build_system(const Workload& w, std::uint64_t seed, bool traced,
                                     stm::ArbitrationMode arbitration) {
  auto sys = std::make_unique<System>();
  cm::Params params;
  params.threads = w.workers;
  params.requester_waits = arbitration == stm::ArbitrationMode::kWait;
  cm::ManagerPtr manager = cm::make_manager(w.cm, params);
  sys->window = dynamic_cast<const wstm::window::WindowCM*>(manager.get());
  ProbeCM* probe = nullptr;
  if (traced) {
    auto owned = std::make_unique<ProbeCM>(std::move(manager));
    probe = owned.get();
    manager = std::move(owned);
  }
  // Built directly, so the harness's automatic preemption emulation stays
  // off; workers never outnumber CPUs here.
  stm::RuntimeConfig config;
  config.seed = derive(seed, 1);
  config.backend = w.backend;
  config.arbitration = arbitration;
  sys->set = structs::make_intset(w.set_kind);
  sys->rt = std::make_unique<stm::Runtime>(std::move(manager), config);
  if (probe != nullptr) probe->forward_hooks();

  // Prefill half the key range, chosen by the seed.
  std::vector<long> keys(static_cast<std::size_t>(w.key_range));
  std::iota(keys.begin(), keys.end(), 0L);
  Xoshiro256 rng(derive(seed, 2));
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.below(i + 1)]);
  }
  keys.resize(keys.size() / 2);
  stm::ThreadCtx& tc = sys->rt->attach_thread();
  for (long k : keys) {
    sys->rt->atomically(tc, [&](stm::Tx& tx) { return sys->set->insert(tx, k); });
  }
  sys->rt->detach_thread(tc);
  sys->initial_size = keys.size();
  sys->rt->reset_metrics();

  if (w.open_loop) {
    serve::ServerConfig sc;
    sc.n_workers = w.workers;
    sc.queue_capacity = kQueueCapacity;
    sc.backpressure = serve::Backpressure::kReject;
    sc.policy = "window-frame";
    sc.seed = derive(seed, 3);
    // Idle workers steal from the other queue, so one worker stalled by the
    // host does not strand its queue until requests expire.
    sc.worker.steal = true;
    sys->server = std::make_unique<serve::TxServer>(*sys->rt, sc);
    sys->server->start();
  }
  return sys;
}

/// Sets the system up `repeats` times, timing each, and keeps the last.
std::unique_ptr<System> setup(const Workload& w, std::uint64_t seed, bool traced,
                              stm::ArbitrationMode arbitration, int repeats,
                              std::vector<double>* setup_s) {
  std::unique_ptr<System> sys;
  for (int i = 0; i < repeats; ++i) {
    sys.reset();  // teardown stays outside the timed region
    const std::int64_t t0 = now_ns();
    sys = build_system(w, seed, traced, arbitration);
    setup_s->push_back(wstm::ns_to_s(now_ns() - t0));
  }
  return sys;
}

// ---- output checks ----------------------------------------------------------

/// Final set sorted, unique, in range, and of the size the committed
/// results imply.
std::string check_set(const System& sys, const Workload& w, std::uint64_t inserts,
                      std::uint64_t removes) {
  const std::vector<long> elems = sys.set->quiescent_elements();
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (elems[i] < 0 || elems[i] >= w.key_range) return "set element out of range";
    if (i > 0 && elems[i] <= elems[i - 1]) return "set not sorted and unique";
  }
  const std::uint64_t expect = sys.initial_size + inserts - removes;
  if (elems.size() != expect) {
    return "set size " + std::to_string(elems.size()) + " != initial " +
           std::to_string(sys.initial_size) + " + inserts " + std::to_string(inserts) +
           " - removes " + std::to_string(removes);
  }
  return "";
}

// ---- one measured phase -----------------------------------------------------

struct PhaseResult {
  // Per measured round.
  std::vector<double> makespan_s, gen_lag_p99_us;
  std::vector<double> tx_p50_us, tx_p90_us, tx_p99_us, soj_p50_us, soj_p90_us, soj_p99_us;
  std::vector<double> good_per_s;         // commits (open loop: on time) per second
  std::vector<double> cpu_us_per_commit;  // process CPU, producer excluded
  double measured_s = 0.0;                // sum of round makespans
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0, unfinished = 0, late = 0;  // open loop failures
  stm::ThreadMetrics totals;  // measured rounds
  std::uint64_t allocs = 0;
  std::uint64_t frame_advances = 0;
  serve::TxServer::Stats server;
  std::string error;  // non-empty = a check failed
};

/// Traced body run: opens an attempt span at `entry` and closes it however
/// the body exits (normal return or an abort unwinding through it).
template <typename F>
bool traced_attempt(Tracer& t, std::int64_t entry, F&& body) {
  if (t.attempts == 0) {
    if (t.call_ns != 0) t.begin_ns.push_back(entry - t.call_ns);
  } else {
    t.retry_ns.push_back(entry - t.last_exit_ns);
  }
  t.attempts++;
  t.sampled_attempts++;
  t.open(kAttempt, entry);
  struct Exit {
    Tracer& t;
    std::int64_t entry;
    ~Exit() {
      const std::int64_t now = now_ns();
      t.close(now);
      t.last_exit_ns = now;
      t.last_body_ns = now - entry;
      t.body_all_ns += now - entry;
    }
  } exit{t, entry};
  return body();
}

/// The committed attempt's body time counts as useful work.
void note_committed(Tracer& t) {
  t.op_ns.push_back(t.last_body_ns);
  t.body_committed_ns += t.last_body_ns;
}

bool traced_tx(stm::Runtime& rt, stm::ThreadCtx& tc, Tracer& t, structs::TxIntSet& set,
               const Op& op, std::uint64_t req) {
  t.sampling = true;
  t.attempts = 0;
  t.sampled_tx++;
  const std::int64_t call = now_ns();
  t.call_ns = call;
  t.open(kTx, call, req);
  const bool ok = rt.atomically(tc, [&](stm::Tx& tx) {
    return traced_attempt(t, now_ns(), [&] { return apply(set, tx, op); });
  });
  const std::int64_t ret = now_ns();
  t.commit_ns.push_back(ret - t.last_exit_ns);
  note_committed(t);
  t.close(ret);
  t.sampling = false;
  t.call_ns = 0;
  return ok;
}

struct alignas(64) ClosedWorker {
  explicit ClosedWorker(OpGen g) : gen(std::move(g)) {}
  OpGen gen;
  std::vector<std::int64_t> lat;  // this round's sampled latencies
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::string error;
};

/// Closed loop: `w.workers` clients each commit `w.round_tx` transactions
/// per round (Fig. 5's fixed-count shape); rounds repeat until `seconds` of
/// measured rounds have passed. A non-null `tracing` traces the measured
/// rounds.
PhaseResult run_closed(System& sys, const Workload& w, std::uint64_t seed, double seconds,
                       TracePhase* tracing) {
  const unsigned n = w.workers;
  std::unique_ptr<ZipfSampler> zipf;
  if (w.zipf_alpha > 0) {
    zipf = std::make_unique<ZipfSampler>(static_cast<std::uint64_t>(w.key_range), w.zipf_alpha);
  }
  std::vector<ClosedWorker> workers;
  workers.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers.emplace_back(OpGen(w, zipf.get(), derive(seed, 100 + i)));
    workers.back().lat.reserve(w.round_tx / w.latency_period + 1);
  }

  stm::Runtime& rt = *sys.rt;
  structs::TxIntSet& set = *sys.set;
  // Round gate: the controller and the workers meet here before and after
  // every round; blocked parties sleep, nobody spins.
  std::barrier<> gate(static_cast<std::ptrdiff_t>(n) + 1);
  std::atomic<bool> stop{false};
  std::atomic<bool> trace_rounds{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ClosedWorker& me = workers[i];
      try {
        stm::ThreadCtx& tc = rt.attach_thread();
        std::uint64_t serial = 0;
        for (;;) {
          gate.arrive_and_wait();
          if (stop.load(std::memory_order_acquire)) break;
          Tracer* t = trace_rounds.load(std::memory_order_acquire) ? current_tracer() : nullptr;
          me.lat.clear();
          me.start_ns = now_ns();
          for (unsigned k = 0; k < w.round_tx; ++k) {
            const Op op = me.gen.next();
            bool ok;
            if (t != nullptr && k % w.trace_period == 0) {
              ok = traced_tx(rt, tc, *t, set, op, ++serial);
            } else if (k % w.latency_period == 0) {
              const std::int64_t t0 = now_ns();
              ok = rt.atomically(tc, [&](stm::Tx& tx) { return apply(set, tx, op); });
              me.lat.push_back(now_ns() - t0);
            } else {
              ok = rt.atomically(tc, [&](stm::Tx& tx) { return apply(set, tx, op); });
            }
            if (ok && op.kind == OpKind::kInsert) me.inserts++;
            if (ok && op.kind == OpKind::kRemove) me.removes++;
          }
          me.end_ns = now_ns();
          gate.arrive_and_wait();
        }
      } catch (const std::exception& e) {
        me.error = e.what();
        failed.store(true, std::memory_order_release);
        // Leave the gate so the others are not stranded: this arrival
        // stands in for the one the worker would have made next.
        gate.arrive_and_drop();
      }
    });
  }

  PhaseResult res;
  std::vector<std::int64_t> merged;
  bool measuring = false;
  std::int64_t warm_ns = 0;
  std::uint64_t alloc0 = 0, frames0 = 0;
  for (;;) {
    if (failed.load(std::memory_order_acquire)) break;
    if (measuring && res.measured_s >= seconds) break;
    const double round_cpu0 = process_cpu_s();
    gate.arrive_and_wait();  // start the round
    gate.arrive_and_wait();  // wait for it to end
    const double round_cpu = process_cpu_s() - round_cpu0;
    if (failed.load(std::memory_order_acquire)) break;
    std::int64_t start = workers[0].start_ns, end = workers[0].end_ns;
    for (const ClosedWorker& cw : workers) {
      start = std::min(start, cw.start_ns);
      end = std::max(end, cw.end_ns);
    }
    if (!measuring) {
      warm_ns += end - start;
      if (warm_ns >= kWarmupNs) {
        measuring = true;
        rt.reset_metrics();
        alloc0 = alloc_calls_except_this_thread();
        frames0 = sys.window != nullptr ? sys.window->controller().advances() : 0;
        if (tracing != nullptr) {
          TracePhase::activate(tracing);
          trace_rounds.store(true, std::memory_order_release);
        }
      }
      continue;
    }
    merged.clear();
    for (const ClosedWorker& cw : workers) merged.insert(merged.end(), cw.lat.begin(), cw.lat.end());
    const double p50 = percentile(merged, 50) / 1e3;
    const double p90 = percentile(merged, 90) / 1e3;
    const double p99 = percentile(merged, 99) / 1e3;
    res.tx_p50_us.push_back(p50);
    res.tx_p90_us.push_back(p90);
    res.tx_p99_us.push_back(p99);
    // A closed-loop request is due when its client issues it, so its
    // sojourn is the atomically() call itself.
    res.soj_p50_us.push_back(p50);
    res.soj_p90_us.push_back(p90);
    res.soj_p99_us.push_back(p99);
    const double round_tx = static_cast<double>(n) * w.round_tx;
    res.makespan_s.push_back(wstm::ns_to_s(end - start));
    res.good_per_s.push_back(round_tx / wstm::ns_to_s(end - start));
    res.cpu_us_per_commit.push_back(round_cpu * 1e6 / round_tx);
    res.measured_s += wstm::ns_to_s(end - start);
    res.attempted += std::uint64_t{n} * w.round_tx;
  }
  // Workers are parked at the gate: their counters are stable.
  res.totals = rt.total_metrics();
  res.allocs = alloc_calls_except_this_thread() - alloc0;
  res.frame_advances = sys.window != nullptr ? sys.window->controller().advances() - frames0 : 0;
  stop.store(true, std::memory_order_release);
  gate.arrive_and_wait();  // release the workers parked at the start gate
  for (std::thread& th : threads) th.join();
  TracePhase::activate(nullptr);

  std::uint64_t inserts = 0, removes = 0;
  for (const ClosedWorker& cw : workers) {
    if (!cw.error.empty()) res.error = "worker failed: " + cw.error;
    inserts += cw.inserts;
    removes += cw.removes;
  }
  if (res.error.empty() && res.totals.commits != res.attempted) {
    res.error = "runtime counted " + std::to_string(res.totals.commits) + " commits for " +
                std::to_string(res.attempted) + " transactions";
  }
  if (res.error.empty()) res.error = check_set(sys, w, inserts, removes);
  res.failed = res.error.empty() ? 0 : res.attempted;
  return res;
}

// ---- open loop --------------------------------------------------------------

struct OpenLoop;

/// One request of the current round. The producer owns the plain fields;
/// the worker that runs the request writes the atomics, which the producer
/// reads once the done counter says the request finished.
struct ReqSlot {
  OpenLoop* owner = nullptr;
  Op op;
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_end_ns = 0;  // traced, sampled requests only
  bool sampled = false;
  bool accepted = false;
  std::atomic<std::int64_t> first_entry_ns{0};
  std::atomic<std::int64_t> done_ns{0};
  std::atomic<std::uint64_t> result{0};
};

struct OpenLoop {
  structs::TxIntSet* set = nullptr;
  std::atomic<std::uint64_t> done_count{0};
};

std::uint64_t serve_body(stm::Tx& tx, void* ctx, std::uint64_t) {
  auto* s = static_cast<ReqSlot*>(ctx);
  if (s->first_entry_ns.load(std::memory_order_relaxed) == 0) {
    s->first_entry_ns.store(now_ns(), std::memory_order_relaxed);
  }
  return apply(*s->owner->set, tx, s->op) ? 1 : 0;
}

void serve_done(void* ctx, std::uint64_t, std::uint64_t result) {
  auto* s = static_cast<ReqSlot*>(ctx);
  s->result.store(result, std::memory_order_relaxed);
  s->done_ns.store(now_ns(), std::memory_order_relaxed);
  s->owner->done_count.fetch_add(1, std::memory_order_release);
}

std::uint64_t serve_body_traced(stm::Tx& tx, void* ctx, std::uint64_t) {
  auto* s = static_cast<ReqSlot*>(ctx);
  const std::int64_t entry = now_ns();
  const bool first = s->first_entry_ns.load(std::memory_order_relaxed) == 0;
  if (first) s->first_entry_ns.store(entry, std::memory_order_relaxed);
  Tracer* t = current_tracer();
  if (t != nullptr && first) {
    t->sampling = s->sampled;
    if (s->sampled) {
      t->clear_stack();  // a request that timed out leaves its spans open
      t->attempts = 0;
      t->sampled_tx++;
      t->open(kServeExec, entry, s->id);
    }
  }
  if (t == nullptr || !t->sampling) return apply(*s->owner->set, tx, s->op) ? 1 : 0;
  return traced_attempt(*t, entry, [&] { return apply(*s->owner->set, tx, s->op); }) ? 1 : 0;
}

void serve_done_traced(void* ctx, std::uint64_t arg, std::uint64_t result) {
  Tracer* t = current_tracer();
  if (t != nullptr && t->sampling) {
    note_committed(*t);
    t->exec_ns.push_back(t->close(now_ns()));
    t->sampling = false;
  }
  serve_done(ctx, arg, result);
}

/// Open loop: one producer offers Poisson arrivals at `w.rate_per_s` to the
/// server in rounds of kServeRoundSeconds worth of requests; each round
/// drains before the next starts. Latencies count from each request's due
/// time. A non-null `tracing` traces the measured rounds.
PhaseResult run_open(System& sys, const Workload& w, std::uint64_t seed, double seconds,
                     TracePhase* tracing) {
  serve::TxServer& server = *sys.server;
  stm::Runtime& rt = *sys.rt;
  const ZipfSampler zipf(static_cast<std::uint64_t>(w.key_range), w.zipf_alpha);
  const std::size_t per_round =
      static_cast<std::size_t>(std::max(1.0, w.rate_per_s * kServeRoundSeconds));
  OpenLoop loop;
  loop.set = sys.set.get();
  std::vector<ReqSlot> slots(per_round);
  for (ReqSlot& s : slots) s.owner = &loop;

  PhaseResult res;
  std::uint64_t offered_total = 0, accepted_total = 0, rejected_total = 0;
  std::uint64_t inserts = 0, removes = 0;

  // The producer runs the rounds and their bookkeeping; the main thread
  // only sleeps in join().
  std::thread producer([&] {
    try {
      OpGen gen(w, &zipf, derive(seed, 200));
      Xoshiro256& rng = gen.rng();
      std::vector<std::int64_t> soj, exec, lag, queue;
      soj.reserve(per_round);
      exec.reserve(per_round);
      lag.reserve(per_round);
      // No warm-up round: the runtime's counters are read only once the
      // workers have joined, so they cover the server's whole life. The
      // per-round medians absorb the cold first round.
      Tracer* t = nullptr;
      if (tracing != nullptr) {
        TracePhase::activate(tracing);
        t = current_tracer();
      }
      const std::uint64_t alloc0 = alloc_calls_except_this_thread();
      const std::uint64_t frames0 =
          sys.window != nullptr ? sys.window->controller().advances() : 0;
      std::uint64_t next_id = 0;
      while (res.measured_s < seconds) {
        const std::uint64_t done_before = loop.done_count.load(std::memory_order_acquire);
        std::uint64_t accepted = 0, rejected = 0;
        const double cpu0 = process_cpu_s(), producer_cpu0 = thread_cpu_s();
        const std::int64_t round_start = now_ns();
        std::int64_t due = round_start;
        lag.clear();
        for (std::size_t i = 0; i < per_round; ++i) {
          ReqSlot& s = slots[i];
          due += static_cast<std::int64_t>(-std::log(1.0 - rng.uniform01()) * 1e9 / w.rate_per_s);
          s.op = gen.next();
          s.id = ++next_id;
          s.due_ns = due;
          s.sampled = t != nullptr && i % w.trace_period == 0;
          s.accepted = false;
          s.first_entry_ns.store(0, std::memory_order_relaxed);
          s.done_ns.store(0, std::memory_order_relaxed);
          serve::TxRequest req;
          req.fn = t != nullptr ? serve_body_traced : serve_body;
          req.done = t != nullptr ? serve_done_traced : serve_done;
          req.ctx = &s;
          req.key = static_cast<std::uint64_t>(s.op.key);
          req.deadline_ns = due + kDeadlineNs;
          // Behind schedule: submit at once, so load never slows down
          // because the system did.
          if (due > now_ns()) wait_until_ns(due);
          const std::int64_t call = now_ns();
          lag.push_back(call - due);
          const serve::SubmitResult r = server.submit(req);
          if (s.sampled) {
            const std::int64_t ret = now_ns();
            t->root(kServeSubmit, call, ret, s.id);
            t->submit_ns.push_back(ret - call);
            s.submit_end_ns = ret;
          }
          if (r == serve::SubmitResult::kAccepted) {
            s.accepted = true;
            accepted++;
          } else {
            rejected++;
          }
        }
        // Drain. Requests shed as expired never reach the done hook, so
        // stop waiting once everything was dequeued and nothing finishes.
        const std::uint64_t target = done_before + accepted;
        std::uint64_t seen = loop.done_count.load(std::memory_order_acquire);
        std::int64_t last_progress = now_ns();
        while (seen < target) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          const std::uint64_t now_seen = loop.done_count.load(std::memory_order_acquire);
          if (now_seen != seen) {
            seen = now_seen;
            last_progress = now_ns();
          } else if (now_ns() - last_progress > kDrainStallNs &&
                     server.stats().dequeued >= accepted_total + accepted) {
            break;
          }
        }
        offered_total += per_round;
        accepted_total += accepted;
        rejected_total += rejected;

        soj.clear();
        exec.clear();
        std::int64_t last_done = round_start;
        std::uint64_t good = 0, unfinished = 0, late = 0;
        for (const ReqSlot& s : slots) {
          if (!s.accepted) continue;
          const std::int64_t done = s.done_ns.load(std::memory_order_relaxed);
          if (done == 0) {
            unfinished++;
            continue;
          }
          const std::int64_t first = s.first_entry_ns.load(std::memory_order_relaxed);
          if (s.result.load(std::memory_order_relaxed) != 0) {
            if (s.op.kind == OpKind::kInsert) inserts++;
            if (s.op.kind == OpKind::kRemove) removes++;
          }
          last_done = std::max(last_done, done);
          soj.push_back(done - s.due_ns);
          exec.push_back(done - first);
          if (done > s.due_ns + kDeadlineNs) {
            late++;
          } else {
            good++;
          }
          if (s.sampled) {
            // A worker can pick the request up before submit() has returned
            // to the producer; its queue wait is then 0.
            const std::int64_t picked = std::max(first, s.submit_end_ns);
            t->root(kServeQueue, s.submit_end_ns, picked, s.id);
            t->queue_ns.push_back(picked - s.submit_end_ns);
          }
        }
        const double makespan = wstm::ns_to_s(last_done - round_start);
        const double cpu = (process_cpu_s() - cpu0) - (thread_cpu_s() - producer_cpu0);
        res.makespan_s.push_back(makespan);
        res.measured_s += makespan;
        res.good_per_s.push_back(static_cast<double>(good) / makespan);
        res.cpu_us_per_commit.push_back(ratio(cpu * 1e6, static_cast<double>(good + late)));
        res.soj_p50_us.push_back(percentile(soj, 50) / 1e3);
        res.soj_p90_us.push_back(percentile(soj, 90) / 1e3);
        res.soj_p99_us.push_back(percentile(soj, 99) / 1e3);
        res.tx_p50_us.push_back(percentile(exec, 50) / 1e3);
        res.tx_p90_us.push_back(percentile(exec, 90) / 1e3);
        res.tx_p99_us.push_back(percentile(exec, 99) / 1e3);
        res.gen_lag_p99_us.push_back(percentile(lag, 99) / 1e3);
        res.attempted += per_round;
        res.failed += rejected + unfinished + late;
        res.rejected += rejected;
        res.unfinished += unfinished;
        res.late += late;
      }
      res.allocs = alloc_calls_except_this_thread() - alloc0;
      res.frame_advances =
          sys.window != nullptr ? sys.window->controller().advances() - frames0 : 0;
    } catch (const std::exception& e) {
      res.error = std::string("producer failed: ") + e.what();
    }
  });
  producer.join();
  TracePhase::activate(nullptr);
  server.stop();  // queues are empty; joins the workers

  // The workers have joined: their counters are stable now.
  res.totals = rt.total_metrics();
  const serve::TxServer::Stats st = server.stats();
  const stm::ThreadMetrics& life = res.totals;
  const std::uint64_t done_hooks = loop.done_count.load(std::memory_order_acquire);
  res.server = st;
  auto fail = [&](const std::string& why) {
    if (res.error.empty()) res.error = why;
  };
  if (offered_total != st.accepted + st.rejected_full + st.rejected_stopping ||
      offered_total != accepted_total + rejected_total) {
    fail("offered " + std::to_string(offered_total) + " != accepted " +
         std::to_string(st.accepted) + " + rejected " +
         std::to_string(st.rejected_full + st.rejected_stopping));
  }
  if (st.accepted != accepted_total) fail("server and producer disagree on accepted requests");
  if (st.accepted != life.serve_completed + life.serve_expired + life.serve_cancelled) {
    fail("accepted " + std::to_string(st.accepted) + " != completed " +
         std::to_string(life.serve_completed) + " + expired " +
         std::to_string(life.serve_expired) + " + cancelled " +
         std::to_string(life.serve_cancelled));
  }
  if (done_hooks != life.serve_completed) {
    fail("done hooks " + std::to_string(done_hooks) + " != completed " +
         std::to_string(life.serve_completed));
  }
  fail(check_set(sys, w, inserts, removes));
  if (!res.error.empty()) res.failed = res.attempted;
  return res;
}

PhaseResult run_phase(System& sys, const Workload& w, std::uint64_t seed, double seconds,
                      TracePhase* tracing) {
  return w.open_loop ? run_open(sys, w, seed, seconds, tracing)
                     : run_closed(sys, w, seed, seconds, tracing);
}

// ---- metrics output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const PhaseResult& r, const std::vector<double>& setup_s) {
  const double commits = static_cast<double>(r.totals.commits);
  return {
      {"commits_per_s", median(r.good_per_s), "1/s"},
      {"attempts_per_commit", ratio(commits + static_cast<double>(r.totals.aborts), commits),
       "count"},
      {"tx_p50_us", median(r.tx_p50_us), "us"},
      {"tx_p90_us", median(r.tx_p90_us), "us"},
      {"sojourn_p50_us", median(r.soj_p50_us), "us"},
      {"cpu_us_per_commit", median(r.cpu_us_per_commit), "us"},
      {"makespan_s", median(r.makespan_s), "s"},
      {"setup_s", median(setup_s), "s"},
  };
}

std::vector<std::int64_t> gather(const TracePhase& s, std::vector<std::int64_t> Tracer::*field) {
  std::vector<std::int64_t> out;
  for (const auto& t : s.tracers()) out.insert(out.end(), ((*t).*field).begin(), ((*t).*field).end());
  return out;
}

std::vector<Metric> per_layer(const TracePhase& s, const PhaseResult& traced,
                              const PhaseResult& untraced, const System& sys) {
  std::uint64_t sampled_tx = 0, sampled_attempts = 0, resolves = 0, abort_self = 0;
  std::int64_t body_committed = 0, body_all = 0;
  for (const auto& t : s.tracers()) {
    sampled_tx += t->sampled_tx;
    sampled_attempts += t->sampled_attempts;
    resolves += t->resolves;
    abort_self += t->abort_self;
    body_committed += t->body_committed_ns;
    body_all += t->body_all_ns;
  }
  auto med = [&](std::vector<std::int64_t> Tracer::*field) {
    std::vector<std::int64_t> v = gather(s, field);
    return percentile(v, 50);
  };
  auto p99 = [&](std::vector<std::int64_t> Tracer::*field) {
    std::vector<std::int64_t> v = gather(s, field);
    return percentile(v, 99);
  };
  const stm::ThreadMetrics& m = traced.totals;
  const double commits = static_cast<double>(m.commits);
  auto per_commit = [&](double x) { return ratio(x, commits); };

  double windows = 0, bad = 0, c_sum = 0, c_n = 0;
  if (sys.window != nullptr) {
    for (unsigned slot = 0; slot < 64; ++slot) {
      const auto snap = sys.window->snapshot(slot);
      if (snap.windows_started == 0) continue;
      windows += static_cast<double>(snap.windows_started);
      bad += static_cast<double>(snap.bad_events);
      c_sum += snap.c_est;
      c_n += 1;
    }
  }
  return {
      {"stm.begin_ns", med(&Tracer::begin_ns), "ns"},
      {"stm.commit_ns", med(&Tracer::commit_ns), "ns"},
      {"stm.retry_ns", med(&Tracer::retry_ns), "ns"},
      {"stm.attempts_per_tx", ratio(static_cast<double>(sampled_attempts),
                                    static_cast<double>(sampled_tx)), "count"},
      {"stm.useful_fraction", ratio(static_cast<double>(body_committed),
                                    static_cast<double>(body_all)), "ratio"},
      {"stm.conflicts_per_commit",
       per_commit(static_cast<double>(m.ww_conflicts + m.wr_conflicts + m.rw_conflicts)), "count"},
      {"stm.repeat_conflicts_per_commit", per_commit(static_cast<double>(m.repeat_conflicts)),
       "count"},
      {"stm.validated_reads_per_commit", per_commit(static_cast<double>(m.validated_reads)),
       "count"},
      {"stm.clock_bumps_per_commit", per_commit(static_cast<double>(m.clock_bumps)), "count"},
      {"stm.reader_stripe_retries_per_commit",
       per_commit(static_cast<double>(m.reader_stripe_retries)), "count"},
      {"stm.orec_lock_waits_per_commit", per_commit(static_cast<double>(m.orec_lock_waits)),
       "count"},
      {"stm.parks_per_commit", per_commit(static_cast<double>(m.parks)), "count"},
      {"stm.park_us_per_commit", per_commit(static_cast<double>(m.park_ns) / 1e3), "us"},
      {"structs.op_ns", med(&Tracer::op_ns), "ns"},
      {"cm.resolve_per_commit", per_commit(static_cast<double>(resolves)), "count"},
      {"cm.resolve_ns.p50", med(&Tracer::resolve_ns), "ns"},
      {"cm.resolve_ns.p99", p99(&Tracer::resolve_ns), "ns"},
      {"cm.abort_self_fraction", ratio(static_cast<double>(abort_self),
                                       static_cast<double>(resolves)), "ratio"},
      {"cm.on_abort_ns", med(&Tracer::on_abort_ns), "ns"},
      {"cm.on_begin_ns", med(&Tracer::on_begin_ns), "ns"},
      {"window.frame_advances_per_s", ratio(static_cast<double>(traced.frame_advances),
                                            traced.measured_s), "1/s"},
      {"window.bad_events_per_window", ratio(bad, windows), "count"},
      {"window.c_est_mean", ratio(c_sum, c_n), "count"},
      {"ebr.syncs_per_commit", per_commit(static_cast<double>(m.ebr_shard_syncs)), "count"},
      {"alloc.calls_per_commit", per_commit(static_cast<double>(traced.allocs)), "count"},
      {"serve.submit_ns.p50", med(&Tracer::submit_ns), "ns"},
      {"serve.submit_ns.p99", p99(&Tracer::submit_ns), "ns"},
      {"serve.queue_wait_us.p50", med(&Tracer::queue_ns) / 1e3, "us"},
      {"serve.queue_wait_us.p99", p99(&Tracer::queue_ns) / 1e3, "us"},
      {"serve.exec_us", med(&Tracer::exec_ns) / 1e3, "us"},
      {"serve.max_depth", static_cast<double>(traced.server.max_depth), "count"},
      {"serve.rejected_full", static_cast<double>(traced.server.rejected_full), "count"},
      {"loadgen.lag_us.p99", median(traced.gen_lag_p99_us), "us"},
      // Tails and memory of the untraced reference phase: too noisy on a
      // shared host to gate, so reported here instead of end to end.
      {"e2e.tx_p99_us", median(untraced.tx_p99_us), "us"},
      {"e2e.sojourn_p90_us", median(untraced.soj_p90_us), "us"},
      {"e2e.sojourn_p99_us", median(untraced.soj_p99_us), "us"},
      {"mem.peak_rss_mb", peak_rss_mb(), "MB"},
      {"trace.overhead_pct",
       (ratio(median(traced.cpu_us_per_commit), median(untraced.cpu_us_per_commit)) - 1.0) * 100.0,
       "%"},
  };
}

/// Span totals per kind, with self time, for the traced run's stderr table.
void print_span_table(const TracePhase& s) {
  std::uint64_t count[kNumSpanKinds] = {};
  std::int64_t total[kNumSpanKinds] = {}, self[kNumSpanKinds] = {};
  std::int64_t all_self = 0;
  for (const auto& t : s.tracers()) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      count[k] += t->count[k];
      total[k] += t->total_ns[k];
      self[k] += t->self_total_ns[k];
      all_self += t->self_total_ns[k];
    }
  }
  std::fprintf(stderr, "%-14s %10s %14s %14s %8s\n", "span", "count", "mean_ns", "self_mean_ns",
               "self_%");
  for (int k = 0; k < kNumSpanKinds; ++k) {
    if (count[k] == 0) continue;
    const double n = static_cast<double>(count[k]);
    std::fprintf(stderr, "%-14s %10llu %14.1f %14.1f %8.2f\n", span_name(static_cast<SpanKind>(k)),
                 static_cast<unsigned long long>(count[k]), static_cast<double>(total[k]) / n,
                 static_cast<double>(self[k]) / n,
                 100.0 * ratio(static_cast<double>(self[k]), static_cast<double>(all_self)));
  }
}

std::string spans_check(const TracePhase& s) {
  std::uint64_t bad = 0;
  for (const auto& t : s.tracers()) bad += t->nest_violations + (t->depth() != 0 ? 1 : 0);
  return bad == 0 ? "" : std::to_string(bad) + " spans did not nest";
}

bool write_spans(const TracePhase& s, const std::string& path) {
  std::ofstream out(path);
  for (const auto& t : s.tracers()) {
    for (const SpanRecord& r : t->kept) {
      out << "{\"name\":\"" << span_name(r.kind) << "\",\"id\":" << r.id
          << ",\"parent\":" << r.parent << ",\"req\":" << r.req << ",\"thread\":" << r.thread
          << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << ",\"self_ns\":" << r.self_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_human(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  stm::ArbitrationMode arbitration = stm::ArbitrationMode::kAbort;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--arbitration abort|wait] [--spans-out FILE]\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (v == w.name) a.workload = &w;
        }
        if (a.workload == nullptr) usage("unknown workload " + v);
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--arbitration") {
        if (v != "abort" && v != "wait") usage("--arbitration takes abort or wait");
        a.arbitration = v == "wait" ? stm::ArbitrationMode::kWait : stm::ArbitrationMode::kAbort;
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return a;
}

int run(const Args& a) {
  const Workload& w = *a.workload;
  std::vector<double> setup_s;
  if (!a.trace) {
    std::unique_ptr<System> sys = setup(w, a.seed, false, a.arbitration, kSetupRepeats, &setup_s);
    const PhaseResult r = run_phase(*sys, w, a.seed, a.seconds, nullptr);
    const std::vector<Metric> metrics = end_to_end(r, setup_s);
    std::fprintf(stderr, "perfbench %s seed=%llu: %zu rounds, %.3f s measured\n", w.name,
                 static_cast<unsigned long long>(a.seed), r.makespan_s.size(), r.measured_s);
    print_human(metrics);
    if (w.open_loop) {
      std::fprintf(stderr,
                   "  generator lag p99 (median of rounds) %.3f us, max depth %llu, "
                   "rejected %llu, expired %llu, late %llu\n",
                   median(r.gen_lag_p99_us), static_cast<unsigned long long>(r.server.max_depth),
                   static_cast<unsigned long long>(r.rejected),
                   static_cast<unsigned long long>(r.unfinished),
                   static_cast<unsigned long long>(r.late));
    }
    if (!r.error.empty()) std::fprintf(stderr, "CHECK FAILED: %s\n", r.error.c_str());
    print_result(r.error.empty(), r.attempted, r.failed, metrics);
    return r.error.empty() ? 0 : 1;
  }

  // Traced run: an untraced reference phase, then the traced phase, each
  // in a freshly set-up system and with half the time.
  const double half = a.seconds / 2;
  PhaseResult untraced;
  {
    std::unique_ptr<System> sys = setup(w, a.seed, false, a.arbitration, 1, &setup_s);
    untraced = run_phase(*sys, w, a.seed, half, nullptr);
  }
  TracePhase tracing;
  std::unique_ptr<System> sys = setup(w, a.seed, true, a.arbitration, 1, &setup_s);
  PhaseResult traced = run_phase(*sys, w, a.seed, half, &tracing);
  std::string error = !untraced.error.empty() ? untraced.error : traced.error;
  if (error.empty()) error = spans_check(tracing);
  if (error.empty() && !a.spans_out.empty() && !write_spans(tracing, a.spans_out)) {
    error = "cannot write " + a.spans_out;
  }
  const std::vector<Metric> metrics = per_layer(tracing, traced, untraced, *sys);
  std::fprintf(stderr, "perfbench %s seed=%llu traced:\n", w.name,
               static_cast<unsigned long long>(a.seed));
  print_span_table(tracing);
  print_human(metrics);
  if (!error.empty()) std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  print_result(error.empty(), attempted,
               error.empty() ? untraced.failed + traced.failed : attempted, metrics);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args args = pb::parse(argc, argv);
  try {
    return pb::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
