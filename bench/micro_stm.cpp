// Micro-benchmarks (google-benchmark) for the STM primitives: transaction
// begin/commit, open costs, contention-manager decision overhead, EBR
// retire, and structure operations at a fixed size. These quantify the
// constant factors under every figure bench.
#include <benchmark/benchmark.h>
#include <dlfcn.h>
#include <time.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

// ------------------------------------------------- allocation interposer --
// Replacing the global operator new/delete lets the alloc-pressure benches
// count exactly how many global-allocator calls the hot path makes. The
// counter is thread-local so a bench thread observes only its own pressure.
thread_local std::uint64_t t_alloc_count = 0;

// Base RNG seed for every Runtime these benches construct; --seed=N
// overrides it (parsed in main before google-benchmark sees argv).
std::uint64_t g_seed = 0x5eed;

namespace {
void* counted_alloc(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++t_alloc_count;
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  // posix_memalign results are free()-compatible, so one delete path serves
  // both aligned and plain blocks.
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

// ------------------------------------------------------ clock interposer --
// Defining clock_gettime in the executable interposes every call to it,
// libstdc++'s steady_clock::now() (hence now_ns()) included. CLOCK_MONOTONIC
// reads are counted per thread, like t_alloc_count, so the fixed-cost rows
// can report how often a transaction reads the clock; the call itself goes
// on to the C library's (vDSO-backed) definition.
thread_local std::uint64_t t_clock_reads = 0;

extern "C" int clock_gettime(clockid_t id, struct timespec* ts) noexcept {
  using Fn = int (*)(clockid_t, struct timespec*);
  static const Fn next = reinterpret_cast<Fn>(dlsym(RTLD_NEXT, "clock_gettime"));
  if (id == CLOCK_MONOTONIC) ++t_clock_reads;
  return next(id, ts);
}

namespace {

using namespace wstm;

struct Fixture {
  explicit Fixture(const std::string& cm_name = "Polka",
                   stm::BackendKind backend = stm::BackendKind::kDstm) {
    cm::Params params;
    params.threads = 2;
    stm::RuntimeConfig cfg;
    cfg.backend = backend;
    rt = std::make_unique<stm::Runtime>(cm::make_manager(cm_name, params), cfg);
    tc = &rt->attach_thread();
  }
  std::unique_ptr<stm::Runtime> rt;
  stm::ThreadCtx* tc;
};

// ------------------------------------------------- fixed per-tx cost ----
// One-thread transactions too small to be anything but begin/commit
// overhead, per engine and manager. clock_reads_per_tx counts the
// CLOCK_MONOTONIC reads they make: Polka reads no attempt timestamp, so its
// rows read only for the 1-in-64 metrics sample; Greedy arbitrates on
// first_begin_ns and stamps every attempt. publishes_per_tx is how often a
// transaction publishes a descriptor: DSTM and orec writers do every time,
// unexposed orec transactions never (both gated by check_bench.py --mode
// clock).
void report_clock_reads(benchmark::State& state, std::uint64_t reads_before,
                        const char* counter = "clock_reads_per_tx") {
  const auto iters = static_cast<double>(state.iterations());
  state.counters[counter] =
      iters > 0 ? static_cast<double>(t_clock_reads - reads_before) / iters : 0.0;
}

// Times `tx` (one transaction), then runs an untimed probe of kProbeTxs more
// that counts how often the thread's published descriptor changes between
// consecutive transactions. Pointers are compared, never dereferenced.
template <typename TxFn>
void run_fixed_cost_row(benchmark::State& state, Fixture& f, TxFn tx) {
  const std::uint64_t reads_before = t_clock_reads;
  for (auto _ : state) tx();
  report_clock_reads(state, reads_before);

  constexpr int kProbeTxs = 1000;
  const unsigned slot = f.tc->slot();
  const stm::TxDesc* prev = f.rt->tx_of_slot(slot);
  int changes = 0;
  for (int i = 0; i < kProbeTxs; ++i) {
    tx();
    const stm::TxDesc* cur = f.rt->tx_of_slot(slot);
    changes += cur != prev ? 1 : 0;
    prev = cur;
  }
  state.counters["publishes_per_tx"] = static_cast<double>(changes) / kProbeTxs;
}

void BM_EmptyTransaction(benchmark::State& state, stm::BackendKind backend, const char* cm) {
  Fixture f(cm, backend);
  run_fixed_cost_row(state, f, [&] { f.rt->atomically(*f.tc, [](stm::Tx&) {}); });
}

void BM_ReadOneObject(benchmark::State& state, stm::BackendKind backend, const char* cm) {
  Fixture f(cm, backend);
  stm::TObject<long> obj(7);
  run_fixed_cost_row(state, f, [&] {
    long v = f.rt->atomically(*f.tc, [&](stm::Tx& tx) { return *obj.open_read(tx); });
    benchmark::DoNotOptimize(v);
  });
}

void BM_WriteOneObject(benchmark::State& state, stm::BackendKind backend, const char* cm) {
  Fixture f(cm, backend);
  stm::TObject<long> obj(0);
  run_fixed_cost_row(state, f, [&] {
    f.rt->atomically(*f.tc, [&](stm::Tx& tx) { *obj.open_write(tx) += 1; });
  });
}

#define WSTM_FIXED_COST_ROWS(bench)                                   \
  BENCHMARK_CAPTURE(bench, dstm, stm::BackendKind::kDstm, "Polka");   \
  BENCHMARK_CAPTURE(bench, orec, stm::BackendKind::kOrec, "Polka");   \
  BENCHMARK_CAPTURE(bench, dstm_greedy, stm::BackendKind::kDstm, "Greedy")
WSTM_FIXED_COST_ROWS(BM_EmptyTransaction);
WSTM_FIXED_COST_ROWS(BM_ReadOneObject);
WSTM_FIXED_COST_ROWS(BM_WriteOneObject);

// The price of one now_ns(), the unit the rows above save.
void BM_NowNs(benchmark::State& state) {
  const std::uint64_t reads_before = t_clock_reads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(now_ns());
  }
  report_clock_reads(state, reads_before, "clock_reads_per_call");
}
BENCHMARK(BM_NowNs);

void BM_OpenReadMany(benchmark::State& state) {
  Fixture f;
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<stm::TObject<long>>> objs;
  for (std::size_t i = 0; i < count; ++i) objs.push_back(std::make_unique<stm::TObject<long>>(1));
  for (auto _ : state) {
    long sum = f.rt->atomically(*f.tc, [&](stm::Tx& tx) {
      long s = 0;
      for (auto& o : objs) s += *o->open_read(tx);
      return s;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(count));
}
BENCHMARK(BM_OpenReadMany)->Arg(8)->Arg(64)->Arg(256);

void BM_IntSetContains(benchmark::State& state) {
  Fixture f;
  const std::string kind = state.range(0) == 0 ? "list" : state.range(0) == 1 ? "rbtree"
                                                                              : "skiplist";
  auto set = structs::make_intset(kind);
  for (long k = 0; k < 256; k += 2) {
    f.rt->atomically(*f.tc, [&](stm::Tx& tx) { set->insert(tx, k); });
  }
  Xoshiro256 rng(3);
  for (auto _ : state) {
    const long key = static_cast<long>(rng.below(256));
    bool v = f.rt->atomically(*f.tc, [&](stm::Tx& tx) { return set->contains(tx, key); });
    benchmark::DoNotOptimize(v);
  }
  state.SetLabel(kind);
}
BENCHMARK(BM_IntSetContains)->Arg(0)->Arg(1)->Arg(2);

void BM_IntSetUpdateMix(benchmark::State& state) {
  Fixture f;
  const std::string kind = state.range(0) == 0 ? "list" : state.range(0) == 1 ? "rbtree"
                                                                              : "skiplist";
  auto set = structs::make_intset(kind);
  for (long k = 0; k < 256; k += 2) {
    f.rt->atomically(*f.tc, [&](stm::Tx& tx) { set->insert(tx, k); });
  }
  Xoshiro256 rng(4);
  for (auto _ : state) {
    const long key = static_cast<long>(rng.below(256));
    if (rng.below(2) == 0) {
      f.rt->atomically(*f.tc, [&](stm::Tx& tx) { return set->insert(tx, key); });
    } else {
      f.rt->atomically(*f.tc, [&](stm::Tx& tx) { return set->remove(tx, key); });
    }
  }
  state.SetLabel(kind);
}
BENCHMARK(BM_IntSetUpdateMix)->Arg(0)->Arg(1)->Arg(2);

void BM_CmResolve(benchmark::State& state) {
  static const char* kNames[] = {"Polka", "Greedy", "Priority", "Aggressive",
                                 "RandomizedRounds", "Online-Dynamic"};
  const std::string name = kNames[state.range(0)];
  Fixture f(name);
  stm::TxDesc me, enemy;
  me.thread_slot = 0;
  enemy.thread_slot = 1;
  me.first_begin_ns = 1;      // we are older: every manager decides without
  enemy.first_begin_ns = 2;   // waiting, so this measures pure decision cost
  me.karma.store(5);
  enemy.karma.store(1);
  me.rand_prio.store(1);
  enemy.rand_prio.store(2);
  me.prio_class.store(0);
  enemy.prio_class.store(1);
  for (auto _ : state) {
    auto r = f.rt->manager().resolve(*f.tc, me, enemy, stm::ConflictKind::kWriteWrite);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(name);
}
BENCHMARK(BM_CmResolve)->DenseRange(0, 5);

void BM_EbrRetire(benchmark::State& state) {
  ebr::Domain domain;
  ebr::Handle h = domain.attach();
  for (auto _ : state) {
    ebr::Guard g(h);
    h.retire(new long(1));
  }
}
BENCHMARK(BM_EbrRetire);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(100));
  }
}
BENCHMARK(BM_Xoshiro);

// ------------------------------------------------- allocation pressure --
// The counter reports global-allocator calls per attempt: with every
// TxDesc / Locator / clone recycled through the thread pools, the steady
// state must be ~0.
void BM_AllocPressureWriteTx(benchmark::State& state) {
  stm::RuntimeConfig cfg;
  cfg.seed = g_seed;
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params), cfg);
  stm::ThreadCtx& tc = rt.attach_thread();
  std::vector<std::unique_ptr<stm::TObject<long>>> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(std::make_unique<stm::TObject<long>>(0));
  // Warm up past first-touch slab carving and EBR epoch lag: the claim under
  // test is about the steady state, where every block is recycled.
  for (int i = 0; i < 512; ++i) {
    rt.atomically(tc, [&](stm::Tx& tx) {
      for (auto& o : objs) *o->open_write(tx) += 1;
    });
  }
  rt.reset_metrics();
  const std::uint64_t allocs_before = t_alloc_count;
  for (auto _ : state) {
    rt.atomically(tc, [&](stm::Tx& tx) {
      for (auto& o : objs) *o->open_write(tx) += 1;
    });
  }
  const auto allocs = static_cast<double>(t_alloc_count - allocs_before);
  const stm::ThreadMetrics totals = rt.total_metrics();
  const auto attempts = static_cast<double>(totals.commits + totals.aborts);
  state.counters["allocs_per_attempt"] = attempts > 0 ? allocs / attempts : 0.0;
  state.counters["attempts"] =
      benchmark::Counter(attempts, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AllocPressureWriteTx);

// ------------------------------------------------- read-set scaling -----
// Invisible-read validation cost as the read-set size R grows. Each
// iteration is one transaction reading R distinct objects plus one write
// (the write stamps a commit every iteration). Validation is amortized
// O(1) per open, so validations_per_read stays ~0 and ns/read is flat in R;
// anything near 1 means opens regressed toward revalidating the whole set
// (O(R²) per transaction).
void BM_ReadSetScaling(benchmark::State& state) {
  const auto reads = static_cast<std::size_t>(state.range(0));
  stm::RuntimeConfig cfg;
  cfg.seed = g_seed;
  cfg.visible_reads = false;
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params), cfg);
  stm::ThreadCtx& tc = rt.attach_thread();
  std::vector<std::unique_ptr<stm::TObject<long>>> objs;
  for (std::size_t i = 0; i < reads; ++i) {
    objs.push_back(std::make_unique<stm::TObject<long>>(1));
  }
  stm::TObject<long> sink(0);
  // Warm past slab carving and the dedup table's growth so the measured
  // loop is steady-state.
  for (int i = 0; i < 64; ++i) {
    rt.atomically(tc, [&](stm::Tx& tx) {
      long s = 0;
      for (auto& o : objs) s += *o->open_read(tx);
      *sink.open_write(tx) = s;
    });
  }
  rt.reset_metrics();
  for (auto _ : state) {
    long sum = rt.atomically(tc, [&](stm::Tx& tx) {
      long s = 0;
      for (auto& o : objs) s += *o->open_read(tx);
      *sink.open_write(tx) = s;
      return s;
    });
    benchmark::DoNotOptimize(sum);
  }
  const stm::ThreadMetrics totals = rt.total_metrics();
  const auto opens = static_cast<double>(state.iterations()) * static_cast<double>(reads);
  state.counters["validations_per_read"] =
      opens > 0 ? static_cast<double>(totals.validated_reads) / opens : 0.0;
  state.counters["validation_passes"] = static_cast<double>(totals.validations);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(reads));
}
BENCHMARK(BM_ReadSetScaling)->Arg(8)->Arg(64)->Arg(256);

// Write-heavy int-set contention at 8 threads, per read mode. All bench
// threads share one Runtime + list; the fixture is refcounted because
// google-benchmark calls the function once per thread.
struct SharedStm {
  std::unique_ptr<stm::Runtime> rt;
  std::unique_ptr<structs::TxIntSet> set;
};

std::mutex g_shared_mutex;
SharedStm* g_shared = nullptr;
int g_shared_refs = 0;

// Visible reads are the paper's default and never touch the commit clock;
// invisible reads run the deferred clock (GV5-style).
SharedStm& acquire_shared(bool visible_reads, std::uint32_t threads) {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  if (g_shared_refs++ == 0) {
    auto* s = new SharedStm;
    stm::RuntimeConfig cfg;
    cfg.seed = g_seed;
    cfg.visible_reads = visible_reads;
    cm::Params params;
    params.threads = threads;
    s->rt = std::make_unique<stm::Runtime>(cm::make_manager("Polka", params), cfg);
    s->set = structs::make_intset("list");
    stm::ThreadCtx& tc = s->rt->attach_thread();
    for (long k = 0; k < 256; k += 2) {
      s->rt->atomically(tc, [&](stm::Tx& tx) { s->set->insert(tx, k); });
    }
    s->rt->detach_thread(tc);
    g_shared = s;
  }
  return *g_shared;
}

void release_shared() {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  if (--g_shared_refs == 0) {
    delete g_shared;
    g_shared = nullptr;
  }
}

void BM_IntsetWriteHeavy(benchmark::State& state) {
  const bool visible_reads = state.range(0) != 0;
  SharedStm& shared =
      acquire_shared(visible_reads, static_cast<std::uint32_t>(state.threads()));
  stm::ThreadCtx& tc = shared.rt->attach_thread();
  Xoshiro256 rng(0x5eedULL + static_cast<std::uint64_t>(state.thread_index()));
  const std::uint64_t allocs_before = t_alloc_count;
  const stm::ThreadMetrics before = tc.metrics();
  for (auto _ : state) {
    const long key = static_cast<long>(rng.below(256));
    if (rng.below(2) == 0) {
      shared.rt->atomically(tc, [&](stm::Tx& tx) { return shared.set->insert(tx, key); });
    } else {
      shared.rt->atomically(tc, [&](stm::Tx& tx) { return shared.set->remove(tx, key); });
    }
  }
  const auto allocs = static_cast<double>(t_alloc_count - allocs_before);
  const stm::ThreadMetrics after = tc.metrics();
  const auto attempts =
      static_cast<double>((after.commits - before.commits) + (after.aborts - before.aborts));
  state.counters["allocs_per_attempt"] =
      benchmark::Counter(attempts > 0 ? allocs / attempts : 0.0,
                         benchmark::Counter::kAvgThreads);
  state.counters["attempts"] = benchmark::Counter(attempts, benchmark::Counter::kIsRate);
  // Shared commit-clock line traffic (summed across bench threads): with
  // invisible reads clock_bumps must sit far below deferred_stamps (the
  // write-commit count); visible reads touch neither.
  state.counters["clock_bumps"] =
      benchmark::Counter(static_cast<double>(after.clock_bumps - before.clock_bumps));
  state.counters["deferred_stamps"] =
      benchmark::Counter(static_cast<double>(after.deferred_stamps - before.deferred_stamps));
  state.SetLabel(visible_reads ? "visible" : "invisible");
  shared.rt->detach_thread(tc);
  release_shared();
}
// Arg(1) = visible reads, Arg(0) = invisible reads.
BENCHMARK(BM_IntsetWriteHeavy)->Threads(8)->Arg(1)->Arg(0)->UseRealTime();

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark owns argv, so
// --seed=N is peeled off first and fed to every RuntimeConfig above.
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      g_seed = std::stoull(std::string(arg.substr(7)));
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
