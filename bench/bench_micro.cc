// E1 — Micro-measurements (paper §7.6.1): the cost of the basic stable-heap
// operations, host wall time via google-benchmark plus the simulated-time
// cost model per operation. The paper's table compares stable-heap
// operations against their unlogged equivalents; the interesting ratios
// here are logged vs unlogged writes and forced vs group commit.

#include <benchmark/benchmark.h>

#include <cctype>
#include <memory>

#include "bench_util.h"
#include "core/stable_heap.h"
#include "heap/heap_memory.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

struct Fixture {
  std::unique_ptr<SimEnv> env;
  std::unique_ptr<StableHeap> heap;
  ClassId cls = 0;
  TxnId txn = 0;
  Ref stable_obj = kNullRef;
  Ref volatile_obj = kNullRef;

  explicit Fixture(bool force_on_commit = true) {
    env = std::make_unique<SimEnv>();
    StableHeapOptions opts;
    opts.stable_space_pages = 4096;
    opts.volatile_space_pages = 2048;
    opts.force_on_commit = force_on_commit;
    heap = std::move(*StableHeap::Open(env.get(), opts));
    cls = *heap->RegisterClass({false, true});
    txn = *heap->Begin();
    stable_obj = *heap->AllocateStable(txn, cls, 2);
    volatile_obj = *heap->Allocate(txn, cls, 2);
  }
};

void BM_ReadScalar(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*f.heap->ReadScalar(f.txn, f.stable_obj, 0));
  }
}
BENCHMARK(BM_ReadScalar);

// The buffer-pool pin layer alone: one HeapMemory word access to a page
// already resident in the pool (a hit), with no heap layer above it.
struct PoolFixture {
  SimEnv env;
  BufferPool pool{env.disk(), /*capacity_frames=*/16, Hooks()};
  HeapMemory mem{&pool};
  const HeapAddr addr = 3 * kPageSizeBytes + 8 * kWordSizeBytes;

  PoolFixture() { BENCH_OK(mem.WriteWordUnlogged(addr, 1)); }

  static BufferPool::Hooks Hooks() {
    BufferPool::Hooks hooks;
    hooks.flush_log_to = [](Lsn) { return Status::OK(); };
    return hooks;
  }
};

void BM_PoolReadWordHit(benchmark::State& state) {
  PoolFixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*f.mem.ReadWord(f.addr));
  }
}
BENCHMARK(BM_PoolReadWordHit);

void BM_PoolWriteWordLoggedHit(benchmark::State& state) {
  PoolFixture f;
  Lsn lsn = 0;
  for (auto _ : state) {
    ++lsn;
    BENCH_OK(f.mem.WriteWordLogged(f.addr, lsn, lsn));
  }
}
BENCHMARK(BM_PoolWriteWordLoggedHit);

void BM_WriteScalarStable(benchmark::State& state) {
  Fixture f;
  uint64_t v = 0;
  for (auto _ : state) {
    BENCH_OK(f.heap->WriteScalar(f.txn, f.stable_obj, 0, ++v));
  }
  state.counters["log_bytes_per_op"] = benchmark::Counter(
      static_cast<double>(f.heap->log_volume()
                              .For(RecordType::kUpdate)
                              .bytes),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WriteScalarStable);

void BM_WriteScalarVolatile(benchmark::State& state) {
  Fixture f;
  uint64_t v = 0;
  for (auto _ : state) {
    BENCH_OK(f.heap->WriteScalar(f.txn, f.volatile_obj, 0, ++v));
  }
}
BENCHMARK(BM_WriteScalarVolatile);

void BM_WritePointerStable(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    BENCH_OK(f.heap->WriteRef(f.txn, f.stable_obj, 1, f.stable_obj));
  }
}
BENCHMARK(BM_WritePointerStable);

void BM_AllocateVolatile(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    auto r = f.heap->Allocate(f.txn, kClassDataArray, 4);
    if (!r.ok()) {  // volatile area recycles via collection
      state.PauseTiming();
      BENCH_OK(f.heap->Abort(f.txn));
      f.txn = *f.heap->Begin();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_AllocateVolatile);

void BM_TxnCommitEmpty_Forced(benchmark::State& state) {
  Fixture f;
  BENCH_OK(f.heap->Commit(f.txn));
  for (auto _ : state) {
    TxnId t = *f.heap->Begin();
    BENCH_OK(f.heap->Commit(t));
  }
}
BENCHMARK(BM_TxnCommitEmpty_Forced);

void BM_TxnUpdateCommit_Forced(benchmark::State& state) {
  Fixture f;
  Ref obj = f.stable_obj;
  BENCH_OK(f.heap->Commit(f.txn));
  uint64_t v = 0;
  for (auto _ : state) {
    // obj handle died with f.txn; go through the root instead.
    TxnId t = *f.heap->Begin();
    Ref o = *f.heap->AllocateStable(t, f.cls, 2);
    BENCH_OK(f.heap->WriteScalar(t, o, 0, ++v));
    BENCH_OK(f.heap->Commit(t));
  }
  (void)obj;
}
BENCHMARK(BM_TxnUpdateCommit_Forced)->Iterations(2000);

void BM_TxnUpdateCommit_Group(benchmark::State& state) {
  Fixture f(/*force_on_commit=*/false);
  BENCH_OK(f.heap->Commit(f.txn));
  uint64_t v = 0;
  for (auto _ : state) {
    TxnId t = *f.heap->Begin();
    Ref o = *f.heap->AllocateStable(t, f.cls, 2);
    BENCH_OK(f.heap->WriteScalar(t, o, 0, ++v));
    BENCH_OK(f.heap->Commit(t));
  }
  BENCH_OK(f.heap->ForceLog());
}
BENCHMARK(BM_TxnUpdateCommit_Group)->Iterations(2000);

void BM_AbortOneUpdate(benchmark::State& state) {
  Fixture f;
  BENCH_OK(f.heap->Commit(f.txn));
  uint64_t v = 0;
  for (auto _ : state) {
    TxnId t = *f.heap->Begin();
    Ref o = *f.heap->AllocateStable(t, f.cls, 2);
    BENCH_OK(f.heap->WriteScalar(t, o, 0, ++v));
    BENCH_OK(f.heap->Abort(t));
  }
}
BENCHMARK(BM_AbortOneUpdate)->Iterations(2000);

}  // namespace
}  // namespace sheap

int main(int argc, char** argv) {
  // Simulated-time table (the cost-model view the paper's table uses).
  using namespace sheap;
  using namespace sheap::bench;
  Header("E1  micro-measurements (simulated time per operation)",
         "logged writes cost one log record; commit cost is dominated by "
         "the synchronous force; volatile writes pay no logging");
  JsonBench("micro");
  {
    Fixture f;
    SimClock* clock = f.env->clock();
    auto measure = [&](const char* name, auto op, uint64_t reps) {
      const uint64_t start = clock->now_ns();
      for (uint64_t i = 0; i < reps; ++i) op(i);
      const double us =
          static_cast<double>(clock->now_ns() - start) / 1000.0 / reps;
      Row("  %-28s %10.2f us", name, us);
      std::string metric(name);
      for (char& c : metric) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      EmitMetric(metric, us, "us/op");
    };
    measure("read scalar", [&](uint64_t) {
      (void)*f.heap->ReadScalar(f.txn, f.stable_obj, 0);
    }, 1000);
    measure("write scalar (stable)", [&](uint64_t i) {
      BENCH_OK(f.heap->WriteScalar(f.txn, f.stable_obj, 0, i));
    }, 1000);
    measure("write scalar (volatile)", [&](uint64_t i) {
      BENCH_OK(f.heap->WriteScalar(f.txn, f.volatile_obj, 0, i));
    }, 1000);
    measure("allocate (volatile)", [&](uint64_t) {
      (void)*f.heap->Allocate(f.txn, kClassDataArray, 4);
    }, 1000);
    BENCH_OK(f.heap->Commit(f.txn));
    measure("txn with 1 update, forced", [&](uint64_t i) {
      TxnId t = *f.heap->Begin();
      Ref o = *f.heap->AllocateStable(t, f.cls, 2);
      BENCH_OK(f.heap->WriteScalar(t, o, 0, i));
      BENCH_OK(f.heap->Commit(t));
    }, 200);
  }
  {
    Fixture f(/*force_on_commit=*/false);
    SimClock* clock = f.env->clock();
    BENCH_OK(f.heap->Commit(f.txn));
    const uint64_t start = clock->now_ns();
    for (uint64_t i = 0; i < 200; ++i) {
      TxnId t = *f.heap->Begin();
      Ref o = *f.heap->AllocateStable(t, f.cls, 2);
      BENCH_OK(f.heap->WriteScalar(t, o, 0, i));
      BENCH_OK(f.heap->Commit(t));
    }
    BENCH_OK(f.heap->ForceLog());
    const double us =
        static_cast<double>(clock->now_ns() - start) / 1000.0 / 200;
    Row("  %-28s %10.2f us", "txn with 1 update, group", us);
    EmitMetric("txn_with_1_update__group", us, "us/op");
  }
  WriteJsonFile();
  std::printf("\nhost wall-clock (google-benchmark):\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
