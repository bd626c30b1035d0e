// E17 — true concurrent mutators (DESIGN.md §5i): N OS threads drive
// Begin/Read/Write/Commit against one StableHeap. Each thread owns a
// disjoint account array (low contention), runs inside a SimClock lane
// (ThreadChargeScope), and commits through the ticketed group-commit
// queue with the Busy retry protocol. Elapsed time is the longest lane
// (perfect-parallelism model, as E16 does across shards), so the modeled
// win is real amortization, not free parallelism: a batch leader pays the
// full 8 ms log force into its own lane, and concurrency helps exactly
// insofar as batches fill faster and forces land in different lanes.
// Thread scheduling perturbs the numbers run to run (the concurrency
// contract is serializability + invariants, not byte determinism), so the
// shape checks assert the scaling claim with a wide margin.
//
// Grid: 1/2/4/8 mutator threads, with and without a concurrent stable
// collection (flipped before the measured loop; thread 0 steps it between
// transactions, other threads hit the read barrier through the shared
// gate). After each run: per-array balance conservation, gate handshake
// stats, and a full collection + re-audit to prove the heap is intact.

#include <thread>

#include "bench_util.h"
#include "storage/sim_env.h"

using namespace sheap;
using namespace sheap::bench;

namespace {

constexpr uint64_t kTxnsPerThread = 192;
constexpr uint64_t kAccounts = 32;    // slots per thread-owned array
constexpr uint64_t kInitBalance = 100;
constexpr uint32_t kMaxThreadsInGrid = 8;

StableHeapOptions Options(uint32_t threads) {
  StableHeapOptions opts;
  opts.stable_space_pages = 512;
  opts.volatile_space_pages = 128;
  opts.divided_heap = false;
  opts.mutator_threads = threads;
  opts.group_commit = true;
  opts.group_commit_options.max_batch = 8;
  // Mutator lanes freeze the global clock, so the deadline for an
  // under-full batch is poll-count based in every mode.
  opts.group_commit_options.close_after_polls = 4;
  return opts;
}

/// Commit with the group-commit Busy retry protocol.
void CommitRetry(StableHeap* heap, TxnId txn) {
  for (;;) {
    Status st = heap->Commit(txn);
    if (st.ok()) return;
    if (!st.IsBusy()) {
      std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
}

struct Lcg {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

struct RunResult {
  uint64_t committed = 0;
  double elapsed_ms = 0;   // longest mutator lane
  double throughput = 0;   // committed txns per simulated second
  LatencySummary latency;  // per-txn lane time, Begin to durable commit
  uint64_t handshakes = 0;
  uint64_t traps = 0;
};

/// One grid cell: `threads` mutator threads, optionally racing an
/// in-flight incremental stable collection.
RunResult Run(uint32_t threads, bool concurrent_gc) {
  auto env = std::make_unique<SimEnv>();
  auto heap = BENCH_VAL(StableHeap::Open(env.get(), Options(threads)));

  // Setup (single-threaded): one account array per thread under root t,
  // plus committed list data so a collection has live objects to copy and
  // the read barrier real pages to trap on.
  ClassId acct_cls =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(kAccounts, false)));
  workload::NodeClass node_cls =
      BENCH_VAL(workload::RegisterNodeClass(heap.get(), 2));
  for (uint32_t t = 0; t < threads; ++t) {
    TxnId txn = BENCH_VAL(heap->Begin());
    Ref arr = BENCH_VAL(heap->Allocate(txn, acct_cls, kAccounts));
    for (uint64_t a = 0; a < kAccounts; ++a) {
      BENCH_OK(heap->WriteScalar(txn, arr, a, kInitBalance));
    }
    BENCH_OK(heap->SetRoot(txn, t, arr));
    CommitRetry(heap.get(), txn);
  }
  for (uint32_t l = 0; l < 8; ++l) {
    TxnId txn = BENCH_VAL(heap->Begin());
    Ref head =
        BENCH_VAL(workload::BuildList(heap.get(), txn, node_cls, 48));
    BENCH_OK(heap->SetRoot(txn, kMaxThreadsInGrid + l, head));
    CommitRetry(heap.get(), txn);
  }
  if (concurrent_gc) {
    BENCH_OK(heap->StartStableCollection());
  }
  const uint64_t traps_before = heap->stable_gc_stats().read_barrier_traps;
  const uint64_t handshakes_before = heap->gate_stats().handshakes;

  // Measured phase: each thread transfers between two accounts of its own
  // array. Thread 0 additionally steps the collector every 16 transactions
  // (stepping takes the gate exclusively; everyone else handshakes).
  std::vector<uint64_t> lanes(threads, 0);
  std::vector<std::vector<uint64_t>> samples(threads);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      SimClock::ThreadChargeScope lane(env->clock(), &lanes[t]);
      Lcg rng{9000 + t * 977ull};
      samples[t].reserve(kTxnsPerThread);
      for (uint64_t i = 0; i < kTxnsPerThread; ++i) {
        const uint64_t t0 = lanes[t];
        TxnId txn = BENCH_VAL(heap->Begin());
        Ref arr = BENCH_VAL(heap->GetRoot(txn, t));
        const uint64_t from = rng.Next() % kAccounts;
        const uint64_t to = rng.Next() % kAccounts;
        const uint64_t fbal = BENCH_VAL(heap->ReadScalar(txn, arr, from));
        const uint64_t tbal = BENCH_VAL(heap->ReadScalar(txn, arr, to));
        if (from == to) {
          BENCH_OK(heap->WriteScalar(txn, arr, from, fbal));
        } else {
          BENCH_OK(heap->WriteScalar(txn, arr, from, fbal - 1));
          BENCH_OK(heap->WriteScalar(txn, arr, to, tbal + 1));
        }
        CommitRetry(heap.get(), txn);
        samples[t].push_back(lanes[t] - t0);
        if (concurrent_gc && t == 0 && i % 16 == 15) {
          BENCH_OK(heap->StepStableCollection(1));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  RunResult r;
  r.committed = threads * kTxnsPerThread;
  uint64_t elapsed = 0;
  std::vector<uint64_t> all_samples;
  for (uint32_t t = 0; t < threads; ++t) {
    elapsed = std::max(elapsed, lanes[t]);
    all_samples.insert(all_samples.end(), samples[t].begin(),
                       samples[t].end());
  }
  r.elapsed_ms = Ms(elapsed);
  r.throughput = static_cast<double>(r.committed) /
                 (static_cast<double>(elapsed) / 1e9);
  r.latency = Summarize(std::move(all_samples));
  r.handshakes = heap->gate_stats().handshakes - handshakes_before;
  r.traps = heap->stable_gc_stats().read_barrier_traps - traps_before;

  // Post-run invariants (single-threaded again): every array conserved its
  // balance, and the heap survives a full collection with them intact.
  auto audit = [&]() {
    for (uint32_t t = 0; t < threads; ++t) {
      TxnId txn = BENCH_VAL(heap->Begin());
      Ref arr = BENCH_VAL(heap->GetRoot(txn, t));
      uint64_t total = 0;
      for (uint64_t a = 0; a < kAccounts; ++a) {
        total += BENCH_VAL(heap->ReadScalar(txn, arr, a));
      }
      CommitRetry(heap.get(), txn);
      if (total != kAccounts * kInitBalance) {
        std::fprintf(stderr, "thread %u balance not conserved\n", t);
        std::abort();
      }
    }
  };
  audit();
  BENCH_OK(heap->CollectStableFully());
  audit();
  return r;
}

}  // namespace

int main() {
  JsonBench("concurrent");
  Header("E17 true concurrent mutators",
         "committed-txn throughput scales with mutator threads because "
         "group-commit batches fill faster and leader forces spread across "
         "lanes; an in-flight incremental collection costs traps and "
         "handshakes but preserves every invariant");
  Row("  %-7s %3s %10s %12s %9s %9s %9s %6s %6s", "threads", "gc",
      "committed", "ktx/s(sim)", "p50", "p99", "p999", "hshk", "traps");

  const uint32_t kThreadCounts[] = {1, 2, 4, 8};
  double thr[2][9] = {};  // [gc][threads]
  uint64_t traps4_gc = 0, handshakes4_gc = 0;

  for (int gc = 0; gc <= 1; ++gc) {
    for (uint32_t threads : kThreadCounts) {
      RunResult r = Run(threads, gc == 1);
      thr[gc][threads] = r.throughput;
      if (gc == 1 && threads == 4) {
        traps4_gc = r.traps;
        handshakes4_gc = r.handshakes;
      }
      Row("  %-7u %3s %10llu %12.2f %7.2fms %7.2fms %7.2fms %6llu %6llu",
          threads, gc ? "on" : "off", (unsigned long long)r.committed,
          r.throughput / 1000.0, Ms(static_cast<uint64_t>(r.latency.p50_ns)),
          Ms(static_cast<uint64_t>(r.latency.p99_ns)),
          Ms(static_cast<uint64_t>(r.latency.p999_ns)),
          (unsigned long long)r.handshakes, (unsigned long long)r.traps);
      const std::string tag =
          std::to_string(threads) + "t_gc" + (gc ? "on" : "off");
      EmitMetric("throughput_txps_" + tag, r.throughput, "txn/s");
      EmitMetric("elapsed_ms_" + tag, r.elapsed_ms, "ms");
      EmitLatency("commit_latency_" + tag, r.latency);
      EmitMetric("gate_handshakes_" + tag, static_cast<double>(r.handshakes),
                 "count");
      EmitMetric("read_barrier_traps_" + tag, static_cast<double>(r.traps),
                 "count");
    }
  }

  const double scale2 = thr[0][2] / thr[0][1];
  const double scale4 = thr[0][4] / thr[0][1];
  const double scale4_gc = thr[1][4] / thr[1][1];
  Row("  scaling, GC off: 2 threads %.2fx, 4 threads %.2fx", scale2, scale4);
  Row("  scaling, GC on:  4 threads %.2fx", scale4_gc);
  EmitMetric("scaling_2t_gcoff", scale2, "x");
  EmitMetric("scaling_4t_gcoff", scale4, "x");
  EmitMetric("scaling_4t_gcon", scale4_gc, "x");

  ShapeCheck(scale4 >= 2.5,
             "4 mutator threads give >= 2.5x committed-txn throughput");
  ShapeCheck(scale2 >= 1.5, "2 mutator threads give >= 1.5x");
  ShapeCheck(scale4_gc >= 2.0,
             "scaling survives a concurrent collection (>= 2x at 4)");
  ShapeCheck(traps4_gc > 0,
             "mutators hit the read barrier during the collection");
  ShapeCheck(handshakes4_gc > 0,
             "collector steps ran the gate handshake against live mutators");
  return Finish();
}
