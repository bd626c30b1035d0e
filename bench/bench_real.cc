// E18 — real-hardware backend (DESIGN.md §5j): the same heap, measured in
// wall-clock time on RealEnv (O_DIRECT page store, pwritev + fdatasync WAL,
// mmap/mprotect read barrier) instead of the analytic device model. Three
// questions, one per section:
//
//   1. Commit cost: what does an fdatasync per commit cost for real, and
//      how much of it does group commit amortize away? Grid: force-on-commit
//      vs group commit x {1, 4} mutator threads; wall-clock p50/p99/p999
//      per-transaction latency plus the device's fdatasync/pwritev counts.
//   2. Recovery: wall time to reopen after a crash (process state lost,
//      staged log bytes gone, pages cold) vs redo worker threads {1, 2, 4}.
//      On the simulator the parallel-redo win is modeled (E13); here the
//      threads are real and so is the speedup.
//   3. Read barrier: nanoseconds per mprotect SIGSEGV trap vs per software
//      bitmap probe, plus an incremental collection on both backends to
//      show the hardware mirror counts traps (GcStats.hw_barrier_traps)
//      without changing barrier *semantics* (same software trap count).
//
// Wall-clock numbers vary machine to machine — the JSON is stamped
// `"clock": "wall"` so trackers never diff it against sim-time runs — and
// the shape checks assert only machine-independent claims (fewer syncs
// under group commit, identical redo record sets, traps counted, a trap
// costing more than a plain load).
//
// `--smoke` shrinks every grid for CI; the full run is the E18 recorded in
// EXPERIMENTS.md.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "bench_util.h"
#include "storage/real_env.h"
#include "storage/sim_env.h"

using namespace sheap;
using namespace sheap::bench;

namespace {

bool g_smoke = false;

// ----------------------------------------------------------- scratch dirs

std::filesystem::path ScratchRoot() {
  return std::filesystem::temp_directory_path() /
         ("sheap_bench_real." + std::to_string(::getpid()));
}

/// Fresh empty directory under the scratch root; wiped first so a rerun
/// never recovers a previous run's heap.
std::string FreshDir(const std::string& tag) {
  std::filesystem::path p = ScratchRoot() / tag;
  std::error_code ec;
  std::filesystem::remove_all(p, ec);
  std::filesystem::create_directories(p, ec);
  return p.string();
}

std::unique_ptr<RealEnv> OpenRealEnv(const std::string& tag,
                                     bool hardware_barrier = true) {
  RealEnvOptions ropts;
  ropts.dir = FreshDir(tag);
  ropts.hardware_barrier = hardware_barrier;
  return BENCH_VAL(RealEnv::Create(ropts));
}

/// Commit with the group-commit Busy retry protocol (same as E17), but
/// with a short real sleep between polls: on wall clock a tight spin would
/// close batches in microseconds, before any concurrent committer can
/// join. Sleeping makes the poll-count deadline scale with waiter count —
/// a lone leader waits ~150us for company; a filling batch closes fast.
void CommitRetry(StableHeap* heap, TxnId txn) {
  for (;;) {
    Status st = heap->Commit(txn);
    if (st.ok()) return;
    if (!st.IsBusy()) {
      std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
      std::abort();
    }
    ::usleep(10);
  }
}

struct Lcg {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

// --------------------------------------------- 1. commit latency sweep

struct CommitResult {
  uint64_t committed = 0;
  double elapsed_ms = 0;       // wall, start of first txn to last join
  double throughput = 0;       // committed txns per wall second
  LatencySummary latency;      // per-txn wall time, Begin to commit-OK
  uint64_t fdatasyncs = 0;
  uint64_t writev_batches = 0;
  uint64_t forces = 0;
};

/// One grid cell: `threads` mutators doing account transfers, each commit
/// durable before OK (force per commit, or a shared group-commit force).
CommitResult RunCommit(bool group, uint32_t threads) {
  const uint64_t txns_per_thread = g_smoke ? 48 : 384;
  constexpr uint64_t kAccounts = 32;

  auto env = OpenRealEnv(std::string("commit-") + (group ? "group" : "force") +
                         "-" + std::to_string(threads) + "t");
  StableHeapOptions opts;
  opts.stable_space_pages = 512;
  opts.volatile_space_pages = 128;
  opts.divided_heap = false;
  opts.mutator_threads = threads;
  opts.force_on_commit = !group;
  opts.group_commit = group;
  opts.group_commit_options.max_batch = 8;
  // Polls are wall-cheap here (the sim charge never sleeps a real thread),
  // so a leader must wait longer than E17's 4 polls for concurrent
  // committers to join its batch before it pays the fdatasync; see
  // CommitRetry for the paired inter-poll sleep.
  opts.group_commit_options.close_after_polls = 16;
  auto heap = BENCH_VAL(StableHeap::Open(env.get(), opts));

  ClassId acct_cls =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(kAccounts, false)));
  for (uint32_t t = 0; t < threads; ++t) {
    TxnId txn = BENCH_VAL(heap->Begin());
    Ref arr = BENCH_VAL(heap->Allocate(txn, acct_cls, kAccounts));
    for (uint64_t a = 0; a < kAccounts; ++a) {
      BENCH_OK(heap->WriteScalar(txn, arr, a, 100));
    }
    BENCH_OK(heap->SetRoot(txn, t, arr));
    CommitRetry(heap.get(), txn);
  }
  const LogDeviceStats log_before = env->log()->stats();

  std::vector<std::vector<uint64_t>> samples(threads);
  std::vector<uint64_t> lanes(threads, 0);  // sim lanes keep charges legal
  WallTimer wall;
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      SimClock::ThreadChargeScope lane(env->clock(), &lanes[t]);
      Lcg rng{7000 + t * 977ull};
      samples[t].reserve(txns_per_thread);
      for (uint64_t i = 0; i < txns_per_thread; ++i) {
        const uint64_t t0 = WallNowNs();
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
        samples[t].push_back(WallNowNs() - t0);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  CommitResult r;
  r.elapsed_ms = wall.elapsed_ms();
  r.committed = threads * txns_per_thread;
  r.throughput =
      static_cast<double>(r.committed) / (wall.elapsed_ns() / 1e9);
  std::vector<uint64_t> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  r.latency = Summarize(std::move(all));
  const LogDeviceStats log_after = env->log()->stats();
  r.fdatasyncs = log_after.fdatasyncs - log_before.fdatasyncs;
  r.writev_batches = log_after.writev_batches - log_before.writev_batches;
  r.forces = log_after.forces - log_before.forces;
  return r;
}

// ------------------------------------------------ 2. recovery wall time

struct RecoverResult {
  double open_wall_ms = 0;   // full reopen: analysis + redo + undo
  double sim_ms = 0;         // the analytic model's opinion of the same run
  uint64_t redo_applied = 0;
  uint64_t reachable = 0;    // post-recovery audit
};

/// Crash a populated heap (process buffers and staged log bytes lost, pages
/// cold) and wall-time the reopen with `threads` redo workers. Each thread
/// count rebuilds the identical workload in a fresh directory, so the log
/// being replayed is the same modulo the thread count under test.
RecoverResult RunRecover(uint32_t threads) {
  const uint64_t pages = g_smoke ? 64 : 192;
  const uint64_t updates = g_smoke ? 8 : 32;
  const uint64_t slots = kPageSizeBytes / kWordSizeBytes - 1;  // 1 page/obj

  auto env = OpenRealEnv("recover-" + std::to_string(threads) + "t");
  StableHeapOptions opts;
  opts.stable_space_pages = 4096;
  opts.volatile_space_pages = 1024;
  opts.divided_heap = false;
  opts.buffer_pool_frames = 16384;
  opts.recovery_threads = threads;
  auto heap = BENCH_VAL(StableHeap::Open(env.get(), opts));

  ClassId big =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(slots, false)));
  ClassId dir =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(pages, true)));
  TxnId setup = BENCH_VAL(heap->Begin());
  Ref dref = BENCH_VAL(heap->AllocateStable(setup, dir, pages));
  BENCH_OK(heap->SetRoot(setup, 0, dref));
  for (uint64_t i = 0; i < pages; ++i) {
    Ref obj = BENCH_VAL(heap->AllocateStable(setup, big, slots));
    BENCH_OK(heap->WriteRef(setup, dref, i, obj));
  }
  BENCH_OK(heap->Commit(setup));
  BENCH_OK(heap->WriteBackPages(1.0, 5));
  BENCH_OK(heap->Checkpoint());

  TxnId txn = BENCH_VAL(heap->Begin());
  Ref d2 = BENCH_VAL(heap->GetRoot(txn, 0));
  for (uint64_t i = 0; i < pages; ++i) {
    Ref obj = BENCH_VAL(heap->ReadRef(txn, d2, i));
    for (uint64_t k = 0; k < updates; ++k) {
      BENCH_OK(heap->WriteScalar(txn, obj, (i * updates + k) % slots, i + k));
    }
  }
  BENCH_OK(heap->Commit(txn));

  // No page survives to the store: every redo page comes in cold.
  BENCH_OK(heap->SimulateCrash(CrashOptions{0.0, 13, 0}));
  heap.reset();

  WallTimer wall;
  heap = BENCH_VAL(StableHeap::Open(env.get(), opts));
  RecoverResult r;
  r.open_wall_ms = wall.elapsed_ms();
  r.sim_ms = Ms(heap->recovery_stats().sim_time_ns);
  r.redo_applied = heap->recovery_stats().redo_records_applied;

  // Audit: the committed update values survived the crash.
  TxnId a = BENCH_VAL(heap->Begin());
  Ref d3 = BENCH_VAL(heap->GetRoot(a, 0));
  for (uint64_t i = 0; i < pages; i += 7) {
    Ref obj = BENCH_VAL(heap->ReadRef(a, d3, i));
    const uint64_t got = BENCH_VAL(heap->ReadScalar(a, obj, (i * updates) % slots));
    if (got != i) {
      std::fprintf(stderr, "recovery audit: obj %llu slot value %llu != %llu\n",
                   (unsigned long long)i, (unsigned long long)got,
                   (unsigned long long)i);
      std::abort();
    }
    ++r.reachable;
  }
  BENCH_OK(heap->Commit(a));
  return r;
}

// ----------------------------------------- 3. read-barrier trap cost

struct TrapMicro {
  double trap_ns = 0;    // protected probe: SIGSEGV + handler + mprotect
  double probe_ns = 0;   // unprotected probe: a plain volatile load
  uint64_t traps = 0;
};

/// Micro-cost of one hardware trap vs one plain probe, on a standalone
/// mirror (no heap in the way).
TrapMicro RunTrapMicro() {
  const uint64_t n = g_smoke ? 256 : 2048;
  auto mapping = BENCH_VAL(RealMapping::Create(n));
  TrapMicro m;

  mapping->Protect(0, n);
  WallTimer protected_t;
  for (uint64_t pid = 0; pid < n; ++pid) {
    if (!mapping->Touch(pid)) {
      std::fprintf(stderr, "protected touch did not trap (pid %llu)\n",
                   (unsigned long long)pid);
      std::abort();
    }
  }
  m.trap_ns = static_cast<double>(protected_t.elapsed_ns()) / n;

  WallTimer plain_t;
  for (uint64_t pid = 0; pid < n; ++pid) {
    if (mapping->Touch(pid)) {
      std::fprintf(stderr, "unprotected touch trapped (pid %llu)\n",
                   (unsigned long long)pid);
      std::abort();
    }
  }
  m.probe_ns = static_cast<double>(plain_t.elapsed_ns()) / n;
  m.traps = mapping->trap_count();
  return m;
}

struct GcTraps {
  uint64_t sw_traps = 0;  // software barrier trap-branch entries
  uint64_t hw_traps = 0;  // real SIGSEGVs taken through the mirror
  uint64_t reachable = 0;
};

/// The same single-threaded workload on either backend: plant lists, flip
/// an incremental stable collection, then read through the barrier. On the
/// simulator hw_traps stays 0; on RealEnv every software trap that probes
/// a protected mirror page takes a real SIGSEGV first.
GcTraps RunGcWorkload(Env* env) {
  StableHeapOptions opts;
  opts.stable_space_pages = 512;
  opts.volatile_space_pages = 128;
  opts.divided_heap = false;
  opts.barrier_mode = GcBarrierMode::kPageProtection;
  auto heap = BENCH_VAL(StableHeap::Open(env, opts));
  workload::NodeClass cls =
      BENCH_VAL(workload::RegisterNodeClass(heap.get(), 2));
  for (uint32_t l = 0; l < 8; ++l) {
    TxnId txn = BENCH_VAL(heap->Begin());
    Ref head = BENCH_VAL(workload::BuildList(heap.get(), txn, cls, 96));
    BENCH_OK(heap->SetRoot(txn, l, head));
    BENCH_OK(heap->Commit(txn));
  }
  BENCH_OK(heap->StartStableCollection());

  GcTraps g;
  TxnId txn = BENCH_VAL(heap->Begin());
  for (uint32_t l = 0; l < 8; ++l) {
    Ref head = BENCH_VAL(heap->GetRoot(txn, l));
    g.reachable += BENCH_VAL(workload::CountReachable(heap.get(), txn, head));
  }
  BENCH_OK(heap->Commit(txn));
  BENCH_OK(heap->CollectStableFully());
  g.sw_traps = heap->stable_gc_stats().read_barrier_traps;
  g.hw_traps = heap->stable_gc_stats().hw_barrier_traps;
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
  }
  JsonBench("real");
  JsonClock("wall");

  Header("E18 real backend: commit latency vs sync batching (wall clock)",
         "an fdatasync per commit is the latency floor; group commit "
         "amortizes one sync over a batch, cutting syncs and tail latency");
  Row("  %-7s %8s %10s %12s %9s %9s %9s %8s %8s", "mode", "threads",
      "committed", "tx/s(wall)", "p50", "p99", "p999", "fsyncs", "writev");
  double syncs_per_txn[2][2] = {};  // [group][threads == 4]
  for (int group = 0; group <= 1; ++group) {
    for (uint32_t threads : {1u, 4u}) {
      CommitResult r = RunCommit(group == 1, threads);
      Row("  %-7s %8u %10llu %12.0f %7.3fms %7.3fms %7.3fms %8llu %8llu",
          group ? "group" : "force", threads, (unsigned long long)r.committed,
          r.throughput, Ms(static_cast<uint64_t>(r.latency.p50_ns)),
          Ms(static_cast<uint64_t>(r.latency.p99_ns)),
          Ms(static_cast<uint64_t>(r.latency.p999_ns)),
          (unsigned long long)r.fdatasyncs,
          (unsigned long long)r.writev_batches);
      syncs_per_txn[group][threads == 4] =
          static_cast<double>(r.fdatasyncs) / r.committed;
      const std::string tag = std::string(group ? "group" : "force") + "_" +
                              std::to_string(threads) + "t";
      EmitMetric("commit_throughput_txps_" + tag, r.throughput, "txn/s",
                 /*simulated=*/false);
      EmitLatency("commit_wall_" + tag, r.latency, /*simulated=*/false);
      EmitMetric("fdatasyncs_" + tag, static_cast<double>(r.fdatasyncs),
                 "count", /*simulated=*/false);
      EmitMetric("writev_batches_" + tag,
                 static_cast<double>(r.writev_batches), "count",
                 /*simulated=*/false);
    }
  }
  Row("  fdatasyncs per committed txn: force %.2f at 1 thread; at 4 "
      "threads force %.2f, group %.2f",
      syncs_per_txn[0][0], syncs_per_txn[0][1], syncs_per_txn[1][1]);
  ShapeCheck(syncs_per_txn[1][1] < syncs_per_txn[0][1],
             "group commit issues fewer fdatasyncs per txn than force");
  // Exact only with one committer: at 4 threads one thread's Force can
  // carry another thread's commit record, so force reads just under 1.
  ShapeCheck(syncs_per_txn[0][0] >= 1.0,
             "force-on-commit pays >= 1 fdatasync per txn at 1 thread");

  Header("E18 real backend: recovery wall time vs redo threads",
         "redo workers are real threads here; the partitioned redo win is "
         "wall-clock, not just modeled");
  Row("  %-8s %12s %12s %10s", "threads", "open(ms)", "sim(ms)", "applied");
  std::vector<RecoverResult> recs;
  for (uint32_t threads : {1u, 2u, 4u}) {
    RecoverResult r = RunRecover(threads);
    recs.push_back(r);
    Row("  %-8u %12.2f %12.2f %10llu", threads, r.open_wall_ms, r.sim_ms,
        (unsigned long long)r.redo_applied);
    const std::string tag = std::to_string(threads) + "t";
    EmitMetric("recover_open_wall_ms_" + tag, r.open_wall_ms, "ms",
               /*simulated=*/false);
    EmitMetric("recover_sim_ms_" + tag, r.sim_ms, "ms");
    EmitMetric("recover_redo_applied_" + tag,
               static_cast<double>(r.redo_applied), "records");
  }
  ShapeCheck(recs[1].redo_applied == recs[0].redo_applied &&
                 recs[2].redo_applied == recs[0].redo_applied,
             "every thread count replays the identical redo record set");
  ShapeCheck(recs[0].open_wall_ms > 0, "recovery wall time was measured");

  Header("E18 real backend: mprotect trap cost vs software probe",
         "one hardware trap (SIGSEGV + handler + mprotect) costs microseconds "
         "where the software bitmap probe costs nanoseconds — the paper's "
         "case for at most one trap per page");
  TrapMicro m = RunTrapMicro();
  Row("  per-trap:  %10.0f ns   (n=%llu, all SIGSEGV)", m.trap_ns,
      (unsigned long long)m.traps);
  Row("  per-probe: %10.1f ns   (unprotected load)", m.probe_ns);
  EmitMetric("mprotect_trap_ns", m.trap_ns, "ns", /*simulated=*/false);
  EmitMetric("unprotected_probe_ns", m.probe_ns, "ns", /*simulated=*/false);
  ShapeCheck(m.trap_ns > m.probe_ns,
             "a hardware trap costs more than a plain probe");

  auto sim_env = std::make_unique<SimEnv>();
  GcTraps sim_g = RunGcWorkload(sim_env.get());
  auto real_env = OpenRealEnv("gc-traps");
  GcTraps real_g = RunGcWorkload(real_env.get());
  Row("  incremental collection, software traps: sim %llu, real %llu; "
      "hardware traps: sim %llu, real %llu",
      (unsigned long long)sim_g.sw_traps, (unsigned long long)real_g.sw_traps,
      (unsigned long long)sim_g.hw_traps, (unsigned long long)real_g.hw_traps);
  EmitMetric("gc_sw_traps_sim", static_cast<double>(sim_g.sw_traps), "count");
  EmitMetric("gc_sw_traps_real", static_cast<double>(real_g.sw_traps),
             "count", /*simulated=*/false);
  EmitMetric("gc_hw_traps_real", static_cast<double>(real_g.hw_traps),
             "count", /*simulated=*/false);
  ShapeCheck(sim_g.sw_traps > 0, "the workload exercises the read barrier");
  ShapeCheck(real_g.sw_traps == sim_g.sw_traps,
             "hardware mirror leaves barrier semantics unchanged");
  ShapeCheck(real_g.hw_traps > 0 && sim_g.hw_traps == 0,
             "real SIGSEGV traps are counted only on the real backend");
  ShapeCheck(real_g.reachable == sim_g.reachable,
             "both backends see the same reachable object count");

  std::error_code ec;
  std::filesystem::remove_all(ScratchRoot(), ec);
  return Finish();
}
