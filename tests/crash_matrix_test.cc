// Exhaustive crash-point recovery harness (the paper's recovery claims
// quantify over every crash state, §2.2/§4).
//
// A scripted, fully deterministic workload — commits, an abort, a
// checkpoint, a full incremental GC cycle, a 2PC prepare left in doubt,
// background write-back, a second checkpoint — is first run under the fault
// injector's tracing mode to enumerate every crash point it reaches and how
// often. Then, for each (point, hit) in that space (first / middle / last
// occurrence), a fresh machine runs the same workload with a one-shot crash
// armed there; the harness finalizes the crash state (partial write-back +
// torn log tail), reopens the heap, and checks the invariants:
//   * recovery succeeds,
//   * the bank's total balance is conserved (if the bank ever committed),
//   * at most the one in-doubt 2PC transaction survives, with its gtid,
//     and the coordinator's abort resolves it,
//   * the heap accepts new transactions and survives a full collection.
// Finally the harness crashes *during recovery itself* (after each recovery
// pass) and recovers from that, proving recovery is idempotent.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/stable_heap.h"
#include "crash_matrix_points.h"
#include "fault/fault_injector.h"
#include "shard/sharded_heap.h"
#include "storage/sim_env.h"
#include "workload/workloads.h"

namespace sheap {
namespace {

using workload::Bank;

constexpr uint64_t kAccounts = 32;
constexpr uint64_t kInitialBalance = 100;
constexpr uint64_t kTotal = kAccounts * kInitialBalance;
constexpr uint64_t kInDoubtGtid = 77;

StableHeapOptions MatrixOptions(uint32_t recovery_threads = 1,
                                uint32_t gc_threads = 1) {
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  opts.divided_heap = true;
  opts.recovery_threads = recovery_threads;
  // The parallel scan executor is byte-deterministic, so the workload
  // reaches the same crash points at the same dynamic hit counts for any
  // worker count; the matrix re-runs with workers active to prove the
  // crash states it creates (gc.scan.worker_claim, gc.batch.merged
  // included) recover identically.
  opts.gc_threads = gc_threads;
  // One flush writer keeps the parallel-writeback checkpoint (phase 7)
  // fully deterministic: runs are written in page order on the calling
  // thread, so the write-back crash points fire in the same order every
  // run.
  opts.flush_writer_threads = 1;
  return opts;
}

/// The scripted workload. Every run on a fresh SimEnv executes the exact
/// same sequence of actions, so the injector's dynamic hit counters name
/// reproducible crash states. Returns the first error (Status::Crashed when
/// an armed crash point fires).
Status RunScriptedWorkload(SimEnv* env,
                           std::unique_ptr<StableHeap>* heap_out,
                           uint32_t gc_threads = 1) {
  auto opened =
      StableHeap::Open(env, MatrixOptions(/*recovery_threads=*/1, gc_threads));
  if (!opened.ok()) return opened.status();
  std::unique_ptr<StableHeap>& heap = *heap_out;
  heap = std::move(*opened);

  // Phase 1: bank setup + a first round of transfers (one aborted).
  Bank bank(heap.get(), /*root_index=*/0);
  SHEAP_RETURN_IF_ERROR(bank.Setup(kAccounts, kInitialBalance));
  for (uint64_t i = 0; i < 6; ++i) {
    SHEAP_RETURN_IF_ERROR(bank.Transfer(i, kAccounts - 1 - i, 7));
  }
  SHEAP_RETURN_IF_ERROR(
      bank.Transfer(0, 1, 50, /*abort_instead=*/true));

  // Phase 2: checkpoint.
  SHEAP_RETURN_IF_ERROR(heap->Checkpoint());

  // Phase 3 pre-load: bulk stable data so the collection's to-space spans
  // several fully-copied pages. The scan executor only claims such pages
  // (the partial frontier page always uses the serial scan), so without
  // this the matrix would never reach gc.scan.worker_claim or
  // gc.batch.merged, nor crash inside a batched-copy window.
  {
    auto txn = heap->Begin();
    if (!txn.ok()) return txn.status();
    // A pointer array spilling past to-space page 0: its tail pages are
    // scanned by the executor, whose candidates (the leaves) are copied
    // through a kGcCopyBatch record.
    auto index = heap->AllocateStable(*txn, kClassPtrArray, 700);
    if (!index.ok()) return index.status();
    for (uint64_t i = 0; i < 700; i += 50) {
      auto leaf = heap->AllocateStable(*txn, kClassDataArray, 3);
      if (!leaf.ok()) return leaf.status();
      SHEAP_RETURN_IF_ERROR(heap->WriteScalar(*txn, *leaf, 0, i));
      SHEAP_RETURN_IF_ERROR(heap->WriteRef(*txn, *index, i, *leaf));
    }
    SHEAP_RETURN_IF_ERROR(heap->SetRoot(*txn, 1, *index));
    // Scalar ballast: whole clean pages for the executor's run records.
    for (uint64_t i = 0; i < 4; ++i) {
      auto bulk = heap->AllocateStable(*txn, kClassDataArray, 500);
      if (!bulk.ok()) return bulk.status();
      SHEAP_RETURN_IF_ERROR(heap->WriteScalar(*txn, *bulk, 0, i));
      SHEAP_RETURN_IF_ERROR(heap->SetRoot(*txn, 2 + i, *bulk));
    }
    SHEAP_RETURN_IF_ERROR(heap->Commit(*txn));
  }

  // Phase 3: a full stable collection (flip + incremental steps + complete).
  // An open transaction with an uncommitted stable write spans the flip, so
  // the flip must translate its undo roots and log a UTR batch
  // (gc.utr.logged); it commits once the collection is done.
  auto span_txn = heap->Begin();
  if (!span_txn.ok()) return span_txn.status();
  auto scratch = heap->AllocateStable(*span_txn, kClassDataArray, 2);
  if (!scratch.ok()) return scratch.status();
  SHEAP_RETURN_IF_ERROR(heap->WriteScalar(*span_txn, *scratch, 0, 4242));
  SHEAP_RETURN_IF_ERROR(heap->StartStableCollection());
  while (heap->stable_gc()->collecting()) {
    SHEAP_RETURN_IF_ERROR(heap->StepStableCollection(2));
  }
  SHEAP_RETURN_IF_ERROR(heap->Commit(*span_txn));

  // Phase 4: a 2PC participant votes yes and is left in doubt. The
  // transaction touches its own object, not the bank, so its retained
  // locks cannot block verification.
  auto cls = heap->RegisterClass({false});
  if (!cls.ok()) return cls.status();
  auto txn = heap->Begin();
  if (!txn.ok()) return txn.status();
  auto obj = heap->Allocate(*txn, *cls, 1);
  if (!obj.ok()) return obj.status();
  SHEAP_RETURN_IF_ERROR(heap->WriteScalar(*txn, *obj, 0, 12345));
  SHEAP_RETURN_IF_ERROR(heap->Prepare(*txn, kInDoubtGtid));

  // Phase 5: more transfers over the in-doubt state.
  for (uint64_t i = 0; i < 4; ++i) {
    SHEAP_RETURN_IF_ERROR(bank.Transfer(2 * i, 2 * i + 1, 3));
  }

  // Phase 6: background write-back + second checkpoint + a final transfer.
  SHEAP_RETURN_IF_ERROR(heap->WriteBackPages(0.7, /*seed=*/5));
  SHEAP_RETURN_IF_ERROR(heap->Checkpoint());
  SHEAP_RETURN_IF_ERROR(bank.Transfer(3, 4, 11));
  SHEAP_RETURN_IF_ERROR(heap->ForceLog());

  // Phase 7: writeback checkpoint — FlushAll writes every dirty page
  // through the pool's write-back pipeline (pool.writeback.*, which phase
  // 6's WriteBackPages reaches too) behind ckpt.flush.begin, which the
  // plain checkpoint never reaches — then one more transfer over the clean
  // pool.
  SHEAP_RETURN_IF_ERROR(heap->CheckpointWithWriteback());
  SHEAP_RETURN_IF_ERROR(bank.Transfer(9, 10, 5));
  SHEAP_RETURN_IF_ERROR(heap->ForceLog());
  return Status::OK();
}

/// Reopen the heap on a crashed environment and check every invariant the
/// workload guarantees in *any* crash state.
void VerifyRecovered(SimEnv* env, const std::string& context,
                     uint32_t recovery_threads = 1,
                     uint32_t gc_threads = 1) {
  SCOPED_TRACE(context);
  auto reopened =
      StableHeap::Open(env, MatrixOptions(recovery_threads, gc_threads));
  ASSERT_TRUE(reopened.ok())
      << "recovery failed: " << reopened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*reopened);
  EXPECT_FALSE(env->faults()->crash_fired());

  // Bank conservation (if the bank's setup ever committed).
  Bank bank(heap.get(), 0);
  const bool attached = bank.Attach().ok();
  if (attached) {
    auto total = bank.TotalBalance();
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    EXPECT_EQ(*total, kTotal) << "balance not conserved";
  }

  // At most the one scripted in-doubt transaction survives, holding its
  // gtid; the coordinator's (presumed-)abort must resolve it.
  auto in_doubt = heap->InDoubtTransactions();
  ASSERT_LE(in_doubt.size(), 1u);
  if (!in_doubt.empty()) {
    EXPECT_EQ(in_doubt[0].second, kInDoubtGtid);
    EXPECT_TRUE(heap->AbortPrepared(in_doubt[0].first).ok());
  }

  // The heap accepts new work.
  auto cls = heap->RegisterClass({false});
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  auto txn = heap->Begin();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  auto obj = heap->Allocate(*txn, *cls, 1);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_TRUE(heap->WriteScalar(*txn, *obj, 0, 99).ok());
  ASSERT_TRUE(heap->Commit(*txn).ok());

  // And it survives a full collection with the state intact.
  ASSERT_TRUE(heap->CollectStableFully().ok());
  if (attached) {
    auto total = bank.TotalBalance();
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    EXPECT_EQ(*total, kTotal) << "balance not conserved across post-"
                                 "recovery collection";
  }
}

/// Run the workload with a one-shot crash armed at (point, hit), finalize
/// the crash state, and verify recovery.
void CrashAtAndVerify(const std::string& point, uint64_t hit,
                      uint64_t tear_tail_bytes,
                      uint32_t recovery_threads = 1,
                      uint32_t gc_threads = 1) {
  const std::string context =
      point + "#" + std::to_string(hit) + " tear=" +
      std::to_string(tear_tail_bytes) + " threads=" +
      std::to_string(recovery_threads) + " gc_threads=" +
      std::to_string(gc_threads);
  SCOPED_TRACE(context);
  auto env = std::make_unique<SimEnv>();
  FaultSpec spec;
  spec.point = point;
  spec.kind = FaultKind::kCrash;
  spec.hit = hit;
  env->faults()->Arm(spec);

  std::unique_ptr<StableHeap> heap;
  Status s = RunScriptedWorkload(env.get(), &heap, gc_threads);
  ASSERT_TRUE(s.IsCrashed())
      << "armed crash did not fire (" << s.ToString() << ")";
  ASSERT_TRUE(env->faults()->crash_fired());
  EXPECT_EQ(env->faults()->crash_point(), point);

  // Finalize the crash state: a background writer got some dirty pages out
  // before the machine died, and the un-barriered log tail tears.
  if (heap != nullptr) {
    CrashOptions crash;
    crash.writeback_fraction = 0.5;
    crash.seed = 1 + hit;
    crash.tear_tail_bytes = tear_tail_bytes;
    ASSERT_TRUE(heap->SimulateCrash(crash).ok());
    heap.reset();
  }
  VerifyRecovered(env.get(), context, recovery_threads, gc_threads);
}

/// Enumerate the workload's reachable crash points under tracing mode.
std::vector<std::pair<std::string, uint64_t>> TraceWorkloadPoints(
    uint32_t gc_threads = 1) {
  auto env = std::make_unique<SimEnv>();
  env->faults()->set_tracing(true);
  std::unique_ptr<StableHeap> heap;
  Status s = RunScriptedWorkload(env.get(), &heap, gc_threads);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return env->faults()->Points();
}

TEST(CrashMatrixTest, WorkloadReachesTheFullCrashPointSurface) {
  const auto points = TraceWorkloadPoints();
  std::set<std::string> names;
  for (const auto& [point, hits] : points) {
    EXPECT_GE(hits, 1u);
    names.insert(point);
  }
  // The scripted workload must reach exactly its manifest section — a
  // missing name means the surface shrank; an extra one means a new crash
  // point exists that tools/sheap_analyze (and this matrix) doesn't know
  // about. Keep tests/crash_matrix_points.h in sync with src/.
  const std::set<std::string> manifest(
      std::begin(crash_matrix::kScriptedWorkloadPoints),
      std::end(crash_matrix::kScriptedWorkloadPoints));
  for (const std::string& name : manifest) {
    EXPECT_TRUE(names.count(name) == 1)
        << "crash point not reached by the workload: " << name;
  }
  for (const std::string& name : names) {
    EXPECT_TRUE(manifest.count(name) == 1)
        << "crash point missing from tests/crash_matrix_points.h: " << name;
  }
}

/// The full matrix runs once per (redo threads, GC scan workers) pair:
/// recovery must converge to the same verified invariants whether redo is
/// serial or partitioned, and whether the interrupted collection was
/// driven by one scan worker or several.
struct ThreadsParam {
  uint32_t redo_threads;
  uint32_t gc_threads;
};

class CrashMatrixThreadsTest
    : public ::testing::TestWithParam<ThreadsParam> {};

INSTANTIATE_TEST_SUITE_P(
    RedoThreads, CrashMatrixThreadsTest,
    ::testing::Values(ThreadsParam{1, 1}, ThreadsParam{4, 1},
                      ThreadsParam{1, 4}),
    [](const auto& param_info) {
      return "threads" + std::to_string(param_info.param.redo_threads) +
             "gc" + std::to_string(param_info.param.gc_threads);
    });

TEST_P(CrashMatrixThreadsTest, RecoversFromEveryCrashPoint) {
  const uint32_t threads = GetParam().redo_threads;
  const uint32_t gc_threads = GetParam().gc_threads;
  const auto points = TraceWorkloadPoints(gc_threads);
  ASSERT_GE(points.size(), 12u);
  // The scan executor's determinism contract: the crash-point surface
  // (names and dynamic hit counts) must not depend on the worker count,
  // or the matrix would name different crash states per configuration.
  EXPECT_EQ(points, TraceWorkloadPoints(1));
  uint64_t crash_states = 0;
  for (const auto& [point, hits] : points) {
    // First, middle, and last dynamic occurrence of each point.
    std::set<uint64_t> chosen = {1, (hits + 1) / 2, hits};
    for (uint64_t hit : chosen) {
      // Alternate between a clean tail and a torn tail.
      const uint64_t tear = (hit % 2 == 0) ? 160 : 0;
      CrashAtAndVerify(point, hit, tear, threads, gc_threads);
      if (::testing::Test::HasFatalFailure()) return;
      ++crash_states;
    }
  }
  // The matrix must stay meaningfully large.
  EXPECT_GE(crash_states, 30u);
}

TEST_P(CrashMatrixThreadsTest, RecoveryItselfIsCrashSafe) {
  const uint32_t threads = GetParam().redo_threads;
  const uint32_t gc_threads = GetParam().gc_threads;
  // Crash mid-workload (a state with both redo and undo work: spooled
  // commits, an in-flight loser), then crash during each recovery pass,
  // then recover from *that*. Proves recovery is idempotent. Offline
  // recovery drains the redo plan through the page gate inside Open, so the
  // gate's drain window is a recovery pass too.
  std::vector<const char*> recovery_points(
      std::begin(crash_matrix::kRecoveryPoints),
      std::end(crash_matrix::kRecoveryPoints));
  recovery_points.push_back("recovery.drain.step");
  // The losers' rollback tail, between two of recovery's CLRs.
  recovery_points.push_back("txn.undo.clr_logged");
  for (const char* recovery_point : recovery_points) {
    SCOPED_TRACE(recovery_point);
    auto env = std::make_unique<SimEnv>();
    FaultSpec first;
    first.point = "txn.commit.logged";
    first.kind = FaultKind::kCrash;
    first.hit = 9;  // mid-workload: after setup, inside the transfer runs
    env->faults()->Arm(first);

    std::unique_ptr<StableHeap> heap;
    Status s = RunScriptedWorkload(env.get(), &heap, gc_threads);
    ASSERT_TRUE(s.IsCrashed()) << s.ToString();
    if (heap != nullptr) {
      CrashOptions crash;
      crash.writeback_fraction = 0.5;
      crash.seed = 42;
      crash.tear_tail_bytes = 96;
      ASSERT_TRUE(heap->SimulateCrash(crash).ok());
      heap.reset();
    }

    // Arm the second crash inside recovery, then reopen: Open must fail at
    // exactly that pass.
    FaultSpec second;
    second.point = recovery_point;
    second.kind = FaultKind::kCrash;
    second.hit = 1;
    env->faults()->Arm(second);
    auto reopened =
        StableHeap::Open(env.get(), MatrixOptions(threads, gc_threads));
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsCrashed())
        << reopened.status().ToString();
    EXPECT_EQ(env->faults()->crash_point(), recovery_point);

    // Second reopen: the one-shot is consumed; recovery repeats history
    // (including any CLRs or write-backs the first attempt produced) and
    // must converge to the same state.
    VerifyRecovered(env.get(),
                    std::string("after mid-recovery crash at ") +
                        recovery_point,
                    threads, gc_threads);
  }
}

TEST(CrashMatrixTest, RollbackPointServesAbortAndRestartUndo) {
  // One rollback tail serves Abort and recovery's losers. The workload's
  // aborted transfer reaches txn.undo.clr_logged once per CLR; cut it
  // after the first, and recovery writes the second through the same
  // tail, reaching the point again.
  uint64_t abort_hits = 0;
  for (const auto& [point, hits] : TraceWorkloadPoints()) {
    if (point == "txn.undo.clr_logged") abort_hits = hits;
  }
  ASSERT_EQ(abort_hits, 2u);

  auto env = std::make_unique<SimEnv>();
  FaultSpec spec;
  spec.point = "txn.undo.clr_logged";
  spec.kind = FaultKind::kCrash;
  spec.hit = 1;
  env->faults()->Arm(spec);
  std::unique_ptr<StableHeap> heap;
  ASSERT_TRUE(RunScriptedWorkload(env.get(), &heap).IsCrashed());
  // Writing back every dirty page flushes the log through the first CLR.
  CrashOptions crash;
  crash.writeback_fraction = 1.0;
  ASSERT_TRUE(heap->SimulateCrash(crash).ok());
  heap.reset();

  auto reopened = StableHeap::Open(env.get(), MatrixOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_stats().losers_aborted, 1u);
  EXPECT_EQ((*reopened)->recovery_stats().clrs_written, 1u);
  uint64_t total_hits = 0;
  for (const auto& [point, hits] : env->faults()->Points()) {
    if (point == "txn.undo.clr_logged") total_hits = hits;
  }
  EXPECT_EQ(total_hits, 2u);  // the cut Abort's first CLR, then recovery's
  reopened->reset();
  VerifyRecovered(env.get(), "after a rollback cut between its CLRs");
}

TEST(CrashMatrixTest, TornTailDeepensTheCrashState) {
  // Crashing right before the durable barrier is raised, with an
  // aggressive tear, exercises the WAL window: flushed-but-unbarriered
  // bytes vanish and recovery must fall back to the last barrier.
  const auto points = TraceWorkloadPoints();
  uint64_t barrier_hits = 0;
  for (const auto& [point, hits] : points) {
    if (point == "wal.force.before_barrier") barrier_hits = hits;
  }
  ASSERT_GE(barrier_hits, 1u);
  for (uint64_t hit : std::set<uint64_t>{1, barrier_hits}) {
    CrashAtAndVerify("wal.force.before_barrier", hit,
                     /*tear_tail_bytes=*/100000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ----------------------------------------------------- instant recovery

StableHeapOptions InstantMatrixOptions(uint32_t drain_threads = 2) {
  StableHeapOptions opts = MatrixOptions();
  opts.instant_recovery = true;
  opts.recovery_threads = drain_threads;
  opts.instant_drain_pages = 1;  // one page per action: many drain windows
  return opts;
}

/// Crash the scripted workload mid-flight (late enough that the dirty-page
/// table spans the bank, the bulk pre-load, and the collection's copies)
/// and finalize a crash state with most of that redo work still pending.
std::unique_ptr<SimEnv> BuildMidWorkloadCrash() {
  auto env = std::make_unique<SimEnv>();
  FaultSpec spec;
  spec.point = "txn.prepare.forced";
  spec.kind = FaultKind::kCrash;
  spec.hit = 1;
  env->faults()->Arm(spec);
  std::unique_ptr<StableHeap> heap;
  Status s = RunScriptedWorkload(env.get(), &heap);
  EXPECT_TRUE(s.IsCrashed()) << s.ToString();
  if (heap != nullptr) {
    CrashOptions crash;
    crash.writeback_fraction = 0.3;
    crash.seed = 42;
    crash.tear_tail_bytes = 96;
    EXPECT_TRUE(heap->SimulateCrash(crash).ok());
    heap.reset();
  }
  return env;
}

/// Reopen `env` with the instant gate on and exercise every gate path:
/// first touches through the bank (on-demand redo), cooperative drain
/// steps at Begin/Commit, and a final full drain. Returns the first
/// non-OK status so an armed gate crash propagates to the caller.
Status DriveInstantReopen(SimEnv* env, std::unique_ptr<StableHeap>* heap_out,
                          uint32_t drain_threads = 2) {
  auto opened = StableHeap::Open(env, InstantMatrixOptions(drain_threads));
  if (!opened.ok()) return opened.status();
  std::unique_ptr<StableHeap>& heap = *heap_out;
  heap = std::move(*opened);
  Bank bank(heap.get(), 0);
  Status attached = bank.Attach();
  if (attached.IsCrashed()) return attached;
  if (attached.ok()) {
    auto total = bank.TotalBalance();
    if (!total.ok()) return total.status();
    if (*total != kTotal) return Status::Internal("balance not conserved");
  }
  return heap->DrainInstantRecovery();
}

TEST(CrashMatrixTest, InstantRecoveryReachesItsCrashPoints) {
  auto env = BuildMidWorkloadCrash();
  env->faults()->set_tracing(true);
  std::unique_ptr<StableHeap> heap;
  ASSERT_TRUE(DriveInstantReopen(env.get(), &heap).ok());
  EXPECT_EQ(heap->recovery_stats().outcome,
            RecoveryOutcome::kInstantComplete);
  // Both gate windows fired under tracing: the reopen redoes pages on
  // demand (the bank's first touches) and in drain batches.
  uint64_t ondemand_hits = 0;
  uint64_t drain_hits = 0;
  for (const auto& [point, hits] : env->faults()->Points()) {
    if (point == std::string("recovery.ondemand.page_redo")) {
      ondemand_hits = hits;
    }
    if (point == std::string("recovery.drain.step")) drain_hits = hits;
  }
  EXPECT_GE(ondemand_hits, 1u);
  EXPECT_GE(drain_hits, 1u);
  const RecoveryStats rs = heap->recovery_stats();
  EXPECT_GT(rs.ondemand_pages, 0u);
  EXPECT_GT(rs.drained_pages, 0u);
  EXPECT_EQ(rs.pending_pages, 0u);
}

TEST(CrashMatrixTest, InstantGateCrashesRecoverToOfflineState) {
  // Enumerate each gate point's dynamic hits under tracing, then crash at
  // the first / middle / last occurrence and verify an offline reopen
  // restores every workload invariant — the gate crash is just another
  // crash state.
  std::vector<std::pair<std::string, uint64_t>> gate_hits;
  {
    auto env = BuildMidWorkloadCrash();
    env->faults()->set_tracing(true);
    std::unique_ptr<StableHeap> heap;
    ASSERT_TRUE(DriveInstantReopen(env.get(), &heap).ok());
    for (const auto& [point, hits] : env->faults()->Points()) {
      for (const char* gate : crash_matrix::kInstantRecoveryPoints) {
        if (point == gate) gate_hits.emplace_back(point, hits);
      }
    }
  }
  ASSERT_EQ(gate_hits.size(),
            std::size(crash_matrix::kInstantRecoveryPoints));

  for (const auto& [point, hits] : gate_hits) {
    for (uint64_t hit : std::set<uint64_t>{1, (hits + 1) / 2, hits}) {
      const std::string context =
          point + "#" + std::to_string(hit) + " of " + std::to_string(hits);
      SCOPED_TRACE(context);
      auto env = BuildMidWorkloadCrash();
      FaultSpec spec;
      spec.point = point;
      spec.kind = FaultKind::kCrash;
      spec.hit = hit;
      env->faults()->Arm(spec);

      // The crash fires inside Open (undo's first touch of a pending
      // page) or during post-open use; finalize whichever state results.
      std::unique_ptr<StableHeap> heap;
      Status s = DriveInstantReopen(env.get(), &heap);
      ASSERT_TRUE(s.IsCrashed())
          << "armed gate crash did not fire (" << s.ToString() << ")";
      EXPECT_EQ(env->faults()->crash_point(), point);
      if (heap != nullptr) {
        EXPECT_EQ(heap->recovery_stats().outcome, RecoveryOutcome::kAborted);
        CrashOptions crash;
        crash.writeback_fraction = 0.5;
        crash.seed = 7 + hit;
        crash.tear_tail_bytes = (hit % 2 == 0) ? 160 : 0;
        ASSERT_TRUE(heap->SimulateCrash(crash).ok());
        heap.reset();
      }
      VerifyRecovered(env.get(), context);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CrashMatrixTest, InstantReopenRecoversEveryWorkloadCrashPoint) {
  // A slice of the main matrix with the gate on: crash the workload at the
  // first hit of each point, then verify through an *instant* reopen —
  // every invariant must hold while redo completes behind the gate.
  const auto points = TraceWorkloadPoints();
  uint64_t crash_states = 0;
  for (const auto& [point, hits] : points) {
    const std::string context = point + "#1 (instant reopen)";
    SCOPED_TRACE(context);
    auto env = std::make_unique<SimEnv>();
    FaultSpec spec;
    spec.point = point;
    spec.kind = FaultKind::kCrash;
    spec.hit = 1;
    env->faults()->Arm(spec);
    std::unique_ptr<StableHeap> heap;
    Status s = RunScriptedWorkload(env.get(), &heap);
    ASSERT_TRUE(s.IsCrashed()) << s.ToString();
    if (heap != nullptr) {
      ASSERT_TRUE(heap->SimulateCrash(CrashOptions{0.5, 2, 96}).ok());
      heap.reset();
    }
    std::unique_ptr<StableHeap> reopened;
    ASSERT_TRUE(DriveInstantReopen(env.get(), &reopened).ok());
    // Post-drain, the reopened heap passes the same checks the offline
    // matrix applies: conservation, in-doubt resolution, new work, GC.
    Bank bank(reopened.get(), 0);
    if (bank.Attach().ok()) {
      auto total = bank.TotalBalance();
      ASSERT_TRUE(total.ok()) << total.status().ToString();
      EXPECT_EQ(*total, kTotal) << "balance not conserved";
    }
    auto in_doubt = reopened->InDoubtTransactions();
    ASSERT_LE(in_doubt.size(), 1u);
    if (!in_doubt.empty()) {
      EXPECT_EQ(in_doubt[0].second, kInDoubtGtid);
      EXPECT_TRUE(reopened->AbortPrepared(in_doubt[0].first).ok());
    }
    ASSERT_TRUE(reopened->CollectStableFully().ok());
    ++crash_states;
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(crash_states, 12u);
}

// --------------------------------------------------------- group commit

StableHeapOptions GroupMatrixOptions() {
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  opts.group_commit = true;
  opts.group_commit_options.max_batch = 4;
  return opts;
}

/// A write whose Commit returned OK before the crash: the group-commit
/// durability contract says recovery must preserve it.
struct AckedWrite {
  uint64_t root;
  uint64_t slot;
  uint64_t value;
};

constexpr uint64_t kGroupArrays = 4;
constexpr uint64_t kGroupWaves = 6;

/// Waves of kGroupArrays transactions (one per root object, so they can
/// all queue in the same batch) committed through the commit queue. Every
/// acknowledged (root, slot, value) is recorded in *acked before the next
/// action runs, so a crash anywhere leaves `acked` = exactly the commits
/// the application saw succeed.
Status RunGroupCommitWorkload(SimEnv* env,
                              std::unique_ptr<StableHeap>* heap_out,
                              std::vector<AckedWrite>* acked) {
  auto opened = StableHeap::Open(env, GroupMatrixOptions());
  if (!opened.ok()) return opened.status();
  std::unique_ptr<StableHeap>& heap = *heap_out;
  heap = std::move(*opened);

  {
    auto txn = heap->Begin();
    if (!txn.ok()) return txn.status();
    for (uint64_t i = 0; i < kGroupArrays; ++i) {
      auto arr = heap->AllocateStable(*txn, kClassDataArray, kGroupWaves);
      if (!arr.ok()) return arr.status();
      SHEAP_RETURN_IF_ERROR(heap->SetRoot(*txn, i, *arr));
    }
    SHEAP_RETURN_IF_ERROR(heap->CommitSync(*txn));
  }

  for (uint64_t wave = 0; wave < kGroupWaves; ++wave) {
    struct Pending {
      TxnId txn;
      uint64_t root;
      uint64_t value;
      bool done = false;
    };
    std::vector<Pending> pending;
    for (uint64_t i = 0; i < kGroupArrays; ++i) {
      auto txn = heap->Begin();
      if (!txn.ok()) return txn.status();
      auto arr = heap->GetRoot(*txn, i);
      if (!arr.ok()) return arr.status();
      const uint64_t value = 1000 + wave * kGroupArrays + i;
      SHEAP_RETURN_IF_ERROR(heap->WriteScalar(*txn, *arr, wave, value));
      pending.push_back({*txn, i, value, false});
    }
    // Round-robin commit retries: the fourth committer fills the batch
    // and leads the force (kGroupArrays == max_batch).
    size_t remaining = pending.size();
    while (remaining > 0) {
      for (auto& p : pending) {
        if (p.done) continue;
        Status st = heap->Commit(p.txn);
        if (st.IsBusy()) continue;
        SHEAP_RETURN_IF_ERROR(st);  // a crash point fires through here
        acked->push_back({p.root, wave, p.value});
        p.done = true;
        --remaining;
      }
    }
  }
  return Status::OK();
}

void VerifyGroupCommitRecovered(SimEnv* env,
                                const std::vector<AckedWrite>& acked,
                                const std::string& context) {
  SCOPED_TRACE(context);
  auto reopened = StableHeap::Open(env, GroupMatrixOptions());
  ASSERT_TRUE(reopened.ok())
      << "recovery failed: " << reopened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*reopened);

  // OK => durable: every acknowledged commit survived the crash.
  auto txn = heap->Begin();
  ASSERT_TRUE(txn.ok());
  for (const AckedWrite& w : acked) {
    auto arr = heap->GetRoot(*txn, w.root);
    ASSERT_TRUE(arr.ok()) << arr.status().ToString();
    auto got = heap->ReadScalar(*txn, *arr, w.slot);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, w.value) << "acknowledged commit lost: root " << w.root
                             << " slot " << w.slot;
  }
  ASSERT_TRUE(heap->CommitSync(*txn).ok());

  // The recovered heap still accepts group-committed work.
  auto t2 = heap->Begin();
  ASSERT_TRUE(t2.ok());
  auto obj = heap->AllocateStable(*t2, kClassDataArray, 1);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_TRUE(heap->WriteScalar(*t2, *obj, 0, 7).ok());
  ASSERT_TRUE(heap->CommitSync(*t2).ok());
}

TEST(CrashMatrixTest, GroupCommitNeverLosesAcknowledgedCommits) {
  // Enumerate the batch-leader crash points under tracing mode.
  uint64_t leader_hits = 0;
  uint64_t durable_hits = 0;
  {
    auto env = std::make_unique<SimEnv>();
    env->faults()->set_tracing(true);
    std::unique_ptr<StableHeap> heap;
    std::vector<AckedWrite> acked;
    Status s = RunGroupCommitWorkload(env.get(), &heap, &acked);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(acked.size(), kGroupArrays * kGroupWaves);
    for (const auto& [point, hits] : env->faults()->Points()) {
      if (point == "wal.group.leader_force") leader_hits = hits;
      if (point == "wal.group.batch_durable") durable_hits = hits;
    }
  }
  // One leader force per wave (plus the setup commit's deadline close);
  // the post-force point fires exactly as often as the pre-force one.
  ASSERT_GE(leader_hits, kGroupWaves);
  ASSERT_EQ(durable_hits, leader_hits);

  // Crash at the first / middle / last occurrence of each point, with and
  // without a torn tail; no waiter may observe a commit recovery loses.
  for (const char* point : crash_matrix::kGroupCommitPoints) {
    for (uint64_t hit :
         std::set<uint64_t>{1, (leader_hits + 1) / 2, leader_hits}) {
      const uint64_t tear = (hit % 2 == 0) ? 160 : 0;
      const std::string context = std::string(point) + "#" +
                                  std::to_string(hit) +
                                  " tear=" + std::to_string(tear);
      SCOPED_TRACE(context);
      auto env = std::make_unique<SimEnv>();
      FaultSpec spec;
      spec.point = point;
      spec.kind = FaultKind::kCrash;
      spec.hit = hit;
      env->faults()->Arm(spec);

      std::unique_ptr<StableHeap> heap;
      std::vector<AckedWrite> acked;
      Status s = RunGroupCommitWorkload(env.get(), &heap, &acked);
      ASSERT_TRUE(s.IsCrashed())
          << "armed crash did not fire (" << s.ToString() << ")";
      if (heap != nullptr) {
        CrashOptions crash;
        crash.writeback_fraction = 0.5;
        crash.seed = 1 + hit;
        crash.tear_tail_bytes = tear;
        ASSERT_TRUE(heap->SimulateCrash(crash).ok());
        heap.reset();
      }
      VerifyGroupCommitRecovered(env.get(), acked, context);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ------------------------------------------------ 2PC coordinator crashes
//
// The dtx.coord.* points fire on the *coordinator's* SimEnv injector, so
// they get their own harness: a two-shard ShardedHeap whose cross-shard
// transfers run presumed-abort 2PC through the coordinator log. The three
// crash windows are the protocol's load-bearing ones:
//   * dtx.coord.prepared — every vote durable, no decision: reopen must
//     roll every participant back (no-decision-implies-abort);
//   * dtx.coord.decision_forced — decision durable, no participant acks:
//     reopen must commit every branch (the decision record IS the commit
//     point, so OK-implies-durable even though the caller never saw OK);
//   * dtx.coord.resolve_step — crash *during* in-doubt resolution on
//     reopen: the next reopen finishes idempotently, applying each branch
//     exactly once.

constexpr uint32_t kDtxShards = 2;
constexpr uint64_t kDtxAccounts = 32;
constexpr uint64_t kDtxTotal = kDtxShards * kDtxAccounts * kInitialBalance;

ShardedHeapOptions DtxMatrixOptions() {
  ShardedHeapOptions opts;
  opts.shards = kDtxShards;
  opts.shard_options.stable_space_pages = 128;
  opts.shard_options.volatile_space_pages = 64;
  opts.shard_options.divided_heap = false;
  // Group commit on: the 2PC decision's per-branch commit records ride
  // the participants' batches, so the crash states include open batches.
  opts.shard_options.group_commit = true;
  opts.parallel_open = false;
  return opts;
}

struct DtxCluster {
  std::vector<std::unique_ptr<SimEnv>> shard_envs;
  std::unique_ptr<SimEnv> coord_env;

  DtxCluster() {
    for (uint32_t i = 0; i < kDtxShards; ++i) {
      shard_envs.push_back(std::make_unique<SimEnv>());
    }
    coord_env = std::make_unique<SimEnv>();
  }

  StatusOr<std::unique_ptr<ShardedHeap>> Open() {
    std::vector<SimEnv*> envs;
    for (auto& e : shard_envs) envs.push_back(e.get());
    return ShardedHeap::Open(envs, coord_env.get(), DtxMatrixOptions());
  }
};

/// Cross-shard transfer: account `acct` of shard 0 pays the same account
/// index on shard 1. Always a two-participant 2PC.
Status DtxTransfer(ShardedHeap* heap, uint64_t acct, uint64_t amount) {
  SHEAP_ASSIGN_OR_RETURN(GTxnId txn, heap->Begin());
  SHEAP_ASSIGN_OR_RETURN(GRef from, heap->GetRoot(txn, 0));
  SHEAP_ASSIGN_OR_RETURN(GRef to, heap->GetRoot(txn, 1));
  SHEAP_ASSIGN_OR_RETURN(uint64_t fbal, heap->ReadScalar(txn, from, acct));
  SHEAP_ASSIGN_OR_RETURN(uint64_t tbal, heap->ReadScalar(txn, to, acct));
  SHEAP_RETURN_IF_ERROR(heap->WriteScalar(txn, from, acct, fbal - amount));
  SHEAP_RETURN_IF_ERROR(heap->WriteScalar(txn, to, acct, tbal + amount));
  return heap->CommitSync(txn);
}

/// Open the cluster and run three scripted cross-shard transfers (account
/// i moves 10 + i). Each transfer whose commit returned OK is recorded in
/// *acked before the next action, so a coordinator crash leaves `acked` =
/// exactly what the application saw succeed.
Status RunDtxWorkload(DtxCluster* cluster,
                      std::unique_ptr<ShardedHeap>* heap_out,
                      std::vector<uint64_t>* acked) {
  auto opened = cluster->Open();
  if (!opened.ok()) return opened.status();
  std::unique_ptr<ShardedHeap>& heap = *heap_out;
  heap = std::move(*opened);

  auto cls = heap->RegisterClass(std::vector<bool>(kDtxAccounts, false));
  if (!cls.ok()) return cls.status();
  for (uint32_t s = 0; s < kDtxShards; ++s) {
    SHEAP_ASSIGN_OR_RETURN(GTxnId txn, heap->Begin());
    SHEAP_ASSIGN_OR_RETURN(GRef bucket,
                           heap->AllocateOn(txn, s, *cls, kDtxAccounts));
    for (uint64_t a = 0; a < kDtxAccounts; ++a) {
      SHEAP_RETURN_IF_ERROR(
          heap->WriteScalar(txn, bucket, a, kInitialBalance));
    }
    SHEAP_RETURN_IF_ERROR(heap->SetRoot(txn, s, bucket));
    SHEAP_RETURN_IF_ERROR(heap->CommitSync(txn));
  }

  for (uint64_t i = 0; i < 3; ++i) {
    SHEAP_RETURN_IF_ERROR(DtxTransfer(heap.get(), i, 10 + i));
    acked->push_back(i);
  }
  return Status::OK();
}

/// Post-recovery invariants: every acknowledged transfer survived, the
/// crashed transfer is atomically all-in or all-out per `crashed_applied`,
/// nothing is left in doubt, and the grand total is conserved.
void VerifyDtxRecovered(ShardedHeap* heap,
                        const std::vector<uint64_t>& acked,
                        uint64_t crashed_acct, bool crashed_applied,
                        const std::string& context) {
  SCOPED_TRACE(context);
  for (uint32_t s = 0; s < kDtxShards; ++s) {
    EXPECT_TRUE(heap->shard(s)->InDoubtTransactions().empty())
        << "shard " << s << " left in doubt";
  }

  auto txn = heap->Begin();
  ASSERT_TRUE(txn.ok());
  auto from = heap->GetRoot(*txn, 0);
  auto to = heap->GetRoot(*txn, 1);
  ASSERT_TRUE(from.ok() && to.ok());
  uint64_t total = 0;
  for (uint64_t a = 0; a < kDtxAccounts; ++a) {
    auto fbal = heap->ReadScalar(*txn, *from, a);
    auto tbal = heap->ReadScalar(*txn, *to, a);
    ASSERT_TRUE(fbal.ok() && tbal.ok());
    uint64_t moved = 0;
    for (uint64_t i : acked) {
      if (i == a) moved = 10 + i;  // acknowledged: must be durable
    }
    if (a == crashed_acct && crashed_applied) moved = 10 + a;
    EXPECT_EQ(*fbal, kInitialBalance - moved) << "debit, account " << a;
    EXPECT_EQ(*tbal, kInitialBalance + moved) << "credit, account " << a;
    total += *fbal + *tbal;
  }
  ASSERT_TRUE(heap->CommitSync(*txn).ok());
  EXPECT_EQ(total, kDtxTotal) << "balance not conserved";

  // The recovered cluster accepts new cross-shard work.
  ASSERT_TRUE(DtxTransfer(heap, kDtxAccounts - 1, 1).ok());
}

TEST(CrashMatrixTest, CoordinatorCrashSurfaceMatchesManifest) {
  // The commit path reaches dtx.coord.prepared and decision_forced once
  // per cross-shard transfer; resolve_step is reached by reopening over an
  // in-doubt state. Together the two runs must cover exactly the
  // kDtxCoordinatorPoints manifest. (The coordinator's own LogWriter also
  // fires wal.* points on this env; only the dtx.* surface is at issue.)
  std::set<std::string> names;

  {  // Commit path, traced end to end.
    DtxCluster cluster;
    cluster.coord_env->faults()->set_tracing(true);
    std::unique_ptr<ShardedHeap> heap;
    std::vector<uint64_t> acked;
    ASSERT_TRUE(RunDtxWorkload(&cluster, &heap, &acked).ok());
    for (const auto& [point, hits] : cluster.coord_env->faults()->Points()) {
      if (point.rfind("dtx.", 0) != 0) continue;
      EXPECT_EQ(hits, 3u) << point;  // once per scripted transfer
      names.insert(point);
    }
    EXPECT_EQ(names, (std::set<std::string>{"dtx.coord.prepared",
                                            "dtx.coord.decision_forced"}));
  }

  {  // Resolution path: crash mid-2PC, reopen under tracing.
    DtxCluster cluster;
    FaultSpec spec;
    spec.point = "dtx.coord.decision_forced";
    spec.kind = FaultKind::kCrash;
    spec.hit = 1;
    cluster.coord_env->faults()->Arm(spec);
    std::unique_ptr<ShardedHeap> heap;
    std::vector<uint64_t> acked;
    ASSERT_TRUE(RunDtxWorkload(&cluster, &heap, &acked).IsCrashed());
    ASSERT_TRUE(heap->SimulateCrashAll(CrashOptions{0.5, 3, 96}).ok());
    heap.reset();
    cluster.coord_env->faults()->set_tracing(true);
    auto reopened = cluster.Open();
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    uint64_t resolve_hits = 0;
    for (const auto& [point, hits] : cluster.coord_env->faults()->Points()) {
      if (point == std::string("dtx.coord.resolve_step")) {
        resolve_hits = hits;
        names.insert(point);
      }
    }
    EXPECT_EQ(resolve_hits, kDtxShards);  // one step per in-doubt branch
  }

  const std::set<std::string> manifest(
      std::begin(crash_matrix::kDtxCoordinatorPoints),
      std::end(crash_matrix::kDtxCoordinatorPoints));
  EXPECT_EQ(names, manifest)
      << "tests/crash_matrix_points.h kDtxCoordinatorPoints drifted from "
         "the surface these workloads reach";
}

TEST(CrashMatrixTest, CoordinatorCrashBeforeDecisionPresumesAbort) {
  // Crash between prepare-durable and decision-force: every vote is on
  // disk but no decision exists, so reopen must abort all branches.
  for (uint64_t hit : {1u, 3u}) {
    const std::string context =
        "dtx.coord.prepared#" + std::to_string(hit);
    SCOPED_TRACE(context);
    DtxCluster cluster;
    FaultSpec spec;
    spec.point = "dtx.coord.prepared";
    spec.kind = FaultKind::kCrash;
    spec.hit = hit;
    cluster.coord_env->faults()->Arm(spec);

    std::unique_ptr<ShardedHeap> heap;
    std::vector<uint64_t> acked;
    Status s = RunDtxWorkload(&cluster, &heap, &acked);
    ASSERT_TRUE(s.IsCrashed())
        << "armed crash did not fire (" << s.ToString() << ")";
    EXPECT_EQ(cluster.coord_env->faults()->crash_point(),
              "dtx.coord.prepared");
    EXPECT_EQ(acked.size(), hit - 1);
    ASSERT_TRUE(heap->SimulateCrashAll(CrashOptions{0.5, 11 + hit, 96}).ok());
    heap.reset();

    auto reopened = cluster.Open();
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<ShardedHeap> recovered = std::move(*reopened);
    const ShardedHeapStats stats = recovered->stats();
    EXPECT_EQ(stats.dtx.resolved_abort, kDtxShards);  // one branch per shard
    EXPECT_EQ(stats.dtx.resolved_commit, 0u);
    VerifyDtxRecovered(recovered.get(), acked, /*crashed_acct=*/hit - 1,
                       /*crashed_applied=*/false, context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, CoordinatorCrashAfterDecisionCommitsOnReopen) {
  // Crash after the decision force but before any participant ack: the
  // decision record is the commit point, so reopen must commit every
  // branch even though the application never saw OK.
  for (uint64_t hit : {1u, 3u}) {
    const std::string context =
        "dtx.coord.decision_forced#" + std::to_string(hit);
    SCOPED_TRACE(context);
    DtxCluster cluster;
    FaultSpec spec;
    spec.point = "dtx.coord.decision_forced";
    spec.kind = FaultKind::kCrash;
    spec.hit = hit;
    cluster.coord_env->faults()->Arm(spec);

    std::unique_ptr<ShardedHeap> heap;
    std::vector<uint64_t> acked;
    Status s = RunDtxWorkload(&cluster, &heap, &acked);
    ASSERT_TRUE(s.IsCrashed())
        << "armed crash did not fire (" << s.ToString() << ")";
    EXPECT_EQ(cluster.coord_env->faults()->crash_point(),
              "dtx.coord.decision_forced");
    EXPECT_EQ(acked.size(), hit - 1);
    ASSERT_TRUE(heap->SimulateCrashAll(CrashOptions{0.5, 17 + hit, 96}).ok());
    heap.reset();

    auto reopened = cluster.Open();
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<ShardedHeap> recovered = std::move(*reopened);
    const ShardedHeapStats stats = recovered->stats();
    EXPECT_EQ(stats.dtx.resolved_commit, kDtxShards);
    EXPECT_EQ(stats.dtx.resolved_abort, 0u);
    VerifyDtxRecovered(recovered.get(), acked, /*crashed_acct=*/hit - 1,
                       /*crashed_applied=*/true, context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, CoordinatorCrashDuringResolutionIsIdempotent) {
  // Crash *during* in-doubt resolution on reopen, at each step: the
  // branches resolved before the crash are committed, the rest stay in
  // doubt holding their locks, and the next reopen finishes the job from
  // the decision log — each branch applied exactly once.
  for (uint64_t hit : {1u, 2u}) {
    const std::string context =
        "dtx.coord.resolve_step#" + std::to_string(hit);
    SCOPED_TRACE(context);
    DtxCluster cluster;
    // Build the in-doubt state: decision durable, no acks.
    FaultSpec spec;
    spec.point = "dtx.coord.decision_forced";
    spec.kind = FaultKind::kCrash;
    spec.hit = 1;
    cluster.coord_env->faults()->Arm(spec);
    std::unique_ptr<ShardedHeap> heap;
    std::vector<uint64_t> acked;
    Status s = RunDtxWorkload(&cluster, &heap, &acked);
    ASSERT_TRUE(s.IsCrashed()) << s.ToString();
    ASSERT_TRUE(heap->SimulateCrashAll(CrashOptions{0.5, 29 + hit, 96}).ok());
    heap.reset();

    // First reopen crashes at resolution step `hit` (one step per
    // restored prepared transaction, shard order).
    FaultSpec second;
    second.point = "dtx.coord.resolve_step";
    second.kind = FaultKind::kCrash;
    second.hit = hit;
    cluster.coord_env->faults()->Arm(second);
    auto failed = cluster.Open();
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsCrashed()) << failed.status().ToString();
    EXPECT_EQ(cluster.coord_env->faults()->crash_point(),
              "dtx.coord.resolve_step");

    // Second reopen: the one-shot is consumed; resolution must converge.
    auto reopened = cluster.Open();
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<ShardedHeap> recovered = std::move(*reopened);
    // Steps before the crash already committed their branch; the rest
    // resolve now. Either way the transfer lands exactly once.
    EXPECT_EQ(recovered->stats().dtx.resolved_commit,
              kDtxShards - (hit - 1));
    VerifyDtxRecovered(recovered.get(), acked, /*crashed_acct=*/0,
                       /*crashed_applied=*/true, context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sheap
