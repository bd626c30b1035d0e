// Instant recovery (StableHeapOptions::instant_recovery, see
// src/recovery/instant_redo.h): Open returns right after analysis + undo
// with the redo plan parked behind a per-page gate; pages are redone on
// demand at first touch and in cooperative drain batches at action
// boundaries. The contract tested here:
//
//   * the heap opens before any planned redo work has run (time-to-open is
//     independent of the redo backlog),
//   * the recovered machine state — disk page bytes + page LSNs, the space
//     table, the UTT, the in-doubt set — is byte-identical to offline
//     recovery for *every* first-touch order and drain thread count (the
//     log may differ: fetch/end-write records depend on access order),
//   * a crash mid-drain or mid-on-demand-redo recovers, offline, to the
//     same state as if the gate had never existed, and
//   * a transient-I/O storm during the drain surfaces retries and typed
//     errors (latency) but never changes the converged state (correctness).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/stable_heap.h"
#include "fault/fault_injector.h"
#include "util/coder.h"
#include "workload/workloads.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

StableHeapOptions BaseOptions() {
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  opts.divided_heap = false;
  opts.buffer_pool_frames = 4096;
  return opts;
}

StableHeapOptions InstantOptions(uint32_t drain_threads) {
  StableHeapOptions opts = BaseOptions();
  opts.instant_recovery = true;
  opts.recovery_threads = drain_threads;
  opts.instant_drain_pages = 2;  // small batches: many cooperative steps
  return opts;
}

/// Deterministic crashed image (same recipe as recovery_parallel_test): a
/// directory of page-sized objects, full writeback + checkpoint, updates
/// spanning many pages, an uncommitted loser, optionally a mid-flight
/// incremental collection — then a partial-writeback torn-tail crash.
/// `midflight_gc` is off for the first-touch-order tests: with a
/// collection in progress, post-open reads would copy objects through the
/// read barrier and the state would (correctly) depend on what was read.
std::unique_ptr<SimEnv> BuildCrashedEnv(const StableHeapOptions& opts,
                                        bool midflight_gc) {
  auto env = std::make_unique<SimEnv>();
  auto opened = StableHeap::Open(env.get(), opts);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);

  constexpr uint64_t kObjects = 48;
  const uint64_t slots = kPageSizeBytes / kWordSizeBytes - 1;
  ClassId big = *heap->RegisterClass(std::vector<bool>(slots, false));
  ClassId dir = *heap->RegisterClass(std::vector<bool>(kObjects, true));

  TxnId setup = *heap->Begin();
  Ref dref = *heap->AllocateStable(setup, dir, kObjects);
  EXPECT_TRUE(heap->SetRoot(setup, 0, dref).ok());
  for (uint64_t i = 0; i < kObjects; ++i) {
    Ref obj = *heap->AllocateStable(setup, big, slots);
    EXPECT_TRUE(heap->WriteRef(setup, dref, i, obj).ok());
  }
  EXPECT_TRUE(heap->Commit(setup).ok());
  EXPECT_TRUE(heap->WriteBackPages(1.0, 5).ok());
  EXPECT_TRUE(heap->Checkpoint().ok());

  // Redo work on many distinct pages.
  TxnId txn = *heap->Begin();
  Ref d2 = *heap->GetRoot(txn, 0);
  for (uint64_t i = 0; i < kObjects; ++i) {
    Ref obj = *heap->ReadRef(txn, d2, i);
    for (uint64_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(heap->WriteScalar(txn, obj, (i + k) % slots, i + k).ok());
    }
  }
  EXPECT_TRUE(heap->Commit(txn).ok());

  // A loser for undo to abort: its CLR touches a planned page, so undo
  // itself goes through the gate during Open.
  TxnId loser = *heap->Begin();
  Ref d3 = *heap->GetRoot(loser, 0);
  Ref victim = *heap->ReadRef(loser, d3, 7);
  EXPECT_TRUE(heap->WriteScalar(loser, victim, 3, 9999).ok());

  if (midflight_gc) {
    EXPECT_TRUE(heap->StartStableCollection().ok());
    EXPECT_TRUE(heap->StepStableCollection(6).ok());
  }

  EXPECT_TRUE(heap->SimulateCrash(CrashOptions{0.5, 23, 96}).ok());
  heap.reset();
  return env;
}

/// The recovered machine state compared across recovery modes. The log is
/// deliberately absent: kPageFetch / kEndWrite records depend on the
/// access order, which is exactly what instant recovery varies.
struct HeapState {
  RecoveryStats stats;
  std::vector<PageImage> pages;  // every page slot on the sim disk
  std::vector<uint8_t> spaces_enc;
  std::vector<uint8_t> utt_enc;
  std::vector<std::pair<TxnId, uint64_t>> in_doubt;
};

/// Snapshot stats + tables, flush every frame, and read the disk back.
HeapState FinishAndSnapshot(SimEnv* env, StableHeap* heap,
                            const StableHeapOptions& opts) {
  HeapState s;
  s.stats = heap->recovery_stats();
  s.in_doubt = heap->InDoubtTransactions();
  Encoder spaces_enc(&s.spaces_enc);
  heap->spaces()->EncodeTo(&spaces_enc);
  Encoder utt_enc(&s.utt_enc);
  heap->utt()->EncodeTo(&utt_enc);
  EXPECT_TRUE(heap->pool()->FlushAll().ok());
  const uint64_t npages =
      (opts.stable_space_pages + opts.volatile_space_pages) * 2 + 64;
  for (PageId pid = 0; pid < npages; ++pid) {
    PageImage img;
    EXPECT_TRUE(env->disk()->ReadPage(pid, &img).ok());
    s.pages.push_back(img);
  }
  return s;
}

HeapState RecoverOffline(bool midflight_gc) {
  StableHeapOptions opts = BaseOptions();
  std::unique_ptr<SimEnv> env = BuildCrashedEnv(opts, midflight_gc);
  auto opened = StableHeap::Open(env.get(), opts);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);
  EXPECT_EQ(heap->recovery_stats().outcome, RecoveryOutcome::kComplete);
  return FinishAndSnapshot(env.get(), heap.get(), opts);
}

/// First-touch orders over the gate's pending set.
enum class Touch {
  kNone,        // pure drain
  kAscending,   // every pending page, low to high
  kDescending,  // every pending page, high to low
  kShuffled,    // seeded permutation of a prefix of the pending set
};

/// Pin/Unpin each page (the raw fetch path the gate protects), optionally
/// interleaving empty transactions whose Begin/Commit run drain steps.
void TouchPages(StableHeap* heap, const std::vector<PageId>& order,
                bool interleave) {
  uint64_t n = 0;
  for (PageId pid : order) {
    auto frame = heap->pool()->Pin(pid);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame.ok()) heap->pool()->Unpin(pid);
    if (interleave && (++n % 8 == 0)) {
      auto txn = heap->Begin();
      EXPECT_TRUE(txn.ok()) << txn.status().ToString();
      if (txn.ok()) {
        EXPECT_TRUE(heap->Commit(*txn).ok());
      }
    }
  }
}

HeapState RecoverInstant(bool midflight_gc, uint32_t drain_threads,
                         Touch touch, bool interleave = false,
                         uint32_t seed = 0) {
  StableHeapOptions opts = InstantOptions(drain_threads);
  std::unique_ptr<SimEnv> env = BuildCrashedEnv(opts, midflight_gc);
  auto opened = StableHeap::Open(env.get(), opts);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);
  EXPECT_EQ(heap->recovery_stats().outcome,
            RecoveryOutcome::kOpenPendingRedo);

  std::vector<PageId> order;
  for (const auto& [pid, rec_lsn] : heap->instant_redo()->PendingDirtyPages()) {
    order.push_back(pid);
  }
  EXPECT_FALSE(order.empty());
  switch (touch) {
    case Touch::kNone:
      order.clear();
      break;
    case Touch::kAscending:
      break;
    case Touch::kDescending:
      std::reverse(order.begin(), order.end());
      break;
    case Touch::kShuffled: {
      std::mt19937 rng(seed);
      std::shuffle(order.begin(), order.end(), rng);
      // A seed-dependent prefix: the rest is left to the drain.
      order.resize(1 + order.size() * (seed % 5) / 5);
      break;
    }
  }
  TouchPages(heap.get(), order, interleave);

  EXPECT_TRUE(heap->DrainInstantRecovery().ok());
  HeapState s = FinishAndSnapshot(env.get(), heap.get(), opts);
  EXPECT_EQ(s.stats.outcome, RecoveryOutcome::kInstantComplete);
  EXPECT_EQ(s.stats.pending_pages, 0u);
  return s;
}

/// Machine-state equality (pages, tables, in-doubt set) across modes.
void ExpectSameState(const HeapState& a, const HeapState& b,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.in_doubt, b.in_doubt);
  EXPECT_EQ(a.spaces_enc, b.spaces_enc) << "space table diverged";
  EXPECT_EQ(a.utt_enc, b.utt_enc) << "UTT diverged";
  ASSERT_EQ(a.pages.size(), b.pages.size());
  for (size_t i = 0; i < a.pages.size(); ++i) {
    EXPECT_EQ(a.pages[i].page_lsn, b.pages[i].page_lsn) << "page " << i;
    ASSERT_EQ(0, std::memcmp(a.pages[i].data.data(), b.pages[i].data.data(),
                             kPageSizeBytes))
        << "page " << i << " bytes diverged";
  }
}

/// Recovery *work* equality: instant recovery must do exactly the offline
/// record set, just later.
void ExpectSameRecoveryWork(const HeapState& offline,
                            const HeapState& instant) {
  EXPECT_EQ(offline.stats.analysis_records, instant.stats.analysis_records);
  EXPECT_EQ(offline.stats.redo_records_seen, instant.stats.redo_records_seen);
  EXPECT_EQ(offline.stats.redo_records_applied,
            instant.stats.redo_records_applied);
  EXPECT_EQ(offline.stats.undo_records, instant.stats.undo_records);
  EXPECT_EQ(offline.stats.clrs_written, instant.stats.clrs_written);
  EXPECT_EQ(offline.stats.losers_aborted, instant.stats.losers_aborted);
  EXPECT_EQ(offline.stats.log_bytes_read, instant.stats.log_bytes_read);
}

TEST(InstantRecoveryTest, OpensBeforeRedoCompletes) {
  StableHeapOptions opts = InstantOptions(1);
  std::unique_ptr<SimEnv> env = BuildCrashedEnv(opts, /*midflight_gc=*/true);
  auto opened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);

  // Open returned with the backlog parked, nothing applied yet beyond what
  // undo's own touches forced through the gate.
  RecoveryStats at_open = heap->recovery_stats();
  EXPECT_EQ(at_open.outcome, RecoveryOutcome::kOpenPendingRedo);
  EXPECT_GT(at_open.pending_pages, 0u);
  EXPECT_EQ(at_open.drained_pages, 0u);
  EXPECT_GT(at_open.redo_records_seen, 0u);

  // Offline recovery of the same image pays the full redo inside Open.
  HeapState offline = RecoverOffline(/*midflight_gc=*/true);
  EXPECT_LT(at_open.time_to_open_ns, offline.stats.time_to_open_ns);

  // The backlog drains to completion and lands on the offline record set.
  ASSERT_TRUE(heap->DrainInstantRecovery().ok());
  RecoveryStats done = heap->recovery_stats();
  EXPECT_EQ(done.outcome, RecoveryOutcome::kInstantComplete);
  EXPECT_EQ(done.pending_pages, 0u);
  EXPECT_GT(done.ondemand_pages + done.drained_pages, 0u);
  EXPECT_EQ(done.redo_records_applied, offline.stats.redo_records_applied);
}

TEST(InstantRecoveryTest, ThreeWayByteDeterminism) {
  // Offline vs adversarial first-touch orders vs drain thread counts: the
  // recovered machine state is byte-identical in every combination.
  HeapState offline = RecoverOffline(/*midflight_gc=*/false);
  EXPECT_GT(offline.stats.redo_records_applied, 0u);
  EXPECT_GT(offline.stats.losers_aborted, 0u);

  struct Arm {
    uint32_t threads;
    Touch touch;
    bool interleave;
    const char* name;
  };
  const Arm arms[] = {
      {1, Touch::kNone, false, "drain1"},
      {2, Touch::kNone, false, "drain2"},
      {4, Touch::kNone, false, "drain4"},
      {1, Touch::kAscending, false, "ascending"},
      {2, Touch::kDescending, false, "descending"},
      {4, Touch::kDescending, true, "descending+interleaved"},
  };
  for (const Arm& arm : arms) {
    HeapState instant =
        RecoverInstant(/*midflight_gc=*/false, arm.threads, arm.touch,
                       arm.interleave);
    ExpectSameState(offline, instant, arm.name);
    ExpectSameRecoveryWork(offline, instant);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(InstantRecoveryTest, MidFlightGcDrainMatchesOffline) {
  // The crashed image holds an interrupted collection: its copy/scan
  // records redo through the gate exactly as offline.
  HeapState offline = RecoverOffline(/*midflight_gc=*/true);
  for (uint32_t threads : {1u, 2u, 4u}) {
    HeapState instant =
        RecoverInstant(/*midflight_gc=*/true, threads, Touch::kNone);
    ExpectSameState(offline, instant,
                    "gc drain threads=" + std::to_string(threads));
    ExpectSameRecoveryWork(offline, instant);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(InstantRecoveryTest, RandomFirstTouchOrdersConverge) {
  // Property: any seeded random first-touch order (a shuffled prefix of
  // the pending set, interleaved with drain steps) converges to the
  // offline-recovery byte-identical state.
  HeapState offline = RecoverOffline(/*midflight_gc=*/false);
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    HeapState instant = RecoverInstant(/*midflight_gc=*/false,
                                       /*drain_threads=*/1 + seed % 4,
                                       Touch::kShuffled,
                                       /*interleave=*/seed % 2 == 0, seed);
    ExpectSameState(offline, instant, "seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

#if SHEAP_FAULT_INJECTION

TEST(InstantRecoveryTest, ReopenAfterCrashMidDrainMatchesOffline) {
  HeapState offline = RecoverOffline(/*midflight_gc=*/true);
  for (uint64_t hit : {uint64_t{1}, uint64_t{5}}) {
    SCOPED_TRACE("drain crash hit=" + std::to_string(hit));
    StableHeapOptions opts = InstantOptions(2);
    std::unique_ptr<SimEnv> env = BuildCrashedEnv(opts, /*midflight_gc=*/true);

    FaultSpec spec;
    spec.point = "recovery.drain.step";
    spec.kind = FaultKind::kCrash;
    spec.hit = hit;
    env->faults()->Arm(spec);

    auto opened = StableHeap::Open(env.get(), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<StableHeap> heap = std::move(*opened);

    // Drive cooperative drain steps until the armed crash fires.
    Status st = Status::OK();
    for (int i = 0; i < 1000 && st.ok(); ++i) {
      auto txn = heap->Begin();
      st = txn.ok() ? heap->Commit(*txn) : txn.status();
    }
    ASSERT_TRUE(st.IsCrashed()) << st.ToString();
    EXPECT_EQ(env->faults()->crash_point(), "recovery.drain.step");
    EXPECT_EQ(heap->recovery_stats().outcome, RecoveryOutcome::kAborted);

    // Finalize the second crash (partial write-back of redone frames) and
    // recover offline: same state as if the gate had never existed.
    ASSERT_TRUE(heap->SimulateCrash(CrashOptions{0.5, 7 + hit, 0}).ok());
    heap.reset();

    StableHeapOptions plain = BaseOptions();
    auto reopened = StableHeap::Open(env.get(), plain);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<StableHeap> heap2 = std::move(*reopened);
    HeapState recovered = FinishAndSnapshot(env.get(), heap2.get(), plain);
    ExpectSameState(offline, recovered, "after mid-drain crash");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(InstantRecoveryTest, CrashDuringOnDemandRedoRecovers) {
  // The loser's CLR pins a planned page, so undo inside Open reaches the
  // on-demand window; a crash there aborts Open itself, and a plain reopen
  // converges to the offline state.
  HeapState offline = RecoverOffline(/*midflight_gc=*/true);
  StableHeapOptions opts = InstantOptions(2);
  std::unique_ptr<SimEnv> env = BuildCrashedEnv(opts, /*midflight_gc=*/true);

  FaultSpec spec;
  spec.point = "recovery.ondemand.page_redo";
  spec.kind = FaultKind::kCrash;
  spec.hit = 1;
  env->faults()->Arm(spec);

  auto opened = StableHeap::Open(env.get(), opts);
  if (opened.ok()) {
    // Undo did not touch a pending page; force a first touch instead.
    std::unique_ptr<StableHeap> heap = std::move(*opened);
    auto pending = heap->instant_redo()->PendingDirtyPages();
    ASSERT_FALSE(pending.empty());
    auto frame = heap->pool()->Pin(pending.front().first);
    ASSERT_FALSE(frame.ok());
    ASSERT_TRUE(frame.status().IsCrashed()) << frame.status().ToString();
    EXPECT_EQ(heap->recovery_stats().outcome, RecoveryOutcome::kAborted);
    ASSERT_TRUE(heap->SimulateCrash(CrashOptions{0.5, 11, 0}).ok());
    heap.reset();
  } else {
    ASSERT_TRUE(opened.status().IsCrashed()) << opened.status().ToString();
  }
  EXPECT_EQ(env->faults()->crash_point(), "recovery.ondemand.page_redo");

  StableHeapOptions plain = BaseOptions();
  auto reopened = StableHeap::Open(env.get(), plain);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<StableHeap> heap2 = std::move(*reopened);
  HeapState recovered = FinishAndSnapshot(env.get(), heap2.get(), plain);
  ExpectSameState(offline, recovered, "after on-demand crash");
}

TEST(InstantRecoveryTest, TransientStormDuringDrainDegradesOnlyLatency) {
  HeapState offline = RecoverOffline(/*midflight_gc=*/true);

  StableHeapOptions opts = InstantOptions(2);
  std::unique_ptr<SimEnv> env = BuildCrashedEnv(opts, /*midflight_gc=*/true);
  auto opened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);

  // Storm: a burst of transient read errors long enough to exhaust a
  // fetch's retry budget (kMaxIoRetries) and surface a typed IOError even
  // when two drain workers split the burst between their retry loops.
  uint64_t reads = 0;
  for (const auto& [site, hits] : env->faults()->IoSites()) {
    if (site == "disk.read") reads = hits;
  }
  FaultSpec storm;
  storm.point = "disk.read";
  storm.kind = FaultKind::kTransientError;
  storm.hit = reads + 1;
  storm.count = 2 * (kMaxIoRetries + 1);
  env->faults()->Arm(storm);

  const FaultStats before = env->faults()->stats();
  uint64_t surfaced = 0;
  Status st;
  do {
    st = heap->DrainInstantRecovery();
    if (!st.ok()) {
      ASSERT_TRUE(st.IsIOError()) << st.ToString();
      ++surfaced;
      ASSERT_LT(surfaced, 100u) << "storm never cleared";
    }
  } while (!st.ok());
  const FaultStats after = env->faults()->stats();

  // Latency degraded: retries burned, at least one budget exhausted, the
  // failed batch went back behind the gate and was retried.
  EXPECT_GE(surfaced, 1u);
  EXPECT_GT(after.retried, before.retried);
  EXPECT_GT(after.exhausted, before.exhausted);

  // Correctness untouched: the converged state is the offline state.
  EXPECT_EQ(heap->recovery_stats().outcome,
            RecoveryOutcome::kInstantComplete);
  HeapState instant = FinishAndSnapshot(env.get(), heap.get(), opts);
  ExpectSameState(offline, instant, "after transient storm");
}

#endif  // SHEAP_FAULT_INJECTION

}  // namespace
}  // namespace sheap
