// Recovery analysis rebuilds the stable collector's state (flip, copy and
// allocation frontiers, scan bitmap, Last Object Table, root array) from
// the checkpoint and the log without touching the heap (§3.5.3). These
// tests drive a collection through every step that changes that state —
// flip, Ellis traps that bump the copy frontier, executor rounds with clean
// runs, the frontier-page scan, allocations and promotions during the
// collection, Baker's partial scans — and after each step force the log,
// crash and reopen. While the collection is active the reopened collector
// must encode exactly the state the live one held; after completion its
// spaces, root object and page-scanned answers must match.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/stable_heap.h"
#include "storage/sim_env.h"
#include "util/coder.h"
#include "workload/graph_gen.h"

namespace sheap {
namespace {

using workload::BuildList;
using workload::BuildTree;
using workload::NodeClass;
using workload::RegisterNodeClass;

// gtest names each value-parameterized case after a dump of the
// parameter's bytes: no padding, no pointers (see gc_test.cc).
struct ReplayConfig {
  GcBarrierMode barrier;
  PromotionMethod promotion;
  /// Take a checkpoint mid-collection (after the barrier step), so later
  /// reopens start from it and replay only the log tail; otherwise every
  /// reopen rebuilds the collection from the log alone.
  bool checkpoint;
  uint8_t reserved[5] = {};
  char name[40] = {};
};
static_assert(std::has_unique_object_representations_v<ReplayConfig>);

constexpr uint64_t kBlobs = 128;     // scalar-only objects: clean pages
constexpr uint64_t kBlobSlots = 62;  // 504 bytes, 8 to a page
// The tree's root precedes the hub in the root array, so the scan of the
// page holding both copies the tree's children first and the hub's blobs
// last, up to the copy frontier.
constexpr uint64_t kTreeRoot = 0;
constexpr uint64_t kHubRoot = 1;
constexpr uint64_t kAllocRoot = 2;
constexpr uint64_t kPromotedRoot = 3;

/// What the collector holds, as recovery must rebuild it.
struct GcSnapshot {
  bool collecting = false;
  std::vector<uint8_t> encoded;  // the checkpoint payload of the state
  SemiSpaceState sem;
  HeapAddr root_object = kNullAddr;
  std::vector<bool> page_scanned;  // per page of the current space
};

GcSnapshot Capture(StableHeap* heap) {
  GcSnapshot s;
  AtomicGc* gc = heap->stable_gc();
  s.collecting = gc->collecting();
  Encoder enc(&s.encoded);
  gc->EncodeTo(&enc);
  s.sem = gc->sem();
  s.root_object = gc->root_object();
  const Space* cur = heap->spaces()->Find(s.sem.current);
  for (uint64_t i = 0; cur != nullptr && i < cur->npages; ++i) {
    s.page_scanned.push_back(
        gc->PageScanned(cur->base() + i * kPageSizeBytes));
  }
  return s;
}

class GcReplayTest : public ::testing::TestWithParam<ReplayConfig> {
 protected:
  StableHeapOptions Options() const {
    StableHeapOptions opts;
    opts.stable_space_pages = 64;
    opts.volatile_space_pages = 32;
    opts.divided_heap = true;
    opts.barrier_mode = GetParam().barrier;
    opts.promotion_method = GetParam().promotion;
    opts.auto_collect = false;
    opts.gc_step_pages = 0;  // the script alone advances the collection
    return opts;
  }

  /// Run script step `i`. Steps past the scripted ones scan one page each.
  Status RunStep(size_t i, StableHeap* heap) {
    switch (i) {
      case 0:
        return Setup(heap);
      case 1:
        return heap->StartStableCollection();
      case 2: {
        // Ellis: the root array's and the hub's pages trap while the copy
        // frontier is inside them, and so does the last blob's (a bump
        // that copies nothing). Baker: every from-space value read is
        // translated in place (a partial scan).
        SHEAP_RETURN_IF_ERROR(ReadBlobs(heap));
        return GetParam().checkpoint ? heap->Checkpoint() : Status::OK();
      }
      case 3:
        return ReadTree(heap);
      case 4:
        return heap->StepStableCollection(1);
      case 5:
        return heap->StepStableCollection(2);
      case 6:
        return AllocateStable(heap);
      case 7:
        return PromoteList(heap);
      case 8:
        // Materializes method-2 promotions: the collection cannot complete
        // while a pending object's husk forwards to an empty reservation.
        return heap->CollectVolatile();
      case 9:
        return ReadTree(heap);
      default:
        return heap->StepStableCollection(1);
    }
  }

  Status Setup(StableHeap* heap) {
    SHEAP_ASSIGN_OR_RETURN(node_, RegisterNodeClass(heap, 2));
    SHEAP_ASSIGN_OR_RETURN(blob_,
                           heap->RegisterClass(std::vector<bool>(kBlobSlots)));
    SHEAP_ASSIGN_OR_RETURN(
        hub_, heap->RegisterClass(std::vector<bool>(kBlobs, true)));
    SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap->Begin());
    SHEAP_ASSIGN_OR_RETURN(Ref hub, heap->AllocateStable(txn, hub_, kBlobs));
    for (uint64_t i = 0; i < kBlobs; ++i) {
      SHEAP_ASSIGN_OR_RETURN(Ref blob,
                             heap->AllocateStable(txn, blob_, kBlobSlots));
      SHEAP_RETURN_IF_ERROR(heap->WriteScalar(txn, blob, 0, i));
      SHEAP_RETURN_IF_ERROR(heap->WriteRef(txn, hub, i, blob));
      // Garbage between the live blobs.
      SHEAP_RETURN_IF_ERROR(
          heap->AllocateStable(txn, blob_, kBlobSlots).status());
    }
    SHEAP_RETURN_IF_ERROR(heap->SetRoot(txn, kHubRoot, hub));
    SHEAP_ASSIGN_OR_RETURN(Ref tree, BuildTree(heap, txn, node_, 4));
    SHEAP_RETURN_IF_ERROR(heap->SetRoot(txn, kTreeRoot, tree));
    return heap->Commit(txn);
  }

  Status ReadBlobs(StableHeap* heap) {
    SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap->Begin());
    SHEAP_ASSIGN_OR_RETURN(Ref hub, heap->GetRoot(txn, kHubRoot));
    // The blobs are copied in slot order after the tree's children, so
    // these two share pages with nothing but blobs, and the last one ends
    // on the copy frontier's page.
    for (uint64_t i : {kBlobs / 2, kBlobs - 1}) {
      SHEAP_ASSIGN_OR_RETURN(Ref blob, heap->ReadRef(txn, hub, i));
      SHEAP_ASSIGN_OR_RETURN(uint64_t v, heap->ReadScalar(txn, blob, 0));
      if (v != i) return Status::Corruption("blob payload changed");
    }
    return heap->Commit(txn);
  }

  Status ReadTree(StableHeap* heap) {
    SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap->Begin());
    SHEAP_ASSIGN_OR_RETURN(Ref tree, heap->GetRoot(txn, kTreeRoot));
    SHEAP_RETURN_IF_ERROR(heap->ReadRef(txn, tree, 1).status());
    return heap->Commit(txn);
  }

  Status AllocateStable(StableHeap* heap) {
    SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap->Begin());
    SHEAP_ASSIGN_OR_RETURN(Ref a, heap->AllocateStable(txn, node_.id, 3));
    SHEAP_ASSIGN_OR_RETURN(Ref b, heap->AllocateStable(txn, node_.id, 3));
    SHEAP_RETURN_IF_ERROR(heap->WriteRef(txn, a, 1, b));
    SHEAP_RETURN_IF_ERROR(heap->SetRoot(txn, kAllocRoot, a));
    return heap->Commit(txn);
  }

  /// Volatile objects made reachable from a stable root: promoted at
  /// commit (kV2sCopy) or reserved with initial values (kInitialValue).
  Status PromoteList(StableHeap* heap) {
    SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap->Begin());
    SHEAP_ASSIGN_OR_RETURN(Ref list, BuildList(heap, txn, node_, 6));
    SHEAP_RETURN_IF_ERROR(heap->SetRoot(txn, kPromotedRoot, list));
    return heap->Commit(txn);
  }

  /// Open a fresh heap and run steps [0, last].
  std::unique_ptr<StableHeap> RunTo(SimEnv* env, size_t last) {
    auto heap = StableHeap::Open(env, Options());
    EXPECT_TRUE(heap.ok()) << heap.status().ToString();
    if (!heap.ok()) return nullptr;
    for (size_t i = 0; i <= last; ++i) {
      Status st = RunStep(i, heap->get());
      EXPECT_TRUE(st.ok()) << "step " << i << ": " << st.ToString();
      if (!st.ok()) return nullptr;
    }
    return std::move(*heap);
  }

  NodeClass node_;
  ClassId blob_ = 0;
  ClassId hub_ = 0;
};

TEST_P(GcReplayTest, ReopenedCollectorHoldsTheLiveState) {
  // One live run to the end of the collection fixes the script's length
  // and proves it reaches every step kind.
  size_t last = 0;
  {
    SimEnv env;
    auto heap = RunTo(&env, 1);
    ASSERT_NE(heap, nullptr);
    const GcStats& gs = heap->stable_gc_stats();
    bool frontier_scan = false;
    for (last = 2; heap->stable_gc()->collecting(); ++last) {
      ASSERT_LT(last, 200u) << "collection does not finish";
      const GcStats before = gs;
      const Status st = RunStep(last, heap.get());
      ASSERT_TRUE(st.ok()) << "step " << last << ": " << st.ToString();
      // A page scanned by neither a trap nor an executor round: the
      // frontier page, finished Cheney-style.
      frontier_scan |= gs.pages_scanned > before.pages_scanned &&
                       gs.scan_rounds == before.scan_rounds &&
                       gs.read_barrier_traps == before.read_barrier_traps;
    }
    EXPECT_TRUE(frontier_scan);
    EXPECT_GT(gs.read_barrier_traps, 0u);
    EXPECT_GT(gs.scan_rounds, 0u);
    EXPECT_GT(gs.scan_run_records, 0u);
    EXPECT_GT(heap->promotion_stats().objects_promoted, 0u);
    if (GetParam().barrier == GcBarrierMode::kPageProtection) {
      EXPECT_GT(gs.waste_words, 0u);  // at least one trap bumped
    }
  }

  for (size_t k = 0; k < last; ++k) {
    SCOPED_TRACE("crash after step " + std::to_string(k));
    SimEnv env;
    auto heap = RunTo(&env, k);
    ASSERT_NE(heap, nullptr);
    const GcSnapshot live = Capture(heap.get());
    ASSERT_TRUE(heap->ForceLog().ok());
    CrashOptions crash;
    crash.seed = k + 1;
    ASSERT_TRUE(heap->SimulateCrash(crash).ok());
    heap.reset();

    auto reopened = StableHeap::Open(&env, Options());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const GcSnapshot replayed = Capture(reopened->get());
    if (GetParam().checkpoint && k > 2) {
      EXPECT_TRUE((*reopened)->recovery_stats().used_master_checkpoint);
    }
    ASSERT_EQ(replayed.collecting, live.collecting);
    if (live.collecting) {
      EXPECT_EQ(replayed.encoded, live.encoded);
    } else {
      EXPECT_EQ(replayed.sem.current, live.sem.current);
      EXPECT_EQ(replayed.sem.copy_ptr, live.sem.copy_ptr);
      EXPECT_EQ(replayed.sem.alloc_ptr, live.sem.alloc_ptr);
      EXPECT_EQ(replayed.root_object, live.root_object);
      EXPECT_EQ(replayed.page_scanned, live.page_scanned);
    }
  }
}

TEST_P(GcReplayTest, CompletesWithPromotionsStillPending) {
  // The script up to its promotions, then no CollectVolatile (step 8):
  // under kInitialValue the promoted list is still pending when the
  // collection completes, so completion must materialize it first.
  SimEnv env;
  auto heap = RunTo(&env, 7);
  ASSERT_NE(heap, nullptr);
  ASSERT_TRUE(heap->stable_gc()->collecting());
  for (int steps = 0; heap->stable_gc()->collecting(); ++steps) {
    ASSERT_LT(steps, 200) << "collection does not finish";
    const Status st = heap->StepStableCollection(1);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_TRUE(heap->pending_materializations()->empty());
  const GcSnapshot live = Capture(heap.get());
  ASSERT_TRUE(heap->ForceLog().ok());
  ASSERT_TRUE(heap->SimulateCrash(CrashOptions{}).ok());
  heap.reset();

  auto reopened = StableHeap::Open(&env, Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const GcSnapshot replayed = Capture(reopened->get());
  EXPECT_FALSE(replayed.collecting);
  EXPECT_EQ(replayed.sem.current, live.sem.current);
  EXPECT_EQ(replayed.sem.alloc_ptr, live.sem.alloc_ptr);
  EXPECT_EQ(replayed.root_object, live.root_object);
  // The promoted list survived whole: six nodes from the stable root.
  StableHeap* h = reopened->get();
  auto txn = h->Begin();
  ASSERT_TRUE(txn.ok());
  auto node = h->GetRoot(*txn, kPromotedRoot);
  size_t length = 0;
  for (; node.ok() && *node != kNullRef; ++length) {
    auto payload = h->ReadScalar(*txn, *node, 0);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(*payload, 1000 + length);
    node = h->ReadRef(*txn, *node, 1);
  }
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ(length, 6u);
  ASSERT_TRUE(h->Commit(*txn).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, GcReplayTest,
    ::testing::Values(
        ReplayConfig{.barrier = GcBarrierMode::kPageProtection,
                     .promotion = PromotionMethod::kAtCommit,
                     .checkpoint = false,
                     .name = "EllisAtCommitLogOnly"},
        ReplayConfig{.barrier = GcBarrierMode::kPageProtection,
                     .promotion = PromotionMethod::kAtCommit,
                     .checkpoint = true,
                     .name = "EllisAtCommitCheckpoint"},
        ReplayConfig{.barrier = GcBarrierMode::kPageProtection,
                     .promotion = PromotionMethod::kAtNextVolatileGc,
                     .checkpoint = false,
                     .name = "EllisInitialValueLogOnly"},
        ReplayConfig{.barrier = GcBarrierMode::kPageProtection,
                     .promotion = PromotionMethod::kAtNextVolatileGc,
                     .checkpoint = true,
                     .name = "EllisInitialValueCheckpoint"},
        ReplayConfig{.barrier = GcBarrierMode::kPerAccess,
                     .promotion = PromotionMethod::kAtCommit,
                     .checkpoint = false,
                     .name = "BakerLogOnly"},
        ReplayConfig{.barrier = GcBarrierMode::kPerAccess,
                     .promotion = PromotionMethod::kAtCommit,
                     .checkpoint = true,
                     .name = "BakerCheckpoint"}),
    [](const ::testing::TestParamInfo<ReplayConfig>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace sheap
