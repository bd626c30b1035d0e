// Garbage collection tests: stop-the-world and incremental atomic
// collection of the stable area, the Ellis read barrier, Baker mode,
// volatile-area collection, preservation of sharing and cycles, garbage
// reclamation, undo-root handling at flips, and lock rekeying.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/stable_heap.h"
#include "workload/graph_gen.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

using workload::BuildList;
using workload::BuildRandomGraph;
using workload::BuildTree;
using workload::CountReachable;
using workload::GraphChecksum;
using workload::NodeClass;
using workload::RegisterNodeClass;

// gtest registers each value-parameterized case under a name that ends in a
// dump of the parameter's object bytes, so every byte must be deterministic:
// no padding (`reserved` fills it with zeros) and no pointers (the case name
// is stored inline rather than in a std::string).
struct GcTestConfig {
  bool divided;
  bool incremental;
  GcBarrierMode barrier;
  uint8_t reserved[5] = {};
  char name[32] = {};
};
static_assert(std::has_unique_object_representations_v<GcTestConfig>);

class GcTest : public ::testing::TestWithParam<GcTestConfig> {
 protected:
  void SetUp() override {
    env_ = std::make_unique<SimEnv>();
    StableHeapOptions opts;
    opts.stable_space_pages = 128;
    opts.volatile_space_pages = 128;
    opts.divided_heap = GetParam().divided;
    opts.incremental_gc = GetParam().incremental;
    opts.barrier_mode = GetParam().barrier;
    auto heap = StableHeap::Open(env_.get(), opts);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    auto cls = RegisterNodeClass(heap_.get(), 3);
    ASSERT_TRUE(cls.ok());
    cls_ = *cls;
  }

  /// Commit a tree under root `index` and return its checksum.
  uint64_t PlantTree(uint64_t index, uint64_t depth) {
    auto txn = heap_->Begin();
    SHEAP_CHECK_OK(txn.status());
    auto root = BuildTree(heap_.get(), *txn, cls_, depth);
    SHEAP_CHECK_OK(root.status());
    SHEAP_CHECK_OK(heap_->SetRoot(*txn, index, *root));
    SHEAP_CHECK_OK(heap_->Commit(*txn));
    return ChecksumOf(index);
  }

  uint64_t ChecksumOf(uint64_t index) {
    auto txn = heap_->Begin();
    SHEAP_CHECK_OK(txn.status());
    auto root = heap_->GetRoot(*txn, index);
    SHEAP_CHECK_OK(root.status());
    auto sum = GraphChecksum(heap_.get(), *txn, *root);
    SHEAP_CHECK_OK(sum.status());
    SHEAP_CHECK_OK(heap_->Commit(*txn));
    return *sum;
  }

  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<StableHeap> heap_;
  NodeClass cls_;
};

INSTANTIATE_TEST_SUITE_P(
    Modes, GcTest,
    ::testing::Values(
        GcTestConfig{.divided = false,
                     .incremental = false,
                     .barrier = GcBarrierMode::kPageProtection,
                     .name = "AllStableStw"},
        GcTestConfig{.divided = false,
                     .incremental = true,
                     .barrier = GcBarrierMode::kPageProtection,
                     .name = "AllStableIncremental"},
        GcTestConfig{.divided = false,
                     .incremental = true,
                     .barrier = GcBarrierMode::kPerAccess,
                     .name = "AllStableBaker"},
        GcTestConfig{.divided = true,
                     .incremental = true,
                     .barrier = GcBarrierMode::kPageProtection,
                     .name = "DividedIncremental"}),
    [](const ::testing::TestParamInfo<GcTestConfig>& param_info) {
      return std::string(param_info.param.name);
    });

TEST_P(GcTest, FullCollectionPreservesCommittedGraph) {
  const uint64_t before = PlantTree(0, 4);
  ASSERT_TRUE(heap_->CollectStableFully().ok());
  EXPECT_EQ(ChecksumOf(0), before);
  EXPECT_EQ(heap_->stable_gc_stats().collections_completed, 1u);
}

TEST_P(GcTest, SharingPreservedAcrossCollection) {
  // Two roots share one subtree (Figure 3.1's diamond).
  auto txn = heap_->Begin();
  ASSERT_TRUE(txn.ok());
  auto shared = BuildTree(heap_.get(), *txn, cls_, 2);
  auto a = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  auto b = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  ASSERT_TRUE(shared.ok() && a.ok() && b.ok());
  ASSERT_TRUE(heap_->WriteRef(*txn, *a, 1, *shared).ok());
  ASSERT_TRUE(heap_->WriteRef(*txn, *b, 1, *shared).ok());
  ASSERT_TRUE(heap_->SetRoot(*txn, 0, *a).ok());
  ASSERT_TRUE(heap_->SetRoot(*txn, 1, *b).ok());
  ASSERT_TRUE(heap_->Commit(*txn).ok());

  ASSERT_TRUE(heap_->CollectStableFully().ok());

  // Mutating the shared subtree through root 0 must be visible via root 1.
  auto t2 = heap_->Begin();
  auto ra = heap_->GetRoot(*t2, 0);
  auto rb = heap_->GetRoot(*t2, 1);
  ASSERT_TRUE(ra.ok() && rb.ok());
  auto sa = heap_->ReadRef(*t2, *ra, 1);
  auto sb = heap_->ReadRef(*t2, *rb, 1);
  ASSERT_TRUE(sa.ok() && sb.ok());
  ASSERT_TRUE(heap_->WriteScalar(*t2, *sa, 0, 424242).ok());
  EXPECT_EQ(*heap_->ReadScalar(*t2, *sb, 0), 424242u);
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(GcTest, CyclesSurviveCollection) {
  auto txn = heap_->Begin();
  ASSERT_TRUE(txn.ok());
  auto a = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  auto b = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(heap_->WriteRef(*txn, *a, 1, *b).ok());
  ASSERT_TRUE(heap_->WriteRef(*txn, *b, 1, *a).ok());  // cycle
  ASSERT_TRUE(heap_->WriteScalar(*txn, *a, 0, 1).ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *b, 0, 2).ok());
  ASSERT_TRUE(heap_->SetRoot(*txn, 0, *a).ok());
  ASSERT_TRUE(heap_->Commit(*txn).ok());
  const uint64_t before = ChecksumOf(0);

  ASSERT_TRUE(heap_->CollectStableFully().ok());
  EXPECT_EQ(ChecksumOf(0), before);

  auto t2 = heap_->Begin();
  auto root = heap_->GetRoot(*t2, 0);
  auto next = heap_->ReadRef(*t2, *root, 1);
  auto back = heap_->ReadRef(*t2, *next, 1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*heap_->ReadScalar(*t2, *back, 0), 1u);  // back to a
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(GcTest, GarbageIsReclaimed) {
  PlantTree(0, 5);
  // Drop the tree: root 0 = null.
  auto txn = heap_->Begin();
  ASSERT_TRUE(heap_->SetRoot(*txn, 0, kNullRef).ok());
  ASSERT_TRUE(heap_->Commit(*txn).ok());
  const uint64_t free_before = heap_->stable_gc()->free_bytes();
  ASSERT_TRUE(heap_->CollectStableFully().ok());
  // Nothing live except the root array: almost everything is reclaimed.
  EXPECT_GT(heap_->stable_gc()->free_bytes(), free_before);
  EXPECT_LT(heap_->stable_gc_stats().objects_copied,
            10u);  // root array + a few promoted stragglers at most
}

TEST_P(GcTest, IncrementalCollectionInterleavesWithMutator) {
  if (!GetParam().incremental) GTEST_SKIP();
  const uint64_t before = PlantTree(0, 5);
  ASSERT_TRUE(heap_->StartStableCollection().ok());
  EXPECT_TRUE(heap_->stable_gc()->collecting());

  // Mutator works while the collection is in progress: reads traverse the
  // whole graph (forcing barrier traps / translations), writes mutate it.
  auto txn = heap_->Begin();
  auto root = heap_->GetRoot(*txn, 0);
  ASSERT_TRUE(root.ok());
  auto sum = GraphChecksum(heap_.get(), *txn, *root);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, before);
  ASSERT_TRUE(heap_->Commit(*txn).ok());

  // Drive the collection to completion.
  while (heap_->stable_gc()->collecting()) {
    ASSERT_TRUE(heap_->StepStableCollection(4).ok());
  }
  EXPECT_EQ(ChecksumOf(0), before);
  EXPECT_EQ(heap_->stable_gc_stats().collections_completed, 1u);
}

TEST_P(GcTest, ReadBarrierFiresDuringCollection) {
  if (!GetParam().incremental) GTEST_SKIP();
  PlantTree(0, 5);
  ASSERT_TRUE(heap_->StartStableCollection().ok());
  ChecksumOf(0);  // full traversal mid-collection
  EXPECT_GT(heap_->stable_gc_stats().read_barrier_traps, 0u);
  ASSERT_TRUE(heap_->CollectStableFully().ok());
}

TEST_P(GcTest, UncommittedUpdatesSurviveFlip) {
  // A transaction's uncommitted writes and its undo information must both
  // survive a flip in the middle of the transaction (§4.2.1).
  auto setup = heap_->Begin();
  auto obj = heap_->Allocate(*setup, cls_.id, cls_.nslots);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(heap_->WriteScalar(*setup, *obj, 0, 111).ok());
  ASSERT_TRUE(heap_->SetRoot(*setup, 0, *obj).ok());
  ASSERT_TRUE(heap_->Commit(*setup).ok());

  auto txn = heap_->Begin();
  auto root = heap_->GetRoot(*txn, 0);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *root, 0, 222).ok());

  ASSERT_TRUE(heap_->CollectStableFully().ok());  // flip mid-transaction

  // The uncommitted value is visible through the moved object...
  EXPECT_EQ(*heap_->ReadScalar(*txn, *root, 0), 222u);
  // ...and abort still restores the committed value at the new address.
  ASSERT_TRUE(heap_->Abort(*txn).ok());
  auto t2 = heap_->Begin();
  auto r2 = heap_->GetRoot(*t2, 0);
  EXPECT_EQ(*heap_->ReadScalar(*t2, *r2, 0), 111u);
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(GcTest, AbortAfterTwoFlipsRestoresOldValues) {
  auto setup = heap_->Begin();
  auto obj = heap_->Allocate(*setup, cls_.id, cls_.nslots);
  ASSERT_TRUE(heap_->WriteScalar(*setup, *obj, 0, 5).ok());
  ASSERT_TRUE(heap_->SetRoot(*setup, 0, *obj).ok());
  ASSERT_TRUE(heap_->Commit(*setup).ok());

  auto txn = heap_->Begin();
  auto root = heap_->GetRoot(*txn, 0);
  ASSERT_TRUE(heap_->WriteScalar(*txn, *root, 0, 6).ok());
  ASSERT_TRUE(heap_->CollectStableFully().ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *root, 0, 7).ok());
  ASSERT_TRUE(heap_->CollectStableFully().ok());
  ASSERT_TRUE(heap_->Abort(*txn).ok());

  auto t2 = heap_->Begin();
  auto r2 = heap_->GetRoot(*t2, 0);
  EXPECT_EQ(*heap_->ReadScalar(*t2, *r2, 0), 5u);
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(GcTest, OldPointerValuesAreUndoRoots) {
  // txn overwrites a pointer; the old target is reachable only from the
  // undo information. A flip must keep it alive and abort must restore a
  // valid reference to it (§3.5.2).
  auto setup = heap_->Begin();
  auto holder = heap_->Allocate(*setup, cls_.id, cls_.nslots);
  auto old_target = heap_->Allocate(*setup, cls_.id, cls_.nslots);
  ASSERT_TRUE(holder.ok() && old_target.ok());
  ASSERT_TRUE(heap_->WriteScalar(*setup, *old_target, 0, 777).ok());
  ASSERT_TRUE(heap_->WriteRef(*setup, *holder, 1, *old_target).ok());
  ASSERT_TRUE(heap_->SetRoot(*setup, 0, *holder).ok());
  ASSERT_TRUE(heap_->Commit(*setup).ok());

  auto txn = heap_->Begin();
  auto root = heap_->GetRoot(*txn, 0);
  auto replacement = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  ASSERT_TRUE(replacement.ok());
  // After this write, old_target is unreachable from the heap.
  ASSERT_TRUE(heap_->WriteRef(*txn, *root, 1, *replacement).ok());

  ASSERT_TRUE(heap_->CollectStableFully().ok());
  ASSERT_TRUE(heap_->Abort(*txn).ok());

  auto t2 = heap_->Begin();
  auto r2 = heap_->GetRoot(*t2, 0);
  auto restored = heap_->ReadRef(*t2, *r2, 1);
  ASSERT_TRUE(restored.ok());
  ASSERT_NE(*restored, kNullRef);
  EXPECT_EQ(*heap_->ReadScalar(*t2, *restored, 0), 777u);
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(GcTest, LocksFollowMovedObjects) {
  auto setup = heap_->Begin();
  auto obj = heap_->Allocate(*setup, cls_.id, cls_.nslots);
  ASSERT_TRUE(heap_->SetRoot(*setup, 0, *obj).ok());
  ASSERT_TRUE(heap_->Commit(*setup).ok());

  auto t1 = heap_->Begin();
  auto r1 = heap_->GetRoot(*t1, 0);
  ASSERT_TRUE(heap_->WriteScalar(*t1, *r1, 0, 1).ok());  // t1 write-locks

  ASSERT_TRUE(heap_->CollectStableFully().ok());  // object moves

  auto t2 = heap_->Begin();
  auto r2 = heap_->GetRoot(*t2, 0);
  // The lock moved with the object: t2 still conflicts.
  EXPECT_TRUE(heap_->WriteScalar(*t2, *r2, 0, 2).IsBusy());
  ASSERT_TRUE(heap_->Commit(*t1).ok());
  EXPECT_TRUE(heap_->WriteScalar(*t2, *r2, 0, 2).ok());
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(GcTest, BackToBackCollections) {
  const uint64_t before = PlantTree(0, 4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(heap_->CollectStableFully().ok());
    EXPECT_EQ(ChecksumOf(0), before);
  }
  EXPECT_EQ(heap_->stable_gc_stats().collections_completed, 4u);
}

TEST_P(GcTest, AutoCollectionTriggersOnExhaustion) {
  // Keep planting and dropping trees in all-stable mode (or churning the
  // volatile area in divided mode) until collections must happen.
  // Each round allocates ~4000 words; the 128-page (64k-word) semispaces
  // must be recycled several times over the 40 rounds.
  for (int round = 0; round < 40; ++round) {
    auto txn = heap_->Begin();
    ASSERT_TRUE(txn.ok());
    auto list = BuildList(heap_.get(), *txn, cls_, 1000);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    ASSERT_TRUE(heap_->SetRoot(*txn, 3, *list).ok());
    ASSERT_TRUE(heap_->Commit(*txn).ok());
  }
  if (GetParam().divided) {
    EXPECT_GT(heap_->volatile_gc_stats().collections_completed, 0u);
  } else {
    EXPECT_GT(heap_->stable_gc_stats().collections_completed, 0u);
  }
  // The latest list is intact.
  auto txn = heap_->Begin();
  auto root = heap_->GetRoot(*txn, 3);
  auto count = CountReachable(heap_.get(), *txn, *root);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1000u);
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

TEST_P(GcTest, EllisTrapsAtMostOncePerPage) {
  if (GetParam().barrier != GcBarrierMode::kPageProtection ||
      !GetParam().incremental) {
    GTEST_SKIP();
  }
  PlantTree(0, 6);
  ASSERT_TRUE(heap_->StartStableCollection().ok());
  ChecksumOf(0);
  ChecksumOf(0);  // second traversal: everything already scanned
  const uint64_t traps = heap_->stable_gc_stats().read_barrier_traps;
  const uint64_t pages = heap_->stable_gc_stats().pages_scanned;
  EXPECT_LE(traps, pages + 1);
  ASSERT_TRUE(heap_->CollectStableFully().ok());
}

TEST_P(GcTest, ScanCursorWorkStaysLinear) {
  if (!GetParam().incremental) GTEST_SKIP();
  PlantTree(0, 6);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(heap_->CollectStableFully().ok());
  }
  const GcStats& st = heap_->stable_gc_stats();
  // The monotone scan cursor replaced a from-zero bitmap walk that made
  // finding the next unscanned page O(pages) per query — O(pages^2) per
  // collection. scan_cursor_steps counts bitmap words examined; with the
  // cursor it telescopes to roughly one word per claimed page plus one
  // probe per query, i.e. linear in pages scanned across the whole run.
  EXPECT_GT(st.scan_cursor_steps, 0u);
  EXPECT_LE(st.scan_cursor_steps,
            2 * st.pages_scanned + 16 * st.collections_started + 64);
}

TEST_P(GcTest, CollectionLogsOnlyBatchedCopies) {
  // Every stable-area copy is logged as a kGcCopyBatch: the flip's roots
  // (including an open transaction's handles, locks and undo roots), the
  // traps or Baker translations of a mid-collection traversal, and the
  // background scan. Nothing writes the retired per-object kGcCopy.
  const uint64_t before = PlantTree(0, 4);
  auto txn = heap_->Begin();
  ASSERT_TRUE(txn.ok());
  auto root = heap_->GetRoot(*txn, 0);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap_->ReadScalar(*txn, *root, 0).ok());
  auto list = BuildList(heap_.get(), *txn, cls_, 5);
  ASSERT_TRUE(list.ok());
  if (GetParam().incremental) {
    ASSERT_TRUE(heap_->StartStableCollection().ok());
    EXPECT_EQ(ChecksumOf(0), before);
  }
  ASSERT_TRUE(heap_->CollectStableFully().ok());
  auto count = CountReachable(heap_.get(), *txn, *list);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);
  ASSERT_TRUE(heap_->Commit(*txn).ok());
  EXPECT_EQ(ChecksumOf(0), before);

  const LogVolumeStats& log = heap_->log_volume();
  EXPECT_EQ(log.For(RecordType::kGcCopy).records, 0u);
  EXPECT_GT(log.For(RecordType::kGcCopyBatch).records, 0u);
  EXPECT_EQ(log.For(RecordType::kGcCopyBatch).records,
            heap_->stable_gc_stats().copy_batch_records);
}

TEST(GcTrapTest, TrapCopiesThePagesReferentsInOneBatch) {
  // An Ellis trap on a page whose slots name K > 1 from-space objects logs
  // one kGcCopyBatch for all K, and the batch replays after a crash.
  constexpr uint64_t kChildren = 8;
  auto env = std::make_unique<SimEnv>();
  StableHeapOptions opts;
  opts.divided_heap = false;
  opts.stable_space_pages = 64;
  opts.auto_collect = false;
  auto opened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);
  auto parent_cls = heap->RegisterClass(std::vector<bool>(kChildren, true));
  auto leaf_cls = heap->RegisterClass({false, false});
  ASSERT_TRUE(parent_cls.ok() && leaf_cls.ok());
  {
    TxnId t = *heap->Begin();
    auto parent = heap->Allocate(t, *parent_cls, kChildren);
    ASSERT_TRUE(parent.ok());
    for (uint64_t i = 0; i < kChildren; ++i) {
      auto leaf = heap->Allocate(t, *leaf_cls, 2);
      ASSERT_TRUE(leaf.ok());
      ASSERT_TRUE(heap->WriteScalar(t, *leaf, 0, 100 + i).ok());
      ASSERT_TRUE(heap->WriteScalar(t, *leaf, 1, 200 + i).ok());
      ASSERT_TRUE(heap->WriteRef(t, *parent, i, *leaf).ok());
      ASSERT_TRUE(heap->ReleaseRef(t, *leaf).ok());
    }
    ASSERT_TRUE(heap->SetRoot(t, 0, *parent).ok());
    ASSERT_TRUE(heap->Commit(t).ok());
  }

  ASSERT_TRUE(heap->StartStableCollection().ok());
  TxnId t = *heap->Begin();
  auto parent = heap->GetRoot(t, 0);  // traps on the root array's page
  ASSERT_TRUE(parent.ok());
  const LogVolumeStats& log = heap->log_volume();
  const uint64_t batches = log.For(RecordType::kGcCopyBatch).records;
  const uint64_t objects = heap->stable_gc_stats().objects_copied;
  const uint64_t traps = heap->stable_gc_stats().read_barrier_traps;
  auto first = heap->ReadRef(t, *parent, 0);  // traps on the parent's page
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(heap->ReleaseRef(t, *first).ok());
  EXPECT_EQ(heap->stable_gc_stats().read_barrier_traps, traps + 1);
  EXPECT_EQ(heap->stable_gc_stats().objects_copied, objects + kChildren);
  EXPECT_EQ(log.For(RecordType::kGcCopyBatch).records, batches + 1);
  EXPECT_EQ(log.For(RecordType::kGcCopy).records, 0u);
  std::vector<uint64_t> contents;
  for (uint64_t i = 0; i < kChildren; ++i) {
    auto child = heap->ReadRef(t, *parent, i);
    ASSERT_TRUE(child.ok());
    contents.push_back(*heap->ReadScalar(t, *child, 0));
    contents.push_back(*heap->ReadScalar(t, *child, 1));
    ASSERT_TRUE(heap->ReleaseRef(t, *child).ok());
  }
  ASSERT_TRUE(heap->Commit(t).ok());
  ASSERT_TRUE(heap->ForceLog().ok());

  CrashOptions crash;
  crash.writeback_fraction = 0;
  ASSERT_TRUE(heap->SimulateCrash(crash).ok());
  heap.reset();
  opened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  heap = std::move(*opened);
  t = *heap->Begin();
  parent = heap->GetRoot(t, 0);
  ASSERT_TRUE(parent.ok());
  std::vector<uint64_t> recovered;
  for (uint64_t i = 0; i < kChildren; ++i) {
    auto child = heap->ReadRef(t, *parent, i);
    ASSERT_TRUE(child.ok());
    recovered.push_back(*heap->ReadScalar(t, *child, 0));
    recovered.push_back(*heap->ReadScalar(t, *child, 1));
    ASSERT_TRUE(heap->ReleaseRef(t, *child).ok());
  }
  ASSERT_TRUE(heap->Commit(t).ok());
  EXPECT_EQ(recovered, contents);
  EXPECT_EQ(contents[0], 100u);
  EXPECT_EQ(contents.back(), 200u + kChildren - 1);
}

class VolatileGcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<SimEnv>();
    StableHeapOptions opts;
    opts.stable_space_pages = 128;
    opts.volatile_space_pages = 64;
    opts.divided_heap = true;
    auto heap = StableHeap::Open(env_.get(), opts);
    ASSERT_TRUE(heap.ok());
    heap_ = std::move(*heap);
    auto cls = RegisterNodeClass(heap_.get(), 2);
    ASSERT_TRUE(cls.ok());
    cls_ = *cls;
  }

  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<StableHeap> heap_;
  NodeClass cls_;
};

TEST_F(VolatileGcTest, VolatileCollectionIsUnlogged) {
  auto txn = heap_->Begin();
  auto list = BuildList(heap_.get(), *txn, cls_, 50);
  ASSERT_TRUE(list.ok());
  const uint64_t log_bytes = heap_->log_volume().TotalBytes();
  ASSERT_TRUE(heap_->CollectVolatile().ok());
  // Only the volatile-flip + space records hit the log; no copy/scan data.
  EXPECT_EQ(heap_->log_volume().For(RecordType::kGcCopyBatch).records, 0u);
  EXPECT_LT(heap_->log_volume().TotalBytes() - log_bytes, 200u);
  // The uncommitted list survives via the transaction's handle.
  auto count = CountReachable(heap_.get(), *txn, *list);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 50u);
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

TEST_F(VolatileGcTest, UncommittedStableSlotKeepsVolatileTargetAlive) {
  // A stable slot holds an uncommitted pointer to a volatile object; the
  // volatile collection must trace it through the remembered set and
  // rewrite the (logged) stable slot.
  auto setup = heap_->Begin();
  auto stable_obj = heap_->AllocateStable(*setup, cls_.id, cls_.nslots);
  ASSERT_TRUE(stable_obj.ok());
  ASSERT_TRUE(heap_->SetRoot(*setup, 0, *stable_obj).ok());
  ASSERT_TRUE(heap_->Commit(*setup).ok());

  auto txn = heap_->Begin();
  auto root = heap_->GetRoot(*txn, 0);
  auto vol = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *vol, 0, 987).ok());
  ASSERT_TRUE(heap_->WriteRef(*txn, *root, 1, *vol).ok());
  EXPECT_EQ(heap_->remembered()->size(), 1u);

  ASSERT_TRUE(heap_->CollectVolatile().ok());

  auto moved = heap_->ReadRef(*txn, *root, 1);
  ASSERT_TRUE(moved.ok());
  ASSERT_NE(*moved, kNullRef);
  EXPECT_EQ(*heap_->ReadScalar(*txn, *moved, 0), 987u);
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

TEST_F(VolatileGcTest, VolatileUndoInfoSurvivesCollection) {
  auto txn = heap_->Begin();
  auto vol = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *vol, 0, 1).ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *vol, 0, 2).ok());
  ASSERT_TRUE(heap_->CollectVolatile().ok());
  // Abort after the object moved: the in-memory undo info was rewritten.
  ASSERT_TRUE(heap_->Abort(*txn).ok());
  // (The object is garbage now; the test passes if abort didn't corrupt
  // anything — a follow-up collection still works.)
  ASSERT_TRUE(heap_->CollectVolatile().ok());
}

TEST_F(VolatileGcTest, StableCollectionScansVolatileAreaAsRoots) {
  // A volatile object points to a stable object that is otherwise garbage;
  // the stable collection must keep the stable target alive (§5.4).
  auto txn = heap_->Begin();
  auto stable_obj = heap_->AllocateStable(*txn, cls_.id, cls_.nslots);
  ASSERT_TRUE(stable_obj.ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *stable_obj, 0, 4242).ok());
  auto vol = heap_->Allocate(*txn, cls_.id, cls_.nslots);
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(heap_->WriteRef(*txn, *vol, 1, *stable_obj).ok());
  ASSERT_TRUE(heap_->ReleaseRef(*txn, *stable_obj).ok());

  ASSERT_TRUE(heap_->CollectStableFully().ok());

  auto back = heap_->ReadRef(*txn, *vol, 1);
  ASSERT_TRUE(back.ok());
  ASSERT_NE(*back, kNullRef);
  EXPECT_EQ(*heap_->ReadScalar(*txn, *back, 0), 4242u);
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

}  // namespace
}  // namespace sheap
