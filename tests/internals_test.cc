// Unit tests for internals not covered by their own suites: checkpoint
// payloads, retention and truncation floor, the stability side tables,
// pending materializations, the spec-heap oracle itself, and workload
// helpers.

#include <gtest/gtest.h>

#include <memory>

#include "core/stable_heap.h"
#include "recovery/checkpoint.h"
#include "stability/promotion.h"
#include "stability/stable_sets.h"
#include "workload/graph_gen.h"
#include "workload/spec_heap.h"
#include "workload/workloads.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

TEST(RememberedSetTest, PutEraseOwnership) {
  RememberedSet set;
  set.Put(1000, 2, 7);
  set.Put(1000, 3, 7);
  set.Put(2000, 0, 8);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(1000, 2));
  EXPECT_EQ(set.OwnerOf(1000, 3), 7u);
  EXPECT_EQ(set.SlotsOf(7).size(), 2u);
  set.Erase(1000, 2);
  EXPECT_FALSE(set.Contains(1000, 2));
  set.EraseTxn(7);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Contains(2000, 0));
}

TEST(RememberedSetTest, RekeyMovesWholeObject) {
  RememberedSet set;
  set.Put(1000, 2, 7);
  set.Put(1000, 5, 7);
  set.RekeyObject(1000, 9000);
  EXPECT_FALSE(set.Contains(1000, 2));
  EXPECT_TRUE(set.Contains(9000, 2));
  EXPECT_TRUE(set.Contains(9000, 5));
}

TEST(LikelyStableSetTest, DependeeLifecycle) {
  LikelyStableSet ls;
  EXPECT_TRUE(ls.Add(100, 1));
  EXPECT_FALSE(ls.Add(100, 1));  // already tracked for txn 1
  EXPECT_TRUE(ls.Add(100, 2));
  EXPECT_TRUE(ls.DependsOn(100, 1));
  ls.EraseTxn(1);
  EXPECT_TRUE(ls.Contains(100));  // txn 2 still depends
  ls.EraseTxn(2);
  EXPECT_FALSE(ls.Contains(100));  // dropped with last dependee
}

TEST(LikelyStableSetTest, RekeyPreservesDependees) {
  LikelyStableSet ls;
  ls.Add(100, 1);
  ls.Add(100, 2);
  ls.Rekey(100, 500);
  EXPECT_FALSE(ls.Contains(100));
  EXPECT_EQ(ls.DepsOf(500).size(), 2u);
}

TEST(PendingMaterializationsTest, RedirectAndLookup) {
  PendingMaterializations pending;
  PendingMaterializations::Entry e;
  e.volatile_base = 5000;
  e.cls = 3;
  e.nslots = 4;  // object covers [9000, 9040)
  e.initial_lsn = 77;
  pending.Add(9000, e);

  // The header word is looked up, not redirected.
  ASSERT_NE(pending.Lookup(9000), nullptr);
  EXPECT_EQ(pending.Redirect(9000), kNullAddr);
  // Slots redirect with the right offset.
  EXPECT_EQ(pending.Redirect(9008), 5008u);
  EXPECT_EQ(pending.Redirect(9032), 5032u);
  // One past the end: not covered.
  EXPECT_EQ(pending.Redirect(9040), kNullAddr);
  EXPECT_EQ(pending.Redirect(8999), kNullAddr);
  pending.Erase(9000);
  EXPECT_TRUE(pending.empty());
}

TEST(CheckpointRetentionTest, PreviousCheckpointSurvivesTruncation) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 64;
  opts.volatile_space_pages = 32;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  ASSERT_TRUE(heap->Checkpoint().ok());
  const Lsn first = heap->checkpoint_stats().last_checkpoint_lsn;
  ASSERT_TRUE(heap->Checkpoint().ok());
  // The newest checkpoint is unforced and may tear; truncation must keep
  // the previous one readable.
  EXPECT_LE(env.log()->truncated_prefix(), first - 1);
  LogReader reader(env.log());
  LogRecord rec;
  EXPECT_TRUE(reader.ReadAt(first, &rec).ok());
  EXPECT_EQ(rec.type, RecordType::kCheckpoint);
}

// Lowers *floor to `lsn` unless `lsn` is kInvalidLsn (no record to keep).
void Lower(Lsn* floor, Lsn lsn) {
  if (lsn != kInvalidLsn && (*floor == kInvalidLsn || lsn < *floor)) {
    *floor = lsn;
  }
}

// Every LSN a checkpoint taken now must keep, by source, read off the live
// state its tables are built from (kInvalidLsn: the source holds none).
struct FloorSources {
  Lsn previous_checkpoint = kInvalidLsn;
  Lsn dirty_frame = kInvalidLsn;        // oldest recLSN of a logged frame
  Lsn active_txn = kInvalidLsn;         // oldest first LSN of a transaction
  Lsn pending_promotion = kInvalidLsn;  // oldest kInitialValue LSN
  Lsn pending_redo = kInvalidLsn;       // oldest recLSN behind the redo gate
  size_t unlogged_dirty_frames = 0;     // dirty frames without a recLSN

  Lsn Floor() const {
    Lsn floor = kInvalidLsn;
    for (Lsn lsn : {previous_checkpoint, dirty_frame, active_txn,
                    pending_promotion, pending_redo}) {
      Lower(&floor, lsn);
    }
    return floor;
  }
};

FloorSources ReadFloorSources(StableHeap* heap) {
  FloorSources src;
  src.previous_checkpoint = heap->checkpoint_stats().last_checkpoint_lsn;
  for (const auto& [pid, rec_lsn] : heap->pool()->DirtyPages()) {
    if (rec_lsn == kInvalidLsn) ++src.unlogged_dirty_frames;
    Lower(&src.dirty_frame, rec_lsn);
  }
  for (const Txn* t : heap->txn_manager()->ActiveTxns()) {
    Lower(&src.active_txn, t->first_lsn);
  }
  const Status st = heap->pending_materializations()->ForEach(
      [&](HeapAddr, const PendingMaterializations::Entry& e) {
        Lower(&src.pending_promotion, e.initial_lsn);
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  if (heap->instant_redo() != nullptr) {
    for (const auto& [pid, rec_lsn] :
         heap->instant_redo()->PendingDirtyPages()) {
      Lower(&src.pending_redo, rec_lsn);
    }
  }
  return src;
}

// Takes a checkpoint and checks that it truncated the log exactly at the
// oldest LSN any source holds; returns the sources as the checkpoint saw
// them.
FloorSources CheckpointAndCheckFloor(StableHeap* heap) {
  const FloorSources src = ReadFloorSources(heap);
  EXPECT_TRUE(heap->Checkpoint().ok());
  EXPECT_NE(src.Floor(), kInvalidLsn);
  EXPECT_EQ(heap->checkpoint_stats().last_truncation_lsn, src.Floor());
  return src;
}

TEST(CheckpointFloorTest, FloorIsTheMinimumOverItsSources) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 64;
  opts.volatile_space_pages = 32;
  opts.divided_heap = true;
  opts.promotion_method = PromotionMethod::kAtNextVolatileGc;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  auto cls = workload::RegisterNodeClass(heap.get(), 2);
  ASSERT_TRUE(cls.ok());
  // Each source holds the floor only once it predates the previous
  // checkpoint, so every phase takes two checkpoints and checks the second.
  auto second_checkpoint = [&]() {
    CheckpointAndCheckFloor(heap.get());
    return CheckpointAndCheckFloor(heap.get());
  };
  auto truncated_at = [&]() {
    return heap->checkpoint_stats().last_truncation_lsn;
  };

  // A clean pool and no transaction: the previous checkpoint holds it.
  TxnId setup = *heap->Begin();
  auto obj = heap->AllocateStable(setup, cls->id, cls->nslots);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(heap->SetRoot(setup, 0, *obj).ok());
  ASSERT_TRUE(heap->Commit(setup).ok());
  ASSERT_TRUE(heap->WriteBackPages(1.0, 1).ok());
  FloorSources src = second_checkpoint();
  EXPECT_EQ(truncated_at(), src.previous_checkpoint);

  // A logged update leaves a dirty frame: its recLSN holds it.
  TxnId writer = *heap->Begin();
  Ref root = *heap->GetRoot(writer, 0);
  ASSERT_TRUE(heap->WriteScalar(writer, root, 0, 7).ok());
  ASSERT_TRUE(heap->Commit(writer).ok());
  src = second_checkpoint();
  ASSERT_NE(src.dirty_frame, kInvalidLsn);
  EXPECT_EQ(truncated_at(), src.dirty_frame);

  // An open transaction: its first record holds it, and the unlogged
  // dirty frame of its volatile allocation does not lower it.
  ASSERT_TRUE(heap->WriteBackPages(1.0, 2).ok());
  TxnId open = *heap->Begin();
  auto fresh = heap->Allocate(open, cls->id, cls->nslots);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(heap->WriteScalar(open, *fresh, 0, 42).ok());
  src = second_checkpoint();
  EXPECT_GT(src.unlogged_dirty_frames, 0u);
  ASSERT_NE(src.active_txn, kInvalidLsn);
  EXPECT_EQ(truncated_at(), src.active_txn);

  // Its commit promotes the volatile object by method 2: the pending
  // promotion's kInitialValue record holds it until the next volatile
  // collection materializes the object.
  ASSERT_TRUE(heap->SetRoot(open, 1, *fresh).ok());
  ASSERT_TRUE(heap->Commit(open).ok());
  ASSERT_TRUE(heap->WriteBackPages(1.0, 3).ok());
  src = second_checkpoint();
  ASSERT_NE(src.pending_promotion, kInvalidLsn);
  EXPECT_EQ(truncated_at(), src.pending_promotion);

  ASSERT_TRUE(heap->CollectVolatile().ok());
  ASSERT_TRUE(heap->WriteBackPages(1.0, 4).ok());
  src = second_checkpoint();
  EXPECT_EQ(src.pending_promotion, kInvalidLsn);
  EXPECT_EQ(truncated_at(), src.previous_checkpoint);
}

TEST(CheckpointFloorTest, MidDrainCheckpointKeepsPagesBehindTheRedoGate) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 64;
  opts.volatile_space_pages = 32;
  constexpr uint64_t kObjects = 8;
  const uint64_t slots = kPageSizeBytes / kWordSizeBytes - 1;
  {
    auto heap = std::move(*StableHeap::Open(&env, opts));
    ClassId big = *heap->RegisterClass(std::vector<bool>(slots, false));
    ClassId dir = *heap->RegisterClass(std::vector<bool>(kObjects, true));
    TxnId setup = *heap->Begin();
    Ref dref = *heap->AllocateStable(setup, dir, kObjects);
    ASSERT_TRUE(heap->SetRoot(setup, 0, dref).ok());
    for (uint64_t i = 0; i < kObjects; ++i) {
      Ref obj = *heap->AllocateStable(setup, big, slots);
      ASSERT_TRUE(heap->WriteRef(setup, dref, i, obj).ok());
    }
    ASSERT_TRUE(heap->Commit(setup).ok());
    ASSERT_TRUE(heap->WriteBackPages(1.0, 5).ok());
    ASSERT_TRUE(heap->Checkpoint().ok());
    // One update per page-sized object: redo work on every one of them,
    // none of it written back before the crash.
    TxnId txn = *heap->Begin();
    Ref d = *heap->GetRoot(txn, 0);
    for (uint64_t i = 0; i < kObjects; ++i) {
      ASSERT_TRUE(heap->WriteScalar(txn, *heap->ReadRef(txn, d, i), i,
                                    100 + i)
                      .ok());
    }
    ASSERT_TRUE(heap->Commit(txn).ok());
    ASSERT_TRUE(heap->SimulateCrash(CrashOptions{0.0, 1, 0}).ok());
  }

  StableHeapOptions instant = opts;
  instant.instant_recovery = true;
  instant.instant_drain_pages = 1;
  {
    auto heap = std::move(*StableHeap::Open(&env, instant));
    ASSERT_EQ(heap->recovery_stats().outcome,
              RecoveryOutcome::kOpenPendingRedo);
    // One drain step, then a checkpoint with pages still behind the gate:
    // the oldest of them holds the floor.
    TxnId step = *heap->Begin();
    ASSERT_TRUE(heap->Commit(step).ok());
    const FloorSources src = CheckpointAndCheckFloor(heap.get());
    ASSERT_NE(src.pending_redo, kInvalidLsn);
    EXPECT_EQ(heap->checkpoint_stats().last_truncation_lsn, src.pending_redo);
    // A crash right after it still redoes the pending pages.
    ASSERT_TRUE(heap->SimulateCrash(CrashOptions{0.0, 2, 0}).ok());
  }

  auto heap = std::move(*StableHeap::Open(&env, opts));
  TxnId reader = *heap->Begin();
  Ref d = *heap->GetRoot(reader, 0);
  for (uint64_t i = 0; i < kObjects; ++i) {
    auto got = heap->ReadScalar(reader, *heap->ReadRef(reader, d, i), i);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, 100 + i);
  }
  ASSERT_TRUE(heap->Commit(reader).ok());
}

TEST(SpecHeapTest, ReadYourWritesAndIsolationFromCommitted) {
  TypeRegistry types;
  spec::SpecHeap heap(4);
  TxnId t1 = heap.Begin();
  auto oid = heap.Allocate(t1, kClassDataArray, 2);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(heap.WriteSlot(t1, *oid, 0, 42).ok());
  EXPECT_EQ(*heap.ReadSlot(t1, *oid, 0), 42u);  // read-your-writes
  EXPECT_EQ(heap.committed_objects(), 0u);      // nothing committed yet
  ASSERT_TRUE(heap.Commit(t1).ok());
  EXPECT_EQ(heap.committed_objects(), 1u);
}

TEST(SpecHeapTest, AbortDiscardsEverything) {
  spec::SpecHeap heap(4);
  TxnId t = heap.Begin();
  auto oid = heap.Allocate(t, kClassDataArray, 1);
  ASSERT_TRUE(heap.SetRoot(t, 0, *oid).ok());
  ASSERT_TRUE(heap.Abort(t).ok());
  EXPECT_EQ(heap.committed_objects(), 0u);
  TxnId t2 = heap.Begin();
  EXPECT_EQ(*heap.GetRoot(t2, 0), spec::kNullOid);
}

TEST(SpecHeapTest, CrashPrunesUnreachableState) {
  TypeRegistry types;
  spec::SpecHeap heap(4);
  TxnId t = heap.Begin();
  auto kept = heap.Allocate(t, kClassPtrArray, 1);
  auto child = heap.Allocate(t, kClassPtrArray, 1);
  auto dropped = heap.Allocate(t, kClassPtrArray, 1);
  ASSERT_TRUE(heap.WriteSlot(t, *kept, 0, *child).ok());
  ASSERT_TRUE(heap.SetRoot(t, 0, *kept).ok());
  ASSERT_TRUE(heap.Commit(t).ok());
  (void)dropped;
  EXPECT_EQ(heap.committed_objects(), 3u);
  heap.Crash(types);
  // `dropped` was committed but unreachable: volatile, lost at the crash.
  EXPECT_EQ(heap.committed_objects(), 2u);
  EXPECT_NE(heap.Committed(*kept), nullptr);
  EXPECT_NE(heap.Committed(*child), nullptr);
  EXPECT_EQ(heap.Committed(*dropped), nullptr);
}

TEST(SpecHeapTest, ActiveTransactionsDieAtCrash) {
  TypeRegistry types;
  spec::SpecHeap heap(4);
  TxnId setup = heap.Begin();
  auto obj = heap.Allocate(setup, kClassDataArray, 1);
  ASSERT_TRUE(heap.WriteSlot(setup, *obj, 0, 5).ok());
  ASSERT_TRUE(heap.SetRoot(setup, 0, *obj).ok());
  ASSERT_TRUE(heap.Commit(setup).ok());

  TxnId t = heap.Begin();
  ASSERT_TRUE(heap.WriteSlot(t, *obj, 0, 99).ok());
  heap.Crash(types);
  TxnId t2 = heap.Begin();
  EXPECT_EQ(*heap.ReadSlot(t2, *obj, 0), 5u);  // uncommitted write gone
}

TEST(GraphChecksumTest, DetectsScalarMutation) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 64;
  opts.volatile_space_pages = 32;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  auto cls = *workload::RegisterNodeClass(heap.get(), 2);
  TxnId t = *heap->Begin();
  Ref root = *workload::BuildTree(heap.get(), t, cls, 2);
  uint64_t before = *workload::GraphChecksum(heap.get(), t, root);
  ASSERT_TRUE(heap->WriteScalar(t, root, 0, 999999).ok());
  uint64_t after = *workload::GraphChecksum(heap.get(), t, root);
  EXPECT_NE(before, after);
  ASSERT_TRUE(heap->Abort(t).ok());
}

TEST(GraphChecksumTest, DistinguishesSharingFromCopies) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 64;
  opts.volatile_space_pages = 32;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  auto cls = *workload::RegisterNodeClass(heap.get(), 2);
  TxnId t = *heap->Begin();
  // Diamond: a -> {s, s} (shared child).
  Ref a = *heap->Allocate(t, cls.id, cls.nslots);
  Ref s = *heap->Allocate(t, cls.id, cls.nslots);
  ASSERT_TRUE(heap->WriteScalar(t, s, 0, 5).ok());
  ASSERT_TRUE(heap->WriteRef(t, a, 1, s).ok());
  ASSERT_TRUE(heap->WriteRef(t, a, 2, s).ok());
  uint64_t shared = *workload::GraphChecksum(heap.get(), t, a);
  // Copies: b -> {c1, c2} (identical but distinct children).
  Ref b = *heap->Allocate(t, cls.id, cls.nslots);
  Ref c1 = *heap->Allocate(t, cls.id, cls.nslots);
  Ref c2 = *heap->Allocate(t, cls.id, cls.nslots);
  ASSERT_TRUE(heap->WriteScalar(t, c1, 0, 5).ok());
  ASSERT_TRUE(heap->WriteScalar(t, c2, 0, 5).ok());
  ASSERT_TRUE(heap->WriteRef(t, b, 1, c1).ok());
  ASSERT_TRUE(heap->WriteRef(t, b, 2, c2).ok());
  uint64_t copies = *workload::GraphChecksum(heap.get(), t, b);
  EXPECT_NE(shared, copies);
  ASSERT_TRUE(heap->Abort(t).ok());
}

TEST(BankWorkloadTest, InsufficientFundsBounce) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 128;
  opts.volatile_space_pages = 64;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  workload::Bank bank(heap.get(), 0);
  ASSERT_TRUE(bank.Setup(4, 10).ok());
  EXPECT_TRUE(bank.Transfer(0, 1, 100).IsInvalidArgument());
  EXPECT_EQ(*bank.BalanceOf(0), 10u);
  EXPECT_EQ(*bank.TotalBalance(), 40u);
}

TEST(BankWorkloadTest, SelfTransferLeavesBalancesUnchanged) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 128;
  opts.volatile_space_pages = 64;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  workload::Bank bank(heap.get(), 0);
  ASSERT_TRUE(bank.Setup(4, 10).ok());
  ASSERT_TRUE(bank.Transfer(2, 2, 7).ok());
  EXPECT_EQ(*bank.BalanceOf(2), 10u);
  EXPECT_EQ(*bank.TotalBalance(), 40u);
  EXPECT_TRUE(bank.Transfer(2, 2, 11).IsInvalidArgument());
  EXPECT_EQ(*bank.TotalBalance(), 40u);
}

TEST(HandleApiTest, ReleaseRefDropsOnlyThatHandle) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 64;
  opts.volatile_space_pages = 32;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  TxnId t = *heap->Begin();
  Ref a = *heap->Allocate(t, kClassDataArray, 1);
  Ref b = *heap->Allocate(t, kClassDataArray, 1);
  ASSERT_TRUE(heap->ReleaseRef(t, a).ok());
  EXPECT_TRUE(heap->ReadScalar(t, a, 0).status().IsInvalidArgument());
  EXPECT_TRUE(heap->ReadScalar(t, b, 0).ok());
  // Releasing someone else's handle is rejected.
  TxnId t2 = *heap->Begin();
  EXPECT_TRUE(heap->ReleaseRef(t2, b).IsInvalidArgument());
  ASSERT_TRUE(heap->Commit(t).ok());
  ASSERT_TRUE(heap->Commit(t2).ok());
}

TEST(ReopenGeometryTest, PersistedOptionsWinOverCallerOptions) {
  auto env = std::make_unique<SimEnv>();
  StableHeapOptions opts;
  opts.stable_space_pages = 128;
  opts.volatile_space_pages = 64;
  opts.root_slots = 16;
  opts.divided_heap = true;
  {
    auto heap = std::move(*StableHeap::Open(env.get(), opts));
    ASSERT_TRUE(heap->SimulateCrash({}).ok());
  }
  // Reopen with different (wrong) geometry: the format record wins.
  StableHeapOptions other;
  other.stable_space_pages = 9999;
  other.root_slots = 3;
  other.divided_heap = false;
  auto heap = std::move(*StableHeap::Open(env.get(), other));
  EXPECT_EQ(heap->options().root_slots, 16u);
  EXPECT_TRUE(heap->options().divided_heap);
  EXPECT_EQ(heap->options().stable_space_pages, 128u);
}

}  // namespace
}  // namespace sheap
