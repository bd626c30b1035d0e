// End-to-end basics of the StableHeap public API: format, allocate,
// read/write, roots, commit/abort semantics, reopen-after-shutdown, and
// basic stable/volatile division behaviour.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/stable_heap.h"
#include "workload/graph_gen.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

StableHeapOptions SmallOptions(bool divided = true) {
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  opts.divided_heap = divided;
  return opts;
}

class StableHeapBasicTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    env_ = std::make_unique<SimEnv>();
    auto heap = StableHeap::Open(env_.get(), SmallOptions(GetParam()));
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
  }

  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<StableHeap> heap_;
};

INSTANTIATE_TEST_SUITE_P(DividedAndAllStable, StableHeapBasicTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Divided" : "AllStable";
                         });

TEST_P(StableHeapBasicTest, AllocateWriteReadScalar) {
  auto txn = heap_->Begin();
  ASSERT_TRUE(txn.ok());
  auto obj = heap_->Allocate(*txn, kClassDataArray, 8);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_TRUE(heap_->WriteScalar(*txn, *obj, 3, 0xabcdef).ok());
  auto v = heap_->ReadScalar(*txn, *obj, 3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xabcdefu);
  // Unwritten slots read as zero.
  EXPECT_EQ(*heap_->ReadScalar(*txn, *obj, 0), 0u);
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

TEST_P(StableHeapBasicTest, PointerLinksAndTypeChecks) {
  auto txn = heap_->Begin();
  ASSERT_TRUE(txn.ok());
  auto a = heap_->Allocate(*txn, kClassPtrArray, 2);
  auto b = heap_->Allocate(*txn, kClassDataArray, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(heap_->WriteRef(*txn, *a, 0, *b).ok());
  auto back = heap_->ReadRef(*txn, *a, 0);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *back, 0, 55).ok());
  EXPECT_EQ(*heap_->ReadScalar(*txn, *b, 0), 55u);  // same object
  // Type discipline.
  EXPECT_TRUE(heap_->ReadScalar(*txn, *a, 0).status().IsInvalidArgument());
  EXPECT_TRUE(heap_->ReadRef(*txn, *b, 0).status().IsInvalidArgument());
  EXPECT_TRUE(heap_->WriteRef(*txn, *b, 0, *a).IsInvalidArgument());
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

TEST_P(StableHeapBasicTest, SlotRangeChecked) {
  auto txn = heap_->Begin();
  auto obj = heap_->Allocate(*txn, kClassDataArray, 2);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(heap_->ReadScalar(*txn, *obj, 2).status().IsInvalidArgument());
  EXPECT_TRUE(heap_->WriteScalar(*txn, *obj, 99, 1).IsInvalidArgument());
  ASSERT_TRUE(heap_->Abort(*txn).ok());
}

TEST_P(StableHeapBasicTest, RegisterClassEnforcesShape) {
  auto cls = heap_->RegisterClass({false, true});
  ASSERT_TRUE(cls.ok());
  auto txn = heap_->Begin();
  EXPECT_TRUE(
      heap_->Allocate(*txn, *cls, 5).status().IsInvalidArgument());
  auto obj = heap_->Allocate(*txn, *cls, 2);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(heap_->WriteScalar(*txn, *obj, 0, 7).ok());
  EXPECT_TRUE(heap_->WriteRef(*txn, *obj, 1, *obj).ok());  // self-link
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

TEST_P(StableHeapBasicTest, UnregisteredClassRejected) {
  auto txn = heap_->Begin();
  EXPECT_TRUE(
      heap_->Allocate(*txn, 999, 2).status().IsInvalidArgument());
  ASSERT_TRUE(heap_->Abort(*txn).ok());
}

TEST_P(StableHeapBasicTest, RootsPersistAcrossTransactions) {
  auto t1 = heap_->Begin();
  auto obj = heap_->Allocate(*t1, kClassDataArray, 1);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(heap_->WriteScalar(*t1, *obj, 0, 31337).ok());
  ASSERT_TRUE(heap_->SetRoot(*t1, 0, *obj).ok());
  ASSERT_TRUE(heap_->Commit(*t1).ok());

  auto t2 = heap_->Begin();
  auto root = heap_->GetRoot(*t2, 0);
  ASSERT_TRUE(root.ok());
  ASSERT_NE(*root, kNullRef);
  EXPECT_EQ(*heap_->ReadScalar(*t2, *root, 0), 31337u);
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(StableHeapBasicTest, AbortUndoesWrites) {
  // Committed baseline.
  auto t1 = heap_->Begin();
  auto obj = heap_->Allocate(*t1, kClassDataArray, 2);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(heap_->WriteScalar(*t1, *obj, 0, 100).ok());
  ASSERT_TRUE(heap_->SetRoot(*t1, 1, *obj).ok());
  ASSERT_TRUE(heap_->Commit(*t1).ok());

  // Aborted overwrite.
  auto t2 = heap_->Begin();
  auto root = heap_->GetRoot(*t2, 1);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(heap_->WriteScalar(*t2, *root, 0, 999).ok());
  EXPECT_EQ(*heap_->ReadScalar(*t2, *root, 0), 999u);
  ASSERT_TRUE(heap_->Abort(*t2).ok());

  auto t3 = heap_->Begin();
  root = heap_->GetRoot(*t3, 1);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*heap_->ReadScalar(*t3, *root, 0), 100u);
  ASSERT_TRUE(heap_->Commit(*t3).ok());
}

TEST_P(StableHeapBasicTest, AbortUndoesRootWrites) {
  auto t1 = heap_->Begin();
  auto obj = heap_->Allocate(*t1, kClassDataArray, 1);
  ASSERT_TRUE(heap_->SetRoot(*t1, 2, *obj).ok());
  ASSERT_TRUE(heap_->Abort(*t1).ok());
  auto t2 = heap_->Begin();
  auto root = heap_->GetRoot(*t2, 2);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, kNullRef);
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(StableHeapBasicTest, HandlesDieWithTransaction) {
  auto t1 = heap_->Begin();
  auto obj = heap_->Allocate(*t1, kClassDataArray, 1);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(heap_->Commit(*t1).ok());
  auto t2 = heap_->Begin();
  EXPECT_TRUE(
      heap_->ReadScalar(*t2, *obj, 0).status().IsInvalidArgument());
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(StableHeapBasicTest, TransactionsCannotUseOthersHandles) {
  auto t1 = heap_->Begin();
  auto t2 = heap_->Begin();
  auto obj = heap_->Allocate(*t1, kClassDataArray, 1);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(
      heap_->ReadScalar(*t2, *obj, 0).status().IsInvalidArgument());
  ASSERT_TRUE(heap_->Commit(*t1).ok());
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(StableHeapBasicTest, WriteConflictReturnsBusy) {
  auto setup = heap_->Begin();
  auto obj = heap_->Allocate(*setup, kClassDataArray, 1);
  ASSERT_TRUE(heap_->SetRoot(*setup, 0, *obj).ok());
  ASSERT_TRUE(heap_->Commit(*setup).ok());

  auto t1 = heap_->Begin();
  auto t2 = heap_->Begin();
  auto r1 = heap_->GetRoot(*t1, 0);
  auto r2 = heap_->GetRoot(*t2, 0);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(heap_->WriteScalar(*t1, *r1, 0, 1).ok());
  EXPECT_TRUE(heap_->WriteScalar(*t2, *r2, 0, 2).IsBusy());
  ASSERT_TRUE(heap_->Commit(*t1).ok());
  // After t1 releases its locks, t2 can proceed.
  EXPECT_TRUE(heap_->WriteScalar(*t2, *r2, 0, 2).ok());
  ASSERT_TRUE(heap_->Commit(*t2).ok());
}

TEST_P(StableHeapBasicTest, CommittedDataSurvivesCleanReopen) {
  {
    auto t = heap_->Begin();
    auto cls = workload::RegisterNodeClass(heap_.get(), 2);
    ASSERT_TRUE(cls.ok());
    auto root = workload::BuildTree(heap_.get(), *t, *cls, 3);
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(heap_->SetRoot(*t, 0, *root).ok());
    ASSERT_TRUE(heap_->Commit(*t).ok());
  }
  uint64_t checksum_before;
  {
    auto t = heap_->Begin();
    auto root = heap_->GetRoot(*t, 0);
    ASSERT_TRUE(root.ok());
    auto sum = workload::GraphChecksum(heap_.get(), *t, *root);
    ASSERT_TRUE(sum.ok());
    checksum_before = *sum;
    ASSERT_TRUE(heap_->Commit(*t).ok());
  }
  // Clean shutdown + reopen (even without an explicit crash this exercises
  // the recovery path: the new instance reads the log and checkpoint).
  ASSERT_TRUE(heap_->SimulateCrash({/*writeback_fraction=*/1.0}).ok());
  heap_.reset();
  auto reopened = StableHeap::Open(env_.get(), SmallOptions(GetParam()));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  heap_ = std::move(*reopened);

  auto t = heap_->Begin();
  auto root = heap_->GetRoot(*t, 0);
  ASSERT_TRUE(root.ok());
  ASSERT_NE(*root, kNullRef);
  auto sum = workload::GraphChecksum(heap_.get(), *t, *root);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, checksum_before);
  ASSERT_TRUE(heap_->Commit(*t).ok());
}

TEST_P(StableHeapBasicTest, ApiRejectsUseAfterCrash) {
  ASSERT_TRUE(heap_->SimulateCrash({}).ok());
  EXPECT_TRUE(heap_->Begin().status().IsCrashed());
  EXPECT_TRUE(heap_->Checkpoint().IsCrashed());
}

TEST(StableHeapDividedTest, NewObjectsPayNoLogUntilStable) {
  SimEnv env;
  auto heap = StableHeap::Open(&env, SmallOptions(true));
  ASSERT_TRUE(heap.ok());
  const uint64_t update_bytes_before =
      (*heap)->log_volume().For(RecordType::kUpdate).bytes;
  auto t = (*heap)->Begin();
  auto obj = (*heap)->Allocate(*t, kClassDataArray, 64);
  ASSERT_TRUE(obj.ok());
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE((*heap)->WriteScalar(*t, *obj, i, i).ok());
  }
  ASSERT_TRUE((*heap)->Commit(*t).ok());
  // The object never became reachable from a stable root: all 64 writes
  // were volatile and produced no update records (Invariant I6).
  EXPECT_EQ((*heap)->log_volume().For(RecordType::kUpdate).bytes,
            update_bytes_before);
}

TEST(StableHeapAllStableTest, EveryUpdateIsLogged) {
  SimEnv env;
  auto heap = StableHeap::Open(&env, SmallOptions(false));
  ASSERT_TRUE(heap.ok());
  auto t = (*heap)->Begin();
  auto obj = (*heap)->Allocate(*t, kClassDataArray, 4);
  ASSERT_TRUE(obj.ok());
  const uint64_t before =
      (*heap)->log_volume().For(RecordType::kUpdate).records;
  ASSERT_TRUE((*heap)->WriteScalar(*t, *obj, 0, 1).ok());
  ASSERT_TRUE((*heap)->WriteScalar(*t, *obj, 1, 2).ok());
  EXPECT_EQ((*heap)->log_volume().For(RecordType::kUpdate).records,
            before + 2);
  ASSERT_TRUE((*heap)->Commit(*t).ok());
}

TEST(StableHeapHandleTest, TransactionEndFreesExactlyItsOwnHandles) {
  SimEnv env;
  auto opened = StableHeap::Open(&env, SmallOptions());
  ASSERT_TRUE(opened.ok());
  StableHeap* heap = opened->get();
  HandleTable* table = heap->handles();
  {
    auto t = heap->Begin();
    auto obj = heap->AllocateStable(*t, kClassDataArray, 1);
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE(heap->SetRoot(*t, 0, *obj).ok());
    ASSERT_TRUE(heap->Commit(*t).ok());
  }
  const size_t baseline = table->LiveCount();
  {
    // Grows the table past 20,000 entries, all free again at commit.
    auto t = heap->Begin();
    for (int i = 0; i < 20000; ++i) ASSERT_TRUE(heap->GetRoot(*t, 0).ok());
    EXPECT_EQ(table->LiveCount(), baseline + 20000);
    ASSERT_TRUE(heap->Commit(*t).ok());
    EXPECT_EQ(table->LiveCount(), baseline);
  }
  // A concurrent reader holds handles across every end below.
  auto reader = heap->Begin();
  auto held = heap->GetRoot(*reader, 0);
  ASSERT_TRUE(held.ok());

  enum class End { kCommit, kAbort, kPrepare };
  for (End end : {End::kCommit, End::kAbort, End::kPrepare}) {
    auto t = heap->Begin();
    std::vector<Ref> mine;
    for (int i = 0; i < 5; ++i) mine.push_back(*heap->GetRoot(*t, 0));
    auto fresh = heap->Allocate(*t, kClassDataArray, 1);
    ASSERT_TRUE(fresh.ok());
    mine.push_back(*fresh);
    ASSERT_TRUE(heap->ReleaseRef(*t, mine[0]).ok());
    EXPECT_EQ(table->LiveCount(), baseline + 1 + 5);
    switch (end) {
      case End::kCommit:
        ASSERT_TRUE(heap->Commit(*t).ok());
        break;
      case End::kAbort:
        ASSERT_TRUE(heap->Abort(*t).ok());
        break;
      case End::kPrepare:
        ASSERT_TRUE(heap->Prepare(*t, /*gtid=*/42).ok());
        break;
    }
    EXPECT_EQ(table->LiveCount(), baseline + 1);
    for (Ref r : mine) EXPECT_FALSE(heap->DebugAddrOf(r).ok());
    EXPECT_TRUE(heap->ReadScalar(*reader, *held, 0).ok());
    if (end == End::kPrepare) {
      ASSERT_TRUE(heap->CommitPrepared(*t).ok());
      EXPECT_EQ(table->LiveCount(), baseline + 1);
    }
  }
  ASSERT_TRUE(heap->Commit(*reader).ok());
  EXPECT_EQ(table->LiveCount(), baseline);
}

}  // namespace
}  // namespace sheap
