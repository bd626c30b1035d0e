// Crash-recovery tests (paper Chapters 3-4): atomicity and durability
// across simulated crashes at adversarial points — varying which dirty
// pages reached disk, torn log tails, crashes in the middle of incremental
// collections, torn checkpoints, and repeated crash/recover cycles. Also
// checks the headline property: recovery work is independent of heap size.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/stable_heap.h"
#include "workload/graph_gen.h"
#include "workload/workloads.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

using workload::Bank;
using workload::BuildTree;
using workload::GraphChecksum;
using workload::NodeClass;
using workload::RegisterNodeClass;

StableHeapOptions TestOptions(bool divided) {
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  opts.divided_heap = divided;
  return opts;
}

/// Crash the heap and reopen it on the same environment.
void CrashAndReopen(std::unique_ptr<SimEnv>& env,
                    std::unique_ptr<StableHeap>& heap,
                    const StableHeapOptions& opts,
                    const CrashOptions& crash) {
  ASSERT_TRUE(heap->SimulateCrash(crash).ok());
  heap.reset();
  auto reopened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  heap = std::move(*reopened);
}

class RecoveryTest
    : public ::testing::TestWithParam<std::tuple<bool, double>> {
 protected:
  void SetUp() override {
    divided_ = std::get<0>(GetParam());
    writeback_ = std::get<1>(GetParam());
    env_ = std::make_unique<SimEnv>();
    auto heap = StableHeap::Open(env_.get(), TestOptions(divided_));
    ASSERT_TRUE(heap.ok());
    heap_ = std::move(*heap);
  }

  CrashOptions Crash(uint64_t seed = 1, uint64_t tear = 0) {
    CrashOptions c;
    c.writeback_fraction = writeback_;
    c.seed = seed;
    c.tear_tail_bytes = tear;
    return c;
  }

  bool divided_;
  double writeback_;
  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<StableHeap> heap_;
};

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(0.0, 0.4, 1.0)),
    [](const ::testing::TestParamInfo<std::tuple<bool, double>>& param_info) {
      std::string name = std::get<0>(param_info.param) ? "Divided" : "AllStable";
      name += "_Wb";
      name += std::to_string(static_cast<int>(std::get<1>(param_info.param) * 10));
      return name;
    });

TEST_P(RecoveryTest, CommittedTransactionsSurvive) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(100, 1000).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bank.Transfer(i, 99 - i, 10).ok());
  }
  CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(7));
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  auto total = after.TotalBalance();
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(*total, 100u * 1000);
  // Spot-check a transferred account.
  EXPECT_EQ(*after.BalanceOf(0), 990u);
  EXPECT_EQ(*after.BalanceOf(99), 1010u);
}

TEST_P(RecoveryTest, UncommittedTransactionsVanish) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(50, 1000).ok());

  // Leave a transaction in flight at the crash.
  auto txn = heap_->Begin();
  ASSERT_TRUE(txn.ok());
  auto dir = heap_->GetRoot(*txn, 0);
  ASSERT_TRUE(dir.ok());
  auto bucket = heap_->ReadRef(*txn, *dir, 0);
  ASSERT_TRUE(bucket.ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *bucket, 0, 0).ok());  // steal all
  // Push dirty pages so the uncommitted write may reach disk.
  ASSERT_TRUE(heap_->WriteBackPages(1.0, 3).ok());

  CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(11));
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.BalanceOf(0), 1000u);  // undone by recovery
  EXPECT_EQ(*after.TotalBalance(), 50u * 1000);
}

TEST_P(RecoveryTest, AbortedTransactionsStayAborted) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(50, 1000).ok());
  ASSERT_TRUE(bank.Transfer(1, 2, 500, /*abort_instead=*/true).ok());
  CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(5));
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.BalanceOf(1), 1000u);
  EXPECT_EQ(*after.BalanceOf(2), 1000u);
}

TEST_P(RecoveryTest, TornLogTailLosesOnlyUnforcedWork) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(50, 1000).ok());
  ASSERT_TRUE(bank.Transfer(3, 4, 100).ok());  // forced by commit
  // Tear far more bytes than the tail: the durable barrier (raised by the
  // commit force) must protect everything acknowledged.
  CrashAndReopen(env_, heap_, TestOptions(divided_),
                 Crash(13, /*tear=*/1 << 20));
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.BalanceOf(3), 900u);
  EXPECT_EQ(*after.BalanceOf(4), 1100u);
  EXPECT_EQ(*after.TotalBalance(), 50u * 1000);
}

TEST_P(RecoveryTest, ObjectGraphChecksumStableAcrossCrash) {
  auto cls = RegisterNodeClass(heap_.get(), 3);
  ASSERT_TRUE(cls.ok());
  uint64_t checksum;
  {
    auto txn = heap_->Begin();
    auto root = BuildTree(heap_.get(), *txn, *cls, 5);
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(heap_->SetRoot(*txn, 0, *root).ok());
    ASSERT_TRUE(heap_->Commit(*txn).ok());
    auto t2 = heap_->Begin();
    auto r = heap_->GetRoot(*t2, 0);
    checksum = *GraphChecksum(heap_.get(), *t2, *r);
    ASSERT_TRUE(heap_->Commit(*t2).ok());
  }
  CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(17));
  auto txn = heap_->Begin();
  auto root = heap_->GetRoot(*txn, 0);
  ASSERT_TRUE(root.ok());
  auto sum = GraphChecksum(heap_.get(), *txn, *root);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, checksum);
  ASSERT_TRUE(heap_->Commit(*txn).ok());
}

TEST_P(RecoveryTest, CrashDuringIncrementalCollection) {
  auto cls = RegisterNodeClass(heap_.get(), 3);
  ASSERT_TRUE(cls.ok());
  uint64_t checksum;
  {
    auto txn = heap_->Begin();
    auto root = BuildTree(heap_.get(), *txn, *cls, 5);
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(heap_->SetRoot(*txn, 0, *root).ok());
    ASSERT_TRUE(heap_->Commit(*txn).ok());
    auto t2 = heap_->Begin();
    auto r = heap_->GetRoot(*t2, 0);
    checksum = *GraphChecksum(heap_.get(), *t2, *r);
    ASSERT_TRUE(heap_->Commit(*t2).ok());
  }

  // Crash at several depths into the collection, reopening each time.
  for (uint64_t steps : {0u, 1u, 3u, 7u, 15u}) {
    ASSERT_TRUE(heap_->StartStableCollection().ok());
    for (uint64_t s = 0; s < steps && heap_->stable_gc()->collecting();
         ++s) {
      ASSERT_TRUE(heap_->StepStableCollection(1).ok());
    }
    CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(steps + 23));
    // Finish whatever collection state was recovered, then verify.
    ASSERT_TRUE(heap_->CollectStableFully().ok());
    auto txn = heap_->Begin();
    auto root = heap_->GetRoot(*txn, 0);
    ASSERT_TRUE(root.ok());
    auto sum = GraphChecksum(heap_.get(), *txn, *root);
    ASSERT_TRUE(sum.ok()) << "steps=" << steps << ": "
                          << sum.status().ToString();
    EXPECT_EQ(*sum, checksum) << "steps=" << steps;
    ASSERT_TRUE(heap_->Commit(*txn).ok());
  }
}

TEST_P(RecoveryTest, CrashWithActiveTxnDuringCollection) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(64, 1000).ok());
  ASSERT_TRUE(heap_->StartStableCollection().ok());
  ASSERT_TRUE(heap_->StepStableCollection(2).ok());

  // Start a transaction mid-collection, modify, don't commit.
  auto txn = heap_->Begin();
  auto dir = heap_->GetRoot(*txn, 0);
  ASSERT_TRUE(dir.ok());
  auto bucket = heap_->ReadRef(*txn, *dir, 0);
  ASSERT_TRUE(bucket.ok());
  ASSERT_TRUE(heap_->WriteScalar(*txn, *bucket, 5, 1).ok());
  ASSERT_TRUE(heap_->StepStableCollection(2).ok());
  ASSERT_TRUE(heap_->WriteBackPages(0.8, 31).ok());

  CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(37));
  ASSERT_TRUE(heap_->CollectStableFully().ok());
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.BalanceOf(5), 1000u);  // loser undone, via UTT if moved
  EXPECT_EQ(*after.TotalBalance(), 64u * 1000);
}

TEST_P(RecoveryTest, RepeatedCrashRecoverCycles) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(40, 500).ok());
  for (uint64_t round = 0; round < 6; ++round) {
    Bank b(heap_.get(), 0);
    ASSERT_TRUE(b.Attach().ok());
    ASSERT_TRUE(b.Transfer(round, round + 10, 50).ok());
    // Alternate crash flavors.
    CrashOptions c = Crash(100 + round, round % 2 == 0 ? 4096 : 0);
    c.writeback_fraction = (round % 3) * 0.5;
    CrashAndReopen(env_, heap_, TestOptions(divided_), c);
  }
  Bank final_bank(heap_.get(), 0);
  ASSERT_TRUE(final_bank.Attach().ok());
  EXPECT_EQ(*final_bank.TotalBalance(), 40u * 500);
  EXPECT_EQ(*final_bank.BalanceOf(0), 450u);
  EXPECT_EQ(*final_bank.BalanceOf(10), 550u);
}

// Every collection frees a space; the table (and with it every checkpoint
// payload and every address-to-space lookup) must hold only the live ones,
// however many collections and reopens the heap has seen.
TEST(RecoverySpaceTableTest, HoldsOnlyLiveSpacesAcrossCollections) {
  auto env = std::make_unique<SimEnv>();
  const StableHeapOptions opts = TestOptions(/*divided=*/true);
  auto opened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<StableHeap> heap = std::move(*opened);
  Bank bank(heap.get(), 0);
  ASSERT_TRUE(bank.Setup(16, 100).ok());
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(heap->CollectVolatile().ok());
      EXPECT_LE(heap->spaces()->spaces().size(), 3u);
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(heap->CollectStableFully().ok());
      EXPECT_LE(heap->spaces()->spaces().size(), 3u);
    }
    ASSERT_TRUE(heap->Checkpoint().ok());
    CrashAndReopen(env, heap, opts, CrashOptions{});
    EXPECT_LE(heap->spaces()->spaces().size(), 3u) << "cycle " << cycle;
  }
  Bank after(heap.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.TotalBalance(), 16u * 100);
}

TEST_P(RecoveryTest, CheckpointShortensRedo) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(64, 1000).ok());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(bank.Transfer(i % 64, (i + 1) % 64, 1).ok());
  ASSERT_TRUE(heap_->Checkpoint().ok());
  ASSERT_TRUE(bank.Transfer(0, 1, 5).ok());
  CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(41));
  // Analysis started at the checkpoint: only the trailing records were read.
  EXPECT_LT(heap_->recovery_stats().analysis_records, 40u);
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.TotalBalance(), 64u * 1000);
}

TEST_P(RecoveryTest, TornCheckpointFallsBackToEarlierOne) {
  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(32, 100).ok());
  ASSERT_TRUE(heap_->Checkpoint().ok());  // good checkpoint
  ASSERT_TRUE(bank.Transfer(1, 2, 10).ok());
  ASSERT_TRUE(heap_->Checkpoint().ok());  // to be torn
  // Tear the log back past the final checkpoint record; the master pointer
  // now points at garbage and recovery must fall back.
  const uint64_t tear =
      env_->log()->size() - (env_->log()->master_lsn() - 1) - 10;
  CrashAndReopen(env_, heap_, TestOptions(divided_), Crash(43, tear));
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.TotalBalance(), 32u * 100);
  EXPECT_EQ(*after.BalanceOf(1), 90u);  // the forced commit survived
}

TEST_P(RecoveryTest, RecoveryWorkIndependentOfHeapSize) {
  // Two heaps, 8x different in live size; same work after the checkpoint.
  auto run = [&](uint64_t accounts) -> uint64_t {
    auto env = std::make_unique<SimEnv>();
    StableHeapOptions opts = TestOptions(divided_);
    opts.stable_space_pages = 2048;
    opts.volatile_space_pages = 1024;
    auto heap_or = StableHeap::Open(env.get(), opts);
    SHEAP_CHECK_OK(heap_or.status());
    auto heap = std::move(*heap_or);
    Bank bank(heap.get(), 0);
    SHEAP_CHECK_OK(bank.Setup(accounts, 100));
    // Steady state: the background writer has cleaned the old dirty pages
    // (redo work is bounded by the oldest dirty page's recovery LSN, so a
    // heap whose pages never reach disk would pay for its whole history).
    SHEAP_CHECK_OK(heap->WriteBackPages(1.0, 77));
    SHEAP_CHECK_OK(heap->Checkpoint());
    for (int i = 0; i < 10; ++i) {
      SHEAP_CHECK_OK(bank.Transfer(i, i + 1, 1));
    }
    SHEAP_CHECK_OK(heap->SimulateCrash(CrashOptions{0.5, 9, 0}));
    heap.reset();
    auto reopened = StableHeap::Open(env.get(), opts);
    SHEAP_CHECK_OK(reopened.status());
    const RecoveryStats& rs = (*reopened)->recovery_stats();
    return rs.analysis_records + rs.redo_records_seen + rs.undo_records;
  };
  const uint64_t small = run(100);
  const uint64_t big = run(800);
  // The paper's claim: recovery does not traverse the heap. Allow slack for
  // page-fetch/end-write noise, but the work must not scale with the heap.
  EXPECT_LT(big, small * 2);
}

TEST_P(RecoveryTest, GroupCommitLosesAtMostUnforcedSuffixAtomically) {
  StableHeapOptions opts = TestOptions(divided_);
  opts.force_on_commit = false;  // group commit
  env_ = std::make_unique<SimEnv>();
  auto heap = StableHeap::Open(env_.get(), opts);
  ASSERT_TRUE(heap.ok());
  heap_ = std::move(*heap);

  Bank bank(heap_.get(), 0);
  ASSERT_TRUE(bank.Setup(32, 100).ok());
  ASSERT_TRUE(heap_->ForceLog().ok());  // setup is durable
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(bank.Transfer(i, i + 8, 10).ok());
  // No force since: the batch may be lost, but never half a transfer.
  CrashAndReopen(env_, heap_, opts, Crash(51));
  Bank after(heap_.get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.TotalBalance(), 32u * 100);
  for (int i = 0; i < 8; ++i) {
    const uint64_t from = *after.BalanceOf(i);
    const uint64_t to = *after.BalanceOf(i + 8);
    EXPECT_TRUE((from == 100 && to == 100) || (from == 90 && to == 110))
        << "transfer " << i << " was torn: " << from << "/" << to;
  }
}

TEST(RecoveryRedoTest, BatchedForwardingWordsOnOnePageAllRedo) {
  // One kGcCopyBatch record puts many forwarding words on each from-space
  // page. Redo must gate once per (record, page) and apply all of them: a
  // gate per word lets the first word's pageLSN bump suppress the rest, so
  // the collection resumed after the crash copies a leaf a second time
  // when it reaches it through the other directory.
  constexpr uint64_t kLeaves = 700;
  StableHeapOptions opts;
  opts.divided_heap = false;
  opts.stable_space_pages = 64;
  opts.auto_collect = false;
  auto env = std::make_unique<SimEnv>();
  auto opened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);

  auto top_cls = heap->RegisterClass({true, true});
  auto dir_cls = heap->RegisterClass(std::vector<bool>(kLeaves, true));
  auto leaf_cls = heap->RegisterClass({false, false});
  ASSERT_TRUE(top_cls.ok() && dir_cls.ok() && leaf_cls.ok());
  {
    TxnId t = *heap->Begin();
    auto top = heap->Allocate(t, *top_cls, 2);
    auto dir_a = heap->Allocate(t, *dir_cls, kLeaves);
    auto dir_b = heap->Allocate(t, *dir_cls, kLeaves);
    ASSERT_TRUE(top.ok() && dir_a.ok() && dir_b.ok());
    for (uint64_t i = 0; i < kLeaves; ++i) {
      auto leaf = heap->Allocate(t, *leaf_cls, 2);
      ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
      ASSERT_TRUE(heap->WriteScalar(t, *leaf, 0, i).ok());
      ASSERT_TRUE(heap->WriteScalar(t, *leaf, 1, 1000 + i).ok());
      ASSERT_TRUE(heap->WriteRef(t, *dir_a, i, *leaf).ok());
      ASSERT_TRUE(heap->WriteRef(t, *dir_b, i, *leaf).ok());
      ASSERT_TRUE(heap->ReleaseRef(t, *leaf).ok());
    }
    ASSERT_TRUE(heap->WriteRef(t, *top, 0, *dir_a).ok());
    ASSERT_TRUE(heap->WriteRef(t, *top, 1, *dir_b).ok());
    ASSERT_TRUE(heap->SetRoot(t, 0, *top).ok());
    ASSERT_TRUE(heap->Commit(t).ok());
  }
  ASSERT_TRUE(heap->CheckpointWithWriteback().ok());
  ASSERT_TRUE(heap->StartStableCollection().ok());
  const GcStats& gc = heap->stable_gc_stats();
  const uint64_t batches_before = gc.copy_batch_records;
  const uint64_t objects_before = gc.copy_batch_objects;
  ASSERT_TRUE(heap->StepStableCollection(2).ok());
  // The step copies every leaf, in a few batches of hundreds (the frontier
  // page's Cheney passes, then the executor round).
  ASSERT_GT(gc.copy_batch_records, batches_before);
  ASSERT_GE(gc.copy_batch_objects - objects_before, kLeaves);
  ASSERT_TRUE(heap->ForceLog().ok());

  CrashOptions crash;
  crash.writeback_fraction = 0;
  ASSERT_TRUE(heap->SimulateCrash(crash).ok());
  heap.reset();
  opened = StableHeap::Open(env.get(), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  heap = std::move(*opened);
  ASSERT_TRUE(heap->CollectStableFully().ok());

  TxnId t = *heap->Begin();
  auto top = heap->GetRoot(t, 0);
  ASSERT_TRUE(top.ok());
  auto dir_a = heap->ReadRef(t, *top, 0);
  auto dir_b = heap->ReadRef(t, *top, 1);
  ASSERT_TRUE(dir_a.ok() && dir_b.ok());
  uint64_t duplicated = 0;
  for (uint64_t i = 0; i < kLeaves; ++i) {
    auto via_a = heap->ReadRef(t, *dir_a, i);
    auto via_b = heap->ReadRef(t, *dir_b, i);
    ASSERT_TRUE(via_a.ok() && via_b.ok());
    if (*heap->DebugAddrOf(*via_a) != *heap->DebugAddrOf(*via_b)) {
      ++duplicated;
    }
    EXPECT_EQ(*heap->ReadScalar(t, *via_a, 1), 1000 + i);
    ASSERT_TRUE(heap->ReleaseRef(t, *via_a).ok());
    ASSERT_TRUE(heap->ReleaseRef(t, *via_b).ok());
  }
  EXPECT_EQ(duplicated, 0u) << "leaves copied twice after recovery";
  // A write through one directory is visible through the other.
  for (uint64_t i : {uint64_t{0}, kLeaves / 2, kLeaves - 1}) {
    auto via_a = heap->ReadRef(t, *dir_a, i);
    auto via_b = heap->ReadRef(t, *dir_b, i);
    ASSERT_TRUE(via_a.ok() && via_b.ok());
    ASSERT_TRUE(heap->WriteScalar(t, *via_a, 1, 42).ok());
    EXPECT_EQ(*heap->ReadScalar(t, *via_b, 1), 42u) << "leaf " << i;
  }
  ASSERT_TRUE(heap->Commit(t).ok());
}

// ------------------------------------------------------------ rollback

// Restart undo runs Abort's own rollback tail on the transaction recovery
// restored from its log chain. So a transaction rolled back by Abort and
// the same transaction rolled back by crash and reopen leave the same
// slots, in the divided heap and in the all-stable one.
constexpr uint64_t kRollbackUpdates = 6;

class RollbackTest : public ::testing::TestWithParam<bool> {
 protected:
  void Open() {
    env_ = std::make_unique<SimEnv>();
    auto heap = StableHeap::Open(env_.get(), TestOptions(GetParam()));
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
  }

  /// Reopen on the same environment, after a crash that writes back every
  /// dirty page (and so, by the WAL rule, flushes the log through the
  /// newest record that dirtied one), or after a clean close.
  void Reopen(bool crash) {
    if (crash) {
      CrashOptions c;
      c.writeback_fraction = 1.0;
      ASSERT_TRUE(heap_->SimulateCrash(c).ok());
    }
    heap_.reset();
    auto heap = StableHeap::Open(env_.get(), TestOptions(GetParam()));
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
  }

  /// Commit a data array (root 0) and a pointer array (root 1) into the
  /// stable area, then begin a transaction that logs kRollbackUpdates
  /// updates over them: four scalar stores (one slot twice) and two
  /// pointer stores. Returns the transaction; *committed gets the slots
  /// it must roll back to.
  TxnId CommitThenUpdate(std::vector<uint64_t>* committed) {
    TxnId t = *heap_->Begin();
    Ref data = *heap_->AllocateStable(t, kClassDataArray, 4);
    Ref other = *heap_->AllocateStable(t, kClassDataArray, 1);
    Ref ptrs = *heap_->AllocateStable(t, kClassPtrArray, 3);
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(heap_->WriteScalar(t, data, i, 10 * (i + 1)).ok());
    }
    EXPECT_TRUE(heap_->WriteRef(t, ptrs, 0, data).ok());
    EXPECT_TRUE(heap_->WriteRef(t, ptrs, 2, other).ok());
    EXPECT_TRUE(heap_->SetRoot(t, 0, data).ok());
    EXPECT_TRUE(heap_->SetRoot(t, 1, ptrs).ok());
    EXPECT_TRUE(heap_->Commit(t).ok());
    *committed = Slots();

    t = *heap_->Begin();
    data = *heap_->GetRoot(t, 0);
    ptrs = *heap_->GetRoot(t, 1);
    other = *heap_->ReadRef(t, ptrs, 2);
    EXPECT_TRUE(heap_->WriteScalar(t, data, 0, 11).ok());
    EXPECT_TRUE(heap_->WriteScalar(t, data, 1, 21).ok());
    EXPECT_TRUE(heap_->WriteScalar(t, data, 0, 12).ok());
    EXPECT_TRUE(heap_->WriteScalar(t, data, 3, 41).ok());
    EXPECT_TRUE(heap_->WriteRef(t, ptrs, 0, other).ok());
    EXPECT_TRUE(heap_->WriteRef(t, ptrs, 1, data).ok());
    return t;
  }

  /// Every slot of both arrays; a pointer slot reads as its heap address.
  std::vector<uint64_t> Slots() {
    std::vector<uint64_t> out;
    TxnId t = *heap_->Begin();
    Ref data = *heap_->GetRoot(t, 0);
    Ref ptrs = *heap_->GetRoot(t, 1);
    for (uint64_t i = 0; i < 4; ++i) {
      out.push_back(*heap_->ReadScalar(t, data, i));
    }
    for (uint64_t i = 0; i < 3; ++i) {
      Ref r = *heap_->ReadRef(t, ptrs, i);
      out.push_back(r == kNullRef ? kNullAddr : *heap_->DebugAddrOf(r));
    }
    EXPECT_TRUE(heap_->Commit(t).ok());
    return out;
  }

  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<StableHeap> heap_;
};

INSTANTIATE_TEST_SUITE_P(Heaps, RollbackTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Divided" : "AllStable";
                         });

TEST_P(RollbackTest, AbortAndRestartUndoLeaveTheSameSlots) {
  std::vector<uint64_t> committed;
  Open();
  ASSERT_TRUE(heap_->Abort(CommitThenUpdate(&committed)).ok());
  const std::vector<uint64_t> aborted = Slots();
  EXPECT_EQ(aborted, committed);

  // The same transaction, its updates durable and stolen onto disk, rolled
  // back by recovery instead.
  Open();
  CommitThenUpdate(&committed);
  ASSERT_TRUE(heap_->ForceLog().ok());
  Reopen(/*crash=*/true);
  EXPECT_EQ(Slots(), aborted);
  const RecoveryStats& rs = heap_->recovery_stats();
  EXPECT_EQ(rs.losers_aborted, 1u);
  EXPECT_EQ(rs.clrs_written, kRollbackUpdates);
}

#if SHEAP_FAULT_INJECTION
TEST_P(RollbackTest, CutRollbackWritesOnlyTheMissingClrs) {
  for (uint64_t k = 1; k <= kRollbackUpdates; ++k) {
    SCOPED_TRACE("cut after CLR " + std::to_string(k));
    Open();
    FaultSpec spec;
    spec.point = "txn.undo.clr_logged";
    spec.kind = FaultKind::kCrash;
    spec.hit = k;
    env_->faults()->Arm(spec);
    std::vector<uint64_t> committed;
    const TxnId t = CommitThenUpdate(&committed);
    ASSERT_TRUE(heap_->Abort(t).IsCrashed());

    // Writing back the page the k-th CLR undid flushes the log through it.
    Reopen(/*crash=*/true);
    EXPECT_EQ(Slots(), committed);
    EXPECT_EQ(heap_->recovery_stats().losers_aborted, 1u);
    EXPECT_EQ(heap_->recovery_stats().clrs_written, kRollbackUpdates - k);

    Reopen(/*crash=*/false);
    EXPECT_EQ(Slots(), committed);
    EXPECT_EQ(heap_->recovery_stats().losers_aborted, 0u);
    EXPECT_EQ(heap_->recovery_stats().clrs_written, 0u);
  }
}
#endif  // SHEAP_FAULT_INJECTION

}  // namespace
}  // namespace sheap
