// Two-phase commit tests (the paper's §2.2 distributed extension): the
// prepared (in-doubt) state survives participant crashes with its locks and
// undo information; the coordinator's forced decision record is the commit
// point; presumed abort resolves undecided transactions.

#include <gtest/gtest.h>

#include <memory>

#include "dtx/two_phase.h"
#include "workload/workloads.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

using workload::Bank;

struct Node {
  std::unique_ptr<SimEnv> env;
  std::unique_ptr<StableHeap> heap;
  Bank bank{nullptr, 0};
  bool group_commit = false;

  void Open(uint64_t accounts = 0) {
    StableHeapOptions opts;
    opts.stable_space_pages = 256;
    opts.volatile_space_pages = 128;
    opts.group_commit = group_commit;
    const bool fresh = env == nullptr;
    if (fresh) env = std::make_unique<SimEnv>();
    heap = std::move(*StableHeap::Open(env.get(), opts));
    bank = Bank(heap.get(), 0);
    if (fresh && accounts > 0) {
      SHEAP_CHECK_OK(bank.Setup(accounts, 1000));
    } else {
      Status st = bank.Attach();
      // A restored in-doubt transaction may hold the root array's write
      // lock (it updated a root slot); attach again after resolution.
      SHEAP_CHECK(st.ok() || st.IsBusy());
    }
  }

  void Crash(double writeback, uint64_t seed) {
    SHEAP_CHECK_OK(heap->SimulateCrash(CrashOptions{writeback, seed, 100}));
    heap.reset();
    Open();
  }

  /// Begin a transfer but leave it un-committed (for 2PC).
  TxnId StartTransfer(uint64_t from, uint64_t to, uint64_t amount) {
    TxnId txn = *heap->Begin();
    Ref dir = *heap->GetRoot(txn, 0);
    Ref fb = *heap->ReadRef(txn, dir, from / 64);
    Ref tb = *heap->ReadRef(txn, dir, to / 64);
    uint64_t fbal = *heap->ReadScalar(txn, fb, from % 64);
    uint64_t tbal = *heap->ReadScalar(txn, tb, to % 64);
    SHEAP_CHECK_OK(heap->WriteScalar(txn, fb, from % 64, fbal - amount));
    SHEAP_CHECK_OK(heap->WriteScalar(txn, tb, to % 64, tbal + amount));
    return txn;
  }
};

class DtxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_.Open(64);
    b_.Open(64);
    coord_env_ = std::make_unique<SimEnv>();
    coord_ = std::make_unique<TwoPhaseCoordinator>(coord_env_.get());
  }

  Node a_, b_;
  std::unique_ptr<SimEnv> coord_env_;
  std::unique_ptr<TwoPhaseCoordinator> coord_;
};

TEST_F(DtxTest, DistributedCommitAppliesOnBothNodes) {
  // Move 100 "between banks": debit on A, credit on B, atomically.
  TxnId ta = a_.StartTransfer(0, 1, 100);  // and a local shuffle
  TxnId tb = b_.StartTransfer(2, 3, 100);
  auto committed = coord_->CommitDistributed({{a_.heap.get(), ta},
                                              {b_.heap.get(), tb}});
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_TRUE(*committed);
  EXPECT_EQ(*a_.bank.BalanceOf(0), 900u);
  EXPECT_EQ(*b_.bank.BalanceOf(3), 1100u);
}

TEST_F(DtxTest, DistributedCommitWorksUnderGroupCommit) {
  // Both participants run with the commit queue enabled: the 2PC prepare
  // and decision forces are durability barriers, so they drain queued
  // group commits (piggybacking) instead of stalling behind them.
  Node ga, gb;
  ga.group_commit = true;
  gb.group_commit = true;
  ga.Open(64);
  gb.Open(64);

  // A side object committed up front (a SetRoot inside the queued txn
  // would hold the root table's write lock and block everyone's GetRoot).
  {
    TxnId s = *ga.heap->Begin();
    Ref obj = *ga.heap->AllocateStable(s, kClassDataArray, 1);
    ASSERT_TRUE(ga.heap->SetRoot(s, 1, obj).ok());
    ASSERT_TRUE(ga.heap->CommitSync(s).ok());
  }

  // A local transaction sits in A's commit queue when the prepare runs.
  // It touches only the side object, so it conflicts with nothing.
  TxnId local = *ga.heap->Begin();
  Ref obj = *ga.heap->GetRoot(local, 1);
  ASSERT_TRUE(ga.heap->WriteScalar(local, obj, 0, 555).ok());
  ASSERT_TRUE(ga.heap->Commit(local).IsBusy());

  TxnId ta = ga.StartTransfer(0, 1, 100);
  TxnId tb = gb.StartTransfer(2, 3, 100);
  auto committed = coord_->CommitDistributed({{ga.heap.get(), ta},
                                              {gb.heap.get(), tb}});
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_TRUE(*committed);

  // The prepare's force already made the queued waiter durable.
  EXPECT_GE(ga.heap->group_commit_stats().piggybacked, 1u);
  EXPECT_TRUE(ga.heap->Commit(local).ok());

  EXPECT_EQ(*ga.bank.BalanceOf(0), 900u);
  EXPECT_EQ(*ga.bank.BalanceOf(1), 1100u);
  EXPECT_EQ(*gb.bank.BalanceOf(2), 900u);
  EXPECT_EQ(*gb.bank.BalanceOf(3), 1100u);

  TxnId check = *ga.heap->Begin();
  Ref arr = *ga.heap->GetRoot(check, 1);
  EXPECT_EQ(*ga.heap->ReadScalar(check, arr, 0), 555u);
  ASSERT_TRUE(ga.heap->CommitSync(check).ok());
}

TEST_F(DtxTest, PrepareFailureRollsBackEveryBranch) {
  TxnId ta = a_.StartTransfer(0, 1, 100);
  // Branch B's transaction is already ended: prepare must fail.
  TxnId tb = *b_.heap->Begin();
  ASSERT_TRUE(b_.heap->Abort(tb).ok());
  auto committed = coord_->CommitDistributed({{a_.heap.get(), ta},
                                              {b_.heap.get(), tb}});
  ASSERT_TRUE(committed.ok());
  EXPECT_FALSE(*committed);
  EXPECT_EQ(*a_.bank.BalanceOf(0), 1000u);  // rolled back on A
  EXPECT_EQ(*a_.bank.TotalBalance(), 64u * 1000);
}

TEST_F(DtxTest, PreparedStateSurvivesParticipantCrash) {
  TxnId ta = a_.StartTransfer(0, 1, 250);
  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta}});
  ASSERT_TRUE(voted.ok() && *voted);

  // Participant crashes while in doubt.
  a_.Crash(0.4, 7);
  auto in_doubt = a_.heap->InDoubtTransactions();
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0].second, gtid);
  EXPECT_EQ(a_.heap->recovery_stats().prepared_restored, 1u);

  // The in-doubt transaction still holds its write locks: a conflicting
  // transfer must block.
  TxnId blocked = *a_.heap->Begin();
  Ref dir = *a_.heap->GetRoot(blocked, 0);
  Ref bucket = *a_.heap->ReadRef(blocked, dir, 0);
  EXPECT_TRUE(a_.heap->WriteScalar(blocked, bucket, 0, 0).IsBusy());
  ASSERT_TRUE(a_.heap->Abort(blocked).ok());

  // No decision was logged: presumed abort.
  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());
  EXPECT_EQ(*a_.bank.BalanceOf(0), 1000u);
  EXPECT_EQ(*a_.bank.BalanceOf(1), 1000u);
  EXPECT_TRUE(a_.heap->InDoubtTransactions().empty());
}

TEST_F(DtxTest, CommitDecisionSurvivesEverybodyCrashing) {
  TxnId ta = a_.StartTransfer(0, 1, 250);
  TxnId tb = b_.StartTransfer(4, 5, 250);
  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta},
                                         {b_.heap.get(), tb}});
  ASSERT_TRUE(voted.ok() && *voted);
  ASSERT_TRUE(coord_->LogCommitDecision(gtid).ok());

  // Both participants AND the coordinator crash before phase 2.
  a_.Crash(0.2, 11);
  b_.Crash(0.9, 13);
  coord_ = std::make_unique<TwoPhaseCoordinator>(coord_env_.get());
  EXPECT_TRUE(coord_->Committed(gtid));

  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());
  ASSERT_TRUE(coord_->Resolve(b_.heap.get()).ok());
  EXPECT_EQ(*a_.bank.BalanceOf(0), 750u);
  EXPECT_EQ(*a_.bank.BalanceOf(1), 1250u);
  EXPECT_EQ(*b_.bank.BalanceOf(4), 750u);
  EXPECT_EQ(*b_.bank.BalanceOf(5), 1250u);
}

TEST_F(DtxTest, PresumedAbortWhenCoordinatorNeverDecided) {
  TxnId ta = a_.StartTransfer(0, 1, 250);
  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta}});
  ASSERT_TRUE(voted.ok() && *voted);
  // Coordinator crashes before the decision; participant crashes too.
  a_.Crash(0.5, 17);
  coord_ = std::make_unique<TwoPhaseCoordinator>(coord_env_.get());
  EXPECT_FALSE(coord_->Committed(gtid));
  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());
  EXPECT_EQ(*a_.bank.TotalBalance(), 64u * 1000);
  EXPECT_EQ(*a_.bank.BalanceOf(0), 1000u);
}

TEST_F(DtxTest, InDoubtSurvivesGarbageCollection) {
  TxnId ta = a_.StartTransfer(0, 1, 250);
  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta}});
  ASSERT_TRUE(voted.ok() && *voted);

  // Collections move the objects the in-doubt transaction updated; its
  // undo information must follow (undo roots at the flip).
  ASSERT_TRUE(a_.heap->CollectStableFully().ok());
  ASSERT_TRUE(a_.heap->CollectStableFully().ok());

  ASSERT_TRUE(coord_->LogCommitDecision(gtid).ok());
  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());
  EXPECT_EQ(*a_.bank.BalanceOf(0), 750u);
  EXPECT_EQ(*a_.bank.BalanceOf(1), 1250u);
}

TEST_F(DtxTest, InDoubtSurvivesCrashThenCollectionThenAbort) {
  TxnId ta = a_.StartTransfer(0, 1, 250);
  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta}});
  ASSERT_TRUE(voted.ok() && *voted);

  a_.Crash(0.6, 23);
  ASSERT_TRUE(a_.heap->CollectStableFully().ok());  // moves everything
  a_.Crash(0.3, 29);  // crash again, mid-doubt
  ASSERT_EQ(a_.heap->InDoubtTransactions().size(), 1u);

  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());  // presumed abort
  EXPECT_EQ(*a_.bank.BalanceOf(0), 1000u);
  EXPECT_EQ(*a_.bank.TotalBalance(), 64u * 1000);
}

TEST_F(DtxTest, PreparedPromotionCommitsAcrossCrash) {
  // The prepared transaction publishes a new (volatile) object; promotion
  // happens at prepare, so the commit decision alone finishes the job even
  // after a crash.
  TxnId ta = *a_.heap->Begin();
  auto cls = a_.heap->RegisterClass({false, true});
  ASSERT_TRUE(cls.ok());
  Ref obj = *a_.heap->Allocate(ta, *cls, 2);
  ASSERT_TRUE(a_.heap->WriteScalar(ta, obj, 0, 777).ok());
  ASSERT_TRUE(a_.heap->SetRoot(ta, 5, obj).ok());

  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta}});
  ASSERT_TRUE(voted.ok() && *voted);
  ASSERT_TRUE(coord_->LogCommitDecision(gtid).ok());
  a_.Crash(0.5, 31);
  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());

  TxnId t = *a_.heap->Begin();
  Ref root = *a_.heap->GetRoot(t, 5);
  ASSERT_NE(root, kNullRef);
  EXPECT_EQ(*a_.heap->ReadScalar(t, root, 0), 777u);
  ASSERT_TRUE(a_.heap->Commit(t).ok());
}

#if SHEAP_FAULT_INJECTION
TEST_F(DtxTest, CrashInAbortPreparedLeavesTransactionInDoubt) {
  TxnId ta = a_.StartTransfer(0, 1, 250);
  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta}});
  ASSERT_TRUE(voted.ok() && *voted);

  // Crash in AbortPrepared's window between the spooled abort record and
  // the first CLR (the one txn.abort.logged site, shared with Abort).
  FaultSpec crash;
  crash.point = "txn.abort.logged";
  crash.kind = FaultKind::kCrash;
  a_.env->faults()->Arm(crash);
  EXPECT_TRUE(a_.heap->AbortPrepared(ta).IsCrashed());
  a_.Crash(0.5, 37);

  // The vote was durable and the abort was not: in doubt again, with its
  // gtid, until resolution (presumed abort) rolls it back.
  auto in_doubt = a_.heap->InDoubtTransactions();
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0].second, gtid);
  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());
  EXPECT_TRUE(a_.heap->InDoubtTransactions().empty());
  EXPECT_EQ(*a_.bank.BalanceOf(0), 1000u);
  EXPECT_EQ(*a_.bank.BalanceOf(1), 1000u);
  EXPECT_EQ(*a_.bank.TotalBalance(), 64u * 1000);
}
#endif  // SHEAP_FAULT_INJECTION

TEST_F(DtxTest, ResolvedAbortReleasesLocks) {
  TxnId ta = a_.StartTransfer(0, 1, 100);
  const Gtid gtid = coord_->NewGtid();
  auto voted = coord_->PrepareAll(gtid, {{a_.heap.get(), ta}});
  ASSERT_TRUE(voted.ok() && *voted);
  ASSERT_TRUE(coord_->Resolve(a_.heap.get()).ok());  // presumed abort
  // Locks released: an ordinary transfer over the same accounts works.
  ASSERT_TRUE(a_.bank.Transfer(0, 1, 50).ok());
  EXPECT_EQ(*a_.bank.BalanceOf(0), 950u);
}

}  // namespace
}  // namespace sheap
