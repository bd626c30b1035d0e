// Unit tests for the transaction layer: read/write locks, upgrades,
// deadlock detection, lock rekeying, the transaction table and record
// chains, and the undo translation table.

#include <gtest/gtest.h>

#include "recovery/utt.h"
#include "storage/sim_env.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/log_writer.h"

namespace sheap {
namespace {

TEST(LockManagerTest, SharedReadersCoexist) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireRead(1, 100).ok());
  EXPECT_TRUE(locks.AcquireRead(2, 100).ok());
  EXPECT_TRUE(locks.HoldsRead(1, 100));
  EXPECT_TRUE(locks.HoldsRead(2, 100));
}

TEST(LockManagerTest, WriterExcludesOthers) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireWrite(1, 100).ok());
  EXPECT_TRUE(locks.AcquireRead(2, 100).IsBusy());
  EXPECT_TRUE(locks.AcquireWrite(2, 100).IsBusy());
  // The holder can reacquire freely.
  EXPECT_TRUE(locks.AcquireRead(1, 100).ok());
  EXPECT_TRUE(locks.AcquireWrite(1, 100).ok());
}

TEST(LockManagerTest, UpgradeSoleReader) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireRead(1, 100).ok());
  EXPECT_TRUE(locks.AcquireWrite(1, 100).ok());
  EXPECT_TRUE(locks.HoldsWrite(1, 100));
}

TEST(LockManagerTest, UpgradeBlockedByOtherReaders) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireRead(1, 100).ok());
  EXPECT_TRUE(locks.AcquireRead(2, 100).ok());
  EXPECT_TRUE(locks.AcquireWrite(1, 100).IsBusy());
}

TEST(LockManagerTest, ReleaseAllFreesObjects) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireWrite(1, 100).ok());
  EXPECT_TRUE(locks.AcquireWrite(1, 200).ok());
  locks.ReleaseAll(1);
  EXPECT_TRUE(locks.AcquireWrite(2, 100).ok());
  EXPECT_TRUE(locks.AcquireWrite(2, 200).ok());
}

TEST(LockManagerTest, DeadlockDetected) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireWrite(1, 100).ok());
  EXPECT_TRUE(locks.AcquireWrite(2, 200).ok());
  // 1 waits for 2.
  EXPECT_TRUE(locks.AcquireWrite(1, 200).IsBusy());
  // 2 waiting for 1 closes the cycle.
  EXPECT_TRUE(locks.AcquireWrite(2, 100).IsDeadlock());
  EXPECT_EQ(locks.stats().deadlocks, 1u);
}

TEST(LockManagerTest, ThreeWayDeadlockDetected) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireWrite(1, 10).ok());
  EXPECT_TRUE(locks.AcquireWrite(2, 20).ok());
  EXPECT_TRUE(locks.AcquireWrite(3, 30).ok());
  EXPECT_TRUE(locks.AcquireWrite(1, 20).IsBusy());
  EXPECT_TRUE(locks.AcquireWrite(2, 30).IsBusy());
  EXPECT_TRUE(locks.AcquireWrite(3, 10).IsDeadlock());
}

TEST(LockManagerTest, RekeyMovesLockWithObject) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireWrite(1, 100).ok());
  locks.Rekey(100, 500);
  EXPECT_TRUE(locks.HoldsWrite(1, 500));
  EXPECT_FALSE(locks.HoldsWrite(1, 100));
  // The moved lock still excludes others.
  EXPECT_TRUE(locks.AcquireWrite(2, 500).IsBusy());
}

TEST(LockManagerTest, WaitEdgesClearOnRelease) {
  LockManager locks;
  EXPECT_TRUE(locks.AcquireWrite(1, 100).ok());
  EXPECT_TRUE(locks.AcquireWrite(2, 100).IsBusy());
  locks.ReleaseAll(1);
  EXPECT_TRUE(locks.AcquireWrite(2, 100).ok());
  // No phantom cycle from the stale wait edge.
  EXPECT_TRUE(locks.AcquireWrite(1, 100).IsBusy());
}

class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest() : writer_(env_.log()), txns_(&writer_) {}
  SimEnv env_;
  LogWriter writer_;
  TxnManager txns_;
};

TEST_F(TxnManagerTest, BeginAssignsIdsAndLogs) {
  Txn* a = txns_.Begin();
  Txn* b = txns_.Begin();
  EXPECT_LT(a->id, b->id);
  EXPECT_NE(a->first_lsn, kInvalidLsn);
  EXPECT_EQ(a->first_lsn, a->last_lsn);
  EXPECT_EQ(txns_.ActiveCount(), 2u);
}

TEST_F(TxnManagerTest, AppendChainedMaintainsBackChain) {
  Txn* t = txns_.Begin();
  const Lsn begin_lsn = t->last_lsn;
  LogRecord rec;
  rec.type = RecordType::kUpdate;
  rec.addr = 8;
  Lsn l1 = txns_.AppendChained(t, &rec);
  EXPECT_EQ(rec.prev_lsn, begin_lsn);
  LogRecord rec2;
  rec2.type = RecordType::kUpdate;
  rec2.addr = 16;
  Lsn l2 = txns_.AppendChained(t, &rec2);
  EXPECT_EQ(rec2.prev_lsn, l1);
  EXPECT_EQ(t->last_lsn, l2);
}

TEST_F(TxnManagerTest, BumpNextIdAfterRecovery) {
  txns_.BumpNextId(41);
  Txn* t = txns_.Begin();
  EXPECT_EQ(t->id, 42u);
}

TEST(UttTest, TranslateUncoveredUnchanged) {
  UndoTranslationTable utt;
  EXPECT_EQ(utt.Translate(12345), 12345u);
  EXPECT_FALSE(utt.Covers(12345));
}

TEST(UttTest, TranslatesWithinRange) {
  UndoTranslationTable utt;
  // Object of 4 words moved from 1000 to 9000.
  utt.AddBatch({{1000, 9000, 4}}, {1});
  EXPECT_EQ(utt.Translate(1000), 9000u);
  EXPECT_EQ(utt.Translate(1016), 9016u);  // slot within the object
  EXPECT_EQ(utt.Translate(1032), 1032u);  // one past the end: uncovered
}

TEST(UttTest, ComposesAcrossFlips) {
  UndoTranslationTable utt;
  utt.AddBatch({{1000, 9000, 4}}, {1});
  utt.AddBatch({{9000, 20000, 4}}, {1});
  EXPECT_EQ(utt.Translate(1008), 20008u);
}

TEST(UttTest, PrunedWhenAllDependentTxnsEnd) {
  UndoTranslationTable utt;
  utt.AddBatch({{1000, 9000, 4}}, {1, 2});
  utt.OnTxnEnd(1);
  EXPECT_TRUE(utt.Covers(1000));  // txn 2 still active
  utt.OnTxnEnd(2);
  EXPECT_FALSE(utt.Covers(1000));
  EXPECT_EQ(utt.BatchCount(), 0u);
}

TEST(UttTest, BatchWithoutActiveTxnsIsNotKept) {
  UndoTranslationTable utt;
  utt.AddBatch({{1000, 9000, 4}}, {});
  EXPECT_FALSE(utt.Covers(1000));
  EXPECT_EQ(utt.BatchCount(), 0u);
  // A later batch that is pruned normally leaves nothing behind either.
  utt.AddBatch({{2000, 9500, 2}}, {3});
  utt.OnTxnEnd(3);
  EXPECT_EQ(utt.BatchCount(), 0u);
  EXPECT_EQ(utt.EntryCount(), 0u);
}

TEST(UttTest, EncodeDecodeRoundTrip) {
  UndoTranslationTable utt;
  utt.AddBatch({{1000, 9000, 4}, {2000, 9500, 2}}, {1, 7});
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  utt.EncodeTo(&enc);
  UndoTranslationTable copy;
  Decoder dec(buf);
  ASSERT_TRUE(copy.DecodeFrom(&dec).ok());
  EXPECT_EQ(copy.Translate(2008), 9508u);
  copy.OnTxnEnd(1);
  copy.OnTxnEnd(7);
  EXPECT_FALSE(copy.Covers(1000));
}

}  // namespace
}  // namespace sheap
