// Unit tests for the transaction layer: read/write locks, upgrades,
// deadlock detection, lock rekeying, the transaction table and record
// chains, and the undo translation table.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
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

// The table's contract as a plain model: batches kept in arrival order and
// pruned by their pending transactions, looked up through a std::map from
// source address to entry rebuilt from every batch in order, so a later
// batch (or a later entry of one batch) wins for an equal source address.
class UttModel {
 public:
  void AddBatch(const std::vector<UtrEntry>& entries,
                const std::vector<TxnId>& active) {
    if (entries.empty() || active.empty()) return;
    batches_.push_back({entries, active});
    Rebuild();
  }
  void OnTxnEnd(TxnId txn) {
    for (auto& [entries, pending] : batches_) {
      auto it = std::find(pending.begin(), pending.end(), txn);
      if (it != pending.end()) pending.erase(it);
    }
    std::erase_if(batches_, [](const auto& b) { return b.second.empty(); });
    Rebuild();
  }
  void Clear() {
    batches_.clear();
    Rebuild();
  }
  HeapAddr Translate(HeapAddr a) const {
    const UtrEntry* e;
    while ((e = Find(a)) != nullptr) a = e->to + (a - e->from);
    return a;
  }
  bool Covers(HeapAddr a) const { return Find(a) != nullptr; }
  size_t EntryCount() const { return by_from_.size(); }
  size_t BatchCount() const { return batches_.size(); }

 private:
  void Rebuild() {
    by_from_.clear();
    for (const auto& [entries, pending] : batches_) {
      for (const UtrEntry& e : entries) by_from_[e.from] = e;
    }
  }
  const UtrEntry* Find(HeapAddr a) const {
    auto it = by_from_.upper_bound(a);
    if (it == by_from_.begin()) return nullptr;
    --it;
    const UtrEntry& e = it->second;
    return a < e.from + e.nwords * kWordSizeBytes ? &e : nullptr;
  }

  std::vector<std::pair<std::vector<UtrEntry>, std::vector<TxnId>>> batches_;
  std::map<HeapAddr, UtrEntry> by_from_;
};

TEST(UttTest, MatchesMapModelUnderRandomScript) {
  // Generation g's objects live in [Base(g), Base(g) + 560): 64 word-aligned
  // starts of up to 6 words. Every entry moves an object to a later
  // generation, as flips do, so chains compose across flips and terminate.
  constexpr uint64_t kGens = 6;
  auto base = [](uint64_t gen) { return (gen + 1) << 20; };
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    UndoTranslationTable utt;
    UttModel model;
    for (int step = 0; step < 300; ++step) {
      const uint64_t op = rng.Uniform(10);
      if (op < 5) {
        // Few starts per generation, so equal source addresses recur
        // within one batch and across batches.
        std::vector<UtrEntry> entries(rng.Uniform(6));
        for (UtrEntry& e : entries) {
          const uint64_t gen = rng.Uniform(kGens);
          e.from = base(gen) + kWordSizeBytes * rng.Uniform(64);
          e.to = base(gen + 1 + rng.Uniform(2)) +
                 kWordSizeBytes * rng.Uniform(64);
          e.nwords = rng.Range(1, 6);
        }
        std::vector<TxnId> active;
        for (TxnId t = 1; t <= 6; ++t) {
          if (rng.Bernoulli(0.3)) active.push_back(t);
        }
        utt.AddBatch(entries, active);
        model.AddBatch(entries, active);
      } else if (op < 8) {
        const TxnId t = rng.Range(1, 6);
        utt.OnTxnEnd(t);
        model.OnTxnEnd(t);
      } else {
        // Checkpoint round trip, decoded into the table itself.
        std::vector<uint8_t> buf;
        Encoder enc(&buf);
        utt.EncodeTo(&enc);
        Decoder dec(buf);
        ASSERT_TRUE(utt.DecodeFrom(&dec).ok());
        ASSERT_TRUE(dec.empty());
      }
      if (step % 100 == 99) {
        utt.Clear();
        model.Clear();
      }
      ASSERT_EQ(utt.BatchCount(), model.BatchCount()) << "step " << step;
      ASSERT_EQ(utt.EntryCount(), model.EntryCount()) << "step " << step;
      for (uint64_t gen = 0; gen < kGens + 3; ++gen) {
        for (HeapAddr a = base(gen); a < base(gen) + 576;
             a += kWordSizeBytes) {
          ASSERT_EQ(utt.Covers(a), model.Covers(a)) << "step " << step;
          ASSERT_EQ(utt.Translate(a), model.Translate(a)) << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sheap
