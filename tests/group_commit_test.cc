// Group-commit scheduler tests (paper §2.2.1, footnote 1): committing
// transactions join the open batch with their commit LSN as a ticket and
// one batch-leader Force() makes the whole batch durable. The durability
// contract is unchanged — Commit returns OK only after the commit record is
// behind the durable barrier — and while the ticket is not durable Commit
// returns Busy, the simulator's "retry this low-level action" signal.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/stable_heap.h"
#include "wal/log_reader.h"
#include "workload/scheduler.h"
#include "workload/workloads.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

using workload::Op;
using workload::Scheduler;

/// Commit, piggybacking on an explicit ForceLog if queued. Unlike
/// CommitSync this does not have to poll out a long deadline, so it is
/// safe in tests that set max_delay_ns very high.
void CommitViaForce(StableHeap* heap, TxnId txn) {
  Status st = heap->Commit(txn);
  if (st.IsBusy()) {
    SHEAP_CHECK_OK(heap->ForceLog());
    st = heap->Commit(txn);
  }
  SHEAP_CHECK_OK(st);
}

/// Commit `n` stable scalar arrays of `slots` slots under roots 0..n-1,
/// so up to `n` transactions that each touch their own array can wait in
/// the same batch without lock conflicts. Object handles are
/// per-transaction, so callers re-fetch an array with GetRoot inside
/// their own transactions.
void SetupArrays(StableHeap* heap, uint64_t n, uint64_t slots = 4) {
  TxnId txn = *heap->Begin();
  for (uint64_t i = 0; i < n; ++i) {
    Ref arr = *heap->AllocateStable(txn, kClassDataArray, slots);
    SHEAP_CHECK_OK(heap->SetRoot(txn, i, arr));
  }
  CommitViaForce(heap, txn);
}

class GroupCommitTest : public ::testing::Test {
 protected:
  void Open(uint32_t max_batch = 16, uint64_t max_delay_ns = 2'000'000) {
    if (env_ == nullptr) env_ = std::make_unique<SimEnv>();
    StableHeapOptions opts;
    opts.stable_space_pages = 512;
    opts.volatile_space_pages = 256;
    opts.group_commit = true;
    opts.group_commit_options.max_batch = max_batch;
    opts.group_commit_options.max_delay_ns = max_delay_ns;
    auto heap = StableHeap::Open(env_.get(), opts);
    ASSERT_TRUE(heap.ok());
    heap_ = std::move(*heap);
  }

  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<StableHeap> heap_;
};

// Filling the batch closes it: the last committer acts as leader, performs
// the single force, and every earlier waiter's retry then succeeds.
TEST_F(GroupCommitTest, BatchClosesAtMaxBatchWithOneForce) {
  Open(/*max_batch=*/4, /*max_delay_ns=*/3'600'000'000'000ull);
  // Distinct objects so all four committers can be queued at once.
  SetupArrays(heap_.get(), 4, 2);

  std::vector<TxnId> txns;
  for (uint64_t i = 0; i < 3; ++i) {
    TxnId t = *heap_->Begin();
    Ref arr = *heap_->GetRoot(t, i);
    ASSERT_TRUE(heap_->WriteScalar(t, arr, 0, 100 + i).ok());
    EXPECT_TRUE(heap_->Commit(t).IsBusy()) << "waiter " << i;
    txns.push_back(t);
  }
  // Fourth committer fills the batch and leads the force.
  TxnId leader = *heap_->Begin();
  Ref arr = *heap_->GetRoot(leader, 3);
  ASSERT_TRUE(heap_->WriteScalar(leader, arr, 0, 103).ok());
  EXPECT_TRUE(heap_->Commit(leader).ok());
  // Every waiter completes on its next retry, with no further force.
  for (TxnId t : txns) EXPECT_TRUE(heap_->Commit(t).ok());

  const GroupCommitStats& gc = heap_->group_commit_stats();
  EXPECT_EQ(gc.enqueued, 5u);  // setup commit + 4
  EXPECT_EQ(gc.size_closes, 1u);
  EXPECT_EQ(gc.max_batch_seen, 4u);
  // Nobody is left waiting: every committer finished its own transaction.
  txns.push_back(leader);
  for (TxnId t : txns) EXPECT_EQ(heap_->txn_manager()->Find(t), nullptr);
}

// A lone committer must not wait forever: each Busy retry charges poll_ns
// of simulated time, so the max_delay_ns deadline arrives and the waiter
// becomes its own batch leader.
TEST_F(GroupCommitTest, LoneCommitterClosesAtDeadline) {
  Open(/*max_batch=*/64, /*max_delay_ns=*/2'000'000);
  SetupArrays(heap_.get(), 1);

  TxnId t = *heap_->Begin();
  Ref arr = *heap_->GetRoot(t, 0);
  ASSERT_TRUE(heap_->WriteScalar(t, arr, 0, 7).ok());
  const uint64_t start_ns = env_->clock()->now_ns();
  int retries = 0;
  Status st = heap_->Commit(t);
  while (st.IsBusy()) {
    ASSERT_LT(++retries, 1000) << "commit never completed";
    st = heap_->Commit(t);
  }
  ASSERT_TRUE(st.ok());
  EXPECT_GT(retries, 0);  // it really did wait for the deadline
  EXPECT_GE(env_->clock()->now_ns() - start_ns, 2'000'000u);

  const GroupCommitStats& gc = heap_->group_commit_stats();
  EXPECT_GE(gc.deadline_closes, 1u);
  EXPECT_GE(gc.polls, static_cast<uint64_t>(retries - 1));
}

// An unrelated durability barrier (here an explicit ForceLog) completes
// queued waiters without a leader force: piggybacking.
TEST_F(GroupCommitTest, WaitersPiggybackOnUnrelatedForce) {
  Open(/*max_batch=*/64, /*max_delay_ns=*/3'600'000'000'000ull);
  SetupArrays(heap_.get(), 1);
  const uint64_t batches_before = heap_->group_commit_stats().batches;

  TxnId t = *heap_->Begin();
  Ref arr = *heap_->GetRoot(t, 0);
  ASSERT_TRUE(heap_->WriteScalar(t, arr, 0, 42).ok());
  EXPECT_TRUE(heap_->Commit(t).IsBusy());
  ASSERT_TRUE(heap_->ForceLog().ok());
  EXPECT_TRUE(heap_->Commit(t).ok());

  const GroupCommitStats& gc = heap_->group_commit_stats();
  EXPECT_GE(gc.piggybacked, 1u);
  EXPECT_EQ(gc.batches, batches_before);  // no leader force was needed
}

// A batch whose highest ticket an unrelated barrier already made durable
// is retired as piggybacked: polls past the batch's deadline do not force
// it a second time.
TEST_F(GroupCommitTest, LeaderNeverForcesAnAlreadyDurableBatch) {
  Open(/*max_batch=*/3, /*max_delay_ns=*/2'000'000);
  SetupArrays(heap_.get(), 2);

  std::vector<TxnId> waiters;
  for (uint64_t i = 0; i < 2; ++i) {
    TxnId t = *heap_->Begin();
    Ref arr = *heap_->GetRoot(t, i);
    ASSERT_TRUE(heap_->WriteScalar(t, arr, 0, 10 + i).ok());
    EXPECT_TRUE(heap_->Commit(t).IsBusy());
    waiters.push_back(t);
  }
  ASSERT_TRUE(heap_->ForceLog().ok());
  const GroupCommitStats before = heap_->group_commit_stats();
  const uint64_t syncs_before = env_->log()->stats().forces;

  // The open batch is past its deadline, so a poll would close it.
  env_->clock()->Advance(3'000'000);
  for (TxnId t : waiters) EXPECT_TRUE(heap_->Commit(t).ok());

  const GroupCommitStats after = heap_->group_commit_stats();
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.piggybacked, before.piggybacked + 2);
  EXPECT_EQ(env_->log()->stats().forces, syncs_before);
}

// While queued the transaction is still kCommitting: its locks stay held,
// so conflicting writers keep getting Busy. Only the waiter finishes its
// own transaction, so the locks are released at the waiter's next Commit
// after its commit record is durable, not by the force itself.
TEST_F(GroupCommitTest, QueuedCommitHoldsLocksUntilDurable) {
  Open(/*max_batch=*/64, /*max_delay_ns=*/3'600'000'000'000ull);
  SetupArrays(heap_.get(), 1);

  TxnId t1 = *heap_->Begin();
  Ref arr1 = *heap_->GetRoot(t1, 0);
  ASSERT_TRUE(heap_->WriteScalar(t1, arr1, 0, 1).ok());
  EXPECT_TRUE(heap_->Commit(t1).IsBusy());

  TxnId t2 = *heap_->Begin();
  Ref arr2 = *heap_->GetRoot(t2, 0);
  EXPECT_TRUE(heap_->WriteScalar(t2, arr2, 0, 2).IsBusy());  // t1's lock

  ASSERT_TRUE(heap_->ForceLog().ok());  // makes t1's commit record durable
  EXPECT_TRUE(heap_->WriteScalar(t2, arr2, 0, 2).IsBusy());  // still held
  EXPECT_TRUE(heap_->Commit(t1).ok());  // t1 finishes: locks released
  EXPECT_TRUE(heap_->WriteScalar(t2, arr2, 0, 2).ok());
  CommitViaForce(heap_.get(), t2);
}

// Durability contract under crash: every transaction whose Commit returned
// OK must survive a crash that loses all of main memory.
TEST_F(GroupCommitTest, CommittedBatchesSurviveCrash) {
  Open(/*max_batch=*/4, /*max_delay_ns=*/2'000'000);
  // One array per queue position: the 4 transactions of a wave touch
  // distinct objects, so they can all sit in the same batch.
  SetupArrays(heap_.get(), 4);

  // Waves of 4 fill batches exactly; each wave is one leader force.
  for (uint64_t wave = 0; wave < 4; ++wave) {
    std::vector<TxnId> txns;
    for (uint64_t i = 0; i < 4; ++i) {
      TxnId t = *heap_->Begin();
      Ref arr = *heap_->GetRoot(t, i);
      ASSERT_TRUE(heap_->WriteScalar(t, arr, wave, 1000 + wave * 4 + i).ok());
      Status st = heap_->Commit(t);
      if (st.IsBusy()) {
        txns.push_back(t);
      } else {
        ASSERT_TRUE(st.ok());
      }
    }
    for (TxnId t : txns) ASSERT_TRUE(heap_->CommitSync(t).ok());
  }

  ASSERT_TRUE(
      heap_->SimulateCrash(CrashOptions{/*writeback_fraction=*/0.0,
                                        /*seed=*/1, /*max_steps=*/100})
          .ok());
  heap_.reset();
  Open(/*max_batch=*/4);

  TxnId t = *heap_->Begin();
  for (uint64_t i = 0; i < 4; ++i) {
    Ref arr = *heap_->GetRoot(t, i);
    for (uint64_t wave = 0; wave < 4; ++wave) {
      EXPECT_EQ(*heap_->ReadScalar(t, arr, wave), 1000 + wave * 4 + i)
          << "array " << i << " wave " << wave;
    }
  }
  ASSERT_TRUE(heap_->CommitSync(t).ok());
}

// The scripted scheduler drives Busy retries exactly like a transactional
// runtime: clients whose Commit is queued get re-run until their batch
// closes; everything still serializes.
TEST_F(GroupCommitTest, SchedulerInterleavesQueuedCommits) {
  Open(/*max_batch=*/8, /*max_delay_ns=*/2'000'000);
  SetupArrays(heap_.get(), 1, 8);

  Scheduler sched(heap_.get(), /*seed=*/1234);
  constexpr uint64_t kClients = 4;
  constexpr uint64_t kReps = 10;
  for (uint64_t c = 0; c < kClients; ++c) {
    std::vector<Op> script;
    for (uint64_t r = 0; r < kReps; ++r) {
      script.push_back(Op::Begin());
      script.push_back(Op::GetRoot(0, 0));
      script.push_back(Op::WriteScalar(0, c, r + 1));
      script.push_back(Op::Commit());
    }
    sched.AddClient(std::move(script));
  }
  ASSERT_TRUE(sched.Run().ok());
  EXPECT_EQ(sched.stats().clients_completed, kClients);
  EXPECT_GT(sched.stats().busy_retries, 0u);  // commits really queued

  const GroupCommitStats& gc = heap_->group_commit_stats();
  EXPECT_GE(gc.enqueued, kClients * kReps);
  // Batching must beat one force per commit.
  EXPECT_LT(gc.batches, gc.enqueued);

  TxnId t = *heap_->Begin();
  Ref root = *heap_->GetRoot(t, 0);
  for (uint64_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(*heap_->ReadScalar(t, root, c), kReps);
  }
  ASSERT_TRUE(heap_->CommitSync(t).ok());
}

// Real threads, one mutex serializing low-level actions (the paper's
// action-interleaving model): threads' Busy commit retries interleave, so
// batches form across threads. Run under -DSHEAP_SANITIZE=THREAD to let
// TSan check the serialization.
TEST_F(GroupCommitTest, ThreadsShareBatchesUnderActionMutex) {
  Open(/*max_batch=*/8, /*max_delay_ns=*/2'000'000);

  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 16;
  // One stable array per thread (distinct objects => no lock conflicts, so
  // commits from different threads really share batches).
  {
    TxnId txn = *heap_->Begin();
    for (int i = 0; i < kThreads; ++i) {
      Ref arr =
          *heap_->AllocateStable(txn, kClassDataArray, kCommitsPerThread);
      SHEAP_CHECK_OK(heap_->SetRoot(txn, i, arr));
    }
    SHEAP_CHECK_OK(heap_->CommitSync(txn));
  }

  Mutex action_mutex;
  std::atomic<bool> failed{false};

  auto worker = [&](uint64_t id) {
    for (int i = 0; i < kCommitsPerThread && !failed; ++i) {
      TxnId txn = kNoTxn;
      {
        MutexLock lock(&action_mutex);
        auto t = heap_->Begin();
        if (!t.ok()) { failed = true; return; }
        txn = *t;
        auto arr = heap_->GetRoot(txn, id);
        if (!arr.ok() ||
            !heap_->WriteScalar(txn, *arr, i, i + 1).ok()) {
          // Busy/conflict path: retry the slot; best-effort rollback
          // (audited discard).
          (void)heap_->Abort(txn);
          --i;
          continue;
        }
      }
      // Commit retry loop, releasing the mutex between actions so other
      // threads can join (and close) the batch.
      for (;;) {
        Status st;
        {
          MutexLock lock(&action_mutex);
          st = heap_->Commit(txn);
        }
        if (st.ok()) break;
        if (!st.IsBusy()) { failed = true; return; }
        std::this_thread::yield();
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed);

  MutexLock lock(&action_mutex);
  const GroupCommitStats& gc = heap_->group_commit_stats();
  EXPECT_GE(gc.enqueued, uint64_t{kThreads * kCommitsPerThread});
  TxnId t = *heap_->Begin();
  for (int id = 0; id < kThreads; ++id) {
    Ref arr = *heap_->GetRoot(t, id);
    for (int i = 0; i < kCommitsPerThread; ++i) {
      EXPECT_EQ(*heap_->ReadScalar(t, arr, i), uint64_t(i + 1))
          << "thread " << id << " slot " << i;
    }
  }
  ASSERT_TRUE(heap_->CommitSync(t).ok());
}

// Two concurrent mutator threads (mutator_threads = 2): each committer
// finishes its own transaction, and only once its ticket is durable. Every
// Commit that returns OK must already see LogWriter::durable_lsn() at or
// past that transaction's commit LSN (read back from the log afterwards).
TEST(GroupCommitConcurrentTest, OkCommitsAreBehindTheDurableBarrier) {
  constexpr uint64_t kThreads = 2;
  constexpr uint64_t kCommitsPerThread = 64;
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 512;
  opts.volatile_space_pages = 256;
  opts.mutator_threads = kThreads;
  opts.group_commit = true;
  opts.group_commit_options.max_batch = 4;
  opts.group_commit_options.close_after_polls = 4;
  auto opened = StableHeap::Open(&env, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*opened);
  {
    TxnId txn = *heap->Begin();
    for (uint64_t i = 0; i < kThreads; ++i) {
      Ref arr = *heap->AllocateStable(txn, kClassDataArray, 8);
      SHEAP_CHECK_OK(heap->SetRoot(txn, i, arr));
    }
    SHEAP_CHECK_OK(heap->CommitSync(txn));
  }

  struct Acked {
    TxnId txn;
    Lsn durable_at_return;
  };
  std::vector<std::vector<Acked>> acked(kThreads);
  std::atomic<bool> failed{false};
  auto worker = [&](uint64_t id) {
    for (uint64_t i = 0; i < kCommitsPerThread && !failed; ++i) {
      auto txn = heap->Begin();
      if (!txn.ok()) { failed = true; return; }
      auto arr = heap->GetRoot(*txn, id);
      if (!arr.ok() || !heap->WriteScalar(*txn, *arr, i % 8, i + 1).ok()) {
        failed = true;
        return;
      }
      for (;;) {
        Status st = heap->Commit(*txn);
        if (st.ok()) {
          acked[id].push_back({*txn, heap->log_writer()->durable_lsn()});
          break;
        }
        if (!st.IsBusy()) { failed = true; return; }
        std::this_thread::yield();
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed);

  std::unordered_map<TxnId, Lsn> commit_lsn;
  LogReader reader(env.log());
  LogRecord rec;
  for (;;) {
    auto more = reader.Next(&rec);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    if (rec.type == RecordType::kCommit) commit_lsn[rec.txn_id] = rec.lsn;
  }
  for (const auto& per_thread : acked) {
    ASSERT_EQ(per_thread.size(), kCommitsPerThread);
    for (const Acked& a : per_thread) {
      auto it = commit_lsn.find(a.txn);
      ASSERT_NE(it, commit_lsn.end()) << "acknowledged commit not durable";
      EXPECT_GE(a.durable_at_return, it->second) << "txn " << a.txn;
    }
  }
  EXPECT_GT(heap->group_commit_stats().batches, 0u);
}

// A concurrent (mutator_threads = 2) group commit that must promote does so
// exactly once: Commit promotes the active transaction under the exclusive
// gate (one handshake), and each Busy retry of the now-committing
// transaction skips the promotion step and its exclusive section, going
// straight to the commit body's retry check in a shared section.
TEST(GroupCommitConcurrentTest, PromotingCommitPromotesOnceAcrossRetries) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  opts.mutator_threads = 2;
  opts.group_commit = true;
  opts.group_commit_options.max_delay_ns = 3'600'000'000'000ull;
  opts.group_commit_options.close_after_polls = 4;
  auto heap_or = StableHeap::Open(&env, opts);
  ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*heap_or);
  auto cls = heap->RegisterClass({false});
  ASSERT_TRUE(cls.ok());

  // A new (volatile) object published through a stable root slot: the
  // remembered slot makes this commit promote.
  TxnId txn = *heap->Begin();
  Ref obj = *heap->Allocate(txn, *cls, 1);
  ASSERT_TRUE(heap->WriteScalar(txn, obj, 0, 42).ok());
  ASSERT_TRUE(heap->SetRoot(txn, 0, obj).ok());
  const uint64_t promoted_before =
      heap->promotion_stats().commits_with_promotion;
  const uint64_t handshakes_before = heap->gate_stats().handshakes;
  int busy = 0;
  Status st = heap->Commit(txn);
  while (st.IsBusy()) {
    ASSERT_LT(++busy, 100) << "commit never completed";
    st = heap->Commit(txn);
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(busy, 1);  // the batch closed on a retry's poll budget
  EXPECT_EQ(heap->promotion_stats().commits_with_promotion,
            promoted_before + 1);
  EXPECT_EQ(heap->gate_stats().handshakes, handshakes_before + 1);

  // The object moved to the stable area with its contents.
  TxnId reader = *heap->Begin();
  Ref root = *heap->GetRoot(reader, 0);
  EXPECT_EQ(*heap->ReadScalar(reader, root, 0), 42u);
  auto addr = heap->DebugAddrOf(root);
  ASSERT_TRUE(addr.ok());
  EXPECT_FALSE(heap->volatile_gc()->Contains(*addr));
  ASSERT_TRUE(heap->Abort(reader).ok());
}

// ------------------------------------------------------ failed log syncs

/// A log device whose sync can be made to fail: with `fail_sync` set,
/// MarkDurableBarrier leaves the barrier where it was, as RealLogDevice
/// does when fdatasync fails. Everything else forwards to a SimLogDevice.
class FailingSyncLog final : public LogDevice {
 public:
  explicit FailingSyncLog(SimLogDevice* in) : in_(in) {}

  Status Append(const uint8_t* data, size_t n) override {
    return in_->Append(data, n);
  }
  Status AppendAsync(const uint8_t* data, size_t n) override {
    return in_->AppendAsync(data, n);
  }
  void Force() override { in_->Force(); }
  uint64_t size() const override { return in_->size(); }
  Status ReadAt(uint64_t offset, size_t n, uint8_t* out) const override {
    return in_->ReadAt(offset, n, out);
  }
  void SetMasterLsn(Lsn lsn) override { in_->SetMasterLsn(lsn); }
  Lsn master_lsn() const override { return in_->master_lsn(); }
  void TruncatePrefix(uint64_t offset) override { in_->TruncatePrefix(offset); }
  uint64_t truncated_prefix() const override {
    return in_->truncated_prefix();
  }
  void MarkDurableBarrier() override {
    if (!fail_sync) in_->MarkDurableBarrier();
  }
  uint64_t durable_barrier() const override {
    return in_->durable_barrier();
  }
  void TearTail(size_t n) override { in_->TearTail(n); }
  FaultInjector* faults() const override { return in_->faults(); }
  LogDeviceStats stats() const override { return in_->stats(); }
  void ResetStats() override { in_->ResetStats(); }

  bool fail_sync = false;

 private:
  SimLogDevice* in_;
};

/// A SimEnv whose log is a FailingSyncLog.
class FailingSyncEnv final : public Env {
 public:
  SimClock* clock() override { return sim_.clock(); }
  Disk* disk() override { return sim_.disk(); }
  LogDevice* log() override { return &log_; }
  FaultInjector* faults() override { return sim_.faults(); }
  const char* backend_name() const override { return "sim"; }

  FailingSyncLog* failing_log() { return &log_; }

 private:
  SimEnv sim_;
  FailingSyncLog log_{sim_.log()};
};

/// A transaction that has written `value` into slot 0 of root `root`'s
/// array and is ready to commit.
TxnId WriteOneSlot(StableHeap* heap, uint64_t root, uint64_t value) {
  TxnId txn = *heap->Begin();
  Ref arr = *heap->GetRoot(txn, root);
  SHEAP_CHECK_OK(heap->WriteScalar(txn, arr, 0, value));
  return txn;
}

// Force-on-commit: a commit whose force could not make the record durable
// is not acknowledged, and the log does not claim it durable.
TEST(LogSyncFailureTest, ForcedCommitReturnsIoError) {
  FailingSyncEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  auto heap_or = StableHeap::Open(&env, opts);
  ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*heap_or);
  SetupArrays(heap.get(), 1);  // while syncs still work

  TxnId txn = WriteOneSlot(heap.get(), 0, 7);
  const Lsn durable_before = heap->log_writer()->durable_lsn();
  env.failing_log()->fail_sync = true;
  Status st = heap->Commit(txn);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(heap->log_writer()->durable_lsn(), durable_before);
  const Txn* unacked = heap->txn_manager()->Find(txn);
  ASSERT_NE(unacked, nullptr) << "transaction finished without durability";
  EXPECT_LT(heap->log_writer()->durable_lsn(), unacked->last_lsn);
}

// Group commit: the leader whose batch force fails gets the error, and the
// batch stays open — once syncs work again, a retry leads it to
// durability and every member commits.
TEST(LogSyncFailureTest, GroupLeaderReturnsIoErrorAndBatchStaysOpen) {
  FailingSyncEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  opts.group_commit = true;
  opts.group_commit_options.max_batch = 2;
  opts.group_commit_options.max_delay_ns = 3'600'000'000'000ull;
  auto heap_or = StableHeap::Open(&env, opts);
  ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*heap_or);
  SetupArrays(heap.get(), 2);  // while syncs still work
  const uint64_t batches_before = heap->group_commit_stats().batches;

  TxnId waiter = WriteOneSlot(heap.get(), 0, 7);
  TxnId leader = WriteOneSlot(heap.get(), 1, 8);
  const Lsn durable_before = heap->log_writer()->durable_lsn();
  env.failing_log()->fail_sync = true;
  ASSERT_TRUE(heap->Commit(waiter).IsBusy());
  Status st = heap->Commit(leader);  // fills the batch: leads its force
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(heap->log_writer()->durable_lsn(), durable_before);
  EXPECT_EQ(heap->group_commit_stats().batches, batches_before);
  EXPECT_TRUE(heap->Commit(waiter).IsIOError());  // still open: leads again

  env.failing_log()->fail_sync = false;
  ASSERT_TRUE(heap->Commit(waiter).ok());
  ASSERT_TRUE(heap->Commit(leader).ok());
  EXPECT_EQ(heap->group_commit_stats().batches, batches_before + 1);
  EXPECT_EQ(heap->txn_manager()->Find(waiter), nullptr);
  EXPECT_EQ(heap->txn_manager()->Find(leader), nullptr);
}

}  // namespace
}  // namespace sheap
