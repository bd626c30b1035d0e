// Group commit (paper §2.2.1, footnote 1): "a high performance transaction
// system will use group commit instead of forcing the log for every
// transaction." Committing transactions spool their commit record and join a
// commit queue; a batch leader performs ONE synchronous Force() covering
// every waiter. A batch closes when it reaches max_batch waiters or when
// max_delay_ns of simulated time has passed since it opened, so batching is
// deterministic under SimClock.
//
// The durability invariant is unchanged: Commit reports success only after
// the transaction's commit record is behind the durable barrier
// (LogWriter::durable_lsn()). While queued, Commit returns Status::Busy —
// the simulator's "retry this low-level action" signal — and the txn stays
// in kCommitting.
//
// Concurrency contract (DESIGN.md §5e/§5i). Two regimes:
//  * single mutator (default): low-level actions are serialized by the
//    caller, so the qmu_ critical sections below are uncontended and batch
//    formation is byte-deterministic under SimClock, exactly as before.
//  * concurrent mutators (SetConcurrent(true) before threads start):
//    Enqueue is LOCK-FREE — committers push onto a Treiber stack
//    (`incoming_`) with one CAS and return; no committer ever blocks on a
//    global mutex to join a batch. The consumer side (polling, leader
//    election, completion) serializes on qmu_: each consumer entry first
//    absorbs the incoming stack into the FIFO batch in CAS order. Leader
//    election is a single critical section (LeadIfReady), so exactly one
//    polling committer closes a ready batch. Since concurrent mutators run
//    in SimClock lanes, the global clock is frozen and the max_delay_ns
//    deadline cannot fire — set close_after_polls so under-full batches
//    close after a bounded number of observed polls instead.

#ifndef SHEAP_WAL_GROUP_COMMIT_H_
#define SHEAP_WAL_GROUP_COMMIT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "heap/handle_table.h"
#include "util/sim_clock.h"
#include "wal/log_writer.h"

namespace sheap {

struct GroupCommitOptions {
  /// Close the batch once this many waiters have joined.
  uint32_t max_batch = 16;
  /// Close the batch once it has been open this long (simulated time),
  /// even if under-full. Bounds the latency a lone committer pays.
  uint64_t max_delay_ns = 2'000'000;  // 2 ms
  /// Simulated cost of one Commit retry while waiting on the queue
  /// (re-checking the queue state); also what advances the clock toward
  /// the deadline when no other work is running.
  uint64_t poll_ns = 100'000;  // 0.1 ms
  /// Close an under-full batch after this many polls since it opened
  /// (0 = disabled). The deadline proxy for concurrent mode, where mutator
  /// lanes leave the global clock frozen so max_delay_ns never fires.
  uint32_t close_after_polls = 0;
};

struct GroupCommitStats {
  uint64_t enqueued = 0;        // transactions that joined a batch
  uint64_t batches = 0;         // leader forces performed
  uint64_t piggybacked = 0;     // waiters completed by an unrelated barrier
  uint64_t size_closes = 0;     // batches closed by max_batch
  uint64_t deadline_closes = 0; // batches closed by max_delay_ns or polls
  uint64_t max_batch_seen = 0;  // largest batch completed by one force
  uint64_t polls = 0;           // Commit retries charged while waiting
};

/// The commit queue. See the file comment for the two concurrency regimes.
class CommitQueue {
 public:
  CommitQueue(LogWriter* log, SimClock* clock, const GroupCommitOptions& opts)
      : log_(log), clock_(clock), opts_(opts) {}
  ~CommitQueue();

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Switch to the concurrent-mutator regime (lock-free enqueue). Must be
  /// called before any mutator thread starts; never switched back.
  void SetConcurrent(bool concurrent) { concurrent_ = concurrent; }

  /// Join the open batch (opening one if empty). `commit_lsn` is the
  /// transaction's spooled commit-record LSN. Lock-free in concurrent mode.
  void Enqueue(TxnId txn, Lsn commit_lsn) SHEAP_EXCLUDES(qmu_);

  /// True if `txn` has enqueued and not yet been completed. Absorbs the
  /// incoming stack first, so a just-pushed committer sees itself.
  bool IsWaiter(TxnId txn) SHEAP_EXCLUDES(qmu_);
  bool Empty() SHEAP_EXCLUDES(qmu_);
  size_t waiter_count() SHEAP_EXCLUDES(qmu_);

  /// Charge one queue-state re-check to the simulated clock. Called on
  /// each Commit retry so a lone committer's retries advance time toward
  /// the max_delay_ns deadline (or the close_after_polls budget).
  void ChargePoll() SHEAP_EXCLUDES(qmu_);

  /// Leader election: absorb, and if the open batch must close (size,
  /// deadline, or poll budget), lead it — one Force() covering every
  /// waiter, then complete each of them in enqueue order (`on_durable`
  /// runs per completed transaction). All in one critical section, so
  /// concurrent pollers elect exactly one leader; with a single mutator it
  /// is simply the poll. On Force failure the waiters stay queued and the
  /// error is returned.
  Status LeadIfReady(const std::function<void(TxnId)>& on_durable)
      SHEAP_EXCLUDES(qmu_);

  /// Complete waiters that an unrelated barrier (WAL flush, another
  /// force) already made durable — no force needed (piggybacking).
  void DrainDurable(const std::function<void(TxnId)>& on_durable)
      SHEAP_EXCLUDES(qmu_);

  /// True (and forgets the mark) if `txn` was completed by a leader or a
  /// piggyback since it enqueued; its Commit retry may now return OK.
  bool ConsumeCompleted(TxnId txn) SHEAP_EXCLUDES(qmu_);

  /// Counter snapshot, consistent under qmu_; safe while mutators run.
  GroupCommitStats stats() const SHEAP_EXCLUDES(qmu_) {
    MutexLock lock(&qmu_);
    return stats_;
  }
  const GroupCommitOptions& options() const { return opts_; }

 private:
  struct Waiter {
    TxnId txn;
    Lsn commit_lsn;
  };

  /// Lock-free enqueue node (Treiber stack, consumer-absorbed FIFO).
  struct Node {
    TxnId txn;
    Lsn commit_lsn;
    Node* next;
  };

  /// Move the incoming stack into waiters_ in CAS (push) order.
  void AbsorbLocked() SHEAP_REQUIRES(qmu_);
  void EnqueueLocked(TxnId txn, Lsn commit_lsn) SHEAP_REQUIRES(qmu_);
  bool ShouldCloseLocked() const SHEAP_REQUIRES(qmu_);
  Status CloseBatchLocked(const std::function<void(TxnId)>& on_durable)
      SHEAP_REQUIRES(qmu_);
  void DrainDurableLocked(const std::function<void(TxnId)>& on_durable)
      SHEAP_REQUIRES(qmu_);
  void Complete(const Waiter& w, const std::function<void(TxnId)>& on_durable)
      SHEAP_REQUIRES(qmu_);

  LogWriter* log_;
  SimClock* clock_;
  GroupCommitOptions opts_;
  bool concurrent_ = false;  // set once before mutator threads start

  /// Lock-free producer side: committers CAS-push here in concurrent mode.
  std::atomic<Node*> incoming_{nullptr};

  /// Consumer state. qmu_ ranks below the txn/handle/lock shards and above
  /// the log writer's mutex (a leader forces the log while holding it).
  mutable Mutex qmu_;
  std::deque<Waiter> waiters_ SHEAP_GUARDED_BY(qmu_);   // open batch, FIFO
  std::unordered_set<TxnId> waiting_ SHEAP_GUARDED_BY(qmu_);
  std::unordered_set<TxnId> completed_ SHEAP_GUARDED_BY(qmu_);
  uint64_t batch_open_ns_ SHEAP_GUARDED_BY(qmu_) = 0;
  uint32_t polls_since_open_ SHEAP_GUARDED_BY(qmu_) = 0;
  GroupCommitStats stats_ SHEAP_GUARDED_BY(qmu_);
};

}  // namespace sheap

#endif  // SHEAP_WAL_GROUP_COMMIT_H_
