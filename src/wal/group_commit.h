// Group commit (paper §2.2.1, footnote 1): "a high performance transaction
// system will use group commit instead of forcing the log for every
// transaction." A committing transaction spools its commit record and joins
// the open batch with that record's LSN as its ticket; a batch leader
// performs ONE synchronous Force() covering the whole batch. A batch closes
// when max_batch transactions have joined, when max_delay_ns of simulated
// time has passed since it opened, or after close_after_polls polls, so
// batching is deterministic under SimClock.
//
// The queue keeps no per-transaction state. A transaction is durable iff
// LogWriter::durable_lsn() >= its ticket (paper §2.2.1: acknowledged once
// the commit record is behind the stable barrier); each committer checks
// that itself on every Commit retry and finishes its own transaction. Until
// then Commit returns Status::Busy — the simulator's "retry this low-level
// action" signal — and the transaction stays in kCommitting, locks held.
//
// Concurrency contract (DESIGN.md §5e/§5i): every member runs under qmu_,
// and a leader holds qmu_ through its Force(), so concurrent pollers elect
// exactly one leader per batch. Nothing but the log force runs under qmu_.
// Concurrent mutators run in SimClock lanes, which leave the global clock
// frozen so the max_delay_ns deadline cannot fire — set close_after_polls so
// under-full batches close after a bounded number of polls instead.

#ifndef SHEAP_WAL_GROUP_COMMIT_H_
#define SHEAP_WAL_GROUP_COMMIT_H_

#include <cstdint>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "util/sim_clock.h"
#include "wal/log_writer.h"

namespace sheap {

struct GroupCommitOptions {
  /// Close the batch once this many transactions have joined.
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
  uint64_t piggybacked = 0;     // waiters made durable with no leader force
  uint64_t size_closes = 0;     // batches closed by max_batch
  uint64_t deadline_closes = 0; // batches closed by max_delay_ns or polls
  uint64_t max_batch_seen = 0;  // largest joined count a leader forced
  uint64_t polls = 0;           // Commit retries charged while waiting
};

/// The open batch's counters. See the file comment for the protocol.
class CommitQueue {
 public:
  CommitQueue(LogWriter* log, SimClock* clock, const GroupCommitOptions& opts)
      : log_(log), clock_(clock), opts_(opts) {}

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Join the open batch (opening one if none is open) with `ticket`, the
  /// transaction's spooled commit-record LSN.
  void Join(Lsn ticket) SHEAP_EXCLUDES(qmu_);

  /// Charge one queue-state re-check to the simulated clock. Called on
  /// each Commit retry that is still waiting, so a lone committer's retries
  /// advance time toward the max_delay_ns deadline (or the
  /// close_after_polls budget).
  void ChargePoll() SHEAP_EXCLUDES(qmu_);

  /// Leader election, one critical section. An open batch whose highest
  /// ticket an unrelated barrier (ForceLog, a prepare or checkpoint force)
  /// already made durable is retired as piggybacked, never forced again.
  /// Otherwise, if the batch must close (size, deadline or poll budget),
  /// the caller leads it: one Force() covering every ticket that joined.
  /// On Force failure the batch stays open and the error is returned.
  Status LeadIfReady() SHEAP_EXCLUDES(qmu_);

  /// Counter snapshot, consistent under qmu_; safe while mutators run.
  GroupCommitStats stats() const SHEAP_EXCLUDES(qmu_) {
    MutexLock lock(&qmu_);
    return stats_;
  }

 private:
  /// Retire the open batch as piggybacked if its highest ticket is durable.
  /// Returns true if no batch is open afterwards.
  bool RetireDurableLocked() SHEAP_REQUIRES(qmu_);
  bool ShouldCloseLocked() const SHEAP_REQUIRES(qmu_);

  LogWriter* log_;
  SimClock* clock_;
  GroupCommitOptions opts_;

  /// Only the log writer's and the fault injector's mutexes nest under
  /// qmu_: a leader forces the log, crash points included, while holding it.
  mutable Mutex qmu_;
  uint64_t joined_ SHEAP_GUARDED_BY(qmu_) = 0;  // 0 = no batch open
  Lsn high_ticket_ SHEAP_GUARDED_BY(qmu_) = kInvalidLsn;
  uint64_t batch_open_ns_ SHEAP_GUARDED_BY(qmu_) = 0;
  uint32_t polls_since_open_ SHEAP_GUARDED_BY(qmu_) = 0;
  GroupCommitStats stats_ SHEAP_GUARDED_BY(qmu_);
};

}  // namespace sheap

#endif  // SHEAP_WAL_GROUP_COMMIT_H_
