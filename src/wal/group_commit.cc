#include "wal/group_commit.h"

#include <algorithm>

#include "common/check.h"

namespace sheap {

void CommitQueue::Join(Lsn ticket) {
  MutexLock lock(&qmu_);
  if (RetireDurableLocked()) {
    batch_open_ns_ = clock_->now_ns();
    polls_since_open_ = 0;
    high_ticket_ = ticket;
  }
  ++joined_;
  high_ticket_ = std::max(high_ticket_, ticket);
  ++stats_.enqueued;
}

bool CommitQueue::RetireDurableLocked() {
  if (joined_ > 0 && log_->durable_lsn() >= high_ticket_) {
    stats_.piggybacked += joined_;
    joined_ = 0;
  }
  return joined_ == 0;
}

bool CommitQueue::ShouldCloseLocked() const {
  if (joined_ >= opts_.max_batch) return true;
  if (opts_.close_after_polls > 0 &&
      polls_since_open_ >= opts_.close_after_polls) {
    return true;
  }
  return clock_->now_ns() - batch_open_ns_ >= opts_.max_delay_ns;
}

void CommitQueue::ChargePoll() {
  clock_->Advance(opts_.poll_ns);
  MutexLock lock(&qmu_);
  ++stats_.polls;
  ++polls_since_open_;
}

Status CommitQueue::LeadIfReady() {
  MutexLock lock(&qmu_);
  if (RetireDurableLocked() || !ShouldCloseLocked()) return Status::OK();
  const bool by_size = joined_ >= opts_.max_batch;
  // Crash window: the whole batch is spooled (maybe partially drained)
  // but the leader has not forced. Recovery may lose any or all of the
  // batch — no waiter has been told it committed yet, so that is safe.
  SHEAP_FAULT_POINT(log_->faults(), "wal.group.leader_force");
  SHEAP_RETURN_IF_ERROR(log_->Force());
  // Crash window: the batch is durable but no waiter has finished.
  // Recovery replays every commit in the batch; the waiters re-drive
  // Commit after reopen never observe a lost success.
  SHEAP_FAULT_POINT(log_->faults(), "wal.group.batch_durable");
  // Force() flushed the entire spool, so every joined ticket is durable.
  SHEAP_CHECK(log_->durable_lsn() >= high_ticket_);
  ++stats_.batches;
  if (by_size) {
    ++stats_.size_closes;
  } else {
    ++stats_.deadline_closes;
  }
  stats_.max_batch_seen = std::max(stats_.max_batch_seen, joined_);
  joined_ = 0;
  return Status::OK();
}

}  // namespace sheap
