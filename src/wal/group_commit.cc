#include "wal/group_commit.h"

#include <algorithm>

#include "common/check.h"

namespace sheap {

CommitQueue::~CommitQueue() {
  Node* n = incoming_.exchange(nullptr, std::memory_order_acquire);
  while (n != nullptr) {
    Node* next = n->next;
    delete n;
    n = next;
  }
}

void CommitQueue::Enqueue(TxnId txn, Lsn commit_lsn) {
  if (concurrent_) {
    // Lock-free join: one CAS, no global mutex. The consumer absorbs the
    // stack in CAS order, so batch membership stays FIFO in commit order.
    Node* node = new Node{txn, commit_lsn,
                          incoming_.load(std::memory_order_relaxed)};
    while (!incoming_.compare_exchange_weak(node->next, node,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
    }
    return;
  }
  MutexLock lock(&qmu_);
  EnqueueLocked(txn, commit_lsn);
}

void CommitQueue::EnqueueLocked(TxnId txn, Lsn commit_lsn) {
  SHEAP_CHECK(waiting_.insert(txn).second);  // no double-enqueue
  if (waiters_.empty()) {
    batch_open_ns_ = clock_->now_ns();
    polls_since_open_ = 0;
  }
  waiters_.push_back(Waiter{txn, commit_lsn});
  ++stats_.enqueued;
}

void CommitQueue::AbsorbLocked() {
  Node* n = incoming_.exchange(nullptr, std::memory_order_acquire);
  // The stack pops newest-first; reverse to CAS (push) order.
  Node* ordered = nullptr;
  while (n != nullptr) {
    Node* next = n->next;
    n->next = ordered;
    ordered = n;
    n = next;
  }
  while (ordered != nullptr) {
    EnqueueLocked(ordered->txn, ordered->commit_lsn);
    Node* next = ordered->next;
    delete ordered;
    ordered = next;
  }
}

bool CommitQueue::IsWaiter(TxnId txn) {
  MutexLock lock(&qmu_);
  AbsorbLocked();
  return waiting_.count(txn) != 0;
}

bool CommitQueue::Empty() {
  MutexLock lock(&qmu_);
  AbsorbLocked();
  return waiters_.empty();
}

size_t CommitQueue::waiter_count() {
  MutexLock lock(&qmu_);
  AbsorbLocked();
  return waiters_.size();
}

bool CommitQueue::ShouldCloseLocked() const {
  if (waiters_.empty()) return false;
  if (waiters_.size() >= opts_.max_batch) return true;
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

void CommitQueue::Complete(const Waiter& w,
                           const std::function<void(TxnId)>& on_durable) {
  waiting_.erase(w.txn);
  completed_.insert(w.txn);
  if (on_durable) on_durable(w.txn);
}

Status CommitQueue::CloseBatchLocked(
    const std::function<void(TxnId)>& on_durable) {
  SHEAP_CHECK(!waiters_.empty());
  const bool by_size = waiters_.size() >= opts_.max_batch;
  // Crash window: the whole batch is spooled (maybe partially drained)
  // but the leader has not forced. Recovery may lose any or all of the
  // batch — no waiter has been told it committed yet, so that is safe.
  SHEAP_FAULT_POINT(log_->faults(), "wal.group.leader_force");
  SHEAP_RETURN_IF_ERROR(log_->Force());
  // Crash window: the batch is durable but no waiter has been completed.
  // Recovery replays every commit in the batch; the waiters re-drive
  // Commit after reopen never observe a lost success.
  SHEAP_FAULT_POINT(log_->faults(), "wal.group.batch_durable");
  ++stats_.batches;
  if (by_size) {
    ++stats_.size_closes;
  } else {
    ++stats_.deadline_closes;
  }
  const Lsn durable = log_->durable_lsn();
  uint64_t completed = 0;
  while (!waiters_.empty() && waiters_.front().commit_lsn <= durable) {
    Complete(waiters_.front(), on_durable);
    waiters_.pop_front();
    ++completed;
  }
  // Force() flushed the entire spool, so every waiter is durable.
  SHEAP_CHECK(waiters_.empty());
  stats_.max_batch_seen = std::max(stats_.max_batch_seen, completed);
  return Status::OK();
}

Status CommitQueue::LeadIfReady(
    const std::function<void(TxnId)>& on_durable) {
  MutexLock lock(&qmu_);
  AbsorbLocked();
  if (!ShouldCloseLocked()) return Status::OK();
  return CloseBatchLocked(on_durable);
}

void CommitQueue::DrainDurableLocked(
    const std::function<void(TxnId)>& on_durable) {
  const Lsn durable = log_->durable_lsn();
  while (!waiters_.empty() && waiters_.front().commit_lsn <= durable) {
    Complete(waiters_.front(), on_durable);
    waiters_.pop_front();
    ++stats_.piggybacked;
  }
  // Survivors keep the batch's original deadline; an emptied queue
  // re-opens its deadline at the next Enqueue.
  if (waiters_.empty()) batch_open_ns_ = 0;
}

void CommitQueue::DrainDurable(const std::function<void(TxnId)>& on_durable) {
  MutexLock lock(&qmu_);
  AbsorbLocked();
  DrainDurableLocked(on_durable);
}

bool CommitQueue::ConsumeCompleted(TxnId txn) {
  MutexLock lock(&qmu_);
  return completed_.erase(txn) != 0;
}

}  // namespace sheap
