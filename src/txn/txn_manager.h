// TxnManager: bookkeeping for active transactions and their log-record
// chains. Commit/abort orchestration (which touches the collector, the
// stability tracker, and the lock manager) lives in core::StableHeap; this
// class owns the transaction table and the per-transaction record chain.
//
// Concurrency contract (DESIGN.md §5i): id allocation is a single atomic
// fetch-add, and the table is sharded by id with a mutex per shard, so N
// mutator threads can Begin/Find/Remove concurrently without a global
// mutex. A Txn* stays valid until Remove — the caller (StableHeap) owns
// the discipline that only the thread driving a transaction touches it,
// enforced by strict 2PL above this layer. In single-mutator mode the
// locks are uncontended and id assignment is sequential exactly as before
// (fetch-add from one thread), preserving byte determinism.

#ifndef SHEAP_TXN_TXN_MANAGER_H_
#define SHEAP_TXN_TXN_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "txn/txn.h"
#include "wal/log_writer.h"

namespace sheap {

/// Table of live transactions.
class TxnManager {
 public:
  explicit TxnManager(LogWriter* log) : log_(log) {}

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Start a transaction: assigns an id (atomic fetch-add), logs kBegin.
  Txn* Begin();

  /// Find a transaction; nullptr if unknown (ended).
  Txn* Find(TxnId id);
  const Txn* Find(TxnId id) const;

  /// Append a transactional record on behalf of `txn`, maintaining the
  /// backward prev_lsn chain. The chain fields belong to the owning thread
  /// (2PL discipline); the log append itself is internally synchronized.
  /// Returns the record's LSN.
  Lsn AppendChained(Txn* txn, LogRecord* rec);

  /// Remove a finished transaction from the table.
  void Remove(TxnId id);

  /// Reinstall a transaction rebuilt by recovery from its log chain.
  void Restore(std::unique_ptr<Txn> txn);

  /// All transactions currently in the table (any state), in id order
  /// regardless of which shard holds them.
  std::vector<Txn*> ActiveTxns() const;

  size_t ActiveCount() const;
  uint64_t next_txn_id() const {
    return next_id_.load(std::memory_order_relaxed);
  }

  /// Recovery support: force the id counter past ids seen in the log
  /// (CAS max — recovery is serial, but Restore shares the path).
  void BumpNextId(TxnId floor) {
    TxnId cur = next_id_.load(std::memory_order_relaxed);
    while (floor >= cur &&
           !next_id_.compare_exchange_weak(cur, floor + 1,
                                           std::memory_order_relaxed)) {
    }
  }

 private:
  static constexpr uint32_t kShards = 16;

  struct Shard {
    mutable Mutex mu;
    std::map<TxnId, std::unique_ptr<Txn>> txns SHEAP_GUARDED_BY(mu);
  };

  Shard& ShardFor(TxnId id) { return shards_[id % kShards]; }
  const Shard& ShardFor(TxnId id) const { return shards_[id % kShards]; }

  LogWriter* log_;
  Shard shards_[kShards];
  std::atomic<TxnId> next_id_{1};
  std::atomic<uint64_t> begin_counter_{0};
};

}  // namespace sheap

#endif  // SHEAP_TXN_TXN_MANAGER_H_
