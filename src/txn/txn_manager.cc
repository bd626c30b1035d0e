#include "txn/txn_manager.h"

#include "common/check.h"

namespace sheap {

Txn* TxnManager::Begin() {
  auto txn = std::make_unique<Txn>();
  txn->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  txn->state = TxnState::kActive;
  txn->begin_sequence = begin_counter_.fetch_add(1, std::memory_order_relaxed);

  LogRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn_id = txn->id;
  Lsn lsn = log_->Append(&rec);
  txn->first_lsn = lsn;
  txn->last_lsn = lsn;

  Txn* raw = txn.get();
  Shard& shard = ShardFor(txn->id);
  MutexLock lock(&shard.mu);
  shard.txns[raw->id] = std::move(txn);
  return raw;
}

Txn* TxnManager::Find(TxnId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  auto it = shard.txns.find(id);
  return it == shard.txns.end() ? nullptr : it->second.get();
}

const Txn* TxnManager::Find(TxnId id) const {
  const Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  auto it = shard.txns.find(id);
  return it == shard.txns.end() ? nullptr : it->second.get();
}

Lsn TxnManager::AppendChained(Txn* txn, LogRecord* rec) {
  SHEAP_CHECK(rec->IsTransactional());
  rec->txn_id = txn->id;
  rec->prev_lsn = txn->last_lsn;
  Lsn lsn = log_->Append(rec);
  txn->last_lsn = lsn;
  if (txn->first_lsn == kInvalidLsn) txn->first_lsn = lsn;
  return lsn;
}

void TxnManager::Remove(TxnId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mu);
  shard.txns.erase(id);
}

void TxnManager::Restore(std::unique_ptr<Txn> txn) {
  BumpNextId(txn->id);
  txn->begin_sequence = begin_counter_.fetch_add(1, std::memory_order_relaxed);
  Txn* raw = txn.get();
  Shard& shard = ShardFor(raw->id);
  MutexLock lock(&shard.mu);
  shard.txns[raw->id] = std::move(txn);
}

std::vector<Txn*> TxnManager::ActiveTxns() const {
  std::vector<Txn*> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (auto& [id, txn] : shard.txns) out.push_back(txn.get());
  }
  // Shard-major gathering interleaves ids; callers (undo passes, in-doubt
  // resolution, checkpoints) depend on ascending-id iteration.
  std::sort(out.begin(), out.end(),
            [](const Txn* a, const Txn* b) { return a->id < b->id; });
  return out;
}

size_t TxnManager::ActiveCount() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    n += shard.txns.size();
  }
  return n;
}

}  // namespace sheap
