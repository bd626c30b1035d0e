#include "heap/handle_table.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace sheap {

Ref HandleTable::Create(TxnId owner, HeapAddr addr) {
  const uint32_t si = static_cast<uint32_t>(
      round_robin_.fetch_add(1, std::memory_order_relaxed) % kShards);
  Shard& shard = shards_[si];
  MutexLock lock(&shard.mu);
  uint32_t local;
  if (!shard.free_list.empty()) {
    local = shard.free_list.back();
    shard.free_list.pop_back();
  } else {
    local = static_cast<uint32_t>(shard.entries.size());
    shard.entries.emplace_back();
  }
  Entry& e = shard.entries[local];
  e.addr = addr;
  e.owner = owner;
  ++e.generation;
  e.in_use = true;
  const uint64_t index = static_cast<uint64_t>(local) * kShards + si;
  // Ref layout: [63:48] generation, [47:0] global index+1, whose tag bits
  // [47:40] must stay clear (see Ref).
  SHEAP_CHECK(index + 1 < (1ULL << kTagShift));
  return (static_cast<uint64_t>(e.generation) << kIndexBits) | (index + 1);
}

Ref HandleTable::Tag(Ref ref, uint32_t tag) {
  SHEAP_CHECK(tag < kMaxTags && TagOf(ref) == 0);
  if (ref == kNullRef) return kNullRef;
  return ref | (static_cast<uint64_t>(tag) << kTagShift);
}

HandleTable::Entry* HandleTable::LookupLocked(Shard& shard, Ref ref) {
  const uint64_t local = IndexOf(ref) / kShards;
  if (local >= shard.entries.size()) return nullptr;
  Entry& e = shard.entries[local];
  if (!e.in_use || e.generation != static_cast<uint16_t>(ref >> kIndexBits)) {
    return nullptr;
  }
  return &e;
}

void HandleTable::FreeLocked(Shard& shard, Ref ref) {
  const uint32_t local = static_cast<uint32_t>(IndexOf(ref) / kShards);
  Entry& e = shard.entries[local];
  e.in_use = false;
  e.addr = kNullAddr;
  shard.free_list.push_back(local);
}

StatusOr<HeapAddr> HandleTable::Get(Ref ref) const {
  if (ref == kNullRef) return Status::InvalidArgument("stale or null handle");
  Shard& shard = ShardOf(ref);
  MutexLock lock(&shard.mu);
  const Entry* e = LookupLocked(shard, ref);
  if (e == nullptr) return Status::InvalidArgument("stale or null handle");
  return e->addr;
}

StatusOr<HeapAddr> HandleTable::Resolve(Ref ref, TxnId txn) const {
  if (ref == kNullRef) return Status::InvalidArgument("stale or null handle");
  Shard& shard = ShardOf(ref);
  MutexLock lock(&shard.mu);
  const Entry* e = LookupLocked(shard, ref);
  if (e == nullptr) return Status::InvalidArgument("stale or null handle");
  if (e->owner != kNoTxn && e->owner != txn) {
    return Status::InvalidArgument("handle owned by another transaction");
  }
  return e->addr;
}

Status HandleTable::Set(Ref ref, HeapAddr addr) {
  if (ref == kNullRef) return Status::InvalidArgument("stale or null handle");
  Shard& shard = ShardOf(ref);
  MutexLock lock(&shard.mu);
  Entry* e = LookupLocked(shard, ref);
  if (e == nullptr) return Status::InvalidArgument("stale or null handle");
  e->addr = addr;
  return Status::OK();
}

void HandleTable::ReleaseTxn(TxnId txn, std::vector<Ref> refs) {
  SHEAP_CHECK(txn != kNoTxn);
  // Ascending (shard, slot): the order a scan of every shard would push
  // the slots on the free lists, and with it every later Ref assignment.
  const auto order = [](Ref r) {
    return std::pair(IndexOf(r) % kShards, IndexOf(r) / kShards);
  };
  std::sort(refs.begin(), refs.end(),
            [&](Ref a, Ref b) { return order(a) < order(b); });
  for (size_t i = 0; i < refs.size();) {
    Shard& shard = ShardOf(refs[i]);
    MutexLock lock(&shard.mu);
    for (; i < refs.size() && &ShardOf(refs[i]) == &shard; ++i) {
      // A stale generation (released, or the slot reused since) or another
      // owner: not this transaction's to free.
      const Entry* e = LookupLocked(shard, refs[i]);
      if (e != nullptr && e->owner == txn) FreeLocked(shard, refs[i]);
    }
  }
}

Status HandleTable::Release(Ref ref, TxnId txn) {
  if (ref == kNullRef) return Status::InvalidArgument("stale or null handle");
  Shard& shard = ShardOf(ref);
  MutexLock lock(&shard.mu);
  const Entry* e = LookupLocked(shard, ref);
  if (e == nullptr) return Status::InvalidArgument("stale or null handle");
  if (e->owner != txn) {
    return Status::InvalidArgument("handle owned by another transaction");
  }
  FreeLocked(shard, ref);
  return Status::OK();
}

size_t HandleTable::LiveCount() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& e : shard.entries) n += e.in_use ? 1 : 0;
  }
  return n;
}

}  // namespace sheap
