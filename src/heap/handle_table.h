// HandleTable: the mutator's root registry (paper §3.2's "registers, stacks
// and own variables").
//
// Application code never holds raw heap addresses — it holds Refs, indices
// into this table. At a flip the collector updates the table entries (the
// root set) so the mutator only ever sees to-space addresses (the read
// barrier invariant, §3.2.1). Handles are volatile roots: they die in a
// crash along with the transactions that own them.
//
// Concurrency contract (DESIGN.md §5i): the table is sharded — a Ref's
// index decomposes as (local slot, shard), and Create distributes new
// handles round-robin via one atomic counter, so concurrent mutator
// threads create/resolve/release handles with per-shard mutexes and no
// global lock. In single-mutator mode the round-robin order makes index
// assignment exactly as deterministic as the old single-vector table.
// ForEachLive (flip-time root translation) runs lock-free and REQUIRES the
// collector to hold the mutator gate exclusively.
//
// Cost model (DESIGN.md §5c): Create, Resolve, Set and Release touch one
// entry under one shard mutex. Transaction end is O(handles the
// transaction created): the transaction lists the Refs it was handed
// (Txn::handles) and ReleaseTxn frees those, never scanning the table, so
// a commit costs the same after a 20,000-handle transaction as before it.

#ifndef SHEAP_HEAP_HANDLE_TABLE_H_
#define SHEAP_HEAP_HANDLE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "heap/address.h"

namespace sheap {

/// Opaque reference to a heap object, valid until its owning transaction
/// ends (or forever for owner 0 = heap-global handles). 0 is the null Ref.
///
/// Layout: [63:48] generation, [47:0] global index+1. Create keeps
/// index+1 below 2^40, so bits [47:40] of a Ref the table hands out are
/// always zero: they hold an 8-bit tag that a routing layer above the
/// table may set (ShardedHeap stores the owning shard there) and must
/// strip with HandleTable::Untag before passing the Ref back. The null
/// Ref is never tagged.
using Ref = uint64_t;
constexpr Ref kNullRef = 0;

using TxnId = uint64_t;
constexpr TxnId kNoTxn = 0;

/// Table of (address, owner) entries with generation-checked Refs.
class HandleTable {
 public:
  HandleTable() = default;

  HandleTable(const HandleTable&) = delete;
  HandleTable& operator=(const HandleTable&) = delete;

  /// Create a handle owned by `owner` (kNoTxn = global) for `addr`.
  Ref Create(TxnId owner, HeapAddr addr);

  /// Resolve a Ref regardless of its owner; InvalidArgument if stale.
  StatusOr<HeapAddr> Get(Ref ref) const;

  /// Resolve a Ref for `txn`: InvalidArgument if stale, or if another
  /// transaction owns it (global handles resolve for every transaction).
  StatusOr<HeapAddr> Resolve(Ref ref, TxnId txn) const;

  /// Overwrite the address a live Ref designates.
  Status Set(Ref ref, HeapAddr addr);

  /// Transaction end: drop each of `refs` (the Refs `txn` was handed) that
  /// is still live and still owned by `txn`. A Ref already dropped by
  /// Release, or whose slot another transaction now holds, is skipped.
  /// Slots are freed in ascending (shard, slot) order, so later Creates
  /// hand out the same Refs a scan of the whole table would.
  void ReleaseTxn(TxnId txn, std::vector<Ref> refs);

  /// Drop a single handle owned by `txn`; InvalidArgument if stale or
  /// owned by another transaction.
  Status Release(Ref ref, TxnId txn);

  /// Visit every live handle's address cell in ascending global-index
  /// order; `f(HeapAddr*)` may rewrite it (root translation at a flip).
  /// Takes no locks: the caller must hold the mutator gate exclusively,
  /// so no mutator thread can touch the table concurrently — which is why
  /// the capability analysis is bypassed here.
  template <typename F>
  void ForEachLive(F f) SHEAP_NO_THREAD_SAFETY_ANALYSIS {
    size_t max_local = 0;
    for (const Shard& s : shards_) {
      max_local = s.entries.size() > max_local ? s.entries.size() : max_local;
    }
    for (size_t local = 0; local < max_local; ++local) {
      for (uint32_t si = 0; si < kShards; ++si) {
        Shard& s = shards_[si];
        if (local >= s.entries.size()) continue;
        Entry& e = s.entries[local];
        if (e.in_use && e.addr != kNullAddr) f(&e.addr);
      }
    }
  }

  size_t LiveCount() const;

  /// Tags a routing layer can store in a Ref's bits [47:40].
  static constexpr uint32_t kMaxTags = 1u << 8;
  /// `ref` (untagged) with `tag` (< kMaxTags) in its tag bits; null stays
  /// null.
  static Ref Tag(Ref ref, uint32_t tag);
  static uint32_t TagOf(Ref ref) {
    return static_cast<uint32_t>((ref & kTagMask) >> kTagShift);
  }
  static Ref Untag(Ref ref) { return ref & ~kTagMask; }

 private:
  struct Entry {
    HeapAddr addr = kNullAddr;
    TxnId owner = kNoTxn;
    uint16_t generation = 0;
    bool in_use = false;
  };

  static constexpr uint32_t kShards = 16;
  static constexpr uint64_t kIndexBits = 48;
  static constexpr uint64_t kIndexMask = (1ULL << kIndexBits) - 1;
  /// index+1 stays below 2^kTagShift; the bits above it, up to the
  /// generation, are the tag.
  static constexpr uint64_t kTagShift = 40;
  static constexpr uint64_t kTagMask = kIndexMask & ~((1ULL << kTagShift) - 1);

  /// A Ref's global index g decomposes as shard g % kShards, slot
  /// g / kShards; Create assigns g round-robin so single-mutator index
  /// sequences stay 0, 1, 2, ...
  struct Shard {
    mutable Mutex mu;
    std::vector<Entry> entries SHEAP_GUARDED_BY(mu);
    std::vector<uint32_t> free_list SHEAP_GUARDED_BY(mu);
  };

  /// A non-null Ref's global index.
  static uint64_t IndexOf(Ref ref) { return (ref & kIndexMask) - 1; }
  Shard& ShardOf(Ref ref) const {
    return const_cast<Shard&>(shards_[IndexOf(ref) % kShards]);
  }

  /// Resolve a live entry under its shard mutex; nullptr if stale/null.
  static Entry* LookupLocked(Shard& shard, Ref ref) SHEAP_REQUIRES(shard.mu);
  /// Free `ref`'s (live) entry and push its slot on the shard's free list.
  static void FreeLocked(Shard& shard, Ref ref) SHEAP_REQUIRES(shard.mu);

  Shard shards_[kShards];
  std::atomic<uint64_t> round_robin_{0};
};

}  // namespace sheap

#endif  // SHEAP_HEAP_HANDLE_TABLE_H_
