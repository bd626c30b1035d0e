// Promoter: moving newly stable objects into the stable area at commit
// (paper §5.2, Figure 5.2 "V2scopy record").
//
// At commit of T, the volatile objects reachable from T's uncommitted
// pointer stores into stable objects (T's remembered-set slots) become
// stable. The promoter:
//   1. computes the physical closure of those targets over the volatile
//      object graph — including the *old values* of uncommitted updates to
//      closure objects by any active transaction (undo values are roots:
//      if that transaction later aborts, the restored pointer must refer to
//      a stable object);
//   2. allocates stable-area space for each object, then logs one kV2sCopy
//      record per object whose contents have intra-closure pointers already
//      translated — redo materializes the promoted object from the record;
//   3. leaves a forwarding word in each volatile husk;
//   4. materializes kUpdate records for every active transaction's
//      previously-unlogged updates to promoted objects (volatile updates
//      are not logged; once the object is stable its uncommitted updates
//      must be undoable from the log after a crash);
//   5. rewrites every remembered-set slot whose value was promoted, as a
//      logged kUpdate chained to the slot's owner;
//   6. logs UTR entries so recovery can translate undo information across
//      the promotion, and fixes handles, locks, in-memory undo info and the
//      LS.
//
// The kV2sCopy and rewrite records precede T's kCommit record: if the
// commit record reaches the stable log, redo reproduces the promotion; if
// not, T loses, the slot rewrites are undone, and the promoted copies are
// unreachable garbage in the stable area, reclaimed by a later collection.
//
// Who owns a promoted object's address:
//  * husks (method 1's forwarding words) belong to the volatile collector,
//    CopyingGc::ResolveHusk;
//  * pending objects (method 2: logical address stable, body still at the
//    volatile source) belong to PendingMaterializations below — the one
//    place a slot address is redirected for a read or a write, and the
//    source of the checkpoint's truncation floor and logically dirty pages;
//  * materialization (the deferred physical move) is Promoter::Materialize,
//    run under the exclusive gate before volatile collections and flips.

#ifndef SHEAP_STABILITY_PROMOTION_H_
#define SHEAP_STABILITY_PROMOTION_H_

#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "gc/atomic_gc.h"
#include "gc/copying_gc.h"
#include "heap/handle_table.h"
#include "heap/heap_memory.h"
#include "heap/type_registry.h"
#include "recovery/utt.h"
#include "stability/stable_sets.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/log_writer.h"

namespace sheap {

/// How newly stable objects move to the stable area (paper §5.2 vs §5.5,
/// "Dividing the Heap: First Method" / "Second Method").
enum class PromotionMethod : uint8_t {
  /// Move at commit: kV2sCopy records carry the contents and the physical
  /// copy happens immediately (Figure 5.3).
  kAtCommit = 0,
  /// Defer the move to the next volatile collection: commit reserves the
  /// stable address and logs the contents (kInitialValue, the paper's
  /// "Log Records for Initial Object Values"); the object keeps living in
  /// the volatile area until the collector materializes it (Figure 5.6).
  kAtNextVolatileGc = 1,
};

/// Method-2 bookkeeping: reserved-but-unmaterialized stable objects.
/// Physical state still lives at the volatile source; logical (logged)
/// state uses the stable address. Owned by core::StableHeap; read on the
/// shared mutator path, changed only under the exclusive gate.
class PendingMaterializations {
 public:
  struct Entry {
    HeapAddr volatile_base = kNullAddr;
    ClassId cls = 0;
    uint64_t nslots = 0;
    Lsn initial_lsn = kInvalidLsn;  // LSN of the kInitialValue record
  };

  void Add(HeapAddr stable_base, const Entry& entry) {
    by_stable_[stable_base] = entry;
  }
  void Erase(HeapAddr stable_base) { by_stable_.erase(stable_base); }
  bool empty() const { return by_stable_.empty(); }
  size_t size() const { return by_stable_.size(); }

  /// Entry for a pending object's base address, or nullptr. The header of
  /// a pending object is synthesized from the entry (the volatile source's
  /// word 0 holds the forwarding word, but its slots are the live body).
  const Entry* Lookup(HeapAddr stable_base) const {
    auto it = by_stable_.find(stable_base);
    return it == by_stable_.end() ? nullptr : &it->second;
  }

  /// If `addr` is a *slot* address inside a pending stable object, return
  /// the equivalent slot address in its volatile source; otherwise
  /// kNullAddr. (The base/header word is never redirected: Lookup.)
  HeapAddr Redirect(HeapAddr addr) const {
    if (by_stable_.empty()) return kNullAddr;
    auto it = by_stable_.upper_bound(addr);
    if (it == by_stable_.begin()) return kNullAddr;
    --it;
    const HeapAddr base = it->first;
    const uint64_t bytes = (1 + it->second.nslots) * kWordSizeBytes;
    if (addr > base && addr < base + bytes) {
      return it->second.volatile_base + (addr - base);
    }
    return kNullAddr;
  }

  /// Read the word at a slot address, at the volatile source if the slot
  /// belongs to a pending object.
  StatusOr<uint64_t> ReadSlot(HeapMemory* mem, HeapAddr slot) const;

  /// Write `v` to a slot address whose update record (if any) was logged
  /// at `lsn`. A pending object's slot gets an unlogged write at its
  /// volatile body (the record names the stable address); any other slot
  /// a logged write under `lsn`, or an unlogged one when `lsn` is
  /// kInvalidLsn.
  Status WriteSlot(HeapMemory* mem, HeapAddr slot, uint64_t v,
                   Lsn lsn) const;

  /// Every page of a pending object, at its kInitialValue LSN: logically
  /// dirty for the checkpoint's dirty-page table, though the pool holds
  /// nothing for them until materialization. As DPT rows they also keep
  /// that record in the log.
  void AppendDirtyPages(std::vector<std::pair<PageId, Lsn>>* out) const;

  template <typename F>
  Status ForEach(F f) const {
    for (const auto& [s, e] : by_stable_) {
      SHEAP_RETURN_IF_ERROR(f(s, e));
    }
    return Status::OK();
  }

 private:
  std::map<HeapAddr, Entry> by_stable_;
};

struct PromotionStats {
  uint64_t commits_with_promotion = 0;
  uint64_t objects_promoted = 0;
  uint64_t words_promoted = 0;
  uint64_t materialized_updates = 0;
  uint64_t slot_rewrites = 0;
};

/// Performs the recoverable volatile-to-stable move at commit.
class Promoter {
 public:
  struct Deps {
    HeapMemory* mem = nullptr;
    LogWriter* log = nullptr;
    TxnManager* txns = nullptr;
    LockManager* locks = nullptr;
    HandleTable* handles = nullptr;
    TypeRegistry* types = nullptr;
    UndoTranslationTable* utt = nullptr;
    AtomicGc* stable_gc = nullptr;
    CopyingGc* volatile_gc = nullptr;
    RememberedSet* remembered = nullptr;
    LikelyStableSet* ls = nullptr;
    SimClock* clock = nullptr;
    PromotionMethod method = PromotionMethod::kAtCommit;
    PendingMaterializations* pending = nullptr;
  };

  explicit Promoter(const Deps& deps) : d_(deps) {}

  /// Promote everything `txn`'s commit makes stable. Must run before the
  /// kCommit record is appended. No-op if the transaction wrote no volatile
  /// pointers into stable objects.
  Status PromoteAtCommit(Txn* txn);

  /// Method 2: write every pending object's body (read from its volatile
  /// source, husk pointers resolved) to its reserved stable address, under
  /// its kInitialValue LSN, and empty the pending set. Runs under the
  /// exclusive gate before volatile collections and stable flips.
  Status Materialize();

  const PromotionStats& stats() const { return stats_; }

 private:
  /// Volatile, unforwarded object? (husks and stable addresses excluded)
  StatusOr<bool> NeedsPromotion(HeapAddr a);

  Status ComputeClosure(const std::vector<HeapAddr>& roots,
                        std::vector<HeapAddr>* order);
  StatusOr<uint64_t> TranslateWord(
      const std::map<HeapAddr, HeapAddr>& moved, uint64_t v);

  Deps d_;
  PromotionStats stats_;
};

}  // namespace sheap

#endif  // SHEAP_STABILITY_PROMOTION_H_
