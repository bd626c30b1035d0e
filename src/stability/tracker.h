// StabilityTracker: concurrent tracking of newly stable objects (§5.1).
//
// Trigger: an update action stores a pointer to a volatile object `v` into a
// destination that is stable (in the stable area) or likely stable. The
// tracker traverses the volatile object graph from `v`, adding the writing
// transaction as a dependee of every volatile object reached. Tracking for
// one transaction interleaves freely with tracking for others and with
// other transactions' actions (the paper's "concurrent tracker": each
// OnPointerWrite is one low-level action, and dependee sets per object keep
// transactions independent — the fix for the [38] bug where one
// transaction's abort could un-track objects another transaction had also
// made reachable).
//
// When a dependee commits, its likely-stable objects actually become stable
// (AS membership = residency in the stable area, established by the
// Promoter); when it aborts, it is removed from dependee sets, and objects
// left with no dependees leave the LS.
//
// "Volatile" and "already promoted" are the volatile collector's answers
// (CopyingGc::Contains, CopyingGc::ResolveHusk): the tracker keeps no
// address predicates of its own.

#ifndef SHEAP_STABILITY_TRACKER_H_
#define SHEAP_STABILITY_TRACKER_H_

#include <cstdint>

#include "common/status.h"
#include "gc/copying_gc.h"
#include "heap/heap_memory.h"
#include "heap/type_registry.h"
#include "stability/stable_sets.h"
#include "txn/txn.h"
#include "util/sim_clock.h"

namespace sheap {

struct TrackerStats {
  uint64_t invocations = 0;        // pointer writes that triggered tracking
  uint64_t objects_entered_ls = 0; // (object, txn) dependee additions
  uint64_t traversal_words = 0;    // words examined by traversals
};

/// Maintains the LS at update time.
class StabilityTracker {
 public:
  StabilityTracker(HeapMemory* mem, TypeRegistry* types,
                   const CopyingGc* volatile_gc, SimClock* clock,
                   LikelyStableSet* ls)
      : mem_(mem),
        types_(types),
        volatile_gc_(volatile_gc),
        clock_(clock),
        ls_(ls) {}

  /// `txn` stored a pointer to `value` into `dst_base`. Call for every
  /// pointer write; the tracker decides whether tracking is needed
  /// (dst stable or likely-stable, value volatile).
  Status OnPointerWrite(const Txn& txn, HeapAddr dst_base, HeapAddr value,
                        bool dst_in_stable_area);

  const TrackerStats& stats() const { return stats_; }

 private:
  Status Track(TxnId txn, HeapAddr v);

  HeapMemory* mem_;
  TypeRegistry* types_;
  const CopyingGc* volatile_gc_;
  SimClock* clock_;
  LikelyStableSet* ls_;
  TrackerStats stats_;
};

}  // namespace sheap

#endif  // SHEAP_STABILITY_TRACKER_H_
