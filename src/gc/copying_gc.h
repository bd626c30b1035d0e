// CopyingGc: the "normal" (non-atomic) stop-the-world copying collector used
// for the volatile area (paper §5.3): storage management there is cheap —
// no logging, no coordination with recovery — because volatile objects do
// not survive crashes.
//
// The collector owns the volatile area's forwarding words, including the
// promotion husks a method-1 promotion leaves behind (§5.2): ResolveHusk is
// the one place a husk is followed to its stable copy, for the core's read
// path, the stability tracker and the promoter alike.
//
// Cross-structure fixups are delegated to hooks so the collector stays
// ignorant of the stable half:
//  * `extra_roots` lets core enumerate/translate roots beyond the handle
//    table: stable-area slots holding uncommitted volatile pointers (the
//    remembered set — their rewrites are logged by the callback, Figure
//    "S4vscan"), in-memory undo values, and tracker LS sets;
//  * `on_object_moved` rekeys address-keyed side tables.

#ifndef SHEAP_GC_COPYING_GC_H_
#define SHEAP_GC_COPYING_GC_H_

#include <functional>

#include "common/status.h"
#include "common/statusor.h"
#include "gc/gc.h"
#include "heap/object.h"
#include "txn/txn.h"
#include "util/sim_clock.h"

namespace sheap {

/// Translates a root value: copies the target out of from-space when needed
/// and returns the current address.
using RootTranslator = std::function<StatusOr<HeapAddr>(HeapAddr)>;

/// Stop-the-world copying collector for the volatile area.
class CopyingGc {
 public:
  struct Options {
    uint64_t space_pages = 256;
  };

  CopyingGc(const GcContext& ctx, const Options& opts);

  /// Allocate the initial volatile space.
  Status Format();

  /// Unlogged bump allocation (high end of the current space).
  StatusOr<HeapAddr> AllocateObject(Txn* txn, ClassId cls, uint64_t nslots);

  /// Run one full collection as a single pause.
  Status Collect();

  /// Discard everything and start over with a fresh space (crash recovery:
  /// the volatile area does not survive, §2.1).
  Status ResetAfterCrash();

  /// Visit every object (live or garbage) in the current space:
  /// f(base, header). Used by the stable collector's flip to treat the
  /// volatile area as part of its root set (§5.4).
  Status ForEachObject(
      const std::function<Status(HeapAddr, const ObjectHeader&)>& f);

  /// The live address of `a`: a volatile object whose word 0 is a
  /// forwarding word (a promotion husk) resolves to its target; null,
  /// non-volatile and unforwarded addresses pass through.
  StatusOr<HeapAddr> ResolveHusk(HeapAddr a) const;

  /// Fix every promotion husk at the end of a stable collection, while the
  /// stable from-space is still readable: `fix(target)` returns the
  /// target's current address, or kNullAddr if the target was garbage (not
  /// copied). Live husks get their forwarding word rewritten; dead husks
  /// are turned into plain unreachable objects of the same size, so the
  /// sequential walks stay parseable and the next volatile collection
  /// reclaims them.
  Status FixHusks(const std::function<StatusOr<HeapAddr>(HeapAddr)>& fix);

  bool Contains(HeapAddr a) const;
  const SemiSpaceState& sem() const { return sem_; }
  uint64_t free_bytes() const { return sem_.free_bytes(); }
  GcStats& stats() { return stats_; }

  std::function<void(HeapAddr, HeapAddr, uint64_t)> on_object_moved;
  std::function<Status(const RootTranslator&)> extra_roots;

 private:
  StatusOr<HeapAddr> CopyObject(HeapAddr from_base);
  StatusOr<uint64_t> TranslateValue(uint64_t v);
  Status ScanCopied();

  const Space* CurrentSpace() const;
  bool InFromSpace(HeapAddr a) const;

  GcContext ctx_;
  Options opts_;
  SemiSpaceState sem_;
  GcStats stats_;
};

}  // namespace sheap

#endif  // SHEAP_GC_COPYING_GC_H_
