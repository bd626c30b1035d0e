// RedoExecutor: the stateless record applier behind recovery's page gate.
//
// Repeating history (paper §2.2.3, invariant 2.1) constrains redo order only
// *within* a page: each page must see its records in LSN order, gated by the
// DPT recLSN and the on-page LSN. Records touching different pages commute.
// Recovery therefore replays the plan page by page (cf. Sauer & Härder's
// REDO-only, page-wise restart): InstantRedoManager (recovery/instant_redo.h)
// groups the plan per page and hash-partitions pages over workers, and this
// class applies one record's slice to one page. A record spanning several
// pages (a GC copy's contents plus its forwarding words in from-space, say)
// is applied piecewise, once per page; the per-page gates make that
// equivalent to one atomic application.
//
// The gate is tested once per (record, page): pin, compare the pageLSN with
// the record's LSN, apply every write of the record that lands on the page,
// then MarkDirty once. Gating each write separately would let the first
// write's pageLSN bump suppress the rest of the record on that page (a
// kGcCopyBatch puts several forwarding words on one from-space page).
//
// The plan is built once, during analysis (the records arrive already
// decoded), so redo never re-reads or re-decodes the log.
//
// Concurrency contract: the applier holds no locks and no mutable state.
// Callers confine each page to one thread; the only cross-thread structures
// touched (BufferPool shards, the Disk) carry their own capability-annotated
// mutexes. See DESIGN.md §5e.

#ifndef SHEAP_RECOVERY_REDO_EXECUTOR_H_
#define SHEAP_RECOVERY_REDO_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "heap/space_manager.h"
#include "recovery/tables.h"
#include "storage/buffer_pool.h"
#include "wal/record.h"

namespace sheap {

/// One redoable record plus the distinct pages its redo touches.
struct RedoPlanEntry {
  LogRecord rec;
  std::vector<PageId> pages;  // unique, ascending
};

/// The fused analysis output: redoable records in LSN order, pre-decoded.
struct RedoPlan {
  std::vector<RedoPlanEntry> entries;
};

/// See file comment.
class RedoExecutor {
 public:
  struct Deps {
    BufferPool* pool = nullptr;
    const SpaceManager* spaces = nullptr;
  };

  explicit RedoExecutor(const Deps& deps) : d_(deps) {}

  /// Upper bound on redo worker partitions.
  static constexpr uint32_t kMaxPartitions = 64;

  /// True for physical-redo record types.
  static bool IsRedoable(RecordType type);

  /// The distinct pages `rec`'s redo touches, ascending. Empty for
  /// non-redoable records and for records that write no bytes.
  static void AffectedPages(const LogRecord& rec, std::vector<PageId>* pages);

  /// The partition a page belongs to under `nparts` partitions.
  static uint32_t PartitionOf(PageId pid, uint32_t nparts);

  /// Apply the slice of `entry` that lands on page `pid`, gated by the DPT
  /// recLSN, the page's liveness and (once) its on-page LSN. *applied is
  /// set when the page changed.
  Status ApplyEntryToPage(const RedoPlanEntry& entry,
                          const DirtyPageTable& dpt, PageId pid,
                          bool* applied);

 private:
  bool PageLive(PageId page) const;

  Deps d_;
};

}  // namespace sheap

#endif  // SHEAP_RECOVERY_REDO_EXECUTOR_H_
