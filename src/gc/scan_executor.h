// ScanExecutor: parallel scan engine for the atomic collector's background
// scan (DESIGN.md §5f).
//
// A round gathers up to `budget` unscanned fully-copied to-space pages
// (strictly below the copy frontier), pins them, and hands them to N scan
// workers that claim tasks off a shared atomic index — dynamic claiming, so
// a worker that finishes early steals pages that would statically belong to
// a peer. Workers are read-only: each runs the collector's one page walk
// (AtomicGc::WalkPage, shared with the trap and frontier-page scans) over
// its pinned page image and emits the page's pointer slots whose value
// lies in from-space, in ascending slot order.
//
// Everything byte-visible then happens on the coordinator, in canonical
// ascending page/slot order regardless of which worker produced what:
//   * the slots go through the collector's copy planner (forwarded objects
//     reuse their target; fresh objects get contiguous to-addresses at the
//     copy frontier — the deterministic equivalent of a per-worker LAB
//     merge), which logs the round's copies as one kGcCopyBatch record,
//   * one kGcScan record per page carries its translations (runs of
//     adjacent translation-free pages collapse to a single kGcScan
//     clean-run record),
//   * heap writes follow each record under its LSN, per the WAL protocol.
// Log bytes, space layout, and recovery state are therefore byte-identical
// for every thread count; only simulated time differs (the scan phase is
// charged as the longest worker lane: ceil(pages / workers) page scans).
//
// Thread-safety contract (lock-free by construction, PR-4 discipline):
// workers touch no mutex and no shared mutable state — they read pinned
// PageImage frames, immutable snapshots (from-space range, copy frontier),
// and the TypeRegistry (append-only, quiescent during a collection), and
// write only their disjoint per-task candidate vectors. The coordinator
// owns the log, buffer pool, heap memory, and clock exclusively; adding a
// mutex anywhere here would hide a protocol bug. With true concurrent
// mutators (DESIGN.md §5i), rounds only ever run while the caller holds
// the MutatorGate exclusively (asserted in AtomicGc::Step), so mutator
// threads are parked at action boundaries for the duration of a round —
// the coordinator-exclusive ownership above still holds.

#ifndef SHEAP_GC_SCAN_EXECUTOR_H_
#define SHEAP_GC_SCAN_EXECUTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "heap/address.h"

namespace sheap {

class AtomicGc;
struct PageImage;

/// Drives one round of parallel page scanning for AtomicGc (WAL durability
/// only). The Detlefs comparator, the read-barrier trap and the frontier
/// page go through AtomicGc::ScanPage instead, which shares the page walk
/// and the copy planner.
class ScanExecutor {
 public:
  ScanExecutor(AtomicGc* gc, uint32_t threads);

  /// Run one round over at most `budget` unscanned fully-copied pages.
  /// *pages_done is the number of pages consumed (0 = no full-page work is
  /// available; the caller falls back to the frontier page / completion).
  Status RunRound(uint64_t budget, uint64_t* pages_done);

  uint32_t threads() const { return threads_; }

 private:
  /// One claimed page: inputs are immutable during the worker phase;
  /// `slots` is written only by the claiming worker.
  struct PageTask {
    uint64_t index = 0;             // page index within the current space
    HeapAddr page_base = kNullAddr;
    HeapAddr anchor = kNullAddr;    // LOT anchor (never null for a task)
    uint64_t anchor_header = 0;     // header word at `anchor`, pre-read
    const PageImage* frame = nullptr;  // pinned by the coordinator
    /// (slot word-in-page, value): the from-space pointer the walk found,
    /// replaced by its to-space address when the coordinator plans it.
    std::vector<std::pair<uint32_t, uint64_t>> slots;
  };

  AtomicGc* gc_;
  uint32_t threads_;
};

}  // namespace sheap

#endif  // SHEAP_GC_SCAN_EXECUTOR_H_
