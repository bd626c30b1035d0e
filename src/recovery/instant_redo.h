// InstantRedoManager: the per-page redo gate, recovery's one redo driver.
//
// RecoveryManager::Redo *installs* the fused redo plan here as a per-page
// work table, and every page moves through a tiny state machine
//
//     pending --> in-flight --> done
//
// driven from two directions, coordinated so no page is redone twice:
//
//  * on demand — under instant recovery (StableHeapOptions::
//    instant_recovery) BufferPool::Hooks::before_pin calls OnPageAccess on
//    every pin, so the first touch of a not-yet-redone page (a mutator read
//    or write, an undo CLR, a GC scan) replays that page's plan entries
//    first. This is the read barrier of Sauer & Härder's REDO-only /
//    HEAL-style on-demand recovery, expressed as a pool hook;
//  * drain — DrainStep claims batches of still-pending pages (ascending
//    page id) and replays them, serially or across page-hash partitions.
//    Offline recovery drains the whole table inside Open, before undo;
//    instant recovery opens the heap right after analysis + undo and lets
//    StableHeap drain cooperatively at action boundaries (the
//    MaybeStepCollector idiom).
//
// Correctness: redo order matters only within a page, and every
// application here goes through RedoExecutor::ApplyEntryToPage with the
// DPT/pageLSN/live-space gates — so any interleaving of touches and drain
// batches, at any partition count, converges to the same bytes
// (instant_recovery_test and recovery_parallel_test prove this over random
// first-touch orders and 1..64 partitions).
//
// Concurrency: the mutator serializes all heap actions, so Install /
// OnPageAccess / DrainStep are called from one thread at a time. Drain
// workers never call back into the gate — the apply path sets a
// thread-local in-redo flag that short-circuits before_pin re-entry (both
// for a worker's own pins and for the recursive pin the on-demand path
// itself performs). The page states are guarded by one leaf mutex; the
// plan, DPT and page-to-entry table are immutable after Install and read
// without it.
//
// Failure: a transient I/O error during a page's replay reverts the page to
// pending — the next touch or drain batch retries it, so a fault storm
// degrades latency, never correctness. An injected crash marks the gate
// aborted (a terminal outcome; see RecoveryOutcome) and the heap unusable,
// exactly like any other crash point; reopening recovers from the log.

#ifndef SHEAP_RECOVERY_INSTANT_REDO_H_
#define SHEAP_RECOVERY_INSTANT_REDO_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "fault/fault_injector.h"
#include "heap/space_manager.h"
#include "recovery/redo_executor.h"
#include "recovery/tables.h"
#include "storage/buffer_pool.h"
#include "util/sim_clock.h"

namespace sheap {

/// Counters for the gate (folded into RecoveryStats by StableHeap).
struct InstantRedoStats {
  uint64_t ondemand_pages = 0;  // pages redone at first touch
  uint64_t drained_pages = 0;   // pages redone by the drain
  uint64_t pending_pages = 0;   // pages still awaiting redo
  /// Plan entries that changed at least one page so far (a multi-page
  /// entry counts once), independent of the order pages were redone in.
  uint64_t records_applied = 0;
  bool installed = false;  // Install ran (a redo plan exists)
  bool aborted = false;    // an injected crash hit the gate (terminal)
};

/// See file comment.
class InstantRedoManager {
 public:
  struct Deps {
    BufferPool* pool = nullptr;
    const SpaceManager* spaces = nullptr;
    SimClock* clock = nullptr;
    FaultInjector* faults = nullptr;  // may be null
    /// Worker partitions for DrainStep batches (1 = serial; clamped to
    /// RedoExecutor::kMaxPartitions). Final heap bytes are identical for
    /// every value.
    uint32_t drain_threads = 1;
  };

  explicit InstantRedoManager(const Deps& deps);

  InstantRedoManager(const InstantRedoManager&) = delete;
  InstantRedoManager& operator=(const InstantRedoManager&) = delete;

  /// Adopt the fused redo plan (RecoveryManager::Redo hands it over).
  /// Builds the per-page work table: page -> its plan entries in LSN order,
  /// pre-gated by the DPT recLSN so pages with nothing to replay never
  /// enter the table. Called once, before the heap serves any action.
  void Install(RedoPlan plan, DirtyPageTable dpt) SHEAP_EXCLUDES(mu_);

  /// True while any page is still pending (the gate must stay on the pool
  /// hook). Flips off permanently once the table drains.
  bool active() const { return active_; }

  /// The before_pin hook: if `pid` is pending, replay its entries now
  /// (claiming it in-flight so the drain skips it). No-op when called from
  /// inside a replay (the thread-local in-redo flag) or when inactive.
  /// Crash window: "recovery.ondemand.page_redo".
  Status OnPageAccess(PageId pid) SHEAP_EXCLUDES(mu_);

  /// Claim up to `max_pages` pending pages (ascending page id) and replay
  /// them, across drain_threads page-hash partitions. Deterministic: batch
  /// selection, partition assignment, result merge and the simulated-time
  /// charge (busiest lane + a merge term) are all independent of host
  /// scheduling. Failed pages revert to pending; the first failure in page
  /// order is returned. Crash window: "recovery.drain.step".
  Status DrainStep(uint64_t max_pages) SHEAP_EXCLUDES(mu_);

  /// Drain to completion (or first error).
  Status DrainAll();

  /// Deactivate the gate without replaying anything — the enclosing Open
  /// failed (injected fault after the plan was installed) and the heap is
  /// being torn down. Marks the gate aborted so the terminal outcome is
  /// observable; pending pages are simply abandoned (the log still covers
  /// them, and the post-open checkpoint never ran, so the next recovery
  /// replays them).
  void Abandon() SHEAP_EXCLUDES(mu_);

  InstantRedoStats stats() const SHEAP_EXCLUDES(mu_);

  /// (page, DPT recLSN) for every not-yet-done page, page-ordered: chained
  /// into Checkpointer::extra_dirty_pages so a checkpoint taken mid-drain
  /// carries the pending pages in its DPT — a crash right after it still
  /// redoes them from their original recLSNs, and the checkpoint keeps
  /// every record they need.
  std::vector<std::pair<PageId, Lsn>> PendingDirtyPages() const
      SHEAP_EXCLUDES(mu_);

  uint32_t drain_threads() const { return drain_threads_; }

 private:
  enum class PageState : uint8_t { kPending, kInFlight, kDone };

  /// One page of the work table: its plan entries are
  /// page_entries_[begin, end), ascending LSN.
  struct PageSpan {
    PageId pid = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// Index of `pid` in pages_, or pages_.size() if it has no work.
  size_t FindPage(PageId pid) const;

  /// Replay page `idx`'s entries (sets the in-redo flag for the duration).
  /// *applied_flags gets one byte per entry: did this page's slice of the
  /// entry change bytes (merged into records_applied under mu_).
  Status ApplyPage(size_t idx, std::vector<uint8_t>* applied_flags);

  /// Commit one finished page under mu_: mark done, fold applied flags. A
  /// null `counter` records a failed replay (the page reverts to pending).
  void CommitPage(size_t idx, const std::vector<uint8_t>& applied_flags,
                  uint64_t InstantRedoStats::*counter) SHEAP_REQUIRES(mu_);

  Deps d_;
  uint32_t drain_threads_;
  RedoExecutor exec_;

  // Immutable after Install; drain workers read them without locking.
  RedoPlan plan_;
  DirtyPageTable dpt_;
  std::vector<PageSpan> pages_;         // ascending page id
  std::vector<uint32_t> page_entries_;  // plan indexes, grouped by page

  /// Leaf lock for the page states (nothing else is acquired under it; the
  /// apply paths run outside it).
  mutable Mutex mu_;
  std::vector<PageState> state_ SHEAP_GUARDED_BY(mu_);  // parallel to pages_
  /// Every page below this index is done (DrainStep starts here).
  size_t drain_cursor_ SHEAP_GUARDED_BY(mu_) = 0;
  std::vector<uint8_t> entry_applied_ SHEAP_GUARDED_BY(mu_);
  uint64_t pending_count_ SHEAP_GUARDED_BY(mu_) = 0;
  InstantRedoStats stats_ SHEAP_GUARDED_BY(mu_);

  /// Written by Install/the mutator thread only; drain workers never read
  /// it (they check the thread-local in-redo flag first).
  bool active_ = false;
};

}  // namespace sheap

#endif  // SHEAP_RECOVERY_INSTANT_REDO_H_
