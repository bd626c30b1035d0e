// AtomicGc: the atomic incremental copying collector (paper Chapter 3).
//
// Based on the Ellis-Li-Appel incremental collector: at a flip the root set
// is translated to to-space and every to-space page is "protected"
// (unscanned); the collector scans pages incrementally, and a mutator access
// to an unscanned page traps and scans that page (§3.2.1). To-space uses
// Baker's layout (Figure 3.3): copies fill the low end, mutator allocations
// fill the high end and are born scanned.
//
// The collector is *atomic* because each step follows the write-ahead log
// protocol (§3.4):
//   * a copy step logs one kGcCopyBatch{run base, contents, per-object
//     {from, n}}: redo re-creates the to-space copies from the record
//     and re-writes every forwarding pointer, so neither a lost forwarding
//     pointer (Fig 3.4) nor a lost object descriptor (Fig 3.5) can occur.
//     Every stable-area copy — flip roots, recovery resume, trap and
//     frontier scans, Baker's barrier, executor rounds — goes through one
//     planner (PlanCopy/CommitCopies), and a batch is committed before any
//     record that names one of its to-space addresses;
//   * a scan step logs kGcScan{page, translations}: redo re-applies the
//     pointer translations, and analysis re-marks the page scanned. Every
//     page scan walks the page with one walk (WalkPage) over a pinned frame;
//   * the flip logs kGcFlip plus kUtr records translating the addresses in
//     active transactions' undo information (undo roots are GC roots,
//     §3.5.2 / §4.2.1) and a kRootObject record re-anchoring the stable
//     root array.
// No step forces the log; the collector never performs a synchronous write
// (the contrast with Detlefs [15] measured in E7).
// What recovery rebuilds (semispace pointers, root object, scan bitmap,
// Last Object Table) is one value, AtomicGc::State, whose transition rules
// the live steps and recovery analysis (State::Replay) share.

#ifndef SHEAP_GC_ATOMIC_GC_H_
#define SHEAP_GC_ATOMIC_GC_H_

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "gc/gc.h"
#include "heap/object.h"
#include "txn/txn.h"
#include "util/bitmap.h"
#include "wal/record.h"

namespace sheap {

class MutatorGate;
class ScanExecutor;

/// Atomic incremental copying collector for the stable area.
class AtomicGc {
 public:
  struct Options {
    /// Pages per semispace. A flip allocates max(this, old space pages).
    uint64_t space_pages = 1024;
    /// Slots in the distinguished stable root array.
    uint64_t root_slots = 64;
    /// Ellis page-protection barrier (default) or Baker per-access (§3.8).
    GcBarrierMode barrier = GcBarrierMode::kPageProtection;
    /// Write-ahead logging (this paper) or Detlefs-style synchronous
    /// writes (E7 comparator).
    GcDurability durability = GcDurability::kWriteAheadLog;
    /// Scan workers for the background scan (WAL mode). The executor runs
    /// for every value including 1, and its log/disk bytes are identical
    /// for every value (DESIGN.md §5f); threads only change wall/sim time.
    uint32_t threads = 1;
  };

  AtomicGc(const GcContext& ctx, const Options& opts);
  ~AtomicGc();

  /// One-time heap format: allocates the first stable space and the root
  /// array object; logs kRootObject.
  Status Format();

  // ---------------------------------------------------------------- mutator
  /// Allocate a new object (Baker high end). Logged as kAlloc, chained into
  /// `txn`'s record chain (txn may be nullptr for system allocations).
  StatusOr<HeapAddr> AllocateObject(Txn* txn, ClassId cls, uint64_t nslots);

  /// Read barrier (Ellis trap): before the mutator touches the word at `a`,
  /// make sure its page is scanned. No-op when not collecting or when the
  /// barrier mode is per-access.
  Status EnsureAccess(HeapAddr a);

  /// Read barrier, slot-granular: called before every slot read/write. In
  /// page-protection mode this is EnsureAccess; in Baker mode it charges
  /// the per-reference check and translates a from-space pointer value in
  /// place (copying its target).
  Status EnsureSlotAccess(HeapAddr slot_addr, bool is_pointer);

  // ------------------------------------------------------------- collection
  /// Begin a collection: allocate to-space, log kGcFlip, translate roots,
  /// log UTRs. Fails if already collecting.
  Status Flip();

  /// Scan up to `max_pages` pages; completes the collection when nothing is
  /// left. Returns whether a collection is still in progress. In WAL mode
  /// the pages are processed in ScanExecutor rounds (parallel when
  /// Options::threads > 1); the Detlefs comparator keeps the serial path.
  StatusOr<bool> Step(uint64_t max_pages);

  /// Drain the current collection (no-op when idle).
  Status FinishCollection();

  /// Stop-the-world driver: Flip (if idle) then drain, as one pause.
  /// This is the baseline of the earlier Kolodner-Liskov-Weihl collector.
  Status CollectFully();

  /// Reserve stable-area words for an object being promoted from the
  /// volatile area (§5.2). Bump-allocates like AllocateObject but emits no
  /// record of its own: the caller's kV2sCopy record carries the redo, and
  /// analysis replays it against the allocation frontier.
  ///
  /// `page_isolated` (method-2 promotion): the reservation must not share
  /// a page with normally-logged objects — a neighbour's logged write
  /// would raise the shared pageLSN past the pending object's
  /// initial-value record and suppress its redo. Transitions between
  /// isolated and normal allocation round the frontier down to a page
  /// boundary.
  StatusOr<HeapAddr> AllocateForPromotion(uint64_t total_words,
                                          bool page_isolated = false);

  /// After pending objects are materialized their pages carry normally
  /// logged data; the next isolated reservation must start a fresh page.
  void ResetAllocIsolation() { alloc_isolation_ = false; }

  // ------------------------------------------------------------- recovery
  /// The collector's recoverable state (§3.5.3), with one transition rule
  /// per GC record kind: each live step applies the rule for the record it
  /// logs, and recovery analysis replays every record through the same.
  struct State {
    SemiSpaceState sem;
    HeapAddr root_object = kNullAddr;
    Bitmap scanned;             // per page of the current space
    std::vector<HeapAddr> lot;  // object covering each page's first word

    /// kGcFlip; `from` invalid is the format's (every page accessible).
    void Flip(SpaceId from, const Space& to);
    /// kGcScan's kScanBumped (a trap): a copy frontier inside the page
    /// moves to the page end. Returns the words abandoned.
    uint64_t AbandonTail(HeapAddr page_base);
    /// kGcScan: pages [first, first + count) are scanned (kScanRun: a run
    /// of clean pages). kScanPartial changes nothing.
    void MarkScanned(uint64_t first, uint64_t count);
    /// kGcCopyBatch: the copy frontier passes each copy, and each copy
    /// anchors the LOT entries of the pages whose first word it covers.
    void CommitCopies(const Space& cur, const std::vector<UtrEntry>& copies);
    void Complete() { sem.from = kInvalidSpaceId; }  // kGcComplete
    /// kAlloc, kV2sCopy, kInitialValue: the allocation frontier moves down
    /// to `base`, and the object's pages are born scanned (Figure 3.3).
    /// Returns the pages marked: {first index, count}.
    std::pair<uint64_t, uint64_t> Allocate(const Space& cur, HeapAddr base,
                                           uint64_t nbytes);
    /// Apply `rec`'s rule, if its kind has one (kRootObject: the root).
    void Replay(const LogRecord& rec, const SpaceManager& spaces);
    /// Checkpoint payload; the scan bitmap takes one byte per page.
    void EncodeTo(Encoder* enc) const;
    Status DecodeFrom(Decoder* dec);
  };

  /// Install state reconstructed by recovery analysis.
  void InstallRecovered(State state);

  /// Resume an interrupted collection after recovery: a crash can retain
  /// the flip record while losing the root-array copy (log-suffix loss);
  /// re-translate the root object if it still names a from-space address.
  Status ResumeAfterRecovery();

  /// Checkpoint payload (State::EncodeTo).
  void EncodeTo(Encoder* enc) const { state_.EncodeTo(enc); }

  // ------------------------------------------------------------ concurrency
  /// Attach the heap's GC<->mutator handshake gate (DESIGN.md §5i). The
  /// collector does not acquire it — core::StableHeap owns entry-point
  /// gating — but structural transitions (Flip, Step, CollectFully) assert
  /// the caller holds it exclusively, so a mutator thread can never race a
  /// flip or a scan round's resolve/apply phase. Null (the default) skips
  /// the assertion; a disabled gate reports trivially-exclusive.
  void AttachGate(const MutatorGate* gate) { gate_ = gate; }

  // ---------------------------------------------------------------- queries
  bool collecting() const { return state_.sem.collecting(); }
  const SemiSpaceState& sem() const { return state_.sem; }
  HeapAddr root_object() const { return state_.root_object; }
  uint64_t free_bytes() const { return state_.sem.free_bytes(); }
  GcStats& stats() { return stats_; }
  const Options& options() const { return opts_; }

  /// True if `a` lies in the active collection's from-space.
  bool InFromSpace(HeapAddr a) const;
  /// True if `a` lies in the current (to-)space.
  bool InCurrentSpace(HeapAddr a) const;
  /// Whether the page holding `a` is scanned (true when not collecting).
  bool PageScanned(HeapAddr a) const;

  /// Invoked for every object move (from, to, total_words): remembered-set
  /// and tracker rekeying. Set by core::StableHeap.
  std::function<void(HeapAddr, HeapAddr, uint64_t)> on_object_moved;

  /// Invoked during the flip, after internal roots are translated: lets the
  /// core treat external state (the volatile area, §5.4) as part of the
  /// root set. The RootTranslator copies from-space targets.
  std::function<Status(const std::function<StatusOr<HeapAddr>(HeapAddr)>&)>
      extra_roots;

  /// Invoked when the collection completes, just before from-space is
  /// freed (husk fixup: forwarding words into from-space must be repaired
  /// or retired while the space is still readable).
  std::function<Status()> before_complete;

  /// Invoked at the start of a flip, before any state changes (method-2
  /// promotion materializes pending objects while they are still plain
  /// current-space/volatile data).
  std::function<Status()> before_flip;

 private:
  /// A to-space slot and the pointer it holds: (word index in its page,
  /// value) — a from-space pointer until planned, then its to-address.
  using SlotUpdates = std::vector<std::pair<uint32_t, uint64_t>>;

  // ------------------------------------------------ copy planner (§3.4.1)
  /// Resolve `v` to the address its object has after this copy step:
  /// unchanged unless `v` names a from-space object; otherwise the
  /// forwarding target, the address already planned in this batch, or a
  /// fresh address assigned contiguously at copy_ptr in request order (the
  /// object's bytes are read now). On error the batch is dropped; nothing
  /// has been logged or written.
  StatusOr<HeapAddr> PlanCopy(HeapAddr v);
  /// PlanCopy every slot value of `slots` from index `first` on, in place.
  Status PlanTranslations(SlotUpdates* slots, size_t first);
  /// Append one kGcCopyBatch for the planned copies, then write their
  /// contents and forwarding words under its LSN (Detlefs: unlogged, and
  /// marked for the step's synchronous flush); advance copy_ptr, rekey
  /// locks and run on_object_moved. Ends the batch; no-op when empty.
  Status CommitCopies();
  /// Drop the open batch (committed or not) and return `st`.
  Status EndCopyBatch(Status st);
  /// Plan-table slot holding `from`, or the empty slot where it belongs.
  size_t PlanSlot(HeapAddr from) const;
  /// Plan the root array's copy, commit it, and log kRootObject.
  Status RelocateRootObject();

  /// Detlefs mode: pages dirtied by the current step, synchronously
  /// written at the end of the step ("each pause requires multiple
  /// synchronous writes to disk; furthermore, these writes are random").
  std::vector<PageId> detlefs_dirty_;
  void DetlefsMark(HeapAddr addr, uint64_t nbytes);
  Status DetlefsFlushStep();
  /// The one page walk (ScanPage and the executor's workers): from object
  /// `obj` with header word `header` (pre-read: the page's anchor may start
  /// on an earlier page), walk the pinned to-space `frame` at `page_base`
  /// until the page ends, the walk reaches `limit`, or a dead tail
  /// appears, appending every on-page pointer slot that holds a from-space
  /// value. Reads only the frame and the type registry, so scan workers
  /// run it concurrently. Returns where the walk stopped (the page end
  /// after a dead tail).
  HeapAddr WalkPage(const PageImage& frame, HeapAddr page_base, HeapAddr obj,
                    uint64_t header, HeapAddr limit, SlotUpdates* out) const;
  /// Scan one to-space page: one kGcScan for it (Detlefs: one synchronous
  /// flush of the pages the scan dirtied). `abandon_tail`
  /// (the trap path) bumps the copy pointer past the page first, wasting
  /// the tail, so copies triggered by the scan cannot land on the page
  /// being unprotected; the background scan instead walks the frontier
  /// page Cheney-style, committing a batch and continuing into the objects
  /// it copied onto the page.
  Status ScanPage(uint64_t page_index, bool abandon_tail);
  Status TranslateRootsAtFlip();
  Status Complete();

  /// Lowest unscanned copy-region page index, or npages if none. Advances
  /// the monotone scan cursor (scan bits never clear within a collection,
  /// so the cursor makes a full collection's queries O(npages/64) total
  /// instead of O(npages) each).
  uint64_t NextUnscannedPage();
  uint64_t PageIndexOf(HeapAddr a) const;
  /// The address `nbytes` below the allocation frontier, or OutOfSpace
  /// when that would reach the copy region's pages. Crossing between
  /// page-isolated and normal reservations first rounds the frontier down
  /// to a page boundary (see AllocateForPromotion).
  StatusOr<HeapAddr> Reserve(uint64_t nbytes, bool page_isolated);
  /// State::Allocate, then lift the new pages' mirror protection.
  void ApplyAllocation(HeapAddr base, uint64_t nbytes);

  const Space* CurrentSpace() const;
  const Space* FromSpace() const;

  // Hardware barrier mirror (ctx_.mapping; all no-ops when null). The
  // software scan bitmap stays the authority for barrier semantics;
  // the mirror shadows it in the MMU so unscanned-page accesses take a
  // real SIGSEGV. Page indices here are *space-local*; the helpers
  // translate to global PageIds against the current space's base.
  /// PROT_NONE the whole current space's mirror (flip: nothing scanned).
  void HwProtectCurrentSpace();
  /// Lift protection for [first, first+count) space-local pages (scanned).
  void HwUnprotectPages(uint64_t first_idx, uint64_t count);
  /// Reconcile the mirror with the scan bitmap (recovery install).
  void HwSyncToBitmap();

  /// Asserts (never acquires) exclusive handshake ownership; may be null.
  const MutatorGate* gate_ = nullptr;

  GcContext ctx_;
  Options opts_;
  State state_;
  bool alloc_isolation_ = false;  // frontier currently in an isolated page
  /// Read-barrier fast path: direct-mapped cache of pages recently found
  /// scanned (indexed by page_idx & 3). Scan bits are monotonic within a
  /// collection, so a cached positive stays valid until the next flip (or
  /// recovery install) invalidates the cache.
  std::array<uint64_t, 4> rb_cache_;
  /// Monotone scan cursor: every page below it is scanned. Reset at flip
  /// and recovery install.
  uint64_t scan_cursor_ = 0;
  std::unique_ptr<ScanExecutor> executor_;
  /// The copy batch being planned: contents = the copies' bytes,
  /// utr_entries = {from, to, nwords} per copy. With plan_table_ (an
  /// open-addressed from -> to map over the batch's lookups) and
  /// scan_rec_, it keeps its capacity across batches, so a trap does not
  /// allocate.
  LogRecord copy_batch_;
  std::vector<std::pair<HeapAddr, HeapAddr>> plan_table_;
  std::vector<size_t> plan_used_;  // occupied plan_table_ slots
  LogRecord scan_rec_;             // ScanPage's / Baker's kGcScan
  GcStats stats_;

  friend class ScanExecutor;
};

}  // namespace sheap

#endif  // SHEAP_GC_ATOMIC_GC_H_
