// StableHeap: the public face of the library — a stable heap as specified in
// paper Chapter 2: storage managed automatically by garbage collection,
// manipulated by atomic transactions, accessed through one uniform model.
//
// The heap lives on an Env (disk + stable log + clock; simulated or real). A
// "machine crash" is simulated by SimulateCrash() + destroying the heap;
// re-Open()ing on the same Env runs recovery. Objects are reached through
// Refs (handle-table indices); application code never holds raw addresses,
// which is what lets the collector move objects under it.
//
// Concurrency model (paper §2.1): transactions are sequences of low-level
// indivisible actions; every public method is one action. Two regimes
// (StableHeapOptions::mutator_threads, DESIGN.md §5i):
//   * 1 (default): the historical single-mutator mode. Interleave calls
//     from different transactions freely (see workload::Scheduler) but from
//     ONE thread — callers serialize actions, exactly as Argus serialized
//     them at action boundaries. Execution is byte-deterministic.
//   * > 1: true concurrent mutators. Begin/Read*/Write*/Commit/Abort and
//     the root operations may be called from that many OS threads at once;
//     each action runs inside a shared section of the GC<->mutator
//     handshake gate, commits join group commit by commit-LSN ticket, and
//     structural operations (allocation, collection, checkpoints, crash
//     simulation) take the gate exclusively after an epoch/acknowledgment
//     handshake. Outcomes
//     are serializable (strict 2PL is unchanged) but schedule-dependent;
//     correctness is checked by post-run invariants, not byte equality.

#ifndef SHEAP_CORE_STABLE_HEAP_H_
#define SHEAP_CORE_STABLE_HEAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "core/mutator_gate.h"
#include "gc/atomic_gc.h"
#include "gc/copying_gc.h"
#include "heap/handle_table.h"
#include "heap/heap_memory.h"
#include "heap/space_manager.h"
#include "heap/type_registry.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/utt.h"
#include "stability/promotion.h"
#include "stability/stable_sets.h"
#include "stability/tracker.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/group_commit.h"
#include "wal/log_writer.h"

namespace sheap {

/// Configuration for Open(). Geometry fields are persisted in the heap
/// format record; when reopening an existing heap the persisted values win.
struct StableHeapOptions {
  /// Pages per stable-area semispace (4 KiB pages).
  uint64_t stable_space_pages = 2048;
  /// Pages per volatile-area semispace.
  uint64_t volatile_space_pages = 512;
  /// Slots in the stable root array.
  uint64_t root_slots = 64;
  /// Divided heap (Chapter 5). When false, every object is allocated in the
  /// stable area and pays full logging (the Chapter 3/4 model).
  bool divided_heap = true;

  /// Buffer-pool capacity in frames.
  uint64_t buffer_pool_frames = 16384;
  /// Force the log at every commit (true) or rely on explicit ForceLog()
  /// batches (group commit, §2.2.1 footnote 1).
  bool force_on_commit = true;
  /// Real group commit (§2.2.1 footnote 1): a committing transaction joins
  /// the open batch with its commit record's LSN as a ticket; one
  /// batch-leader Force() covers the batch. Until the ticket is behind
  /// LogWriter::durable_lsn(), Commit returns Status::Busy and the
  /// transaction keeps its locks — retry the same call (the scheduler's
  /// standard retry discipline); the retry that finds the ticket durable
  /// finishes the transaction and returns OK. Takes precedence over
  /// force_on_commit.
  bool group_commit = false;
  /// Batch-close policy and poll cost for group commit.
  GroupCommitOptions group_commit_options;
  /// Collector pages scanned per allocation when a collection is active
  /// (Baker-style pacing of the incremental collector).
  uint64_t gc_step_pages = 1;
  /// Start a collection automatically when allocation runs out of space.
  bool auto_collect = true;
  /// Incremental collection (Ellis). When false, automatic collections are
  /// run stop-the-world (the earlier Kolodner-Liskov-Weihl baseline).
  bool incremental_gc = true;
  /// Read-barrier implementation: Ellis page protection or Baker per-access
  /// checks (§3.8).
  GcBarrierMode barrier_mode = GcBarrierMode::kPageProtection;
  /// Collector crash-safety mechanism: write-ahead logging (this paper) or
  /// Detlefs-style synchronous writes (pause comparator, E7).
  GcDurability gc_durability = GcDurability::kWriteAheadLog;
  /// How newly stable objects move to the stable area: physically at commit
  /// (§5.2) or deferred to the next volatile collection with initial-value
  /// records (§5.5).
  PromotionMethod promotion_method = PromotionMethod::kAtCommit;
  /// Redo worker partitions for recovery, offline and instant alike (the
  /// page-hash partitions of the redo drain). 0 = hardware concurrency
  /// (clamped to RedoExecutor::kMaxPartitions); 1 = serial. Recovery
  /// output is byte-identical for every value.
  uint32_t recovery_threads = 1;
  /// Instant recovery (ROADMAP item 2; cf. Sauer & Härder's REDO-only
  /// recovery and HEAL's online incremental repair, PAPERS.md): Open
  /// returns right after analysis + undo with the redo plan installed as a
  /// per-page gate — pages are redone on first touch, and a cooperative
  /// background drain finishes the rest at action boundaries. Time to first
  /// transaction stops scaling with the redo-plan size (experiment E15);
  /// the final heap bytes are identical to offline recovery's for every
  /// access order and recovery_threads value. Off by default: the whole
  /// plan is drained inside Open, before undo.
  bool instant_recovery = false;
  /// Pending pages the cooperative drain redoes per Begin/Commit boundary.
  uint64_t instant_drain_pages = 8;
  /// Scan workers for the stable collector's background scan (WAL mode).
  /// 0 = hardware concurrency (clamped to 64). Log bytes, space layout,
  /// and recovery state are byte-identical for every value; threads only
  /// change how fast the scan phase runs (DESIGN.md §5f).
  uint32_t gc_threads = 1;
  /// Writer threads for parallel checkpoint writeback (FlushAll /
  /// CheckpointWithWriteback). 0 = hardware concurrency.
  uint32_t flush_writer_threads = 4;
  /// Mutator threads the heap must tolerate calling it concurrently
  /// (DESIGN.md §5i). 1 (default): the historical single-mutator mode —
  /// byte-deterministic, required by the crash matrix and the determinism
  /// proofs. > 1: the transaction path becomes thread-safe (see the file
  /// comment); the value itself is only a declaration of intent — any
  /// number of threads up to MutatorGate::kMaxThreads may enter. Not
  /// persisted in the format record: each Open chooses its own mode.
  uint32_t mutator_threads = 1;
};

/// Aggregated low-level counters for inspection tools (examples/, tests):
/// the fault machinery plus the devices it exercises.
struct HeapStats {
  FaultStats fault;
  DiskStats disk;
  LogDeviceStats log_device;
  BufferPoolStats pool;
  /// Stats from the last recovery this heap performed (zero on format).
  RecoveryStats recovery;
};

/// See file comment.
class StableHeap {
 public:
  /// Open (recover) or create (format) the heap on `env`.
  ///
  /// The allocation/commit entry points below carry an explicit
  /// [[nodiscard]] on top of Status/StatusOr's class-level one: discarding
  /// any of them silently drops durability (a Commit whose error goes
  /// unchecked is an acknowledged-then-lost write). -Werror=unused-result
  /// makes violations hard build errors.
  [[nodiscard]] static StatusOr<std::unique_ptr<StableHeap>> Open(
      Env* env, const StableHeapOptions& options);

  ~StableHeap();
  StableHeap(const StableHeap&) = delete;
  StableHeap& operator=(const StableHeap&) = delete;

  // ------------------------------------------------------------- schema
  /// Register a record class; `pointer_map[i]` says slot i holds a pointer.
  /// Logged, so the collector can parse objects after recovery.
  StatusOr<ClassId> RegisterClass(const std::vector<bool>& pointer_map);

  // ------------------------------------------------------------ transactions
  [[nodiscard]] StatusOr<TxnId> Begin();
  [[nodiscard]] Status Commit(TxnId txn);
  [[nodiscard]] Status Abort(TxnId txn);

  /// Convenience for single-threaded callers under group commit: drive
  /// Commit through the Busy retry protocol until the commit record is
  /// durable (each waiting retry charges poll time, so a lone committer
  /// reaches the batch deadline and leads its own force). Identical to
  /// Commit when group commit is off.
  [[nodiscard]] Status CommitSync(TxnId txn) {
    for (;;) {
      Status st = Commit(txn);
      if (!st.IsBusy()) return st;
    }
  }

  // Two-phase commit participant role (§2.2 extension; see dtx/two_phase.h).
  /// Phase-1 vote: promote, force a kPrepare record tagged with the global
  /// transaction id, release local handles. The transaction becomes
  /// *in doubt*: it holds its locks (across crashes) until the coordinator
  /// delivers the outcome.
  [[nodiscard]] Status Prepare(TxnId txn, uint64_t gtid);
  /// Coordinator said commit.
  [[nodiscard]] Status CommitPrepared(TxnId txn);
  /// Coordinator said abort (or presumed abort).
  [[nodiscard]] Status AbortPrepared(TxnId txn);
  /// In-doubt transactions (survivors of recovery): (local txn, gtid).
  std::vector<std::pair<TxnId, uint64_t>> InDoubtTransactions() const;

  // --------------------------------------------------------------- objects
  /// Allocate an object. In the divided heap new objects are volatile (they
  /// become stable by reachability at commit, §2.1); in all-stable mode they
  /// are allocated directly in the stable area.
  [[nodiscard]] StatusOr<Ref> Allocate(TxnId txn, ClassId cls,
                                       uint64_t nslots);

  /// Allocate directly in the stable area (all-stable mode's default path;
  /// also usable in divided mode for objects known to be long-lived).
  [[nodiscard]] StatusOr<Ref> AllocateStable(TxnId txn, ClassId cls,
                                             uint64_t nslots);

  StatusOr<uint64_t> ReadScalar(TxnId txn, Ref ref, uint64_t slot);
  StatusOr<Ref> ReadRef(TxnId txn, Ref ref, uint64_t slot);
  Status WriteScalar(TxnId txn, Ref ref, uint64_t slot, uint64_t value);
  Status WriteRef(TxnId txn, Ref ref, uint64_t slot, Ref target);

  /// Release a handle before transaction end (optional; all of a
  /// transaction's handles are released at commit/abort).
  Status ReleaseRef(TxnId txn, Ref ref);

  // ----------------------------------------------------------------- roots
  /// The stable roots are slots of a distinguished root array (§2.1).
  Status SetRoot(TxnId txn, uint64_t index, Ref target);
  StatusOr<Ref> GetRoot(TxnId txn, uint64_t index);

  // --------------------------------------------------------------- control
  Status Checkpoint();
  /// Flush checkpoint: parallel write-back of all dirty pages (coalesced
  /// into page-adjacent runs), then a normal checkpoint whose DPT is
  /// near-empty — post-crash redo starts at the checkpoint itself.
  Status CheckpointWithWriteback();
  /// Force the log (group-commit batch boundary).
  Status ForceLog();
  /// Begin a stable-area collection (flip).
  Status StartStableCollection();
  /// Advance the stable collection by up to `pages` page scans.
  Status StepStableCollection(uint64_t pages);
  /// Run a full stable collection as one pause.
  Status CollectStableFully();
  /// Collect the volatile area (stop-the-world, cheap, unlogged).
  Status CollectVolatile();
  /// Let the background writer push dirty pages to disk (steady-state
  /// cleaning; diversifies crash states in tests).
  Status WriteBackPages(double fraction, uint64_t seed);
  /// Instant recovery: drain the redo backlog to completion. No-op when
  /// instant recovery is off or the plan already drained; otherwise
  /// equivalent to touching every remaining page (same final bytes).
  [[nodiscard]] Status DrainInstantRecovery();

  // ----------------------------------------------------------------- crash
  /// Simulate a machine crash: some dirty pages reach disk (respecting the
  /// WAL constraint), the un-acknowledged log tail may tear, and the heap
  /// becomes unusable. Destroy it and Open() the Env again to recover.
  Status SimulateCrash(const CrashOptions& crash_options);

  // ------------------------------------------------------------ inspection
  /// Stats of the last recovery. Under instant recovery the on-demand /
  /// drained / pending counters and the terminal outcome are refreshed
  /// from the gate on every call, so callers watch the drain progress.
  const RecoveryStats& recovery_stats() const {
    RefreshRecoveryStats();
    return recovery_stats_;
  }
  GcStats& stable_gc_stats() { return stable_gc_->stats(); }
  GcStats& volatile_gc_stats() { return volatile_gc_->stats(); }
  const TrackerStats& tracker_stats() const { return tracker_->stats(); }
  const PromotionStats& promotion_stats() const {
    return promoter_->stats();
  }
  const CheckpointStats& checkpoint_stats() const {
    return checkpointer_->stats();
  }
  const LockStats& lock_stats() const { return locks_.stats(); }
  /// Group-commit counters, consistent under the commit queue's lock.
  GroupCommitStats group_commit_stats() const {
    return commit_queue_->stats();
  }
  /// Handshake counters, consistent under the gate's handshake lock.
  MutatorGateStats gate_stats() const { return gate_.stats(); }
  /// Fault-injection + device + pool counters (see HeapStats).
  HeapStats stats() const;
  const LogVolumeStats& log_volume() const { return log_->volume_stats(); }
  Env* env() { return env_; }
  const StableHeapOptions& options() const { return options_; }

  // Introspection for tests and benchmarks (not part of the stable API).
  AtomicGc* stable_gc() { return stable_gc_.get(); }
  CopyingGc* volatile_gc() { return volatile_gc_.get(); }
  BufferPool* pool() { return pool_.get(); }
  LogWriter* log_writer() { return log_.get(); }
  SpaceManager* spaces() { return spaces_.get(); }
  UndoTranslationTable* utt() { return &utt_; }
  RememberedSet* remembered() { return &remembered_; }
  PendingMaterializations* pending_materializations() { return &pending_; }
  LikelyStableSet* likely_stable() { return &ls_; }
  TxnManager* txn_manager() { return txns_.get(); }
  HandleTable* handles() { return &handles_; }
  HeapMemory* memory() { return mem_.get(); }
  /// Instant-recovery gate, null when instant_recovery is off or the heap
  /// was freshly formatted.
  InstantRedoManager* instant_redo() { return instant_.get(); }
  StatusOr<HeapAddr> DebugAddrOf(Ref ref) const;
  StatusOr<uint64_t> DebugReadWord(HeapAddr addr);

 private:
  explicit StableHeap(Env* env, const StableHeapOptions& options);

  Status Initialize();
  /// Initialize's body; the wrapper stamps time-to-open and, on an
  /// injected-fault early return anywhere in the open path (recovery
  /// proper, GC resume, the post-open checkpoint), deactivates the instant
  /// gate so an aborted open always reads as a terminal outcome.
  Status InitializeImpl();
  Status FormatHeap();
  /// A per-page redo gate over this heap's pool, with recovery_threads
  /// drain partitions.
  std::unique_ptr<InstantRedoManager> NewRedoGate();
  Status RecoverHeap();
  /// Build both collectors from options_ (after recovery has decoded the
  /// format payload into it, on an existing heap); `recovered`, when not
  /// null, is the stable collector's state rebuilt by recovery analysis.
  void BuildCollectors(AtomicGc::State* recovered);
  /// The pool's hooks: the WAL constraint, the instant-recovery gate when
  /// one is armed, and (`log_page_events`) the kPageFetch/kEndWrite records
  /// of normal operation.
  BufferPool::Hooks PoolHooks(bool log_page_events);
  void WireGcHooks();
  /// Cooperative instant-recovery drain: redo up to instant_drain_pages
  /// pending pages. Called at action boundaries (Begin/Commit), outside
  /// any gate section, the MaybeStepCollector idiom. A no-op under
  /// concurrent mutators, whose open drains the whole backlog.
  Status StepInstantDrain();
  /// Fold the instant gate's counters and terminal outcome into
  /// recovery_stats_ (no-op for offline recovery).
  void RefreshRecoveryStats() const;

  Status CheckUsable() const;
  /// True in the concurrent-mutator regime (mutator_threads > 1).
  bool concurrent() const { return options_.mutator_threads > 1; }
  /// The one commit body (Commit and CommitPrepared, both regimes): the
  /// Busy-retry check, the entry-state check (kActive, or kPrepared when
  /// `prepared`), the kCommit record, a force unless group commit carries
  /// it, then CommitTail. Runs in a shared section under concurrent
  /// mutators, so it never promotes: Commit does that first.
  Status CommitBody(Txn* txn, bool prepared);
  /// The one abort body (Abort and AbortPrepared): the entry-state check,
  /// the kAbortTxn record, then RollbackTail.
  Status AbortBody(Txn* txn, bool prepared);
  /// Promote what `txn`'s commit makes stable (divided heap; Commit and
  /// Prepare). On OutOfSpace with auto_collect, collect the stable area
  /// fully and retry once: promotion is all-or-nothing.
  Status Promote(Txn* txn);
  /// The stable collector's read barrier for one access: the object header
  /// at `a` (AtomicGc::EnsureAccess), or the slot at `a` holding a pointer
  /// iff `is_pointer` (AtomicGc::EnsureSlotAccess). Under concurrent
  /// mutators an Ellis trap scans a page (copies objects, writes log
  /// records), so evaluation during an active collection serializes on
  /// gc_mu_.
  Status GcBarrier(HeapAddr a, bool slot, bool is_pointer = false);
  StatusOr<Txn*> FindActive(TxnId txn);
  /// The address a pointer store writes: null for kNullRef, else
  /// HandleTable::Resolve (WriteRef, SetRoot).
  StatusOr<HeapAddr> ResolveTarget(TxnId txn, Ref target) const;
  /// The handle a pointer read returns: kNullRef for null, else a new
  /// handle on the live address, past any promotion husk, listed in
  /// `txn`'s handles (ReadRef, GetRoot).
  StatusOr<Ref> HandleFor(Txn* txn, HeapAddr v);
  bool InStableArea(HeapAddr a) const;

  StatusOr<uint64_t> ReadSlotInternal(Txn* txn, HeapAddr base, uint64_t slot,
                                      bool want_pointer);
  Status WriteSlotInternal(Txn* txn, HeapAddr base, uint64_t slot,
                           uint64_t value, bool is_pointer);
  StatusOr<ObjectHeader> CheckedHeader(HeapAddr base, uint64_t slot);
  /// Rollback tail of AbortBody and of recovery's losers: undo from the
  /// in-memory undo information newest-first, one CLR per logged update,
  /// then kAborted and the FinishTxn tail.
  Status RollbackTail(Txn* txn);
  /// Shared tail of CommitTail and RollbackTail, and recovery's end for a
  /// committed winner: release locks, the transaction's own handles and
  /// per-transaction side state, log kEnd, drop the table entry.
  Status FinishTxn(Txn* txn);
  /// Durability tail of CommitBody, once the commit record is spooled (and
  /// forced, if the body forces): under group commit, join the open batch
  /// (first call) or charge a poll (retry), lead it if it must close, and
  /// return Busy until the record is durable. Then kCommitting ->
  /// kCommitted and the FinishTxn tail.
  Status CommitTail(Txn* txn, bool retry);
  /// Step the incremental stable collector by gc_step_pages before an
  /// allocation (Baker-style pacing).
  Status MaybeStepCollector();
  /// Allocate and AllocateStable: one object in the stable area (`stable`)
  /// or the volatile one, write-locked, behind a new handle.
  StatusOr<Ref> AllocateIn(TxnId txn_id, ClassId cls, uint64_t nslots,
                           bool stable);
  StatusOr<HeapAddr> AllocateStableRaw(Txn* txn, ClassId cls,
                                       uint64_t nslots);
  StatusOr<HeapAddr> AllocateVolatileRaw(Txn* txn, ClassId cls,
                                         uint64_t nslots);
  Status ValidateClass(ClassId cls, uint64_t nslots) const;
  /// Stable-flip hook: treat the volatile area as roots (§5.4).
  Status ScanVolatileAreaAsRoots(
      const std::function<StatusOr<HeapAddr>(HeapAddr)>& translate);
  /// Volatile-collection hook: remembered slots, undo info, LS.
  Status VolatileExtraRoots(const RootTranslator& translate);

  Env* env_;
  StableHeapOptions options_;
  bool crashed_ SHEAP_GATE_EXCLUSIVE = false;

  /// GC <-> mutator handshake (DESIGN.md §5i). Disabled — every operation
  /// a no-op — in single-mutator mode. Ranks above every other lock.
  MutatorGate gate_;
  /// Serializes read-barrier traps (an Ellis trap scans a page: object
  /// copies plus log records) among shared-section mutators while a stable
  /// collection is active. Rank: below gate_, above qmu_/side_mu_.
  Mutex gc_mu_;
  /// Guards the cross-transaction side tables (remembered_, ls_, utt_ and
  /// the tracker's maps) against concurrent shared-section mutators. Rank:
  /// above the structure shards and the log writer's mutex.
  Mutex side_mu_;
  /// The buffer pool's concurrent regime is held open for the heap's
  /// lifetime in multi-mutator mode; closed by the destructor.
  bool pool_concurrent_ = false;

  std::unique_ptr<LogWriter> log_;
  std::unique_ptr<CommitQueue> commit_queue_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapMemory> mem_;
  std::unique_ptr<SpaceManager> spaces_;
  TypeRegistry types_;
  UndoTranslationTable utt_;
  LockManager locks_;
  HandleTable handles_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<AtomicGc> stable_gc_;
  std::unique_ptr<CopyingGc> volatile_gc_;
  RememberedSet remembered_;
  LikelyStableSet ls_;
  PendingMaterializations pending_;
  std::unique_ptr<StabilityTracker> tracker_;
  std::unique_ptr<Promoter> promoter_ SHEAP_GATE_EXCLUSIVE;
  std::unique_ptr<Checkpointer> checkpointer_ SHEAP_GATE_EXCLUSIVE;
  std::unique_ptr<InstantRedoManager> instant_ SHEAP_GATE_EXCLUSIVE;
  /// Mutable: the const inspection paths refresh the instant counters.
  mutable RecoveryStats recovery_stats_;
};

}  // namespace sheap

#endif  // SHEAP_CORE_STABLE_HEAP_H_
