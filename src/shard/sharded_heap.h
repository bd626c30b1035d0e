// ShardedHeap: N independent StableHeaps in one process behind a
// deterministic routing layer (ROADMAP item 1, the scale-out front end).
//
// Each shard is a complete engine — its own Env (clock, disk, log,
// fault injector), WAL, buffer pool, GC, and recovery — so shards share
// no mutable state and scale independently. The routing layer partitions
// two spaces deterministically:
//
//   * roots: global root index r lives on shard r % N, local slot r / N
//     (round-robin striping, so adding load spreads evenly), and
//   * objects: a global Ref (GRef) is the owning shard's local Ref with
//     the shard index in the Ref's tag bits (HandleTable::Tag); object
//     operations route on the tag to the transaction's branch on that
//     shard, whose own handle table does the generation and owner checks.
//     There is no second handle table: a GRef dies with the branch that
//     was handed it. Cross-shard *pointers* are rejected (a WriteRef whose
//     target lives on another shard than the object) — the object graph
//     stays shard-local; spanning data structures hang off per-shard
//     roots and cross-shard *transactions*.
//
// Transactions are global: a GTxn lazily opens a local transaction on each
// shard at first touch. Commit dispatches on the participant count:
//
//   * 0 shards — trivial, nothing logged;
//   * 1 shard  — the existing StableHeap::Commit fast path, completely
//     untouched (group-commit Busy retry surfaces to the caller);
//   * 2+ shards — presumed-abort 2PC through TwoPhaseCoordinator
//     (src/dtx/): per-shard forced kPrepare votes, one forced kDtxDecision
//     on the coordinator log, then per-shard commit records that ride each
//     shard's group-commit batches (Busy retry driven by the coordinator).
//
// Recovery: Open() recovers every shard independently — in parallel when
// options.parallel_open (each shard's Env is private, so per-shard
// byte-determinism is preserved for any open order or thread placement) —
// then resolves in-doubt prepared transactions from the coordinator's
// decision log (presumed abort: no decision record means abort).

#ifndef SHEAP_SHARD_SHARDED_HEAP_H_
#define SHEAP_SHARD_SHARDED_HEAP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/stable_heap.h"
#include "dtx/two_phase.h"
#include "heap/handle_table.h"
#include "storage/sim_env.h"

namespace sheap {

/// Global (cross-shard) transaction handle. 0 is never issued.
using GTxnId = uint64_t;
constexpr GTxnId kNoGTxn = 0;

/// Global object reference: the owning shard's local Ref, tagged with the
/// shard index (HandleTable::Tag), so it is generation- and owner-checked
/// by that shard's handle table. 0 is the null GRef. A GRef belongs to
/// the GTxn's branch on its shard and dies with it, exactly like a local
/// Ref.
using GRef = uint64_t;
constexpr GRef kNullGRef = 0;

struct ShardedHeapOptions {
  /// Number of shards, 1 to HandleTable::kMaxTags (a GRef carries its
  /// shard in a Ref's tag bits). Fixed for the lifetime of the heap image:
  /// routing is arithmetic on this count, so reopening with a different
  /// count would scramble the root striping.
  uint32_t shards = 1;
  /// Options applied to every shard (sizes are per shard).
  StableHeapOptions shard_options;
  /// Recover shards on concurrent threads (one per shard). Off = serial,
  /// in shard order. Either way each shard's bytes are identical — only
  /// time-to-open changes (max over shards instead of the sum).
  bool parallel_open = true;
  /// Serial open only: recover shards in reverse order. Exists for the
  /// determinism tests (recovery order must not matter).
  bool reverse_open_order = false;
  /// Resolve in-doubt prepared transactions from the coordinator's
  /// decision log at the end of Open (presumed abort). Off leaves them in
  /// doubt, holding their locks, for tests that resolve manually.
  bool resolve_in_doubt = true;
};

/// Per-shard + rolled-up counters. `total` sums the numeric fields of
/// every shard's HeapStats (recovery.time_to_open_ns is the max instead —
/// the parallel-open critical path).
struct ShardedHeapStats {
  std::vector<HeapStats> per_shard;
  HeapStats total;
  DtxStats dtx;                       ///< coordinator protocol counters
  uint64_t single_shard_commits = 0;  ///< fast-path commits
  uint64_t cross_shard_commits = 0;   ///< 2PC commits (decision forced)
  uint64_t cross_shard_aborts = 0;    ///< 2PC prepare rounds lost
  uint64_t empty_commits = 0;         ///< commits that touched no shard
  uint64_t open_ns_sum = 0;           ///< serial recovery cost (sum)
  uint64_t open_ns_max = 0;           ///< parallel recovery cost (slowest)
};

/// See file comment.
class ShardedHeap {
 public:
  /// Open (recover) or create every shard on its env, then resolve
  /// in-doubt transactions from the coordinator log on `coordinator_env`.
  /// `shard_envs.size()` must equal `options.shards`; every env survives
  /// crashes and must be passed again on reopen, in the same order.
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardedHeap>> Open(
      const std::vector<Env*>& shard_envs, Env* coordinator_env,
      const ShardedHeapOptions& options);
  /// Convenience overload: tests/benches build vectors of concrete SimEnv*
  /// (no implicit vector<SimEnv*> → vector<Env*> conversion exists).
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardedHeap>> Open(
      const std::vector<SimEnv*>& shard_envs, SimEnv* coordinator_env,
      const ShardedHeapOptions& options);

  ShardedHeap(const ShardedHeap&) = delete;
  ShardedHeap& operator=(const ShardedHeap&) = delete;

  // ------------------------------------------------------------- schema
  /// Register a class on every shard. Shards assign ids independently but
  /// deterministically; registration happens on all shards in lockstep so
  /// the ids agree (Internal error if they ever diverge).
  StatusOr<ClassId> RegisterClass(const std::vector<bool>& pointer_map);

  // ------------------------------------------------------- transactions
  [[nodiscard]] StatusOr<GTxnId> Begin();
  /// Commit: fast path for <= 1 participant, 2PC for 2+. Returns Busy
  /// under group commit while the (single-shard) batch is open — retry,
  /// or use CommitSync. A false 2PC vote surfaces as Aborted.
  [[nodiscard]] Status Commit(GTxnId gtxn);
  [[nodiscard]] Status Abort(GTxnId gtxn);
  /// Commit through the Busy retry protocol (see StableHeap::CommitSync).
  [[nodiscard]] Status CommitSync(GTxnId gtxn) {
    for (;;) {
      Status st = Commit(gtxn);
      if (!st.IsBusy()) return st;
    }
  }

  // ------------------------------------------------------------ objects
  /// Allocate on the transaction's home shard (the first shard it
  /// touched; shard 0 if untouched).
  [[nodiscard]] StatusOr<GRef> Allocate(GTxnId gtxn, ClassId cls,
                                        uint64_t nslots);
  /// Allocate on an explicit shard (the sharded drivers' routing).
  [[nodiscard]] StatusOr<GRef> AllocateOn(GTxnId gtxn, uint32_t shard,
                                          ClassId cls, uint64_t nslots);

  StatusOr<uint64_t> ReadScalar(GTxnId gtxn, GRef ref, uint64_t slot);
  StatusOr<GRef> ReadRef(GTxnId gtxn, GRef ref, uint64_t slot);
  Status WriteScalar(GTxnId gtxn, GRef ref, uint64_t slot, uint64_t value);
  /// `target` must live on the same shard as `ref` (or be null):
  /// cross-shard pointers are rejected with InvalidArgument.
  Status WriteRef(GTxnId gtxn, GRef ref, uint64_t slot, GRef target);
  Status ReleaseRef(GTxnId gtxn, GRef ref);

  // -------------------------------------------------------------- roots
  /// Global root index r routes to shard r % shards, local slot
  /// r / shards. Valid while r / shards < shard_options.root_slots.
  Status SetRoot(GTxnId gtxn, uint64_t index, GRef target);
  StatusOr<GRef> GetRoot(GTxnId gtxn, uint64_t index);

  /// The shard a global root index routes to (bench/test partitioning).
  uint32_t ShardOfRoot(uint64_t index) const {
    return static_cast<uint32_t>(index % shards_.size());
  }

  // ------------------------------------------------------------ control
  Status Checkpoint();
  Status ForceLog();
  Status CollectStableFully();
  [[nodiscard]] Status DrainInstantRecovery();
  /// Crash every shard (same CrashOptions each; the per-shard seed is
  /// `crash_options.seed + shard`, so write-back subsets differ across
  /// shards but stay reproducible). The ShardedHeap becomes unusable;
  /// destroy it and Open the same envs again to recover.
  Status SimulateCrashAll(const CrashOptions& crash_options);

  // --------------------------------------------------------- inspection
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  StableHeap* shard(uint32_t i) { return shards_[i].get(); }
  TwoPhaseCoordinator* coordinator() { return coordinator_.get(); }
  const ShardedHeapOptions& options() const { return options_; }
  /// Per-shard + rolled-up stats (see ShardedHeapStats).
  ShardedHeapStats stats() const;

 private:
  struct GTxn {
    /// Local transaction per shard; kNoTxn where untouched.
    std::vector<TxnId> branch;
    /// Shards in first-touch order; front() is the home shard.
    std::vector<uint32_t> touched;
  };

  /// A GRef decoded for one transaction: its shard, the transaction's
  /// branch there and the shard-local Ref.
  struct Routed {
    uint32_t shard = 0;
    TxnId branch = kNoTxn;
    Ref local = kNullRef;
  };

  ShardedHeap(std::vector<std::unique_ptr<StableHeap>> shards,
              std::unique_ptr<TwoPhaseCoordinator> coordinator,
              const ShardedHeapOptions& options);

  Status CheckUsable() const;
  StatusOr<GTxn*> FindGTxn(GTxnId id);
  /// Lazily begin the local transaction on `shard` (first touch).
  StatusOr<TxnId> BranchFor(GTxn* txn, uint32_t shard);
  /// Decode `ref` for `txn`. InvalidArgument, opening no branch, if the
  /// GRef is null or names a shard `txn` has no branch on; the branch's
  /// handle table checks the rest when the shard uses the local Ref.
  StatusOr<Routed> Route(const GTxn* txn, GRef ref) const;

  std::vector<std::unique_ptr<StableHeap>> shards_;
  std::unique_ptr<TwoPhaseCoordinator> coordinator_;
  ShardedHeapOptions options_;
  bool usable_ = true;

  GTxnId next_gtxn_ = 1;
  std::unordered_map<GTxnId, GTxn> gtxns_;

  // Commit-path counters (see ShardedHeapStats).
  uint64_t single_shard_commits_ = 0;
  uint64_t cross_shard_commits_ = 0;
  uint64_t cross_shard_aborts_ = 0;
  uint64_t empty_commits_ = 0;
  uint64_t open_ns_sum_ = 0;
  uint64_t open_ns_max_ = 0;
};

}  // namespace sheap

#endif  // SHEAP_SHARD_SHARDED_HEAP_H_
