// RecoveryManager: crash recovery by repeating history (paper §2.2.3, §4.5).
//
// Three phases over the stable log, starting from the checkpoint named by
// the master pointer (falling back to a scan when the newest checkpoint is
// torn):
//
//  Analysis  — rebuild the active-transaction table, dirty-page table
//              (superset, refined by page-fetch / end-write records), space
//              table, class registry, UTT, and the collector's state —
//              *without touching the heap*. Every record goes through
//              AtomicGc::State::Replay, the rules the live collector
//              applied when it logged it.
//  Redo      — repeat history: apply every physical redo record, gated per
//              page by the page LSN, starting at the oldest recovery LSN.
//              GC copy and scan steps redo exactly like updates; after this
//              pass the repeating-history invariant (2.1) holds again.
//  Undo      — restore every unfinished transaction from its record chain
//              with one decoder (RestoreTxn: undo addresses and undo pointer
//              values translated through the UTT, §4.2.2; updates a CLR
//              already compensated skipped), then end it through the
//              runtime's own tails: a loser is rolled back exactly as an
//              Abort rolls back, a committed-but-unended winner finished
//              as a Commit finishes, and an in-doubt 2PC transaction stays
//              live for its coordinator.
//
// Total work is O(log read since checkpoint) + O(loser undo): independent
// of heap size, even if the crash interrupted a collection — the
// interrupted collection's state is reconstructed and the collection simply
// continues incrementally afterwards (§3.5.3).

#ifndef SHEAP_RECOVERY_RECOVERY_H_
#define SHEAP_RECOVERY_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "gc/atomic_gc.h"
#include "recovery/checkpoint.h"
#include "heap/space_manager.h"
#include "heap/type_registry.h"
#include "recovery/instant_redo.h"
#include "recovery/redo_executor.h"
#include "recovery/tables.h"
#include "recovery/utt.h"
#include "storage/env.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/log_reader.h"

namespace sheap {

/// Terminal phase of the last recovery. Every path out of recovery — clean
/// completion, instant open, drain completion, or an injected-fault early
/// return — stamps one of these, so no heap is ever left observably
/// half-open: an aborted instant recovery reads as kAborted, never as a
/// still-pending open.
enum class RecoveryOutcome : uint8_t {
  kNone = 0,            // no recovery ran (freshly formatted heap)
  kComplete = 1,        // offline recovery finished inside Open
  kOpenPendingRedo = 2, // instant: heap open, redo plan still draining
  kInstantComplete = 3, // instant: every planned page redone
  kAborted = 4,         // recovery or the instant gate died mid-way
};

inline const char* RecoveryOutcomeName(RecoveryOutcome outcome) {
  switch (outcome) {
    case RecoveryOutcome::kNone: return "none";
    case RecoveryOutcome::kComplete: return "complete";
    case RecoveryOutcome::kOpenPendingRedo: return "open-pending-redo";
    case RecoveryOutcome::kInstantComplete: return "instant-complete";
    case RecoveryOutcome::kAborted: return "aborted";
  }
  return "unknown";
}

struct RecoveryStats {
  uint64_t analysis_records = 0;
  uint64_t redo_records_seen = 0;
  uint64_t redo_records_applied = 0;
  uint64_t undo_records = 0;
  uint64_t clrs_written = 0;
  uint64_t losers_aborted = 0;
  uint64_t winners_closed = 0;
  uint64_t prepared_restored = 0;  // in-doubt 2PC txns kept alive
  uint64_t log_bytes_read = 0;
  uint64_t sim_time_ns = 0;
  // Phase timings (simulated). analysis_ns covers locating the starting
  // checkpoint plus the fused analysis/plan-building scan.
  uint64_t analysis_ns = 0;
  uint64_t redo_ns = 0;
  uint64_t undo_ns = 0;
  /// Worker partitions the redo plan is drained across (1 = serial).
  uint64_t redo_partitions = 0;
  /// Log segments the streaming readers loaded ahead of the decode cursor.
  uint64_t log_segments_prefetched = 0;
  bool used_master_checkpoint = false;
  bool saw_torn_tail = false;
  // Instant recovery (StableHeapOptions::instant_recovery; all zero when
  // recovery ran offline). StableHeap refreshes these from the gate as the
  // drain progresses.
  /// Pages redone on demand at first touch.
  uint64_t ondemand_pages = 0;
  /// Pages redone by the background drain.
  uint64_t drained_pages = 0;
  /// Pages still awaiting redo behind the gate.
  uint64_t pending_pages = 0;
  /// Simulated time until Open returned — with instant recovery this
  /// excludes the drained redo work, which is the whole point.
  uint64_t time_to_open_ns = 0;
  /// Terminal phase; see RecoveryOutcome.
  RecoveryOutcome outcome = RecoveryOutcome::kNone;
};

/// Runs the three recovery phases against a SimEnv's surviving state.
class RecoveryManager {
 public:
  struct Deps {
    LogDevice* device = nullptr;
    SpaceManager* spaces = nullptr;
    TypeRegistry* types = nullptr;
    UndoTranslationTable* utt = nullptr;
    TxnManager* txns = nullptr;
    LockManager* locks = nullptr;  // re-acquired for in-doubt 2PC txns
    SimClock* clock = nullptr;
    /// The per-page gate Redo installs the fused plan into (required; its
    /// drain_threads are the redo partitions). See recovery/instant_redo.h.
    InstantRedoManager* redo = nullptr;
    /// Instant recovery: Recover returns with the plan still pending behind
    /// the gate, its pages redone lazily after Open. False = offline: the
    /// whole plan is drained before undo.
    bool instant = false;
    /// The runtime's transaction-end tails (StableHeap::RollbackTail and
    /// StableHeap::FinishTxn). Undo ends every restored loser and winner
    /// through them, so recovery writes no CLR or end record of its own.
    std::function<Status(Txn*)> rollback;
    std::function<Status(Txn*)> finish;
  };

  struct Result {
    AtomicGc::State gc;
    TxnId next_txn_id = 1;
    std::vector<uint8_t> format_payload;  // kHeapFormat contents, if seen
    RecoveryStats stats;
  };

  explicit RecoveryManager(const Deps& deps) : d_(deps) {}

  /// Run analysis + redo + undo. On return the stable heap state is exactly
  /// the committed state plus any in-progress collection, ready for normal
  /// operation.
  StatusOr<Result> Recover();

 private:
  /// The three phases. Split from Recover so every early return (including
  /// injected-fault crashes between phases) funnels through one place that
  /// stamps a terminal RecoveryOutcome and deactivates the instant gate.
  Status RecoverImpl(Result* result);
  Status FindStartingCheckpoint(CheckpointData* data, Lsn* start_lsn,
                                bool* have_checkpoint, Result* result);
  /// The analysis scan is fused with redo-plan construction: every
  /// redoable record it decodes goes straight into *plan (LSN order), so
  /// the redo phase never re-reads or re-decodes the analysis range.
  Status Analysis(Lsn start_lsn, CheckpointData* data, RedoPlan* plan,
                  Result* result);
  /// Install the plan (plus a supplementary streamed scan when the oldest
  /// DPT recLSN precedes the analysis start) into the page gate; offline
  /// recovery then drains it all.
  Status Redo(const CheckpointData& data, Lsn analysis_start_lsn,
              RedoPlan* plan, Result* result);
  Status Undo(CheckpointData* data, Result* result);
  /// The one decoder of a transaction's record chain: reinstall an
  /// unfinished transaction in the transaction table with the undo
  /// information a live one of its state holds (addresses translated
  /// through the UTT). On a CLR the walk jumps to its undo_next_lsn, so
  /// updates already compensated are skipped. An in-doubt transaction
  /// also gets its write locks back; a winner lacks only its end record,
  /// so its chain is not read.
  StatusOr<Txn*> RestoreTxn(TxnId txn_id, const AttEntry& entry,
                            LogReader* reader, Result* result);

  Deps d_;
};

}  // namespace sheap

#endif  // SHEAP_RECOVERY_RECOVERY_H_
