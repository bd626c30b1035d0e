// Checkpointing (paper §2.2.4 optimization 2, §4.6, Figure 4.5).
//
// A checkpoint is taken at a low-level quiescent point (an action boundary —
// no thread is mid-way through the write-ahead protocol). It snapshots the
// dirty-page table, the active-transaction table, the space table, the GC
// state (including the scan bitmap and Last Object Table, so recovery after
// a crash during a collection needs no heap traversal), the undo translation
// table, and the class registry. Checkpoints are cheap: one spooled record
// and one master-pointer write — no synchronous log force, no page flushes.
//
// The log a checkpoint keeps is read off the tables it logs: recovery from
// it reads from the DPT's oldest recLSN (OldestRecLsn, the rule redo starts
// by) and from each ATT transaction's first record, so truncation keeps
// exactly that much plus the previous checkpoint. Pages dirty only in the
// log — a pending method-2 promotion's, or an instant-recovery page still
// behind the redo gate — enter the DPT as rows like any other, and so hold
// the floor without a rule of their own.

#ifndef SHEAP_RECOVERY_CHECKPOINT_H_
#define SHEAP_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "gc/atomic_gc.h"
#include "heap/space_manager.h"
#include "heap/type_registry.h"
#include "recovery/tables.h"
#include "recovery/utt.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "txn/txn_manager.h"
#include "wal/log_writer.h"

namespace sheap {

/// Decoded checkpoint payload (also the unit recovery analysis starts from).
struct CheckpointData {
  DirtyPageTable dpt;
  ActiveTxnTable att;
  AtomicGc::State gc;
  TxnId next_txn_id = 1;
  /// The kHeapFormat payload, carried in every checkpoint so log
  /// truncation can drop the format record itself.
  std::vector<uint8_t> format_payload;

  // spaces / utt / registry are decoded directly into the live objects.
};

/// Serializes the full checkpoint payload: the same DPT and ATT that
/// DecodeCheckpointPayload gives back in CheckpointData, then the live
/// space table, UTT, class registry and collector state.
void EncodeCheckpointPayload(
    const DirtyPageTable& dpt, const ActiveTxnTable& att, TxnId next_txn_id,
    const AtomicGc& gc, const SpaceManager& spaces,
    const UndoTranslationTable& utt, const TypeRegistry& types,
    const std::vector<uint8_t>& format_payload, std::vector<uint8_t>* out);

/// Parses a checkpoint payload; space/utt/registry state is installed into
/// the given live objects, the rest into *data.
Status DecodeCheckpointPayload(const std::vector<uint8_t>& payload,
                               SpaceManager* spaces,
                               UndoTranslationTable* utt, TypeRegistry* types,
                               CheckpointData* data);

struct CheckpointStats {
  uint64_t checkpoints_taken = 0;
  uint64_t flush_checkpoints_taken = 0;  // TakeWithWriteback calls
  uint64_t last_payload_bytes = 0;
  uint64_t last_pause_ns = 0;
  Lsn last_checkpoint_lsn = kInvalidLsn;
  Lsn last_truncation_lsn = kInvalidLsn;
};

/// Takes checkpoints and truncates the log behind them.
class Checkpointer {
 public:
  Checkpointer(LogWriter* log, LogDevice* device, BufferPool* pool,
               TxnManager* txns, AtomicGc* gc, SpaceManager* spaces,
               UndoTranslationTable* utt, TypeRegistry* types,
               SimClock* clock, std::vector<uint8_t> format_payload)
      : format_payload_(std::move(format_payload)),
        log_(log),
        device_(device),
        pool_(pool),
        txns_(txns),
        gc_(gc),
        spaces_(spaces),
        utt_(utt),
        types_(types),
        clock_(clock) {}

  /// Take a checkpoint: spool the record, flush the buffer (asynchronous in
  /// spirit; no force), update the master pointer, truncate the log prefix
  /// no recovery could need — everything before the previous checkpoint,
  /// the logged DPT's oldest recLSN and the logged ATT's oldest first LSN.
  Status Take();

  /// Flush checkpoint: push every dirty page through the pool's parallel
  /// run-coalescing writer first, then Take(). The resulting checkpoint's
  /// DPT is (nearly) empty, so redo after a crash starts at the checkpoint
  /// itself — trading checkpoint-time I/O for recovery time. The default
  /// Take() stays flush-free (the paper's cheap checkpoint).
  Status TakeWithWriteback();

  /// Pages that are *logically* dirty even though no frame is dirty: a
  /// pending method-2 promotion's reserved pages exist only in the log, so
  /// the checkpoint DPT must carry them (page, initial-value LSN) or redo
  /// would never reach back to materialize them — and, being DPT rows,
  /// they hold the truncation floor at those LSNs.
  std::function<std::vector<std::pair<PageId, Lsn>>()> extra_dirty_pages;

  const CheckpointStats& stats() const { return stats_; }

 private:
  std::vector<uint8_t> format_payload_;
  LogWriter* log_;
  LogDevice* device_;
  BufferPool* pool_;
  TxnManager* txns_;
  AtomicGc* gc_;
  SpaceManager* spaces_;
  UndoTranslationTable* utt_;
  TypeRegistry* types_;
  SimClock* clock_;
  CheckpointStats stats_;
};

}  // namespace sheap

#endif  // SHEAP_RECOVERY_CHECKPOINT_H_
