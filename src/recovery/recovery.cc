#include "recovery/recovery.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "recovery/checkpoint.h"

namespace sheap {

namespace {

// The transactions a UTT batch translates undo information for: every one
// in the active-transaction table at that point of the analysis scan.
std::vector<TxnId> ActiveIds(const ActiveTxnTable& att) {
  std::vector<TxnId> ids;
  ids.reserve(att.size());
  for (const auto& [id, entry] : att) ids.push_back(id);
  return ids;
}

// Moves a redoable record into `plan` with the pages its redo touches;
// `rec` is left empty for the next read.
const RedoPlanEntry& AppendPlanEntry(LogRecord* rec, RedoPlan* plan) {
  std::vector<PageId> pages;
  RedoExecutor::AffectedPages(*rec, &pages);
  plan->entries.push_back(RedoPlanEntry{std::move(*rec), std::move(pages)});
  *rec = LogRecord();
  return plan->entries.back();
}

}  // namespace

Status RecoveryManager::FindStartingCheckpoint(CheckpointData* data,
                                               Lsn* start_lsn,
                                               bool* have_checkpoint,
                                               Result* result) {
  *have_checkpoint = false;
  *start_lsn = d_.device->truncated_prefix() + 1;
  const Lsn master = d_.device->master_lsn();
  LogReader reader(d_.device);
  if (master != kInvalidLsn && master > d_.device->truncated_prefix()) {
    LogRecord rec;
    Status st = reader.ReadAt(master, &rec);
    if (st.ok() && rec.type == RecordType::kCheckpoint) {
      st = DecodeCheckpointPayload(rec.payload, d_.spaces, d_.utt, d_.types,
                                   data);
      if (st.ok()) {
        *have_checkpoint = true;
        *start_lsn = master;
        result->stats.used_master_checkpoint = true;
        return Status::OK();
      }
    }
    // Master stale or checkpoint torn: fall through to a scan.
  }
  // Scan the whole retained log for the last intact checkpoint.
  Lsn best = kInvalidLsn;
  LogRecord rec;
  SHEAP_RETURN_IF_ERROR(reader.Seek(d_.device->truncated_prefix() + 1));
  while (true) {
    auto more = reader.Next(&rec);
    SHEAP_RETURN_IF_ERROR(more.status());
    if (!*more) break;
    if (rec.type == RecordType::kCheckpoint) best = rec.lsn;
  }
  if (best != kInvalidLsn) {
    LogRecord ckpt;
    SHEAP_RETURN_IF_ERROR(reader.ReadAt(best, &ckpt));
    SHEAP_RETURN_IF_ERROR(DecodeCheckpointPayload(ckpt.payload, d_.spaces,
                                                  d_.utt, d_.types, data));
    *have_checkpoint = true;
    *start_lsn = best;
  }
  return Status::OK();
}

Status RecoveryManager::Analysis(Lsn start_lsn, CheckpointData* data,
                                 RedoPlan* plan, Result* result) {
  LogReader reader(d_.device);
  SHEAP_RETURN_IF_ERROR(reader.Seek(start_lsn));
  const uint64_t start_offset = reader.offset();
  LogRecord rec;

  while (true) {
    auto more = reader.Next(&rec);
    SHEAP_RETURN_IF_ERROR(more.status());
    if (!*more) break;
    ++result->stats.analysis_records;

    // Transaction table maintenance.
    if (rec.IsTransactional() && rec.txn_id != 0) {
      if (rec.type == RecordType::kBegin) {
        AttEntry e;
        e.status = AttStatus::kActive;
        e.first_lsn = rec.lsn;
        e.last_lsn = rec.lsn;
        data->att[rec.txn_id] = e;
      } else if (rec.type == RecordType::kEnd) {
        data->att.erase(rec.txn_id);
        d_.utt->OnTxnEnd(rec.txn_id);
      } else {
        AttEntry& e = data->att[rec.txn_id];
        if (e.first_lsn == kInvalidLsn) e.first_lsn = rec.lsn;
        e.last_lsn = rec.lsn;
        if (rec.type == RecordType::kCommit) e.status = AttStatus::kCommitted;
        if (rec.type == RecordType::kAbortTxn) e.status = AttStatus::kAborting;
        if (rec.type == RecordType::kPrepare) e.status = AttStatus::kPrepared;
      }
      if (rec.txn_id >= data->next_txn_id) data->next_txn_id = rec.txn_id + 1;
    }

    // The collector's state goes through the rule the collector applied
    // when it logged the record (flip, scan, copy batch, completion, root
    // object, allocation frontier), without touching the heap.
    data->gc.Replay(rec, *d_.spaces);

    switch (rec.type) {
      case RecordType::kHeapFormat:
        result->format_payload = rec.payload;
        break;
      case RecordType::kClassDef: {
        Status st = d_.types->InstallAt(
            static_cast<ClassId>(rec.aux),
            TypeRegistry::DecodeMap(rec.contents, rec.count));
        SHEAP_RETURN_IF_ERROR(st);
        break;
      }
      case RecordType::kPageFetch:
        data->dpt.emplace(rec.page, rec.lsn);
        break;
      case RecordType::kEndWrite:
        // Disk is current for this page as of this record.
        data->dpt[rec.page] = rec.lsn;
        break;
      case RecordType::kCheckpoint: {
        // A newer checkpoint than the one we started from (stale master):
        // restart state from it.
        CheckpointData fresh;
        SHEAP_RETURN_IF_ERROR(DecodeCheckpointPayload(
            rec.payload, d_.spaces, d_.utt, d_.types, &fresh));
        *data = std::move(fresh);
        break;
      }
      case RecordType::kSpaceAlloc:
        d_.spaces->ApplyAllocRecord(rec);
        break;
      case RecordType::kSpaceFree:
        d_.spaces->ApplyFreeRecord(rec);
        break;
      case RecordType::kGcCopyBatch:
        // Every copy doubles as an undo-translation entry: a crash can
        // retain a flip's copies while losing the trailing kUtr record
        // (log-suffix loss), and undo must still find the moved objects.
      case RecordType::kUtr:
        d_.utt->AddBatch(rec.utr_entries, ActiveIds(data->att));
        break;
      case RecordType::kV2sCopy:
      case RecordType::kInitialValue: {
        // Promotions translate undo information too (their kUtr record may
        // be lost with the log suffix). kV2sCopy names {volatile source,
        // stable copy}; method 2's kInitialValue (§5.5) the reverse.
        const bool v2s = rec.type == RecordType::kV2sCopy;
        d_.utt->AddBatch({UtrEntry{v2s ? rec.addr : rec.addr2,
                                   v2s ? rec.addr2 : rec.addr, rec.count}},
                         ActiveIds(data->att));
        break;
      }
      // Exhaustive (lint-enforced): the lifecycle records maintain the ATT
      // above; kUpdate/kClr contribute only DPT entries (IsRedoable path);
      // the other GC records and kAlloc change only the collector's state
      // (Replay above); kVolatileFlip describes the volatile area, which
      // does not survive a crash — analysis has nothing to rebuild from
      // it. The kDtx* records live only in a 2PC coordinator's decision
      // log (scanned by TwoPhaseCoordinator::Rescan, not here); shard
      // analysis skips them. kGcCopy is a retired id that the reader never
      // yields.
      case RecordType::kBegin:
      case RecordType::kUpdate:
      case RecordType::kClr:
      case RecordType::kCommit:
      case RecordType::kAbortTxn:
      case RecordType::kEnd:
      case RecordType::kPrepare:
      case RecordType::kVolatileFlip:
      case RecordType::kDtxDecision:
      case RecordType::kDtxEnd:
      case RecordType::kGcCopy:
      case RecordType::kGcFlip:
      case RecordType::kGcScan:
      case RecordType::kGcComplete:
      case RecordType::kRootObject:
      case RecordType::kAlloc:
        break;
    }

    // A redoable record enters the plan — it is already decoded, so redo
    // never re-reads this log range — and its pages the dirty-page table,
    // which the buffer-manager records above refine (§2.2.4 optimization
    // 1). Gating against the *final* DPT happens at execution time, so
    // entries made stale by a checkpoint restart above are harmlessly
    // skipped there.
    if (RedoExecutor::IsRedoable(rec.type)) {
      const RedoPlanEntry& entry = AppendPlanEntry(&rec, plan);
      for (PageId p : entry.pages) {
        data->dpt.emplace(p, entry.rec.lsn);  // insert-if-absent
      }
    }
  }
  result->stats.saw_torn_tail = reader.saw_torn_tail();
  result->stats.log_bytes_read += reader.offset() - start_offset;
  result->stats.log_segments_prefetched += reader.segments_prefetched();
  return Status::OK();
}

Status RecoveryManager::Redo(const CheckpointData& data,
                             Lsn analysis_start_lsn, RedoPlan* plan,
                             Result* result) {
  result->stats.redo_partitions = d_.redo->drain_threads();
  if (data.dpt.empty()) return Status::OK();
  Lsn redo_start = OldestRecLsn(data.dpt);
  if (redo_start == kInvalidLsn) return Status::OK();
  redo_start = std::max<Lsn>(redo_start, d_.device->truncated_prefix() + 1);

  // The fused plan covers [analysis_start, log end). A DPT recLSN can
  // predate the starting checkpoint (a page dirtied before it and not yet
  // written back): stream-decode that gap once and prepend it.
  RedoPlan exec;
  if (redo_start < analysis_start_lsn) {
    LogReader reader(d_.device);
    SHEAP_RETURN_IF_ERROR(reader.Seek(redo_start));
    const uint64_t start_offset = reader.offset();
    uint64_t bytes = 0;
    LogRecord rec;
    while (true) {
      const uint64_t before = reader.offset();
      auto more = reader.Next(&rec);
      SHEAP_RETURN_IF_ERROR(more.status());
      if (!*more) break;
      if (rec.lsn >= analysis_start_lsn) {
        bytes = before - start_offset;
        break;
      }
      bytes = reader.offset() - start_offset;
      if (RedoExecutor::IsRedoable(rec.type)) AppendPlanEntry(&rec, &exec);
    }
    result->stats.log_bytes_read += bytes;
    result->stats.log_segments_prefetched += reader.segments_prefetched();
    d_.clock->ChargeLogAppend(bytes);
  }
  // Plan entries below redo_start cannot pass any page's DPT gate; filter
  // them so redo_records_seen matches the historical from-redo_start scan.
  for (RedoPlanEntry& entry : plan->entries) {
    if (entry.rec.lsn < redo_start) continue;
    exec.entries.push_back(std::move(entry));
  }
  plan->entries.clear();
  result->stats.redo_records_seen += exec.entries.size();

  // One redo path: the plan goes into the per-page gate. Instant recovery
  // returns here — pages are redone on demand at first touch and in
  // cooperative drain batches after Open, and StableHeap folds the gate's
  // counters into these stats as it drains. Offline recovery drains every
  // page now, before undo.
  d_.redo->Install(std::move(exec), data.dpt);
  if (d_.instant) return Status::OK();
  SHEAP_RETURN_IF_ERROR(d_.redo->DrainAll());
  result->stats.redo_records_applied += d_.redo->stats().records_applied;
  return Status::OK();
}

Status RecoveryManager::Undo(CheckpointData* data, Result* result) {
  if (data->att.empty()) return Status::OK();
  LogReader reader(d_.device);
  for (const auto& [txn_id, entry] : data->att) {
    SHEAP_ASSIGN_OR_RETURN(Txn * txn,
                           RestoreTxn(txn_id, entry, &reader, result));
    switch (txn->state) {
      case TxnState::kPrepared:
        // In doubt (2PC): neither redone away nor undone; it keeps its
        // locks and undo information until the coordinator decides.
        ++result->stats.prepared_restored;
        break;
      case TxnState::kCommitted:
        // A winner missing only its end record.
        SHEAP_RETURN_IF_ERROR(d_.finish(txn));
        ++result->stats.winners_closed;
        break;
      default:
        // A loser: repeating history makes restart undo exactly the normal
        // abort algorithm (§2.2.3), so it runs Abort's own rollback tail,
        // one CLR per restored update.
        result->stats.clrs_written += txn->updates.size();
        SHEAP_RETURN_IF_ERROR(d_.rollback(txn));
        ++result->stats.losers_aborted;
        break;
    }
  }
  data->att.clear();
  return Status::OK();
}

StatusOr<Txn*> RecoveryManager::RestoreTxn(TxnId txn_id,
                                           const AttEntry& entry,
                                           LogReader* reader,
                                           Result* result) {
  auto txn = std::make_unique<Txn>();
  txn->id = txn_id;
  txn->state = entry.status == AttStatus::kPrepared    ? TxnState::kPrepared
               : entry.status == AttStatus::kCommitted ? TxnState::kCommitted
                                                       : TxnState::kAborting;
  txn->first_lsn = entry.first_lsn;
  txn->last_lsn = entry.last_lsn;
  const bool in_doubt = txn->state == TxnState::kPrepared;
  // Only an in-doubt transaction outlives recovery; a loser is rolled back
  // before anything else runs, so it needs no locks.
  auto lock = [&](HeapAddr obj) {
    return in_doubt ? d_.locks->AcquireWrite(txn_id, obj) : Status::OK();
  };

  std::vector<TxnUpdate> updates;  // collected newest-first
  Lsn cur =
      txn->state == TxnState::kCommitted ? kInvalidLsn : entry.last_lsn;
  while (cur != kInvalidLsn) {
    LogRecord rec;
    SHEAP_RETURN_IF_ERROR(reader->ReadAt(cur, &rec));
    if (!in_doubt) ++result->stats.undo_records;
    cur = rec.prev_lsn;
    switch (rec.type) {
      case RecordType::kUpdate: {
        TxnUpdate e;
        e.obj_base = d_.utt->Translate(rec.addr2);
        e.slot = SlotIndex(e.obj_base, d_.utt->Translate(rec.addr));
        e.is_pointer = (rec.aux & LogRecord::kFlagPointer) != 0;
        auto word = [&](uint64_t w) {
          return e.is_pointer && w != kNullAddr ? d_.utt->Translate(w) : w;
        };
        e.old_word = word(rec.old_word);
        e.new_word = word(rec.new_word);
        e.logged = true;
        e.lsn = rec.lsn;
        updates.push_back(e);
        SHEAP_RETURN_IF_ERROR(lock(e.obj_base));
        break;
      }
      case RecordType::kClr:
        if (in_doubt) {
          return Status::Corruption("CLR in a prepared transaction's chain");
        }
        // Every update between here and undo_next_lsn is compensated.
        cur = rec.undo_next_lsn;
        break;
      case RecordType::kCommit:
        return Status::Corruption("commit record in loser chain");
      case RecordType::kAlloc: {
        const HeapAddr base = d_.utt->Translate(rec.addr);
        txn->allocs.push_back(TxnAlloc{base, /*stable_area=*/true});
        SHEAP_RETURN_IF_ERROR(lock(base));
        break;
      }
      case RecordType::kV2sCopy:
      case RecordType::kInitialValue:
        // The promoted copy belongs to the transaction.
        SHEAP_RETURN_IF_ERROR(lock(d_.utt->Translate(
            rec.type == RecordType::kV2sCopy ? rec.addr2 : rec.addr)));
        break;
      case RecordType::kPrepare:
        txn->gtid = rec.aux;
        break;
      default:
        break;  // kBegin, kAbortTxn
    }
  }
  txn->updates.assign(updates.rbegin(), updates.rend());
  Txn* restored = txn.get();
  d_.txns->Restore(std::move(txn));
  return restored;
}

StatusOr<RecoveryManager::Result> RecoveryManager::Recover() {
  Result result;
  Status st = RecoverImpl(&result);
  if (!st.ok()) {
    // Injected-fault (or corruption) early return: the Open fails and the
    // heap is torn down, but the instant gate must not outlive the attempt
    // half-armed — deactivate it and record the terminal aborted outcome.
    // The caller pre-stamps its salvaged stats kAborted; the log is
    // untouched, so the next recovery simply replays everything.
    d_.redo->Abandon();
    return st;
  }
  result.stats.outcome = d_.redo->active() ? RecoveryOutcome::kOpenPendingRedo
                                           : RecoveryOutcome::kComplete;
  return result;
}

Status RecoveryManager::RecoverImpl(Result* result_out) {
  SimSpan span(d_.clock);
  Result& result = *result_out;
  CheckpointData data;
  RedoPlan plan;
  Lsn start_lsn;
  bool have_checkpoint;
  // Crash points between the passes prove recovery is idempotent: a crash
  // *during* recovery leaves history partially repeated (redone pages may
  // even be written back, CLRs may be flushed), and the next recovery must
  // converge to the same state.
  [[maybe_unused]] FaultInjector* faults = d_.device->faults();
  {
    SimSpan analysis_span(d_.clock);
    SHEAP_RETURN_IF_ERROR(FindStartingCheckpoint(&data, &start_lsn,
                                                 &have_checkpoint, &result));
    SHEAP_RETURN_IF_ERROR(Analysis(start_lsn, &data, &plan, &result));
    // The analysis scan streams the log off the device sequentially;
    // charge that read time (it is what checkpoint frequency buys down,
    // experiment E6). Redo reuses the decoded plan instead of re-reading,
    // so — unlike the historical two-pass pipeline — this range is charged
    // exactly once.
    d_.clock->ChargeLogAppend(result.stats.log_bytes_read);
    result.stats.analysis_ns = analysis_span.elapsed_ns();
  }
  SHEAP_FAULT_POINT(faults, "recovery.analysis.done");
  {
    SimSpan redo_span(d_.clock);
    SHEAP_RETURN_IF_ERROR(Redo(data, start_lsn, &plan, &result));
    result.stats.redo_ns = redo_span.elapsed_ns();
  }
  SHEAP_FAULT_POINT(faults, "recovery.redo.done");
  {
    SimSpan undo_span(d_.clock);
    SHEAP_RETURN_IF_ERROR(Undo(&data, &result));
    result.stats.undo_ns = undo_span.elapsed_ns();
  }
  SHEAP_FAULT_POINT(faults, "recovery.undo.done");
  d_.spaces->DropFreedFromDisk();
  if (result.format_payload.empty()) {
    result.format_payload = std::move(data.format_payload);
  }
  result.gc = std::move(data.gc);
  result.next_txn_id = data.next_txn_id;
  result.stats.sim_time_ns = span.elapsed_ns();
  return Status::OK();
}

}  // namespace sheap
