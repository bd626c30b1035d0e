#include "dtx/two_phase.h"

#include "common/check.h"
#include "fault/fault_injector.h"

namespace sheap {

TwoPhaseCoordinator::TwoPhaseCoordinator(Env* env)
    : env_(env), log_(env->log()) {
  MutexLock lock(&mu_);
  SHEAP_CHECK_OK(Rescan());
}

Status TwoPhaseCoordinator::Rescan() {
  // Rebuild decisions from the coordinator log: kDtxDecision = decision,
  // kDtxEnd = forgotten (all participants acknowledged). The switch is
  // exhaustive (lint-enforced): every other record type is foreign to a
  // decision log and ignored, but a new record type does not compile until
  // this dispatcher says so.
  LogReader reader(env_->log());
  SHEAP_RETURN_IF_ERROR(reader.Seek(env_->log()->truncated_prefix() + 1));
  LogRecord rec;
  while (true) {
    auto more = reader.Next(&rec);
    SHEAP_RETURN_IF_ERROR(more.status());
    if (!*more) break;
    switch (rec.type) {
      case RecordType::kDtxDecision:
        committed_.insert(rec.txn_id);
        ++stats_.rescan_decisions;
        break;
      case RecordType::kDtxEnd:
        committed_.erase(rec.txn_id);
        break;
      // Not decision-log records. The pre-shard coordinator reused
      // kCommit/kEnd; tolerate them for old logs with the same meaning.
      case RecordType::kCommit:
        committed_.insert(rec.txn_id);
        break;
      case RecordType::kEnd:
        committed_.erase(rec.txn_id);
        break;
      case RecordType::kHeapFormat:
      case RecordType::kBegin:
      case RecordType::kUpdate:
      case RecordType::kClr:
      case RecordType::kAbortTxn:
      case RecordType::kAlloc:
      case RecordType::kPageFetch:
      case RecordType::kEndWrite:
      case RecordType::kCheckpoint:
      case RecordType::kSpaceAlloc:
      case RecordType::kSpaceFree:
      case RecordType::kGcFlip:
      case RecordType::kGcScan:
      case RecordType::kGcComplete:
      case RecordType::kUtr:
      case RecordType::kRootObject:
      case RecordType::kV2sCopy:
      case RecordType::kInitialValue:
      case RecordType::kVolatileFlip:
      case RecordType::kClassDef:
      case RecordType::kPrepare:
      case RecordType::kGcCopyBatch:
      case RecordType::kGcCopy:  // retired id: the reader never yields it
        break;
    }
    if (rec.txn_id >= next_gtid_) next_gtid_ = rec.txn_id + 1;
  }
  return Status::OK();
}

StatusOr<bool> TwoPhaseCoordinator::PrepareAll(
    Gtid gtid, const std::vector<Branch>& branches) {
  for (size_t i = 0; i < branches.size(); ++i) {
    Status st = branches[i].heap->Prepare(branches[i].txn, gtid);
    if (st.ok()) continue;
    if (st.IsCrashed()) return st;  // injected crash, not a vote
    // A no vote: roll everything back (prepared ones included). The
    // rollbacks are best-effort by design — a branch that cannot abort
    // now is resolved by presumed abort when it recovers, so the no vote
    // is the only status worth surfacing (audited Status discards).
    for (size_t j = 0; j < branches.size(); ++j) {
      if (j < i) {
        (void)branches[j].heap->AbortPrepared(branches[j].txn);
      } else if (j > i) {
        (void)branches[j].heap->Abort(branches[j].txn);
      }
    }
    MutexLock lock(&mu_);
    ++stats_.distributed_aborts;
    return false;
  }
  return true;
}

Status TwoPhaseCoordinator::LogCommitDecision(Gtid gtid,
                                              uint64_t participants) {
  MutexLock lock(&mu_);
  LogRecord rec;
  rec.type = RecordType::kDtxDecision;
  rec.txn_id = gtid;
  rec.aux = participants;
  log_.Append(&rec);
  SHEAP_RETURN_IF_ERROR(log_.Force());  // the commit point
  SHEAP_FAULT_POINT(env_->faults(), "dtx.coord.decision_forced");
  committed_.insert(gtid);
  ++stats_.distributed_commits;
  return Status::OK();
}

Status TwoPhaseCoordinator::CommitPreparedSync(StableHeap* heap, TxnId txn) {
  // Group-commit piggyback: CommitPrepared answers Busy while the commit
  // record waits in an open batch; each retry charges poll time so a lone
  // participant reaches the batch deadline (same idiom as CommitSync).
  for (;;) {
    Status st = heap->CommitPrepared(txn);
    if (!st.IsBusy()) return st;
    MutexLock lock(&mu_);
    ++stats_.busy_retries;
  }
}

Status TwoPhaseCoordinator::CommitAll(Gtid gtid,
                                      const std::vector<Branch>& branches) {
  (void)gtid;
  for (const Branch& b : branches) {
    SHEAP_RETURN_IF_ERROR(CommitPreparedSync(b.heap, b.txn));
  }
  return Status::OK();
}

Status TwoPhaseCoordinator::LogEnd(Gtid gtid) {
  MutexLock lock(&mu_);
  LogRecord rec;
  rec.type = RecordType::kDtxEnd;
  rec.txn_id = gtid;
  log_.Append(&rec);
  // Not forced: losing kDtxEnd only re-resolves an already-applied
  // decision on the next reopen (idempotent), it cannot flip an outcome.
  SHEAP_RETURN_IF_ERROR(log_.Flush());
  committed_.erase(gtid);
  ++stats_.ends_logged;
  return Status::OK();
}

StatusOr<bool> TwoPhaseCoordinator::CommitDistributed(
    const std::vector<Branch>& branches) {
  const Gtid gtid = NewGtid();
  SHEAP_ASSIGN_OR_RETURN(bool prepared, PrepareAll(gtid, branches));
  if (!prepared) return false;
  // Crash here = every vote durable but no decision: presumed abort must
  // roll every participant back on reopen.
  SHEAP_FAULT_POINT(env_->faults(), "dtx.coord.prepared");
  SHEAP_RETURN_IF_ERROR(LogCommitDecision(gtid, branches.size()));
  SHEAP_RETURN_IF_ERROR(CommitAll(gtid, branches));
  SHEAP_RETURN_IF_ERROR(LogEnd(gtid));
  return true;
}

Status TwoPhaseCoordinator::Resolve(StableHeap* heap) {
  for (const auto& [txn, gtid] : heap->InDoubtTransactions()) {
    // Crash here = resolution interrupted mid-shard: the remaining
    // transactions stay in doubt (still locked) and the next reopen
    // resolves them — the decision log makes the loop idempotent.
    SHEAP_FAULT_POINT(env_->faults(), "dtx.coord.resolve_step");
    if (Committed(gtid)) {
      SHEAP_RETURN_IF_ERROR(CommitPreparedSync(heap, txn));
      MutexLock lock(&mu_);
      ++stats_.resolved_commit;
    } else {
      // Presumed abort: no durable decision means the transaction lost.
      SHEAP_RETURN_IF_ERROR(heap->AbortPrepared(txn));
      MutexLock lock(&mu_);
      ++stats_.resolved_abort;
    }
  }
  return Status::OK();
}

}  // namespace sheap
