#include "recovery/checkpoint.h"

#include <algorithm>

#include "common/check.h"

namespace sheap {

namespace {
constexpr uint32_t kCheckpointMagic = 0x53484350;  // "SHCP"

// The pool's dirty frames plus the logically dirty pages, at the per-page
// minimum valid recLSN when both list a page.
DirtyPageTable SnapshotDirtyPages(
    const BufferPool& pool,
    const std::vector<std::pair<PageId, Lsn>>& extra_dirty) {
  DirtyPageTable dpt;
  for (const auto& [page, rec_lsn] : pool.DirtyPages()) {
    dpt[page] = rec_lsn;
  }
  for (const auto& [page, rec_lsn] : extra_dirty) {
    auto [it, fresh] = dpt.emplace(page, rec_lsn);
    if (!fresh && rec_lsn != kInvalidLsn &&
        (it->second == kInvalidLsn || rec_lsn < it->second)) {
      it->second = rec_lsn;
    }
  }
  return dpt;
}

ActiveTxnTable SnapshotActiveTxns(const TxnManager& txns) {
  ActiveTxnTable att;
  for (const Txn* t : txns.ActiveTxns()) {
    AttEntry& e = att[t->id];
    switch (t->state) {
      case TxnState::kCommitted:
      case TxnState::kCommitting:
        e.status = AttStatus::kCommitted;
        break;
      case TxnState::kAborting:
      case TxnState::kAborted:
        e.status = AttStatus::kAborting;
        break;
      case TxnState::kPrepared:
        e.status = AttStatus::kPrepared;
        break;
      default:
        e.status = AttStatus::kActive;
    }
    e.first_lsn = t->first_lsn;
    e.last_lsn = t->last_lsn;
  }
  return att;
}

}  // namespace

void EncodeCheckpointPayload(
    const DirtyPageTable& dpt, const ActiveTxnTable& att, TxnId next_txn_id,
    const AtomicGc& gc, const SpaceManager& spaces,
    const UndoTranslationTable& utt, const TypeRegistry& types,
    const std::vector<uint8_t>& format_payload, std::vector<uint8_t>* out) {
  Encoder enc(out);
  enc.PutU32(kCheckpointMagic);
  enc.PutLengthPrefixed(format_payload.data(), format_payload.size());

  enc.PutVarint(dpt.size());
  for (const auto& [page, rec_lsn] : dpt) {
    enc.PutVarint(page);
    enc.PutVarint(rec_lsn);
  }
  enc.PutVarint(att.size());
  for (const auto& [id, e] : att) {
    enc.PutVarint(id);
    enc.PutU8(static_cast<uint8_t>(e.status));
    enc.PutVarint(e.first_lsn);
    enc.PutVarint(e.last_lsn);
  }
  enc.PutVarint(next_txn_id);

  spaces.EncodeTo(&enc);
  utt.EncodeTo(&enc);
  types.EncodeAllTo(&enc);
  gc.EncodeTo(&enc);
}

Status DecodeCheckpointPayload(const std::vector<uint8_t>& payload,
                               SpaceManager* spaces,
                               UndoTranslationTable* utt, TypeRegistry* types,
                               CheckpointData* data) {
  Decoder dec(payload);
  uint32_t magic;
  if (!dec.GetU32(&magic) || magic != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  if (!dec.GetLengthPrefixed(&data->format_payload)) {
    return Status::Corruption("bad checkpoint format payload");
  }

  uint64_t ndirty;
  if (!dec.GetVarint(&ndirty)) return Status::Corruption("bad dpt");
  data->dpt.clear();
  for (uint64_t i = 0; i < ndirty; ++i) {
    uint64_t page, rec_lsn;
    if (!dec.GetVarint(&page) || !dec.GetVarint(&rec_lsn)) {
      return Status::Corruption("bad dpt entry");
    }
    data->dpt[page] = rec_lsn;
  }

  uint64_t nactive;
  if (!dec.GetVarint(&nactive)) return Status::Corruption("bad att");
  data->att.clear();
  for (uint64_t i = 0; i < nactive; ++i) {
    uint64_t id;
    uint8_t status;
    AttEntry e;
    if (!dec.GetVarint(&id) || !dec.GetU8(&status) ||
        !dec.GetVarint(&e.first_lsn) || !dec.GetVarint(&e.last_lsn)) {
      return Status::Corruption("bad att entry");
    }
    e.status = static_cast<AttStatus>(status);
    data->att[id] = e;
  }
  uint64_t next_id;
  if (!dec.GetVarint(&next_id)) return Status::Corruption("bad txn id");
  data->next_txn_id = next_id;

  SHEAP_RETURN_IF_ERROR(spaces->DecodeFrom(&dec));
  SHEAP_RETURN_IF_ERROR(utt->DecodeFrom(&dec));
  SHEAP_RETURN_IF_ERROR(types->DecodeAllFrom(&dec));
  SHEAP_RETURN_IF_ERROR(data->gc.DecodeFrom(&dec));
  if (!dec.empty()) return Status::Corruption("trailing checkpoint bytes");
  return Status::OK();
}

Status Checkpointer::Take() {
  SimSpan span(clock_);
  [[maybe_unused]] FaultInjector* faults = device_->faults();
  SHEAP_FAULT_POINT(faults, "ckpt.take.begin");
  // The tables are built once: what recovery from this checkpoint reads
  // is also what decides how much log the checkpoint keeps.
  const DirtyPageTable dpt = SnapshotDirtyPages(
      *pool_, extra_dirty_pages ? extra_dirty_pages()
                                : std::vector<std::pair<PageId, Lsn>>());
  const ActiveTxnTable att = SnapshotActiveTxns(*txns_);
  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  EncodeCheckpointPayload(dpt, att, txns_->next_txn_id(), *gc_, *spaces_,
                          *utt_, *types_, format_payload_, &rec.payload);
  const Lsn ckpt_lsn = log_->Append(&rec);
  // Spool-and-flush; no force (the paper's checkpoints require no
  // synchronous writes — a torn checkpoint is detected by its CRC and
  // recovery falls back to the previous one).
  SHEAP_RETURN_IF_ERROR(log_->Flush());
  // Crash window: checkpoint on the device (tearable), master pointer
  // still naming the previous checkpoint.
  SHEAP_FAULT_POINT(faults, "ckpt.take.logged");
  const Lsn previous_ckpt = device_->master_lsn();
  device_->SetMasterLsn(ckpt_lsn);
  // Crash window: master points at a checkpoint that may tear; recovery
  // must fall back to the previous one (kept by the truncation floor).
  SHEAP_FAULT_POINT(faults, "ckpt.take.master");

  // Truncation point: recovery from this checkpoint reads the log from
  // its DPT's oldest recLSN (redo) and from each ATT transaction's first
  // record (undo) — and the previous checkpoint must survive until this
  // (unforced, tearable) one is safely behind the durable barrier.
  Lsn keep = ckpt_lsn;
  auto keep_from = [&keep](Lsn lsn) {
    if (lsn != kInvalidLsn) keep = std::min(keep, lsn);
  };
  keep_from(previous_ckpt);
  keep_from(OldestRecLsn(dpt));
  for (const auto& [id, e] : att) keep_from(e.first_lsn);
  device_->TruncatePrefix(keep - 1);
  SHEAP_FAULT_POINT(faults, "ckpt.take.end");

  ++stats_.checkpoints_taken;
  stats_.last_payload_bytes = rec.payload.size();
  stats_.last_checkpoint_lsn = ckpt_lsn;
  stats_.last_truncation_lsn = keep;
  stats_.last_pause_ns = span.elapsed_ns();
  return Status::OK();
}

Status Checkpointer::TakeWithWriteback() {
  [[maybe_unused]] FaultInjector* faults = device_->faults();
  SHEAP_FAULT_POINT(faults, "ckpt.flush.begin");
  // Parallel run-coalescing writeback: after this the pool's DPT is empty
  // (modulo pinned pages), so the checkpoint that follows carries a
  // near-empty DPT and post-crash redo starts at the checkpoint itself.
  SHEAP_RETURN_IF_ERROR(pool_->FlushAll());
  ++stats_.flush_checkpoints_taken;
  return Take();
}

}  // namespace sheap
