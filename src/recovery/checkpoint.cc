#include "recovery/checkpoint.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace sheap {

namespace {
constexpr uint32_t kCheckpointMagic = 0x53484350;  // "SHCP"
}  // namespace

void EncodeCheckpointPayload(
    const BufferPool& pool, const TxnManager& txns, const AtomicGc& gc,
    const SpaceManager& spaces, const UndoTranslationTable& utt,
    const TypeRegistry& types, const std::vector<uint8_t>& format_payload,
    const std::vector<std::pair<PageId, Lsn>>& extra_dirty,
    std::vector<uint8_t>* out) {
  Encoder enc(out);
  enc.PutU32(kCheckpointMagic);
  enc.PutLengthPrefixed(format_payload.data(), format_payload.size());

  // Dirty-page table (precise snapshot plus logically-dirty pages;
  // recLSN per page, minimum when both sources list a page).
  std::map<PageId, Lsn> dirty;
  for (const auto& [page, rec_lsn] : pool.DirtyPages()) {
    dirty[page] = rec_lsn;
  }
  for (const auto& [page, rec_lsn] : extra_dirty) {
    auto [it, fresh] = dirty.emplace(page, rec_lsn);
    if (!fresh && rec_lsn != kInvalidLsn &&
        (it->second == kInvalidLsn || rec_lsn < it->second)) {
      it->second = rec_lsn;
    }
  }
  enc.PutVarint(dirty.size());
  for (const auto& [page, rec_lsn] : dirty) {
    enc.PutVarint(page);
    enc.PutVarint(rec_lsn);
  }

  // Active-transaction table.
  auto* mutable_txns = const_cast<TxnManager*>(&txns);
  auto active = mutable_txns->ActiveTxns();
  enc.PutVarint(active.size());
  for (const Txn* t : active) {
    enc.PutVarint(t->id);
    uint8_t status;
    switch (t->state) {
      case TxnState::kCommitted:
      case TxnState::kCommitting:
        status = static_cast<uint8_t>(AttStatus::kCommitted);
        break;
      case TxnState::kAborting:
      case TxnState::kAborted:
        status = static_cast<uint8_t>(AttStatus::kAborting);
        break;
      case TxnState::kPrepared:
        status = static_cast<uint8_t>(AttStatus::kPrepared);
        break;
      default:
        status = static_cast<uint8_t>(AttStatus::kActive);
    }
    enc.PutU8(status);
    enc.PutVarint(t->first_lsn);
    enc.PutVarint(t->last_lsn);
  }
  enc.PutVarint(mutable_txns->next_txn_id());

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
  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  std::vector<std::pair<PageId, Lsn>> extra_dirty;
  if (extra_dirty_pages) extra_dirty = extra_dirty_pages();
  EncodeCheckpointPayload(*pool_, *txns_, *gc_, *spaces_, *utt_, *types_,
                          format_payload_, extra_dirty, &rec.payload);
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

  // Truncation point: nothing before min(checkpoint, oldest recLSN,
  // oldest active transaction's first record) can be needed — and the
  // previous checkpoint must survive until this (unforced, tearable) one
  // is safely behind the durable barrier.
  Lsn keep = ckpt_lsn;
  if (previous_ckpt != kInvalidLsn) keep = std::min(keep, previous_ckpt);
  // O(1): the pool indexes dirty recLSNs, no dirty-page scan needed here.
  const Lsn min_rec = pool_->MinRecLsn();
  if (min_rec != kInvalidLsn) keep = std::min(keep, min_rec);
  for (Txn* t : txns_->ActiveTxns()) {
    if (t->first_lsn != kInvalidLsn) keep = std::min(keep, t->first_lsn);
  }
  if (extra_keep_floor) {
    const Lsn floor = extra_keep_floor();
    if (floor != kInvalidLsn) keep = std::min(keep, floor);
  }
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
