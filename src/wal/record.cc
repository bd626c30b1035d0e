#include "wal/record.h"

#include "common/check.h"
#include "util/crc32c.h"

namespace sheap {

namespace {

// Per-type field presence masks. Encoding writes exactly the masked fields in
// a fixed order, keeping records compact (log volume is measured in E10).
enum FieldBit : uint32_t {
  kFTxn = 1u << 0,
  kFPrev = 1u << 1,
  kFUndoNext = 1u << 2,
  kFAddr = 1u << 3,
  kFAddr2 = 1u << 4,
  kFNewWord = 1u << 5,
  kFOldWord = 1u << 6,
  kFAux = 1u << 7,
  kFCount = 1u << 8,
  kFPage = 1u << 9,
  kFContents = 1u << 10,
  kFSlots = 1u << 11,
  kFUtrs = 1u << 12,
  kFPayload = 1u << 13,
  kFCopies = 1u << 14,
};

uint32_t MaskFor(RecordType type) {
  switch (type) {
    case RecordType::kHeapFormat:
      return kFPayload;
    case RecordType::kBegin:
      return kFTxn;
    case RecordType::kUpdate:
      // addr = slot address, addr2 = object base (prepared-txn rebuild).
      return kFTxn | kFPrev | kFAddr | kFAddr2 | kFNewWord | kFOldWord |
             kFAux;
    case RecordType::kClr:
      return kFTxn | kFPrev | kFUndoNext | kFAddr | kFNewWord | kFAux;
    case RecordType::kCommit:
      return kFTxn | kFPrev;
    case RecordType::kAbortTxn:
      return kFTxn | kFPrev;
    case RecordType::kEnd:
      return kFTxn;
    case RecordType::kAlloc:
      return kFTxn | kFPrev | kFAddr | kFAux | kFCount;
    case RecordType::kPageFetch:
    case RecordType::kEndWrite:
      return kFPage;
    case RecordType::kCheckpoint:
      return kFPayload;
    case RecordType::kSpaceAlloc:
      return kFAux | kFPage | kFCount | kFNewWord;
    case RecordType::kSpaceFree:
      return kFAux;
    case RecordType::kGcFlip:
      return kFAux | kFAddr | kFAddr2;
    case RecordType::kGcCopy:
      break;  // retired id: never encoded, rejected by DecodeFrom
    case RecordType::kGcScan:
      // aux: 0 = full page scan (analysis marks the page scanned and
      // replays the partial-page abandonment rule); 1 = partial slot
      // translation (Baker barrier, remembered-slot rewrite) — redo only;
      // 3 = run of `count` clean pages (batched executor encoding).
      return kFPage | kFSlots | kFAux | kFCount;
    case RecordType::kGcCopyBatch:
      // addr2 = run base, contents = concatenated object bytes, then the
      // per-object {from, nwords} until the word counts cover the contents.
      // Each `to` and the run length `count` follow from addr2 and the word
      // counts, so only decoding fills them in.
      return kFAddr2 | kFContents | kFCopies;
    case RecordType::kGcComplete:
      return kFAux | kFAddr;
    case RecordType::kUtr:
      return kFUtrs;
    case RecordType::kRootObject:
      return kFAddr;
    case RecordType::kV2sCopy:
      return kFTxn | kFPrev | kFAddr | kFAddr2 | kFCount | kFContents;
    case RecordType::kInitialValue:
      // addr = reserved stable address, addr2 = volatile source (the undo
      // translation, like kV2sCopy), aux = class id.
      return kFTxn | kFPrev | kFAddr | kFAddr2 | kFAux | kFCount |
             kFContents;
    case RecordType::kVolatileFlip:
      return kFAddr | kFAddr2;
    case RecordType::kClassDef:
      return kFAux | kFCount | kFContents;
    case RecordType::kPrepare:
      return kFTxn | kFPrev | kFAux;  // aux = global transaction id
    case RecordType::kDtxDecision:
    case RecordType::kDtxEnd:
      // Coordinator decision log only (never a shard WAL): txn_id carries
      // the global transaction id, aux the participant count.
      return kFTxn | kFAux;
  }
  SHEAP_CHECK(false && "unknown record type");
  return 0;
}

}  // namespace

void LogRecord::EncodeTo(std::vector<uint8_t>* out) const {
  Encoder enc(out);
  enc.PutU8(static_cast<uint8_t>(type));
  const uint32_t mask = MaskFor(type);
  if (mask & kFTxn) enc.PutVarint(txn_id);
  if (mask & kFPrev) enc.PutVarint(prev_lsn);
  if (mask & kFUndoNext) enc.PutVarint(undo_next_lsn);
  if (mask & kFAddr) enc.PutVarint(addr);
  if (mask & kFAddr2) enc.PutVarint(addr2);
  if (mask & kFNewWord) enc.PutVarint(new_word);
  if (mask & kFOldWord) enc.PutVarint(old_word);
  if (mask & kFAux) enc.PutVarint(aux);
  if (mask & kFCount) enc.PutVarint(count);
  if (mask & kFPage) enc.PutVarint(page);
  if (mask & kFContents) {
    enc.PutLengthPrefixed(contents.data(), contents.size());
  }
  if (mask & kFSlots) {
    // Slot indexes are delta+zigzag encoded: scan records emit slots in
    // ascending order, so deltas are small and most encode in one byte
    // (E14 measures the resulting kGcScan volume reduction).
    enc.PutVarint(slot_updates.size());
    uint32_t prev_slot = 0;
    for (const auto& [slot, word] : slot_updates) {
      const int64_t delta =
          static_cast<int64_t>(slot) - static_cast<int64_t>(prev_slot);
      enc.PutVarint((static_cast<uint64_t>(delta) << 1) ^
                    static_cast<uint64_t>(delta >> 63));
      enc.PutVarint(word);
      prev_slot = slot;
    }
  }
  if (mask & kFUtrs) {
    enc.PutVarint(utr_entries.size());
    for (const auto& e : utr_entries) {
      enc.PutVarint(e.from);
      enc.PutVarint(e.to);
      enc.PutVarint(e.nwords);
    }
  }
  if (mask & kFCopies) {
    // The copy planner lays a run out contiguously from addr2.
    uint64_t to = addr2;
    for (const auto& e : utr_entries) {
      SHEAP_CHECK(e.to == to && e.nwords > 0);
      enc.PutVarint(e.from);
      enc.PutVarint(e.nwords);
      to += e.nwords * kWordSizeBytes;
    }
    SHEAP_CHECK(to - addr2 == contents.size());
  }
  if (mask & kFPayload) {
    enc.PutLengthPrefixed(payload.data(), payload.size());
  }
}

Status LogRecord::DecodeFrom(Decoder* dec, LogRecord* out) {
  uint8_t type_byte;
  if (!dec->GetU8(&type_byte) || type_byte == 0 ||
      type_byte > static_cast<uint8_t>(RecordType::kMaxRecordType)) {
    return Status::Corruption("bad record type");
  }
  if (type_byte == static_cast<uint8_t>(RecordType::kGcCopy)) {
    return Status::Corruption("retired record type");
  }
  *out = LogRecord();
  out->type = static_cast<RecordType>(type_byte);
  const uint32_t mask = MaskFor(out->type);
  auto get = [&](uint64_t* v) { return dec->GetVarint(v); };
  bool ok = true;
  if (mask & kFTxn) ok = ok && get(&out->txn_id);
  if (mask & kFPrev) ok = ok && get(&out->prev_lsn);
  if (mask & kFUndoNext) ok = ok && get(&out->undo_next_lsn);
  if (mask & kFAddr) ok = ok && get(&out->addr);
  if (mask & kFAddr2) ok = ok && get(&out->addr2);
  if (mask & kFNewWord) ok = ok && get(&out->new_word);
  if (mask & kFOldWord) ok = ok && get(&out->old_word);
  if (mask & kFAux) ok = ok && get(&out->aux);
  if (mask & kFCount) ok = ok && get(&out->count);
  if (mask & kFPage) ok = ok && get(&out->page);
  if (!ok) return Status::Corruption("truncated record fields");
  if (mask & kFContents) {
    if (!dec->GetLengthPrefixed(&out->contents)) {
      return Status::Corruption("truncated contents");
    }
  }
  if (mask & kFSlots) {
    uint64_t n;
    if (!dec->GetVarint(&n)) return Status::Corruption("truncated slot count");
    out->slot_updates.reserve(n);
    uint32_t prev_slot = 0;
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t zz, word;
      if (!dec->GetVarint(&zz) || !dec->GetVarint(&word)) {
        return Status::Corruption("truncated slot updates");
      }
      const int64_t delta =
          static_cast<int64_t>(zz >> 1) ^ -static_cast<int64_t>(zz & 1);
      const uint32_t slot =
          static_cast<uint32_t>(static_cast<int64_t>(prev_slot) + delta);
      out->slot_updates.emplace_back(slot, word);
      prev_slot = slot;
    }
  }
  if (mask & kFUtrs) {
    uint64_t n;
    if (!dec->GetVarint(&n)) return Status::Corruption("truncated utr count");
    out->utr_entries.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      UtrEntry e;
      if (!dec->GetVarint(&e.from) || !dec->GetVarint(&e.to) ||
          !dec->GetVarint(&e.nwords)) {
        return Status::Corruption("truncated utr entries");
      }
      out->utr_entries.push_back(e);
    }
  }
  if (mask & kFCopies) {
    if (out->contents.size() % kWordSizeBytes != 0) {
      return Status::Corruption("copy contents are not whole words");
    }
    const uint64_t run_words = out->contents.size() / kWordSizeBytes;
    while (out->count < run_words) {
      UtrEntry e;
      if (!dec->GetVarint(&e.from) || !dec->GetVarint(&e.nwords)) {
        return Status::Corruption("truncated copy entries");
      }
      if (e.nwords == 0 || e.nwords > run_words - out->count) {
        return Status::Corruption("copy word counts do not match contents");
      }
      e.to = out->addr2 + out->count * kWordSizeBytes;
      out->count += e.nwords;
      out->utr_entries.push_back(e);
    }
  }
  if (mask & kFPayload) {
    if (!dec->GetLengthPrefixed(&out->payload)) {
      return Status::Corruption("truncated payload");
    }
  }
  return Status::OK();
}

const char* LogRecord::TypeName(RecordType type) {
  switch (type) {
    case RecordType::kHeapFormat:
      return "HeapFormat";
    case RecordType::kBegin:
      return "Begin";
    case RecordType::kUpdate:
      return "Update";
    case RecordType::kClr:
      return "CLR";
    case RecordType::kCommit:
      return "Commit";
    case RecordType::kAbortTxn:
      return "AbortTxn";
    case RecordType::kEnd:
      return "End";
    case RecordType::kAlloc:
      return "Alloc";
    case RecordType::kPageFetch:
      return "PageFetch";
    case RecordType::kEndWrite:
      return "EndWrite";
    case RecordType::kCheckpoint:
      return "Checkpoint";
    case RecordType::kSpaceAlloc:
      return "SpaceAlloc";
    case RecordType::kSpaceFree:
      return "SpaceFree";
    case RecordType::kGcFlip:
      return "GcFlip";
    case RecordType::kGcCopy:
      return "GcCopy(retired)";
    case RecordType::kGcScan:
      return "GcScan";
    case RecordType::kGcCopyBatch:
      return "GcCopyBatch";
    case RecordType::kGcComplete:
      return "GcComplete";
    case RecordType::kUtr:
      return "UTR";
    case RecordType::kRootObject:
      return "RootObject";
    case RecordType::kV2sCopy:
      return "V2sCopy";
    case RecordType::kInitialValue:
      return "InitialValue";
    case RecordType::kVolatileFlip:
      return "VolatileFlip";
    case RecordType::kClassDef:
      return "ClassDef";
    case RecordType::kPrepare:
      return "Prepare";
    case RecordType::kDtxDecision:
      return "DtxDecision";
    case RecordType::kDtxEnd:
      return "DtxEnd";
  }
  return "Unknown";
}

void EncodeFramed(const LogRecord& rec, std::vector<uint8_t>* out) {
  std::vector<uint8_t> body;
  rec.EncodeTo(&body);
  Encoder enc(out);
  enc.PutU32(static_cast<uint32_t>(body.size()));
  enc.PutU32(crc32c::Mask(crc32c::Value(body.data(), body.size())));
  enc.PutBytes(body.data(), body.size());
}

}  // namespace sheap
