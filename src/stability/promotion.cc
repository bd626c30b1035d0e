#include "stability/promotion.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "heap/object.h"

namespace sheap {

StatusOr<uint64_t> PendingMaterializations::ReadSlot(HeapMemory* mem,
                                                     HeapAddr slot) const {
  const HeapAddr phys = Redirect(slot);
  return mem->ReadWord(phys == kNullAddr ? slot : phys);
}

Status PendingMaterializations::WriteSlot(HeapMemory* mem, HeapAddr slot,
                                          uint64_t v, Lsn lsn) const {
  const HeapAddr phys = Redirect(slot);
  if (phys != kNullAddr) return mem->WriteWordUnlogged(phys, v);
  if (lsn == kInvalidLsn) return mem->WriteWordUnlogged(slot, v);
  return mem->WriteWordLogged(slot, v, lsn);
}

void PendingMaterializations::AppendDirtyPages(
    std::vector<std::pair<PageId, Lsn>>* out) const {
  for (const auto& [s, e] : by_stable_) {
    const uint64_t bytes = (1 + e.nslots) * kWordSizeBytes;
    for (PageId p = PageOf(s); p <= PageOf(s + bytes - 1); ++p) {
      out->emplace_back(p, e.initial_lsn);
    }
  }
}

StatusOr<bool> Promoter::NeedsPromotion(HeapAddr a) {
  if (a == kNullAddr || !d_.volatile_gc->Contains(a)) return false;
  SHEAP_ASSIGN_OR_RETURN(uint64_t w, d_.mem->ReadWord(a));
  return !IsForwardWord(w);
}

Status Promoter::ComputeClosure(const std::vector<HeapAddr>& roots,
                                std::vector<HeapAddr>* order) {
  std::set<HeapAddr> closure;
  std::vector<HeapAddr> worklist = roots;
  // Fixpoint: (a) close over current pointer slots of volatile objects;
  // (b) close over old values of uncommitted pointer updates to closure
  // objects (undo values are roots, see file comment).
  while (true) {
    while (!worklist.empty()) {
      HeapAddr obj = worklist.back();
      worklist.pop_back();
      SHEAP_ASSIGN_OR_RETURN(HeapAddr r, d_.volatile_gc->ResolveHusk(obj));
      SHEAP_ASSIGN_OR_RETURN(bool needs, NeedsPromotion(r));
      if (!needs || closure.count(r) > 0) continue;
      closure.insert(r);
      order->push_back(r);
      SHEAP_ASSIGN_OR_RETURN(ObjectHeader hdr, d_.mem->ReadHeader(r));
      d_.clock->ChargeScanWords(hdr.TotalWords());
      for (uint64_t i = 0; i < hdr.nslots; ++i) {
        if (!d_.types->IsPointerSlot(hdr.class_id, i)) continue;
        SHEAP_ASSIGN_OR_RETURN(uint64_t v, d_.mem->ReadWord(SlotAddr(r, i)));
        if (v != kNullAddr) worklist.push_back(v);
      }
    }
    bool grew = false;
    for (Txn* t : d_.txns->ActiveTxns()) {
      for (const TxnUpdate& e : t->updates) {
        if (!e.is_pointer || closure.count(e.obj_base) == 0) continue;
        SHEAP_ASSIGN_OR_RETURN(HeapAddr old_r,
                               d_.volatile_gc->ResolveHusk(e.old_word));
        SHEAP_ASSIGN_OR_RETURN(bool needs, NeedsPromotion(old_r));
        if (needs && closure.count(old_r) == 0) {
          worklist.push_back(old_r);
          grew = true;
        }
      }
    }
    if (!grew && worklist.empty()) break;
  }
  return Status::OK();
}

StatusOr<uint64_t> Promoter::TranslateWord(
    const std::map<HeapAddr, HeapAddr>& moved, uint64_t v) {
  if (v == kNullAddr) return v;
  auto it = moved.find(v);
  if (it != moved.end()) return it->second;
  SHEAP_ASSIGN_OR_RETURN(HeapAddr r, d_.volatile_gc->ResolveHusk(v));
  if (r != v) {
    auto it2 = moved.find(r);
    return it2 != moved.end() ? it2->second : r;
  }
  // Still volatile and unpromoted: must not happen for closure contents.
  if (d_.volatile_gc->Contains(v)) {
    return Status::Internal("promotion closure missed a volatile object");
  }
  return v;
}

Status Promoter::PromoteAtCommit(Txn* txn) {
  // Roots: current values of the transaction's remembered-set slots.
  std::vector<HeapAddr> roots;
  const std::vector<RememberedSet::Slot> own_slots =
      d_.remembered->SlotsOf(txn->id);
  for (const auto& s : own_slots) {
    SHEAP_ASSIGN_OR_RETURN(
        uint64_t v, d_.pending->ReadSlot(d_.mem, SlotAddr(s.obj_base, s.slot)));
    if (v != kNullAddr && d_.volatile_gc->Contains(v)) roots.push_back(v);
  }
  std::vector<HeapAddr> order;
  if (!roots.empty()) {
    SHEAP_RETURN_IF_ERROR(ComputeClosure(roots, &order));
  }
  if (order.empty() && own_slots.empty()) return Status::OK();
  ++stats_.commits_with_promotion;

  // Capacity precheck so promotion is all-or-nothing.
  uint64_t needed_bytes = 0;
  std::vector<ObjectHeader> headers(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    SHEAP_ASSIGN_OR_RETURN(headers[i], d_.mem->ReadHeader(order[i]));
    needed_bytes += headers[i].TotalWords() * kWordSizeBytes;
  }
  if (needed_bytes + kPageSizeBytes > d_.stable_gc->free_bytes()) {
    return Status::OutOfSpace("stable area cannot hold promoted objects");
  }

  // Pass 1: reserve stable addresses for the whole closure.
  std::map<HeapAddr, HeapAddr> moved;
  std::vector<HeapAddr> new_addrs(order.size());
  const bool isolate = d_.method == PromotionMethod::kAtNextVolatileGc;
  for (size_t i = 0; i < order.size(); ++i) {
    SHEAP_ASSIGN_OR_RETURN(new_addrs[i],
                           d_.stable_gc->AllocateForPromotion(
                               headers[i].TotalWords(), isolate));
    moved[order[i]] = new_addrs[i];
  }

  // Pass 2: copy with translated contents; log kV2sCopy; forward the husk.
  std::vector<UtrEntry> utrs;
  for (size_t i = 0; i < order.size(); ++i) {
    const HeapAddr vol = order[i];
    const HeapAddr sta = new_addrs[i];
    const ObjectHeader& hdr = headers[i];
    const uint64_t nbytes = hdr.TotalWords() * kWordSizeBytes;

    LogRecord rec;
    rec.type = d_.method == PromotionMethod::kAtCommit
                   ? RecordType::kV2sCopy
                   : RecordType::kInitialValue;
    if (d_.method == PromotionMethod::kAtCommit) {
      rec.addr = vol;
      rec.addr2 = sta;
    } else {
      rec.addr = sta;   // reserved stable address
      rec.addr2 = vol;  // volatile source (undo translation)
      rec.aux = hdr.class_id;
    }
    rec.count = hdr.TotalWords();
    rec.contents.resize(nbytes);
    SHEAP_RETURN_IF_ERROR(d_.mem->ReadBytes(vol, nbytes, rec.contents.data()));
    for (uint64_t s = 0; s < hdr.nslots; ++s) {
      if (!d_.types->IsPointerSlot(hdr.class_id, s)) continue;
      uint64_t v;
      std::memcpy(&v, rec.contents.data() + (1 + s) * kWordSizeBytes,
                  kWordSizeBytes);
      SHEAP_ASSIGN_OR_RETURN(uint64_t nv, TranslateWord(moved, v));
      std::memcpy(rec.contents.data() + (1 + s) * kWordSizeBytes, &nv,
                  kWordSizeBytes);
    }
    const Lsn lsn = d_.txns->AppendChained(txn, &rec);
    if (d_.method == PromotionMethod::kAtCommit) {
      SHEAP_RETURN_IF_ERROR(
          d_.mem->WriteBytesLogged(sta, rec.contents.data(), nbytes, lsn));
    } else {
      // Method 2 (§5.5): the physical move is deferred; the logged initial
      // value makes the object recoverable in the interim. Reads and
      // writes redirect to the volatile source until the next volatile
      // collection materializes the stable copy.
      PendingMaterializations::Entry entry;
      entry.volatile_base = vol;
      entry.cls = hdr.class_id;
      entry.nslots = hdr.nslots;
      entry.initial_lsn = lsn;
      d_.pending->Add(sta, entry);
    }
    SHEAP_RETURN_IF_ERROR(
        d_.mem->WriteWordUnlogged(vol, MakeForwardWord(sta)));

    d_.locks->Rekey(vol, sta);
    d_.ls->EraseObject(vol);
    utrs.push_back(UtrEntry{vol, sta, hdr.TotalWords()});
    ++stats_.objects_promoted;
    stats_.words_promoted += hdr.TotalWords();
    d_.clock->ChargeCopyWords(hdr.TotalWords());
  }

  // UTRs: recovery must translate undo information across the promotion.
  std::vector<TxnId> active_ids;
  for (Txn* t : d_.txns->ActiveTxns()) active_ids.push_back(t->id);
  if (!utrs.empty()) {
    LogRecord utr_rec;
    utr_rec.type = RecordType::kUtr;
    utr_rec.utr_entries = utrs;
    d_.log->Append(&utr_rec);
    d_.utt->AddBatch(utrs, active_ids);
    // Crash window: promotion copies spooled (kV2sCopy ahead of this UTR)
    // but the commit record is not — the transaction must abort cleanly.
    SHEAP_FAULT_POINT(d_.log->faults(), "promote.utr.logged");
  }

  // Materialize log records for previously-unlogged (volatile) updates to
  // promoted objects, for every active transaction, and rewrite the
  // in-memory undo info to stable addresses.
  for (Txn* t : d_.txns->ActiveTxns()) {
    for (TxnUpdate& e : t->updates) {
      auto it = moved.find(e.obj_base);
      if (it == moved.end()) {
        // Values may still reference promoted objects.
        if (e.is_pointer) {
          auto old_it = moved.find(e.old_word);
          if (old_it != moved.end()) e.old_word = old_it->second;
          auto new_it = moved.find(e.new_word);
          if (new_it != moved.end()) e.new_word = new_it->second;
        }
        continue;
      }
      SHEAP_CHECK(!e.logged);  // it was a volatile object until now
      e.obj_base = it->second;
      if (e.is_pointer) {
        SHEAP_ASSIGN_OR_RETURN(e.old_word, TranslateWord(moved, e.old_word));
        SHEAP_ASSIGN_OR_RETURN(e.new_word, TranslateWord(moved, e.new_word));
      }
      LogRecord rec;
      rec.type = RecordType::kUpdate;
      rec.addr = SlotAddr(e.obj_base, e.slot);
      rec.addr2 = e.obj_base;
      rec.old_word = e.old_word;
      rec.new_word = e.new_word;
      rec.aux = e.is_pointer ? LogRecord::kFlagPointer : 0;
      e.lsn = d_.txns->AppendChained(t, &rec);
      e.logged = true;
      ++stats_.materialized_updates;
    }
    for (TxnAlloc& a : t->allocs) {
      auto it = moved.find(a.base);
      if (it != moved.end()) {
        a.base = it->second;
        a.stable_area = true;
      }
    }
  }

  // Rewrite every remembered slot whose value was promoted (any owner), as
  // a logged update chained to the owner: the committed value of the
  // committing transaction's slots, and a translated uncommitted value for
  // other owners.
  for (const auto& s : d_.remembered->AllSlots()) {
    const HeapAddr slot_addr = SlotAddr(s.obj_base, s.slot);
    SHEAP_ASSIGN_OR_RETURN(uint64_t v, d_.pending->ReadSlot(d_.mem, slot_addr));
    auto it = moved.find(v);
    if (it == moved.end()) continue;
    Txn* owner = d_.txns->Find(s.owner);
    SHEAP_CHECK(owner != nullptr);
    LogRecord rec;
    rec.type = RecordType::kUpdate;
    rec.addr = slot_addr;
    rec.addr2 = s.obj_base;
    rec.old_word = v;
    rec.new_word = it->second;
    rec.aux = LogRecord::kFlagPointer;
    const Lsn lsn = d_.txns->AppendChained(owner, &rec);
    SHEAP_RETURN_IF_ERROR(
        d_.pending->WriteSlot(d_.mem, slot_addr, it->second, lsn));
    // The rewrite joins the owner's undo chain: undoing it restores the
    // husk address, and undoing the original store restores the committed
    // value beneath it.
    TxnUpdate upd;
    upd.obj_base = s.obj_base;
    upd.slot = s.slot;
    upd.old_word = v;
    upd.new_word = it->second;
    upd.is_pointer = true;
    upd.logged = true;
    upd.lsn = lsn;
    owner->updates.push_back(upd);
    d_.remembered->Erase(s.obj_base, s.slot);
    ++stats_.slot_rewrites;
  }
  d_.remembered->EraseTxn(txn->id);

  // Handles held by any transaction may designate promoted objects.
  d_.handles->ForEachLive([&](HeapAddr* slot) {
    auto it = moved.find(*slot);
    if (it != moved.end()) *slot = it->second;
  });

  return Status::OK();
}

Status Promoter::Materialize() {
  if (d_.pending->empty()) return Status::OK();
  std::vector<std::pair<HeapAddr, PendingMaterializations::Entry>> moves;
  SHEAP_RETURN_IF_ERROR(d_.pending->ForEach(
      [&](HeapAddr s, const PendingMaterializations::Entry& e) {
        moves.emplace_back(s, e);
        return Status::OK();
      }));
  for (const auto& [stable_base, entry] : moves) {
    std::vector<uint8_t> bytes((1 + entry.nslots) * kWordSizeBytes);
    // Header synthesized (the volatile source's word 0 is the forwarding
    // word); slots read from the live body, husk pointers resolved.
    const uint64_t header = EncodeHeader(entry.cls, entry.nslots);
    std::memcpy(bytes.data(), &header, kWordSizeBytes);
    for (uint64_t s = 0; s < entry.nslots; ++s) {
      SHEAP_ASSIGN_OR_RETURN(
          uint64_t v, d_.mem->ReadWord(SlotAddr(entry.volatile_base, s)));
      if (d_.types->IsPointerSlot(entry.cls, s)) {
        SHEAP_ASSIGN_OR_RETURN(v, d_.volatile_gc->ResolveHusk(v));
      }
      std::memcpy(bytes.data() + (1 + s) * kWordSizeBytes, &v,
                  kWordSizeBytes);
    }
    // Written under the initial-value record's LSN: if this frame reaches
    // disk, redo skips the record; if not, redo rebuilds from it.
    SHEAP_RETURN_IF_ERROR(d_.mem->WriteBytesLogged(
        stable_base, bytes.data(), bytes.size(), entry.initial_lsn));
    d_.pending->Erase(stable_base);
  }
  // The materialized pages now hold normally logged data; later pending
  // batches must not share them (their neighbours' pageLSNs would suppress
  // the batches' initial-value redo).
  d_.stable_gc->ResetAllocIsolation();
  return Status::OK();
}

}  // namespace sheap
