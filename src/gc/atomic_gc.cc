#include "gc/atomic_gc.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "core/mutator_gate.h"
#include "gc/scan_executor.h"

namespace sheap {

namespace {
HeapAddr RoundDownToPage(HeapAddr a) { return a - (a % kPageSizeBytes); }
HeapAddr RoundUpToPage(HeapAddr a) {
  return (a + kPageSizeBytes - 1) / kPageSizeBytes * kPageSizeBytes;
}
}  // namespace

AtomicGc::AtomicGc(const GcContext& ctx, const Options& opts)
    : ctx_(ctx), opts_(opts) {
  SHEAP_CHECK(opts_.space_pages > 0);
  rb_cache_.fill(UINT64_MAX);
  executor_ = std::make_unique<ScanExecutor>(this, opts_.threads);
  stats_.scan_workers = executor_->threads();
}

AtomicGc::~AtomicGc() = default;

const Space* AtomicGc::CurrentSpace() const {
  const Space* sp = ctx_.spaces->Find(sem_.current);
  SHEAP_CHECK(sp != nullptr);
  return sp;
}

const Space* AtomicGc::FromSpace() const {
  const Space* sp = ctx_.spaces->Find(sem_.from);
  SHEAP_CHECK(sp != nullptr);
  return sp;
}

bool AtomicGc::InFromSpace(HeapAddr a) const {
  if (!sem_.collecting() || a == kNullAddr) return false;
  return FromSpace()->Contains(a);
}

bool AtomicGc::InCurrentSpace(HeapAddr a) const {
  if (sem_.current == kInvalidSpaceId || a == kNullAddr) return false;
  return CurrentSpace()->Contains(a);
}

uint64_t AtomicGc::PageIndexOf(HeapAddr a) const {
  const Space* cur = CurrentSpace();
  SHEAP_DCHECK(a >= cur->base() && a <= cur->end());
  return (a - cur->base()) / kPageSizeBytes;
}

bool AtomicGc::PageScanned(HeapAddr a) const {
  if (!sem_.collecting()) return true;
  if (!InCurrentSpace(a)) return true;
  return scanned_.Get(PageIndexOf(a));
}

Status AtomicGc::Format() {
  SHEAP_CHECK(sem_.current == kInvalidSpaceId);
  SHEAP_ASSIGN_OR_RETURN(SpaceId id,
                         ctx_.spaces->Allocate(opts_.space_pages,
                                               Area::kStable));
  const Space* sp = ctx_.spaces->Find(id);
  sem_.current = id;
  sem_.from = kInvalidSpaceId;
  sem_.copy_ptr = sp->base();
  sem_.alloc_ptr = sp->end();
  scanned_.Resize(sp->npages);
  scanned_.SetAll();  // no collection active: everything accessible
  HwUnprotectPages(0, sp->npages);
  lot_.assign(sp->npages, kNullAddr);

  // A degenerate flip record (no from-space) tells recovery analysis which
  // space is current and where its pointers start.
  LogRecord flip;
  flip.type = RecordType::kGcFlip;
  flip.aux = static_cast<uint64_t>(Area::kStable);
  flip.addr = kInvalidSpaceId;
  flip.addr2 = id;
  ctx_.log->Append(&flip);

  SHEAP_ASSIGN_OR_RETURN(
      root_object_,
      AllocateObject(nullptr, kClassPtrArray, opts_.root_slots));
  LogRecord rec;
  rec.type = RecordType::kRootObject;
  rec.addr = root_object_;
  ctx_.log->Append(&rec);
  return Status::OK();
}

StatusOr<HeapAddr> AtomicGc::AllocateObject(Txn* txn, ClassId cls,
                                            uint64_t nslots) {
  if (alloc_isolation_) {
    // Leave the page-isolated region of pending promotions.
    sem_.alloc_ptr = RoundDownToPage(sem_.alloc_ptr);
    alloc_isolation_ = false;
  }
  const uint64_t nwords = 1 + nslots;
  const uint64_t nbytes = nwords * kWordSizeBytes;
  if (nbytes > sem_.alloc_ptr ||
      RoundDownToPage(sem_.alloc_ptr - nbytes) <
          RoundUpToPage(sem_.copy_ptr)) {
    return Status::OutOfSpace("stable area allocation would overrun");
  }
  const HeapAddr base = sem_.alloc_ptr - nbytes;

  LogRecord rec;
  rec.type = RecordType::kAlloc;
  rec.addr = base;
  rec.aux = cls;
  rec.count = nslots;
  Lsn lsn;
  if (txn != nullptr) {
    lsn = ctx_.txns->AppendChained(txn, &rec);
    txn->allocs.push_back(TxnAlloc{base, /*stable_area=*/true});
  } else {
    rec.txn_id = 0;  // system allocation (heap format)
    lsn = ctx_.log->Append(&rec);
  }
  SHEAP_RETURN_IF_ERROR(
      ctx_.mem->WriteWordLogged(base, EncodeHeader(cls, nslots), lsn));
  sem_.alloc_ptr = base;
  // Mutator-allocated pages never contain from-space pointers: born scanned
  // (Baker layout, Figure 3.3).
  MarkAllocPagesScanned(base, nbytes);
  return base;
}

void AtomicGc::MarkAllocPagesScanned(HeapAddr base, uint64_t nbytes) {
  uint64_t first = PageIndexOf(base);
  uint64_t last = PageIndexOf(base + nbytes - 1);
  for (uint64_t idx = first; idx <= last; ++idx) scanned_.Set(idx);
  HwUnprotectPages(first, last - first + 1);
}

Status AtomicGc::EnsureAccess(HeapAddr a) {
  if (!sem_.collecting() || a == kNullAddr) return Status::OK();
  if (opts_.barrier == GcBarrierMode::kPerAccess) {
    // Baker barrier checks values, not pages (see EnsureSlotAccess).
    return Status::OK();
  }
  if (InCurrentSpace(a)) {
    const uint64_t idx = PageIndexOf(a);
    if (rb_cache_[idx & 3] == idx) {
      // Fast path: this page was already found scanned during this
      // collection; skip the bitmap lookup. Four direct-mapped entries
      // cover the common mutator patterns (runs of accesses against one
      // page, and pointer-chasing that alternates between a few pages).
      ++stats_.read_barrier_fast_hits;
      return Status::OK();
    }
    ++stats_.read_barrier_fast_misses;
    if (!scanned_.Get(idx)) {
      // Ellis read-barrier trap: scan the faulted page (§3.2.1). With a
      // hardware mirror the probe takes a real SIGSEGV first — the MMU
      // raises the trap, the handler lifts the page's protection — and
      // the software path then performs the scan the trap demands.
      if (ctx_.mapping != nullptr &&
          ctx_.mapping->Touch(CurrentSpace()->base() / kPageSizeBytes +
                              idx)) {
        ++stats_.hw_barrier_traps;
      }
      ++stats_.read_barrier_traps;
      ctx_.clock->ChargeTrap();
      SimSpan span(ctx_.clock);
      SHEAP_RETURN_IF_ERROR(ScanPage(idx, /*abandon_tail=*/true));
      stats_.RecordPause(span.elapsed_ns());
    }
    rb_cache_[idx & 3] = idx;
    return Status::OK();
  }
  if (InFromSpace(a)) {
    // Invariant I5: the mutator never sees a from-space address.
    return Status::Internal("read-barrier violation: from-space access");
  }
  return Status::OK();
}

Status AtomicGc::EnsureSlotAccess(HeapAddr slot_addr, bool is_pointer) {
  if (!sem_.collecting()) return Status::OK();
  if (opts_.barrier == GcBarrierMode::kPageProtection) {
    return EnsureAccess(slot_addr);
  }
  // Baker's read barrier (§3.8): a check on every heap reference; a
  // from-space value is translated in place, copying its target.
  ctx_.clock->ChargeBakerCheck();
  if (!is_pointer) return Status::OK();
  SHEAP_ASSIGN_OR_RETURN(uint64_t v, ctx_.mem->ReadWord(slot_addr));
  if (v == kNullAddr || !InFromSpace(v)) return Status::OK();
  ++stats_.read_barrier_traps;
  SimSpan span(ctx_.clock);
  SHEAP_ASSIGN_OR_RETURN(HeapAddr nv, CopyObject(v));
  if (opts_.durability == GcDurability::kWriteAheadLog) {
    LogRecord rec;
    rec.type = RecordType::kGcScan;
    rec.aux = LogRecord::kScanPartial;
    rec.page = PageOf(slot_addr);
    rec.slot_updates.emplace_back(WordInPage(slot_addr), nv);
    const Lsn lsn = ctx_.log->Append(&rec);
    SHEAP_RETURN_IF_ERROR(ctx_.mem->WriteWordLogged(slot_addr, nv, lsn));
  } else {
    SHEAP_RETURN_IF_ERROR(ctx_.mem->WriteWordUnlogged(slot_addr, nv));
    DetlefsMark(slot_addr, kWordSizeBytes);
    SHEAP_RETURN_IF_ERROR(DetlefsFlushStep());
  }
  stats_.RecordPause(span.elapsed_ns());
  return Status::OK();
}

Status AtomicGc::SyncWriteRange(HeapAddr addr, uint64_t nbytes) {
  SHEAP_DCHECK(nbytes > 0);
  for (PageId p = PageOf(addr); p <= PageOf(addr + nbytes - 1); ++p) {
    Status st = ctx_.pool->WriteBack(p);
    if (!st.ok() && !st.IsNotFound()) return st;
    ++stats_.sync_page_writes;
  }
  return Status::OK();
}

void AtomicGc::DetlefsMark(HeapAddr addr, uint64_t nbytes) {
  for (PageId p = PageOf(addr); p <= PageOf(addr + nbytes - 1); ++p) {
    detlefs_dirty_.push_back(p);
  }
}

Status AtomicGc::DetlefsFlushStep() {
  std::sort(detlefs_dirty_.begin(), detlefs_dirty_.end());
  detlefs_dirty_.erase(
      std::unique(detlefs_dirty_.begin(), detlefs_dirty_.end()),
      detlefs_dirty_.end());
  for (PageId p : detlefs_dirty_) {
    Status st = ctx_.pool->WriteBack(p);
    if (!st.ok() && !st.IsNotFound()) return st;
    ++stats_.sync_page_writes;
  }
  detlefs_dirty_.clear();
  return Status::OK();
}

StatusOr<HeapAddr> AtomicGc::ResolveAndCopy(HeapAddr base) {
  if (!InFromSpace(base)) return base;
  return CopyObject(base);
}

StatusOr<HeapAddr> AtomicGc::CopyObject(HeapAddr from_base) {
  SHEAP_DCHECK(InFromSpace(from_base));
  SHEAP_ASSIGN_OR_RETURN(uint64_t w, ctx_.mem->ReadWord(from_base));
  if (IsForwardWord(w)) return ForwardTarget(w);
  if (!IsHeaderWord(w)) {
    return Status::Corruption("copy source is not an object");
  }
  const ObjectHeader hdr = DecodeHeader(w);
  const uint64_t total = hdr.TotalWords();
  const uint64_t nbytes = total * kWordSizeBytes;
  if (sem_.copy_ptr + nbytes > RoundDownToPage(sem_.alloc_ptr)) {
    return Status::OutOfSpace("to-space exhausted during copy");
  }
  const HeapAddr to_base = sem_.copy_ptr;

  if (opts_.durability == GcDurability::kWriteAheadLog) {
    // Copy step (§3.4.1): read contents, log the copy record, then perform
    // the to-space write and the from-space forwarding write under the
    // record's LSN. Redo is self-contained: the contents travel in the log.
    LogRecord rec;
    rec.type = RecordType::kGcCopy;
    rec.addr = from_base;
    rec.addr2 = to_base;
    rec.count = total;
    rec.contents.resize(nbytes);
    SHEAP_RETURN_IF_ERROR(
        ctx_.mem->ReadBytes(from_base, nbytes, rec.contents.data()));
    const Lsn lsn = ctx_.log->Append(&rec);
    SHEAP_RETURN_IF_ERROR(ctx_.mem->WriteBytesLogged(
        to_base, rec.contents.data(), nbytes, lsn));
    SHEAP_RETURN_IF_ERROR(
        ctx_.mem->WriteWordLogged(from_base, MakeForwardWord(to_base), lsn));
  } else {
    // Detlefs comparator: no logging; the step's consistency comes from
    // synchronous random writes of every page it touched.
    std::vector<uint8_t> bytes(nbytes);
    SHEAP_RETURN_IF_ERROR(
        ctx_.mem->ReadBytes(from_base, nbytes, bytes.data()));
    SHEAP_RETURN_IF_ERROR(
        ctx_.mem->WriteBytesUnlogged(to_base, bytes.data(), nbytes));
    SHEAP_RETURN_IF_ERROR(
        ctx_.mem->WriteWordUnlogged(from_base, MakeForwardWord(to_base)));
    DetlefsMark(to_base, nbytes);
    DetlefsMark(from_base, kWordSizeBytes);
  }

  sem_.copy_ptr += nbytes;
  UpdateLot(to_base, total);
  ++stats_.objects_copied;
  stats_.words_copied += total;
  ctx_.clock->ChargeCopyWords(total);

  // The lock is on the object, not the address.
  ctx_.locks->Rekey(from_base, to_base);
  if (on_object_moved) on_object_moved(from_base, to_base, total);
  return to_base;
}

StatusOr<HeapAddr> AtomicGc::AllocateForPromotion(uint64_t total_words,
                                                  bool page_isolated) {
  if (page_isolated != alloc_isolation_) {
    sem_.alloc_ptr = RoundDownToPage(sem_.alloc_ptr);
    alloc_isolation_ = page_isolated;
  }
  const uint64_t nbytes = total_words * kWordSizeBytes;
  if (nbytes > sem_.alloc_ptr ||
      RoundDownToPage(sem_.alloc_ptr - nbytes) <
          RoundUpToPage(sem_.copy_ptr)) {
    return Status::OutOfSpace("stable area exhausted during promotion");
  }
  const HeapAddr base = sem_.alloc_ptr - nbytes;
  sem_.alloc_ptr = base;
  MarkAllocPagesScanned(base, nbytes);
  return base;
}

void AtomicGc::UpdateLot(HeapAddr to_base, uint64_t total_words) {
  const Space* cur = CurrentSpace();
  const HeapAddr end = to_base + total_words * kWordSizeBytes;
  // The object covers the first word of every page whose start lies in
  // [to_base, end); record it as that page's walk anchor.
  for (HeapAddr p = RoundUpToPage(to_base); p < end; p += kPageSizeBytes) {
    lot_[(p - cur->base()) / kPageSizeBytes] = to_base;
  }
  if (to_base % kPageSizeBytes == 0) {
    lot_[PageIndexOf(to_base)] = to_base;
  }
}

StatusOr<uint64_t> AtomicGc::TranslateValue(uint64_t v, bool* changed) {
  *changed = false;
  if (v == kNullAddr || !InFromSpace(v)) return v;
  SHEAP_ASSIGN_OR_RETURN(HeapAddr nv, CopyObject(v));
  *changed = true;
  return nv;
}

void AtomicGc::HwProtectCurrentSpace() {
  if (ctx_.mapping == nullptr) return;
  const Space* cur = CurrentSpace();
  const PageId first = cur->base() / kPageSizeBytes;
  ctx_.mapping->Protect(first, cur->npages);
  const uint64_t cap = ctx_.mapping->capacity_pages();
  if (first < cap) {
    stats_.hw_pages_protected += std::min<uint64_t>(cur->npages, cap - first);
  }
}

void AtomicGc::HwUnprotectPages(uint64_t first_idx, uint64_t count) {
  if (ctx_.mapping == nullptr || count == 0) return;
  const PageId first = CurrentSpace()->base() / kPageSizeBytes + first_idx;
  ctx_.mapping->Unprotect(first, count);
}

void AtomicGc::HwSyncToBitmap() {
  if (ctx_.mapping == nullptr) return;
  const Space* cur = CurrentSpace();
  const PageId base = cur->base() / kPageSizeBytes;
  // Runs of equal bits become single mprotect calls.
  uint64_t i = 0;
  while (i < cur->npages) {
    const bool scanned = scanned_.Get(i);
    uint64_t j = i + 1;
    while (j < cur->npages && scanned_.Get(j) == scanned) ++j;
    if (scanned) {
      ctx_.mapping->Unprotect(base + i, j - i);
    } else {
      ctx_.mapping->Protect(base + i, j - i);
      const uint64_t cap = ctx_.mapping->capacity_pages();
      if (base + i < cap) {
        stats_.hw_pages_protected +=
            std::min<uint64_t>(j - i, cap - (base + i));
      }
    }
    i = j;
  }
}

Status AtomicGc::ScanPage(uint64_t idx, bool abandon_tail) {
  SHEAP_CHECK(sem_.collecting());
  SHEAP_CHECK(!scanned_.Get(idx));
  const Space* cur = CurrentSpace();
  const HeapAddr page_base = cur->base() + idx * kPageSizeBytes;
  const HeapAddr page_end = page_base + kPageSizeBytes;

  bool bumped = false;
  if (abandon_tail && sem_.copy_ptr > page_base &&
      sem_.copy_ptr < page_end) {
    // Trap path: the mutator needs this page now, so copies triggered by
    // this scan must not land on it — abandon the tail (the AEL waste).
    stats_.waste_words += (page_end - sem_.copy_ptr) / kWordSizeBytes;
    sem_.copy_ptr = page_end;
    bumped = true;
  }

  const HeapAddr anchor = lot_[idx];
  if (anchor == kNullAddr) {
    // No copied data covers this page (empty or allocation region).
    scanned_.Set(idx);
    HwUnprotectPages(idx, 1);
    return Status::OK();
  }

  std::vector<std::pair<uint32_t, uint64_t>> updates;
  HeapAddr obj = anchor;
  // Walk until the page ends or the scan catches the copy pointer. In the
  // background (no-bump) case the copy pointer may grow onto this very
  // page as the walk copies referents; re-reading it each iteration makes
  // this a per-page Cheney scan, so the page is complete when the loop
  // exits. The caller only no-bump-scans the frontier page when it is the
  // last unscanned one, so nothing can be copied here afterwards.
  while (obj < page_end && obj < sem_.copy_ptr) {
    SHEAP_ASSIGN_OR_RETURN(uint64_t w, ctx_.mem->ReadWord(obj));
    if (!IsHeaderWord(w)) break;  // abandoned tail of an earlier bump
    const ObjectHeader hdr = DecodeHeader(w);
    for (uint64_t i = 0; i < hdr.nslots; ++i) {
      const HeapAddr slot_addr = SlotAddr(obj, i);
      if (slot_addr < page_base) continue;
      if (slot_addr >= page_end) break;
      if (!ctx_.types->IsPointerSlot(hdr.class_id, i)) continue;
      SHEAP_ASSIGN_OR_RETURN(uint64_t v, ctx_.mem->ReadWord(slot_addr));
      bool changed;
      SHEAP_ASSIGN_OR_RETURN(uint64_t nv, TranslateValue(v, &changed));
      if (changed) {
        updates.emplace_back(WordInPage(slot_addr), nv);
      }
    }
    obj += hdr.TotalWords() * kWordSizeBytes;
  }

  if (opts_.durability == GcDurability::kWriteAheadLog) {
    // Scan step (§3.4.2): log the translations, then apply them under the
    // record's LSN. Redo re-applies; analysis re-marks the page scanned
    // (and replays the copy-pointer bump for trap scans).
    LogRecord rec;
    rec.type = RecordType::kGcScan;
    rec.aux = bumped ? LogRecord::kScanBumped : 0;
    rec.page = page_base / kPageSizeBytes;
    rec.slot_updates = updates;
    const Lsn lsn = ctx_.log->Append(&rec);
    for (const auto& [word, value] : updates) {
      SHEAP_RETURN_IF_ERROR(ctx_.mem->WriteWordLogged(
          page_base + static_cast<HeapAddr>(word) * kWordSizeBytes, value,
          lsn));
    }
  } else {
    for (const auto& [word, value] : updates) {
      SHEAP_RETURN_IF_ERROR(ctx_.mem->WriteWordUnlogged(
          page_base + static_cast<HeapAddr>(word) * kWordSizeBytes, value));
    }
    DetlefsMark(page_base, kPageSizeBytes);
    SHEAP_RETURN_IF_ERROR(DetlefsFlushStep());
  }
  scanned_.Set(idx);
  HwUnprotectPages(idx, 1);
  ++stats_.pages_scanned;
  ctx_.clock->ChargeScanWords(kWordsPerPage);
  return Status::OK();
}

Status AtomicGc::TranslateRootsAtFlip() {
  // 1. The distinguished root array.
  SHEAP_ASSIGN_OR_RETURN(root_object_, ResolveAndCopy(root_object_));
  LogRecord root_rec;
  root_rec.type = RecordType::kRootObject;
  root_rec.addr = root_object_;
  ctx_.log->Append(&root_rec);

  // 2. Mutator handles (registers/stacks/own variables, §3.2.1). Volatile
  //    roots: translated in memory only.
  Status handle_status = Status::OK();
  ctx_.handles->ForEachLive([&](HeapAddr* slot) {
    if (!handle_status.ok() || !InFromSpace(*slot)) return;
    auto copied = CopyObject(*slot);
    if (!copied.ok()) {
      handle_status = copied.status();
      return;
    }
    *slot = *copied;
  });
  SHEAP_RETURN_IF_ERROR(handle_status);

  // 3. Locked objects: the lock tables name objects by address; copying
  //    rekeys them (CopyObject calls LockManager::Rekey).
  for (HeapAddr a : ctx_.locks->LockedAddresses()) {
    if (InFromSpace(a)) {
      SHEAP_RETURN_IF_ERROR(CopyObject(a).status());
    }
  }

  // 4. Undo roots (§3.5.2, §4.2.1): every object named by active
  //    transactions' recovery information is copied now, its relocation
  //    logged as a UTR so crash recovery can translate undo addresses and
  //    undo pointer values. In-memory undo info is rewritten in place so
  //    normal abort needs no translation.
  std::vector<UtrEntry> utrs;
  std::unordered_set<HeapAddr> seen;
  std::vector<TxnId> active_ids;
  auto translate_object = [&](HeapAddr base) -> StatusOr<HeapAddr> {
    if (!InFromSpace(base)) return base;
    SHEAP_ASSIGN_OR_RETURN(uint64_t w, ctx_.mem->ReadWord(base));
    HeapAddr to;
    uint64_t total;
    if (IsForwardWord(w)) {
      to = ForwardTarget(w);
      SHEAP_ASSIGN_OR_RETURN(ObjectHeader hdr, ctx_.mem->ReadHeader(to));
      total = hdr.TotalWords();
    } else {
      const ObjectHeader hdr = DecodeHeader(w);
      total = hdr.TotalWords();
      SHEAP_ASSIGN_OR_RETURN(to, CopyObject(base));
    }
    if (seen.insert(base).second) {
      utrs.push_back(UtrEntry{base, to, total});
    }
    return to;
  };

  for (Txn* txn : ctx_.txns->ActiveTxns()) {
    active_ids.push_back(txn->id);
    for (TxnUpdate& e : txn->updates) {
      SHEAP_ASSIGN_OR_RETURN(e.obj_base, translate_object(e.obj_base));
      if (e.is_pointer) {
        if (InFromSpace(e.old_word)) {
          SHEAP_ASSIGN_OR_RETURN(e.old_word, translate_object(e.old_word));
        }
        if (InFromSpace(e.new_word)) {
          SHEAP_ASSIGN_OR_RETURN(e.new_word, translate_object(e.new_word));
        }
      }
    }
    for (TxnAlloc& a : txn->allocs) {
      if (InFromSpace(a.base)) {
        SHEAP_ASSIGN_OR_RETURN(a.base, translate_object(a.base));
      }
    }
  }

  if (!utrs.empty()) {
    LogRecord utr_rec;
    utr_rec.type = RecordType::kUtr;
    utr_rec.utr_entries = utrs;
    ctx_.log->Append(&utr_rec);
    // Crash window: undo roots copied (kGcCopy records ahead of this UTR
    // in the log) but the batched translation record may still be lost.
    SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.utr.logged");
  }
  // The table also keeps batches alive until their transactions end even if
  // empty; skip empty batches.
  ctx_.utt->AddBatch(utrs, active_ids);

  // 5. External roots: the volatile area and any other caller state (§5.4).
  if (extra_roots) {
    SHEAP_RETURN_IF_ERROR(extra_roots(
        [this](HeapAddr v) -> StatusOr<HeapAddr> {
          if (!InFromSpace(v)) return v;
          return CopyObject(v);
        }));
  }
  return Status::OK();
}

Status AtomicGc::Flip() {
  // The flip rewrites every root in place; no mutator may be mid-action.
  SHEAP_DCHECK(gate_ == nullptr || gate_->ExclusiveHeldByCaller());
  if (sem_.collecting()) {
    return Status::InvalidArgument("collection already in progress");
  }
  if (before_flip) {
    SHEAP_RETURN_IF_ERROR(before_flip());
  }
  SimSpan span(ctx_.clock);
  ++stats_.collections_started;

  const Space* old = CurrentSpace();
  const uint64_t npages = std::max(opts_.space_pages, old->npages);
  SHEAP_ASSIGN_OR_RETURN(SpaceId to_id,
                         ctx_.spaces->Allocate(npages, Area::kStable));
  const Space* to = ctx_.spaces->Find(to_id);

  LogRecord rec;
  rec.type = RecordType::kGcFlip;
  rec.aux = static_cast<uint64_t>(Area::kStable);
  rec.addr = sem_.current;  // becomes from-space
  rec.addr2 = to_id;
  ctx_.log->Append(&rec);
  // Crash window: the flip record is spooled (possibly lost with the
  // buffer) and no root has been translated yet.
  SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.flip.logged");

  sem_.from = sem_.current;
  sem_.current = to_id;
  sem_.copy_ptr = to->base();
  sem_.alloc_ptr = to->end();
  scanned_.Resize(to->npages);
  scanned_.ClearAll();  // every to-space page protected (Figure 3.2)
  HwProtectCurrentSpace();  // mirror the protection in the MMU
  rb_cache_.fill(UINT64_MAX);  // new space: every cached page is stale
  scan_cursor_ = 0;
  lot_.assign(to->npages, kNullAddr);

  SHEAP_RETURN_IF_ERROR(TranslateRootsAtFlip());
  // Crash window: roots copied and logged, background scan not started.
  SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.flip.done");
  stats_.RecordPause(span.elapsed_ns());
  return Status::OK();
}

uint64_t AtomicGc::NextUnscannedPage() {
  // Prefer fully-copied pages (strictly below the copy frontier); return
  // the partially-filled frontier page only when it is the last unscanned
  // one, so the background scan can finish it Cheney-style without waste.
  const Space* cur = CurrentSpace();
  const uint64_t full_limit = (sem_.copy_ptr - cur->base()) / kPageSizeBytes;
  const uint64_t idx = scanned_.FindFirstUnset(scan_cursor_);
  stats_.scan_cursor_steps += (idx >> 6) - (scan_cursor_ >> 6) + 1;
  scan_cursor_ = idx;  // everything below the first unset bit is scanned
  if (idx < full_limit) return idx;
  if (sem_.copy_ptr % kPageSizeBytes != 0 && !scanned_.Get(full_limit) &&
      lot_[full_limit] != kNullAddr) {
    return full_limit;
  }
  return cur->npages;
}

StatusOr<bool> AtomicGc::Step(uint64_t max_pages) {
  // Scan rounds copy objects and rewrite slots; handshake required.
  SHEAP_DCHECK(gate_ == nullptr || gate_->ExclusiveHeldByCaller());
  if (!sem_.collecting()) return false;
  SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.step.begin");
  SimSpan span(ctx_.clock);
  if (opts_.durability == GcDurability::kWriteAheadLog) {
    // Executor rounds (parallel scan + batched records). Runs for every
    // thread count — including 1 — so the log bytes never depend on the
    // configured parallelism.
    uint64_t remaining = max_pages;
    while (remaining > 0 && sem_.collecting()) {
      uint64_t done = 0;
      SHEAP_RETURN_IF_ERROR(executor_->RunRound(remaining, &done));
      if (done == 0) {
        // No fully-copied page left: finish the frontier page Cheney-style
        // or complete the collection.
        const uint64_t idx = NextUnscannedPage();
        if (idx == CurrentSpace()->npages) {
          SHEAP_RETURN_IF_ERROR(Complete());
          break;
        }
        SHEAP_RETURN_IF_ERROR(ScanPage(idx, /*abandon_tail=*/false));
        --remaining;
        continue;
      }
      remaining -= std::min<uint64_t>(done, remaining);
    }
  } else {
    for (uint64_t i = 0; i < max_pages; ++i) {
      const uint64_t idx = NextUnscannedPage();
      if (idx == CurrentSpace()->npages) {
        SHEAP_RETURN_IF_ERROR(Complete());
        break;
      }
      SHEAP_RETURN_IF_ERROR(ScanPage(idx, /*abandon_tail=*/false));
    }
  }
  stats_.RecordPause(span.elapsed_ns());
  return sem_.collecting();
}

Status AtomicGc::Complete() {
  SHEAP_CHECK(sem_.collecting());
  if (before_complete) {
    SHEAP_RETURN_IF_ERROR(before_complete());
  }
  LogRecord rec;
  rec.type = RecordType::kGcComplete;
  rec.aux = static_cast<uint64_t>(Area::kStable);
  rec.addr = sem_.from;
  ctx_.log->Append(&rec);
  // Crash window: completion spooled but from-space not yet freed — losing
  // the record resumes the collection; keeping it must free the space.
  SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.complete.logged");
  SHEAP_RETURN_IF_ERROR(ctx_.spaces->Free(sem_.from));
  sem_.from = kInvalidSpaceId;
  ++stats_.collections_completed;
  return Status::OK();
}

Status AtomicGc::FinishCollection() {
  while (sem_.collecting()) {
    SHEAP_RETURN_IF_ERROR(Step(16).status());
  }
  return Status::OK();
}

Status AtomicGc::CollectFully() {
  SHEAP_DCHECK(gate_ == nullptr || gate_->ExclusiveHeldByCaller());
  SimSpan span(ctx_.clock);
  if (!sem_.collecting()) {
    SHEAP_RETURN_IF_ERROR(Flip());
  }
  SHEAP_RETURN_IF_ERROR(FinishCollection());
  stats_.RecordPause(span.elapsed_ns());
  return Status::OK();
}

void AtomicGc::InstallRecovered(RecoveredState rs) {
  sem_ = rs.sem;
  root_object_ = rs.root_object;
  rb_cache_.fill(UINT64_MAX);
  scan_cursor_ = 0;
  const Space* cur = CurrentSpace();
  scanned_.Resize(cur->npages);
  if (sem_.collecting()) {
    for (uint64_t i = 0; i < cur->npages && i < rs.scanned.size(); ++i) {
      scanned_.Assign(i, rs.scanned[i] != 0);
    }
    // Allocation-region pages are born scanned; re-mark them (the scan
    // bitmap in the log/checkpoint only tracks scan records).
    for (HeapAddr a = sem_.alloc_ptr; a < cur->end(); a += kPageSizeBytes) {
      scanned_.Set(PageIndexOf(a));
    }
  } else {
    scanned_.SetAll();
  }
  lot_ = std::move(rs.lot);
  lot_.resize(cur->npages, kNullAddr);
  HwSyncToBitmap();
}

Status AtomicGc::ResumeAfterRecovery() {
  if (!sem_.collecting() || !InFromSpace(root_object_)) return Status::OK();
  SHEAP_ASSIGN_OR_RETURN(root_object_, CopyObject(root_object_));
  LogRecord rec;
  rec.type = RecordType::kRootObject;
  rec.addr = root_object_;
  ctx_.log->Append(&rec);
  return Status::OK();
}

void AtomicGc::EncodeTo(Encoder* enc) const {
  enc->PutVarint(sem_.current);
  enc->PutVarint(sem_.from);
  enc->PutVarint(sem_.copy_ptr);
  enc->PutVarint(sem_.alloc_ptr);
  enc->PutVarint(root_object_);
  enc->PutVarint(scanned_.size());
  for (size_t i = 0; i < scanned_.size(); ++i) {
    enc->PutU8(scanned_.Get(i) ? 1 : 0);
  }
  enc->PutVarint(lot_.size());
  for (HeapAddr a : lot_) enc->PutVarint(a);
}

Status AtomicGc::DecodeInto(Decoder* dec, RecoveredState* rs) {
  uint64_t current, from, nscanned, nlot;
  if (!dec->GetVarint(&current) || !dec->GetVarint(&from) ||
      !dec->GetVarint(&rs->sem.copy_ptr) ||
      !dec->GetVarint(&rs->sem.alloc_ptr) ||
      !dec->GetVarint(&rs->root_object) || !dec->GetVarint(&nscanned)) {
    return Status::Corruption("bad gc state");
  }
  rs->sem.current = static_cast<SpaceId>(current);
  rs->sem.from = static_cast<SpaceId>(from);
  rs->scanned.resize(nscanned);
  for (uint64_t i = 0; i < nscanned; ++i) {
    uint8_t b;
    if (!dec->GetU8(&b)) return Status::Corruption("bad scan bitmap");
    rs->scanned[i] = b;
  }
  if (!dec->GetVarint(&nlot)) return Status::Corruption("bad lot");
  rs->lot.resize(nlot);
  for (uint64_t i = 0; i < nlot; ++i) {
    if (!dec->GetVarint(&rs->lot[i])) return Status::Corruption("bad lot");
  }
  return Status::OK();
}

}  // namespace sheap
