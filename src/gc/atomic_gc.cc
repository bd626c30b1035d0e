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
  const Space* sp = ctx_.spaces->Find(state_.sem.current);
  SHEAP_CHECK(sp != nullptr);
  return sp;
}

const Space* AtomicGc::FromSpace() const {
  const Space* sp = ctx_.spaces->Find(state_.sem.from);
  SHEAP_CHECK(sp != nullptr);
  return sp;
}

bool AtomicGc::InFromSpace(HeapAddr a) const {
  if (!state_.sem.collecting() || a == kNullAddr) return false;
  return FromSpace()->Contains(a);
}

bool AtomicGc::InCurrentSpace(HeapAddr a) const {
  if (state_.sem.current == kInvalidSpaceId || a == kNullAddr) return false;
  return CurrentSpace()->Contains(a);
}

uint64_t AtomicGc::PageIndexOf(HeapAddr a) const {
  const Space* cur = CurrentSpace();
  SHEAP_DCHECK(a >= cur->base() && a <= cur->end());
  return (a - cur->base()) / kPageSizeBytes;
}

bool AtomicGc::PageScanned(HeapAddr a) const {
  if (!state_.sem.collecting()) return true;
  if (!InCurrentSpace(a)) return true;
  return state_.scanned.Get(PageIndexOf(a));
}

Status AtomicGc::Format() {
  SHEAP_CHECK(state_.sem.current == kInvalidSpaceId);
  SHEAP_ASSIGN_OR_RETURN(SpaceId id,
                         ctx_.spaces->Allocate(opts_.space_pages,
                                               Area::kStable));
  const Space* sp = ctx_.spaces->Find(id);
  state_.Flip(kInvalidSpaceId, *sp);
  HwUnprotectPages(0, sp->npages);

  // A degenerate flip record (no from-space) tells recovery analysis which
  // space is current and where its pointers start.
  LogRecord flip;
  flip.type = RecordType::kGcFlip;
  flip.aux = static_cast<uint64_t>(Area::kStable);
  flip.addr = kInvalidSpaceId;
  flip.addr2 = id;
  ctx_.log->Append(&flip);

  SHEAP_ASSIGN_OR_RETURN(
      state_.root_object,
      AllocateObject(nullptr, kClassPtrArray, opts_.root_slots));
  LogRecord rec;
  rec.type = RecordType::kRootObject;
  rec.addr = state_.root_object;
  ctx_.log->Append(&rec);
  return Status::OK();
}

StatusOr<HeapAddr> AtomicGc::AllocateObject(Txn* txn, ClassId cls,
                                            uint64_t nslots) {
  const uint64_t nbytes = (1 + nslots) * kWordSizeBytes;
  SHEAP_ASSIGN_OR_RETURN(const HeapAddr base,
                         Reserve(nbytes, /*page_isolated=*/false));

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
  ApplyAllocation(base, nbytes);
  return base;
}

void AtomicGc::ApplyAllocation(HeapAddr base, uint64_t nbytes) {
  const auto [first, count] = state_.Allocate(*CurrentSpace(), base, nbytes);
  HwUnprotectPages(first, count);
}

Status AtomicGc::EnsureAccess(HeapAddr a) {
  if (!state_.sem.collecting() || a == kNullAddr) return Status::OK();
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
    if (!state_.scanned.Get(idx)) {
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
  if (!state_.sem.collecting()) return Status::OK();
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
  SHEAP_ASSIGN_OR_RETURN(HeapAddr nv, PlanCopy(v));
  SHEAP_RETURN_IF_ERROR(CommitCopies());
  if (opts_.durability == GcDurability::kWriteAheadLog) {
    LogRecord& rec = scan_rec_;
    rec.type = RecordType::kGcScan;
    rec.aux = LogRecord::kScanPartial;
    rec.page = PageOf(slot_addr);
    rec.slot_updates.assign(1, {WordInPage(slot_addr), nv});
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

size_t AtomicGc::PlanSlot(HeapAddr from) const {
  const size_t mask = plan_table_.size() - 1;
  size_t slot = static_cast<size_t>(((from >> 3) * 0x9E3779B97F4A7C15ull) >>
                                    32) & mask;
  while (plan_table_[slot].first != kNullAddr &&
         plan_table_[slot].first != from) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

StatusOr<HeapAddr> AtomicGc::PlanCopy(HeapAddr v) {
  if (!InFromSpace(v)) return v;
  if (2 * (plan_used_.size() + 1) > plan_table_.size()) {
    // Keep the load factor at most 1/2; the grown table is kept.
    std::vector<std::pair<HeapAddr, HeapAddr>> old(
        std::max<size_t>(64, 2 * plan_table_.size()));
    old.swap(plan_table_);
    for (size_t& slot : plan_used_) {
      const auto entry = old[slot];
      slot = PlanSlot(entry.first);
      plan_table_[slot] = entry;
    }
  }
  const size_t slot = PlanSlot(v);
  if (plan_table_[slot].first == v) return plan_table_[slot].second;
  auto w = ctx_.mem->ReadWord(v);
  if (!w.ok()) return EndCopyBatch(w.status());
  HeapAddr to;
  if (IsForwardWord(*w)) {
    to = ForwardTarget(*w);
  } else if (!IsHeaderWord(*w)) {
    return EndCopyBatch(Status::Corruption("copy source is not an object"));
  } else {
    const uint64_t total = DecodeHeader(*w).TotalWords();
    const uint64_t nbytes = total * kWordSizeBytes;
    const size_t off = copy_batch_.contents.size();
    to = state_.sem.copy_ptr + off;
    if (to + nbytes > RoundDownToPage(state_.sem.alloc_ptr)) {
      return EndCopyBatch(
          Status::OutOfSpace("to-space exhausted during copy"));
    }
    copy_batch_.contents.resize(off + nbytes);
    Status st =
        ctx_.mem->ReadBytes(v, nbytes, copy_batch_.contents.data() + off);
    if (!st.ok()) return EndCopyBatch(std::move(st));
    copy_batch_.utr_entries.push_back(UtrEntry{v, to, total});
  }
  plan_table_[slot] = {v, to};
  plan_used_.push_back(slot);
  return to;
}

Status AtomicGc::PlanTranslations(SlotUpdates* slots, size_t first) {
  for (size_t i = first; i < slots->size(); ++i) {
    SHEAP_ASSIGN_OR_RETURN((*slots)[i].second, PlanCopy((*slots)[i].second));
  }
  return Status::OK();
}

Status AtomicGc::CommitCopies() {
  LogRecord& batch = copy_batch_;
  if (batch.utr_entries.empty()) return EndCopyBatch(Status::OK());
  const HeapAddr base = state_.sem.copy_ptr;
  const uint64_t nbytes = batch.contents.size();
  Status st;
  if (opts_.durability == GcDurability::kWriteAheadLog) {
    // Copy step (§3.4.1): log the batch, then write the copies and their
    // forwarding words under its LSN. Redo is self-contained: the contents
    // travel in the log.
    batch.type = RecordType::kGcCopyBatch;
    batch.addr2 = base;
    const Lsn lsn = ctx_.log->Append(&batch);
    st = ctx_.mem->WriteBytesLogged(base, batch.contents.data(), nbytes, lsn);
    for (size_t i = 0; st.ok() && i < batch.utr_entries.size(); ++i) {
      const UtrEntry& e = batch.utr_entries[i];
      st = ctx_.mem->WriteWordLogged(e.from, MakeForwardWord(e.to), lsn);
    }
    ++stats_.copy_batch_records;
    stats_.copy_batch_objects += batch.utr_entries.size();
  } else {
    // Detlefs comparator: no logging; the step's consistency comes from
    // synchronous random writes of every page it touched.
    st = ctx_.mem->WriteBytesUnlogged(base, batch.contents.data(), nbytes);
    DetlefsMark(base, nbytes);
    for (size_t i = 0; st.ok() && i < batch.utr_entries.size(); ++i) {
      const UtrEntry& e = batch.utr_entries[i];
      st = ctx_.mem->WriteWordUnlogged(e.from, MakeForwardWord(e.to));
      DetlefsMark(e.from, kWordSizeBytes);
    }
  }
  if (!st.ok()) return EndCopyBatch(std::move(st));
  state_.CommitCopies(*CurrentSpace(), batch.utr_entries);
  for (const UtrEntry& e : batch.utr_entries) {
    ++stats_.objects_copied;
    stats_.words_copied += e.nwords;
    ctx_.clock->ChargeCopyWords(e.nwords);
    // The lock is on the object, not the address.
    ctx_.locks->Rekey(e.from, e.to);
    if (on_object_moved) on_object_moved(e.from, e.to, e.nwords);
  }
  return EndCopyBatch(Status::OK());
}

Status AtomicGc::EndCopyBatch(Status st) {
  for (size_t slot : plan_used_) plan_table_[slot] = {kNullAddr, kNullAddr};
  plan_used_.clear();
  copy_batch_.contents.clear();
  copy_batch_.utr_entries.clear();
  return st;
}

Status AtomicGc::RelocateRootObject() {
  SHEAP_ASSIGN_OR_RETURN(state_.root_object, PlanCopy(state_.root_object));
  SHEAP_RETURN_IF_ERROR(CommitCopies());
  LogRecord rec;
  rec.type = RecordType::kRootObject;
  rec.addr = state_.root_object;
  ctx_.log->Append(&rec);
  return Status::OK();
}

StatusOr<HeapAddr> AtomicGc::AllocateForPromotion(uint64_t total_words,
                                                  bool page_isolated) {
  const uint64_t nbytes = total_words * kWordSizeBytes;
  SHEAP_ASSIGN_OR_RETURN(const HeapAddr base, Reserve(nbytes, page_isolated));
  ApplyAllocation(base, nbytes);
  return base;
}

StatusOr<HeapAddr> AtomicGc::Reserve(uint64_t nbytes, bool page_isolated) {
  SemiSpaceState& sem = state_.sem;
  if (page_isolated != alloc_isolation_) {
    sem.alloc_ptr = RoundDownToPage(sem.alloc_ptr);
    alloc_isolation_ = page_isolated;
  }
  if (nbytes > sem.alloc_ptr ||
      RoundDownToPage(sem.alloc_ptr - nbytes) < RoundUpToPage(sem.copy_ptr)) {
    return Status::OutOfSpace("stable area allocation would overrun");
  }
  return sem.alloc_ptr - nbytes;
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
    const bool scanned = state_.scanned.Get(i);
    uint64_t j = i + 1;
    while (j < cur->npages && state_.scanned.Get(j) == scanned) ++j;
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

HeapAddr AtomicGc::WalkPage(const PageImage& frame, HeapAddr page_base,
                            HeapAddr obj, uint64_t header, HeapAddr limit,
                            SlotUpdates* out) const {
  const Space* from = FromSpace();
  const HeapAddr page_end = page_base + kPageSizeBytes;
  uint64_t w = header;
  while (obj < page_end && obj < limit) {
    // Abandoned tail of an earlier trap bump: nothing live follows.
    if (!IsHeaderWord(w)) return page_end;
    const ObjectHeader hdr = DecodeHeader(w);
    for (uint64_t i = 0; i < hdr.nslots; ++i) {
      const HeapAddr slot_addr = SlotAddr(obj, i);
      if (slot_addr < page_base) continue;
      if (slot_addr >= page_end) break;
      if (!ctx_.types->IsPointerSlot(hdr.class_id, i)) continue;
      const uint64_t v = frame.ReadWord(WordInPage(slot_addr));
      if (v != kNullAddr && from->Contains(v)) {
        out->emplace_back(WordInPage(slot_addr), v);
      }
    }
    obj += hdr.TotalWords() * kWordSizeBytes;
    if (obj < page_end && obj < limit) w = frame.ReadWord(WordInPage(obj));
  }
  return obj;
}

Status AtomicGc::ScanPage(uint64_t idx, bool abandon_tail) {
  SHEAP_CHECK(state_.sem.collecting());
  SHEAP_CHECK(!state_.scanned.Get(idx));
  const Space* cur = CurrentSpace();
  const HeapAddr page_base = cur->base() + idx * kPageSizeBytes;
  const HeapAddr page_end = page_base + kPageSizeBytes;

  // Trap path: the mutator needs this page now, so copies triggered by
  // this scan must not land on it — abandon the tail (the AEL waste).
  const uint64_t wasted = abandon_tail ? state_.AbandonTail(page_base) : 0;
  stats_.waste_words += wasted;

  const HeapAddr anchor = state_.lot[idx];
  if (anchor == kNullAddr) {
    // No copied data covers this page (empty or allocation region).
    state_.MarkScanned(idx, 1);
    HwUnprotectPages(idx, 1);
    return Status::OK();
  }

  // Walk the pinned page up to the copy pointer and commit one batch for
  // the referents it found. On the frontier page (no bump) that batch may
  // land on this very page, so the walk continues into it — a per-page
  // Cheney scan — until it reaches the copy pointer or the page end. The
  // caller only no-bump-scans the frontier page when it is the last
  // unscanned one, so nothing can be copied here afterwards. After a
  // trap's bump every copy lands past the page: one pass.
  SHEAP_ASSIGN_OR_RETURN(uint64_t header, ctx_.mem->ReadWord(anchor));
  const PageId pid = PageOf(page_base);
  SHEAP_ASSIGN_OR_RETURN(PageImage* frame, ctx_.pool->Pin(pid));
  SlotUpdates& updates = scan_rec_.slot_updates;
  updates.clear();
  auto walk = [&]() -> Status {
    const HeapAddr& copy_ptr = state_.sem.copy_ptr;  // grows per batch
    HeapAddr obj = anchor;
    while (obj < page_end && obj < copy_ptr) {
      const size_t first = updates.size();
      obj = WalkPage(*frame, page_base, obj, header, copy_ptr, &updates);
      SHEAP_RETURN_IF_ERROR(PlanTranslations(&updates, first));
      SHEAP_RETURN_IF_ERROR(CommitCopies());
      if (obj < page_end && obj < copy_ptr) {
        header = frame->ReadWord(WordInPage(obj));
      }
    }
    return Status::OK();
  };
  const Status walked = walk();
  ctx_.pool->Unpin(pid);
  SHEAP_RETURN_IF_ERROR(walked);

  if (opts_.durability == GcDurability::kWriteAheadLog) {
    // Scan step (§3.4.2): log the translations, then apply them under the
    // record's LSN. Redo re-applies; analysis replays the same scan rule
    // (State::AbandonTail for a trap's bump, then MarkScanned).
    scan_rec_.type = RecordType::kGcScan;
    scan_rec_.aux = wasted != 0 ? LogRecord::kScanBumped : 0;
    scan_rec_.page = pid;
    const Lsn lsn = ctx_.log->Append(&scan_rec_);
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
  state_.MarkScanned(idx, 1);
  HwUnprotectPages(idx, 1);
  ++stats_.pages_scanned;
  ctx_.clock->ChargeScanWords(kWordsPerPage);
  return Status::OK();
}

Status AtomicGc::TranslateRootsAtFlip() {
  // Every root goes through the copy planner. No record may name a
  // to-space address ahead of the batch that creates it, so each batch is
  // committed before the record that names its copies.
  // 1. The distinguished root array, ahead of its kRootObject record.
  SHEAP_RETURN_IF_ERROR(RelocateRootObject());

  // 2. Mutator handles (registers/stacks/own variables, §3.2.1). Volatile
  //    roots: translated in memory only.
  Status handle_status = Status::OK();
  ctx_.handles->ForEachLive([&](HeapAddr* slot) {
    if (!handle_status.ok()) return;
    auto to = PlanCopy(*slot);
    if (!to.ok()) {
      handle_status = to.status();
      return;
    }
    *slot = *to;
  });
  SHEAP_RETURN_IF_ERROR(handle_status);

  // 3. Locked objects: the lock tables name objects by address; committing
  //    their copies rekeys them (CommitCopies calls LockManager::Rekey).
  for (HeapAddr a : ctx_.locks->LockedAddresses()) {
    SHEAP_RETURN_IF_ERROR(PlanCopy(a).status());
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
      SHEAP_ASSIGN_OR_RETURN(to, PlanCopy(base));
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

  // The handles', locks' and undo roots' copies: one batch, ahead of the
  // kUtr that names them.
  SHEAP_RETURN_IF_ERROR(CommitCopies());
  if (!utrs.empty()) {
    LogRecord utr_rec;
    utr_rec.type = RecordType::kUtr;
    utr_rec.utr_entries = utrs;
    ctx_.log->Append(&utr_rec);
    // Crash window: undo roots copied (their kGcCopyBatch ahead of this
    // UTR in the log) but the batched translation record may still be lost.
    SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.utr.logged");
  }
  // The table also keeps batches alive until their transactions end even if
  // empty; skip empty batches.
  ctx_.utt->AddBatch(utrs, active_ids);

  // 5. External roots: the volatile area and any other caller state (§5.4).
  if (extra_roots) {
    SHEAP_RETURN_IF_ERROR(
        extra_roots([this](HeapAddr v) { return PlanCopy(v); }));
  }
  return CommitCopies();
}

Status AtomicGc::Flip() {
  // The flip rewrites every root in place; no mutator may be mid-action.
  SHEAP_DCHECK(gate_ == nullptr || gate_->ExclusiveHeldByCaller());
  if (state_.sem.collecting()) {
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
  rec.addr = state_.sem.current;  // becomes from-space
  rec.addr2 = to_id;
  ctx_.log->Append(&rec);
  // Crash window: the flip record is spooled (possibly lost with the
  // buffer) and no root has been translated yet.
  SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.flip.logged");

  // Every to-space page protected (Figure 3.2), in the MMU mirror too.
  state_.Flip(state_.sem.current, *to);
  HwProtectCurrentSpace();
  rb_cache_.fill(UINT64_MAX);  // new space: every cached page is stale
  scan_cursor_ = 0;

  // A root translation that fails part-way must not leave a batch open.
  SHEAP_RETURN_IF_ERROR(EndCopyBatch(TranslateRootsAtFlip()));
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
  const HeapAddr copy_ptr = state_.sem.copy_ptr;
  const uint64_t full_limit = (copy_ptr - cur->base()) / kPageSizeBytes;
  const uint64_t idx = state_.scanned.FindFirstUnset(scan_cursor_);
  stats_.scan_cursor_steps += (idx >> 6) - (scan_cursor_ >> 6) + 1;
  scan_cursor_ = idx;  // everything below the first unset bit is scanned
  if (idx < full_limit) return idx;
  if (copy_ptr % kPageSizeBytes != 0 && !state_.scanned.Get(full_limit) &&
      state_.lot[full_limit] != kNullAddr) {
    return full_limit;
  }
  return cur->npages;
}

StatusOr<bool> AtomicGc::Step(uint64_t max_pages) {
  // Scan rounds copy objects and rewrite slots; handshake required.
  SHEAP_DCHECK(gate_ == nullptr || gate_->ExclusiveHeldByCaller());
  if (!state_.sem.collecting()) return false;
  SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.step.begin");
  SimSpan span(ctx_.clock);
  if (opts_.durability == GcDurability::kWriteAheadLog) {
    // Executor rounds (parallel scan + batched records). Runs for every
    // thread count — including 1 — so the log bytes never depend on the
    // configured parallelism.
    uint64_t remaining = max_pages;
    while (remaining > 0 && state_.sem.collecting()) {
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
  return state_.sem.collecting();
}

Status AtomicGc::Complete() {
  SHEAP_CHECK(state_.sem.collecting());
  if (before_complete) {
    SHEAP_RETURN_IF_ERROR(before_complete());
  }
  LogRecord rec;
  rec.type = RecordType::kGcComplete;
  rec.aux = static_cast<uint64_t>(Area::kStable);
  rec.addr = state_.sem.from;
  ctx_.log->Append(&rec);
  // Crash window: completion spooled but from-space not yet freed — losing
  // the record resumes the collection; keeping it must free the space.
  SHEAP_FAULT_POINT(ctx_.log->faults(), "gc.complete.logged");
  SHEAP_RETURN_IF_ERROR(ctx_.spaces->Free(state_.sem.from));
  state_.Complete();
  ++stats_.collections_completed;
  return Status::OK();
}

Status AtomicGc::FinishCollection() {
  while (state_.sem.collecting()) {
    SHEAP_RETURN_IF_ERROR(Step(16).status());
  }
  return Status::OK();
}

Status AtomicGc::CollectFully() {
  SHEAP_DCHECK(gate_ == nullptr || gate_->ExclusiveHeldByCaller());
  SimSpan span(ctx_.clock);
  if (!state_.sem.collecting()) {
    SHEAP_RETURN_IF_ERROR(Flip());
  }
  SHEAP_RETURN_IF_ERROR(FinishCollection());
  stats_.RecordPause(span.elapsed_ns());
  return Status::OK();
}

void AtomicGc::InstallRecovered(State state) {
  state_ = std::move(state);
  // Outside a collection the bitmap means nothing (PageScanned answers
  // true); a reopened heap starts with every page marked, as a formatted
  // one does.
  if (!state_.sem.collecting()) state_.scanned.SetAll();
  rb_cache_.fill(UINT64_MAX);
  scan_cursor_ = 0;
  HwSyncToBitmap();
}

Status AtomicGc::ResumeAfterRecovery() {
  if (!collecting() || !InFromSpace(root_object())) return Status::OK();
  return RelocateRootObject();
}

// ------------------------------------------------------------------ State

void AtomicGc::State::Flip(SpaceId from, const Space& to) {
  sem.from = from;
  sem.current = to.id;
  sem.copy_ptr = to.base();
  sem.alloc_ptr = to.end();
  scanned.Resize(to.npages);
  if (!sem.collecting()) scanned.SetAll();
  lot.assign(to.npages, kNullAddr);
}

uint64_t AtomicGc::State::AbandonTail(HeapAddr page_base) {
  const HeapAddr page_end = page_base + kPageSizeBytes;
  if (sem.copy_ptr <= page_base || sem.copy_ptr >= page_end) return 0;
  const uint64_t wasted = (page_end - sem.copy_ptr) / kWordSizeBytes;
  sem.copy_ptr = page_end;
  return wasted;
}

void AtomicGc::State::MarkScanned(uint64_t first, uint64_t count) {
  for (uint64_t i = first; i < first + count && i < scanned.size(); ++i) {
    scanned.Set(i);
  }
}

void AtomicGc::State::CommitCopies(const Space& cur,
                                   const std::vector<UtrEntry>& copies) {
  for (const UtrEntry& e : copies) {
    // The copy covers the first word of every page whose start lies in
    // [e.to, end); it is that page's walk anchor.
    const HeapAddr end = e.to + e.nwords * kWordSizeBytes;
    for (HeapAddr p = RoundUpToPage(e.to); p < end; p += kPageSizeBytes) {
      lot[(p - cur.base()) / kPageSizeBytes] = e.to;
    }
    sem.copy_ptr = std::max(sem.copy_ptr, end);
  }
}

std::pair<uint64_t, uint64_t> AtomicGc::State::Allocate(const Space& cur,
                                                        HeapAddr base,
                                                        uint64_t nbytes) {
  sem.alloc_ptr = std::min(sem.alloc_ptr, base);
  const uint64_t first = (base - cur.base()) / kPageSizeBytes;
  const uint64_t count =
      (base + nbytes - 1 - cur.base()) / kPageSizeBytes - first + 1;
  MarkScanned(first, count);
  return {first, count};
}

void AtomicGc::State::Replay(const LogRecord& rec,
                             const SpaceManager& spaces) {
  if (rec.type == RecordType::kGcFlip) {
    const Space* to = spaces.Find(static_cast<SpaceId>(rec.addr2));
    SHEAP_CHECK(to != nullptr);
    Flip(static_cast<SpaceId>(rec.addr), *to);
    return;
  }
  const Space* cur = spaces.Find(sem.current);
  auto in_cur = [cur](HeapAddr a) {
    return cur != nullptr && cur->Contains(a);
  };
  switch (rec.type) {
    case RecordType::kGcScan: {
      const HeapAddr page_base = rec.page * kPageSizeBytes;
      if (rec.aux == LogRecord::kScanPartial || !in_cur(page_base)) return;
      if (rec.aux == LogRecord::kScanBumped) AbandonTail(page_base);
      MarkScanned((page_base - cur->base()) / kPageSizeBytes,
                  rec.aux == LogRecord::kScanRun ? rec.count : 1);
      return;
    }
    case RecordType::kGcCopyBatch:
      SHEAP_CHECK(cur != nullptr);
      CommitCopies(*cur, rec.utr_entries);
      return;
    case RecordType::kGcComplete:
      Complete();
      return;
    case RecordType::kRootObject:
      root_object = rec.addr;
      return;
    case RecordType::kAlloc:
    case RecordType::kV2sCopy:
    case RecordType::kInitialValue: {
      // A promoted copy is kV2sCopy's addr2 and a method-2 reservation
      // kInitialValue's addr; kAlloc counts slots, a promotion words.
      const HeapAddr base =
          rec.type == RecordType::kV2sCopy ? rec.addr2 : rec.addr;
      const uint64_t words =
          rec.type == RecordType::kAlloc ? 1 + rec.count : rec.count;
      if (in_cur(base)) Allocate(*cur, base, words * kWordSizeBytes);
      return;
    }
    default:
      return;
  }
}

void AtomicGc::State::EncodeTo(Encoder* enc) const {
  enc->PutVarint(sem.current);
  enc->PutVarint(sem.from);
  enc->PutVarint(sem.copy_ptr);
  enc->PutVarint(sem.alloc_ptr);
  enc->PutVarint(root_object);
  enc->PutVarint(scanned.size());
  for (size_t i = 0; i < scanned.size(); ++i) {
    enc->PutU8(scanned.Get(i) ? 1 : 0);
  }
  enc->PutVarint(lot.size());
  for (HeapAddr a : lot) enc->PutVarint(a);
}

Status AtomicGc::State::DecodeFrom(Decoder* dec) {
  uint64_t current, from, nscanned, nlot;
  if (!dec->GetVarint(&current) || !dec->GetVarint(&from) ||
      !dec->GetVarint(&sem.copy_ptr) || !dec->GetVarint(&sem.alloc_ptr) ||
      !dec->GetVarint(&root_object) || !dec->GetVarint(&nscanned)) {
    return Status::Corruption("bad gc state");
  }
  sem.current = static_cast<SpaceId>(current);
  sem.from = static_cast<SpaceId>(from);
  scanned.Resize(nscanned);
  for (uint64_t i = 0; i < nscanned; ++i) {
    uint8_t b;
    if (!dec->GetU8(&b)) return Status::Corruption("bad scan bitmap");
    scanned.Assign(i, b != 0);
  }
  if (!dec->GetVarint(&nlot)) return Status::Corruption("bad lot");
  lot.resize(nlot);
  for (uint64_t i = 0; i < nlot; ++i) {
    if (!dec->GetVarint(&lot[i])) return Status::Corruption("bad lot");
  }
  return Status::OK();
}

}  // namespace sheap
