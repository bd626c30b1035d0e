#include "gc/copying_gc.h"

#include <algorithm>

#include "common/check.h"

namespace sheap {

CopyingGc::CopyingGc(const GcContext& ctx, const Options& opts)
    : ctx_(ctx), opts_(opts) {
  SHEAP_CHECK(opts_.space_pages > 0);
}

const Space* CopyingGc::CurrentSpace() const {
  const Space* sp = ctx_.spaces->Find(sem_.current);
  SHEAP_CHECK(sp != nullptr);
  return sp;
}

bool CopyingGc::InFromSpace(HeapAddr a) const {
  if (!sem_.collecting() || a == kNullAddr) return false;
  const Space* sp = ctx_.spaces->Find(sem_.from);
  return sp != nullptr && sp->Contains(a);
}

bool CopyingGc::Contains(HeapAddr a) const {
  if (a == kNullAddr || sem_.current == kInvalidSpaceId) return false;
  if (CurrentSpace()->Contains(a)) return true;
  if (sem_.collecting()) {
    const Space* sp = ctx_.spaces->Find(sem_.from);
    if (sp != nullptr && sp->Contains(a)) return true;
  }
  return false;
}

Status CopyingGc::Format() {
  SHEAP_CHECK(sem_.current == kInvalidSpaceId);
  SHEAP_ASSIGN_OR_RETURN(
      SpaceId id, ctx_.spaces->Allocate(opts_.space_pages, Area::kVolatile));
  const Space* sp = ctx_.spaces->Find(id);
  sem_.current = id;
  sem_.from = kInvalidSpaceId;
  sem_.copy_ptr = sp->base();
  sem_.alloc_ptr = sp->end();
  return Status::OK();
}

StatusOr<HeapAddr> CopyingGc::AllocateObject(Txn* txn, ClassId cls,
                                             uint64_t nslots) {
  const uint64_t nbytes = (1 + nslots) * kWordSizeBytes;
  if (nbytes > sem_.alloc_ptr || sem_.alloc_ptr - nbytes < sem_.copy_ptr) {
    return Status::OutOfSpace("volatile area allocation would overrun");
  }
  const HeapAddr base = sem_.alloc_ptr - nbytes;
  SHEAP_RETURN_IF_ERROR(
      ctx_.mem->WriteWordUnlogged(base, EncodeHeader(cls, nslots)));
  sem_.alloc_ptr = base;
  if (txn != nullptr) {
    txn->allocs.push_back(TxnAlloc{base, /*stable_area=*/false});
  }
  return base;
}

StatusOr<HeapAddr> CopyingGc::ResolveHusk(HeapAddr a) const {
  if (!Contains(a)) return a;
  SHEAP_ASSIGN_OR_RETURN(uint64_t w, ctx_.mem->ReadWord(a));
  return IsForwardWord(w) ? ForwardTarget(w) : a;
}

StatusOr<HeapAddr> CopyingGc::CopyObject(HeapAddr from_base) {
  SHEAP_DCHECK(InFromSpace(from_base));
  SHEAP_ASSIGN_OR_RETURN(uint64_t w, ctx_.mem->ReadWord(from_base));
  if (IsForwardWord(w)) return ForwardTarget(w);
  if (!IsHeaderWord(w)) {
    return Status::Corruption("volatile copy source is not an object");
  }
  const ObjectHeader hdr = DecodeHeader(w);
  const uint64_t nbytes = hdr.TotalWords() * kWordSizeBytes;
  if (sem_.copy_ptr + nbytes > sem_.alloc_ptr) {
    return Status::OutOfSpace("volatile to-space exhausted");
  }
  const HeapAddr to_base = sem_.copy_ptr;
  std::vector<uint8_t> bytes(nbytes);
  SHEAP_RETURN_IF_ERROR(ctx_.mem->ReadBytes(from_base, nbytes, bytes.data()));
  SHEAP_RETURN_IF_ERROR(
      ctx_.mem->WriteBytesUnlogged(to_base, bytes.data(), nbytes));
  SHEAP_RETURN_IF_ERROR(
      ctx_.mem->WriteWordUnlogged(from_base, MakeForwardWord(to_base)));
  sem_.copy_ptr += nbytes;
  ++stats_.objects_copied;
  stats_.words_copied += hdr.TotalWords();
  ctx_.clock->ChargeCopyWords(hdr.TotalWords());
  ctx_.locks->Rekey(from_base, to_base);
  if (on_object_moved) on_object_moved(from_base, to_base, hdr.TotalWords());
  return to_base;
}

StatusOr<uint64_t> CopyingGc::TranslateValue(uint64_t v) {
  if (v == kNullAddr || !InFromSpace(v)) return v;
  return CopyObject(v);
}

Status CopyingGc::ScanCopied() {
  const Space* cur = CurrentSpace();
  HeapAddr scan = cur->base();
  while (scan < sem_.copy_ptr) {
    SHEAP_ASSIGN_OR_RETURN(ObjectHeader hdr, ctx_.mem->ReadHeader(scan));
    for (uint64_t i = 0; i < hdr.nslots; ++i) {
      if (!ctx_.types->IsPointerSlot(hdr.class_id, i)) continue;
      const HeapAddr slot_addr = SlotAddr(scan, i);
      SHEAP_ASSIGN_OR_RETURN(uint64_t v, ctx_.mem->ReadWord(slot_addr));
      SHEAP_ASSIGN_OR_RETURN(uint64_t nv, TranslateValue(v));
      if (nv != v) {
        SHEAP_RETURN_IF_ERROR(ctx_.mem->WriteWordUnlogged(slot_addr, nv));
      }
    }
    ctx_.clock->ChargeScanWords(hdr.TotalWords());
    scan += hdr.TotalWords() * kWordSizeBytes;
  }
  return Status::OK();
}

Status CopyingGc::Collect() {
  SHEAP_CHECK(!sem_.collecting());
  SimSpan span(ctx_.clock);
  ++stats_.collections_started;

  const Space* old = CurrentSpace();
  const uint64_t npages = std::max(opts_.space_pages, old->npages);
  SHEAP_ASSIGN_OR_RETURN(SpaceId to_id,
                         ctx_.spaces->Allocate(npages, Area::kVolatile));
  const Space* to = ctx_.spaces->Find(to_id);

  LogRecord rec;
  rec.type = RecordType::kVolatileFlip;
  rec.addr = sem_.current;
  rec.addr2 = to_id;
  ctx_.log->Append(&rec);

  sem_.from = sem_.current;
  sem_.current = to_id;
  sem_.copy_ptr = to->base();
  sem_.alloc_ptr = to->end();

  // Roots: handles, then caller-supplied roots (remembered set, in-memory
  // undo info, tracker sets).
  Status root_status = Status::OK();
  ctx_.handles->ForEachLive([&](HeapAddr* slot) {
    if (!root_status.ok() || !InFromSpace(*slot)) return;
    auto copied = CopyObject(*slot);
    if (!copied.ok()) {
      root_status = copied.status();
      return;
    }
    *slot = *copied;
  });
  SHEAP_RETURN_IF_ERROR(root_status);
  if (extra_roots) {
    SHEAP_RETURN_IF_ERROR(
        extra_roots([this](HeapAddr v) { return TranslateValue(v); }));
  }

  SHEAP_RETURN_IF_ERROR(ScanCopied());
  SHEAP_RETURN_IF_ERROR(ctx_.spaces->Free(sem_.from));
  sem_.from = kInvalidSpaceId;
  ++stats_.collections_completed;
  stats_.RecordPause(span.elapsed_ns());
  return Status::OK();
}

Status CopyingGc::ResetAfterCrash() {
  sem_ = SemiSpaceState();
  return Format();
}

Status CopyingGc::FixHusks(
    const std::function<StatusOr<HeapAddr>(HeapAddr)>& fix) {
  SHEAP_CHECK(!sem_.collecting());
  const Space* cur = CurrentSpace();
  auto walk = [&](HeapAddr start, HeapAddr limit) -> Status {
    for (HeapAddr a = start; a < limit;) {
      SHEAP_ASSIGN_OR_RETURN(uint64_t w, ctx_.mem->ReadWord(a));
      HeapAddr target = kNullAddr;
      uint64_t hw = w;
      while (IsForwardWord(hw)) {
        target = ForwardTarget(hw);
        SHEAP_ASSIGN_OR_RETURN(hw, ctx_.mem->ReadWord(target));
      }
      if (!IsHeaderWord(hw)) {
        return Status::Corruption("husk fixup hit a non-object word");
      }
      const ObjectHeader hdr = DecodeHeader(hw);
      if (IsForwardWord(w)) {
        SHEAP_ASSIGN_OR_RETURN(HeapAddr current, fix(target));
        if (current == kNullAddr) {
          // Target was garbage: nothing references this husk (the flip's
          // volatile scan rewrote every husk-valued slot). Give it a plain
          // header so walks still parse it; the next volatile collection
          // reclaims it.
          SHEAP_RETURN_IF_ERROR(ctx_.mem->WriteWordUnlogged(
              a, EncodeHeader(kClassDataArray, hdr.nslots)));
        } else if (current != ForwardTarget(w)) {
          SHEAP_RETURN_IF_ERROR(
              ctx_.mem->WriteWordUnlogged(a, MakeForwardWord(current)));
        }
      }
      a += hdr.TotalWords() * kWordSizeBytes;
    }
    return Status::OK();
  };
  SHEAP_RETURN_IF_ERROR(walk(cur->base(), sem_.copy_ptr));
  return walk(sem_.alloc_ptr, cur->end());
}

Status CopyingGc::ForEachObject(
    const std::function<Status(HeapAddr, const ObjectHeader&)>& f) {
  SHEAP_CHECK(!sem_.collecting());
  const Space* cur = CurrentSpace();
  // An object promoted to the stable area leaves a forwarding word in its
  // volatile copy (§5.2); such husks are skipped — the live copy is managed
  // by the stable collector. The forward target's header supplies the size
  // needed to continue the walk.
  auto walk = [&](HeapAddr start, HeapAddr limit) -> Status {
    for (HeapAddr a = start; a < limit;) {
      SHEAP_ASSIGN_OR_RETURN(uint64_t w, ctx_.mem->ReadWord(a));
      ObjectHeader hdr;
      const bool forwarded = IsForwardWord(w);
      // Follow the forwarding chain to a header: a husk's stable target may
      // itself have been forwarded by an in-progress stable collection.
      HeapAddr h = a;
      while (IsForwardWord(w)) {
        h = ForwardTarget(w);
        SHEAP_ASSIGN_OR_RETURN(w, ctx_.mem->ReadWord(h));
      }
      if (IsHeaderWord(w)) {
        hdr = DecodeHeader(w);
      } else {
        return Status::Corruption("volatile walk hit a non-object word");
      }
      if (!forwarded) {
        SHEAP_RETURN_IF_ERROR(f(a, hdr));
      }
      a += hdr.TotalWords() * kWordSizeBytes;
    }
    return Status::OK();
  };
  SHEAP_RETURN_IF_ERROR(walk(cur->base(), sem_.copy_ptr));
  return walk(sem_.alloc_ptr, cur->end());
}

}  // namespace sheap
