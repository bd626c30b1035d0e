#include "stability/tracker.h"

#include <vector>

#include "common/check.h"
#include "heap/object.h"

namespace sheap {

Status StabilityTracker::OnPointerWrite(const Txn& txn, HeapAddr dst_base,
                                        HeapAddr value,
                                        bool dst_in_stable_area) {
  if (!volatile_gc_->Contains(value)) return Status::OK();
  // Tracking is needed when the destination is stable or likely stable:
  // the store makes `value`'s closure reachable from (likely) stable state.
  if (!dst_in_stable_area && !ls_->Contains(dst_base)) return Status::OK();
  ++stats_.invocations;
  return Track(txn.id, value);
}

Status StabilityTracker::Track(TxnId txn, HeapAddr v) {
  std::vector<HeapAddr> worklist{v};
  while (!worklist.empty()) {
    HeapAddr obj = worklist.back();
    worklist.pop_back();
    if (!volatile_gc_->Contains(obj)) continue;
    SHEAP_ASSIGN_OR_RETURN(HeapAddr resolved,
                           volatile_gc_->ResolveHusk(obj));
    if (resolved != obj) continue;  // already promoted: actually stable
    if (!ls_->Add(obj, txn)) continue;  // already tracked for this txn
    ++stats_.objects_entered_ls;
    SHEAP_ASSIGN_OR_RETURN(ObjectHeader hdr, mem_->ReadHeader(obj));
    stats_.traversal_words += hdr.TotalWords();
    clock_->ChargeScanWords(hdr.TotalWords());
    for (uint64_t i = 0; i < hdr.nslots; ++i) {
      if (!types_->IsPointerSlot(hdr.class_id, i)) continue;
      SHEAP_ASSIGN_OR_RETURN(uint64_t slot_v,
                             mem_->ReadWord(SlotAddr(obj, i)));
      if (volatile_gc_->Contains(slot_v)) worklist.push_back(slot_v);
    }
  }
  return Status::OK();
}

}  // namespace sheap
