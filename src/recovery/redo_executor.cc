#include "recovery/redo_executor.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "heap/address.h"
#include "heap/object.h"

namespace sheap {

namespace {

/// Calls fn(addr, bytes, n) for every byte range `rec`'s redo writes, in
/// record order. The bytes live until fn returns.
template <typename Fn>
void ForEachWrite(const LogRecord& rec, Fn&& fn) {
  // Little-endian host: a word's value bytes are its memory bytes.
  auto word = [&fn](HeapAddr addr, uint64_t w) {
    fn(addr, reinterpret_cast<const uint8_t*>(&w), kWordSizeBytes);
  };
  switch (rec.type) {
    case RecordType::kUpdate:
    case RecordType::kClr:
      word(rec.addr, rec.new_word);
      break;
    case RecordType::kAlloc:
      word(rec.addr, EncodeHeader(static_cast<ClassId>(rec.aux), rec.count));
      break;
    case RecordType::kGcCopyBatch:
      fn(rec.addr2, rec.contents.data(), rec.contents.size());
      // One forwarding word per coalesced object.
      for (const UtrEntry& e : rec.utr_entries) {
        word(e.from, MakeForwardWord(e.to));
      }
      break;
    case RecordType::kGcScan:
      for (const auto& [w, value] : rec.slot_updates) {
        word(rec.page * kPageSizeBytes + w * kWordSizeBytes, value);
      }
      break;
    case RecordType::kV2sCopy:
      fn(rec.addr2, rec.contents.data(), rec.contents.size());
      break;
    case RecordType::kInitialValue:
      fn(rec.addr, rec.contents.data(), rec.contents.size());
      break;
    default:
      break;
  }
}

}  // namespace

bool RedoExecutor::IsRedoable(RecordType type) {
  // Exhaustive over RecordType — no default, so adding a record type does
  // not compile until someone decides whether its redo touches heap pages
  // (tools/sheap_analyze additionally checks every enumerator is named).
  switch (type) {
    case RecordType::kUpdate:
    case RecordType::kClr:
    case RecordType::kAlloc:
    case RecordType::kGcCopyBatch:
    case RecordType::kGcScan:
    case RecordType::kV2sCopy:
    case RecordType::kInitialValue:
      return true;
    // Control records: their effects live in the recovery tables (ATT,
    // DPT, UTT, space maps) rebuilt by analysis, not in heap page bytes.
    case RecordType::kHeapFormat:
    case RecordType::kBegin:
    case RecordType::kCommit:
    case RecordType::kAbortTxn:
    case RecordType::kEnd:
    case RecordType::kPageFetch:
    case RecordType::kEndWrite:
    case RecordType::kCheckpoint:
    case RecordType::kSpaceAlloc:
    case RecordType::kSpaceFree:
    case RecordType::kGcFlip:
    case RecordType::kGcComplete:
    case RecordType::kUtr:
    case RecordType::kRootObject:
    case RecordType::kVolatileFlip:
    case RecordType::kClassDef:
    case RecordType::kPrepare:
    // 2PC coordinator-log records never appear in a shard WAL; a shard's
    // redo treats them as inert control records if one is ever seen.
    case RecordType::kDtxDecision:
    case RecordType::kDtxEnd:  // value-equal to kMaxRecordType
    case RecordType::kGcCopy:  // retired id: the reader never yields it
      return false;
  }
  return false;  // corrupt on-disk byte outside the enum
}

void RedoExecutor::AffectedPages(const LogRecord& rec,
                                 std::vector<PageId>* pages) {
  pages->clear();
  ForEachWrite(rec, [pages](HeapAddr addr, const uint8_t*, uint64_t n) {
    if (n == 0) return;
    for (PageId p = PageOf(addr); p <= PageOf(addr + n - 1); ++p) {
      // Neighbouring writes mostly share a page (a copy batch's forwarding
      // words), so drop repeats as they come.
      if (pages->empty() || pages->back() != p) pages->push_back(p);
    }
  });
  if (!std::is_sorted(pages->begin(), pages->end())) {
    std::sort(pages->begin(), pages->end());
    pages->erase(std::unique(pages->begin(), pages->end()), pages->end());
  }
}

uint32_t RedoExecutor::PartitionOf(PageId pid, uint32_t nparts) {
  // Multiplicative (Fibonacci) hash: adjacent pages scatter across
  // partitions, so a hot page range still parallelizes.
  return static_cast<uint32_t>((pid * 0x9E3779B97F4A7C15ull) >> 32) % nparts;
}

bool RedoExecutor::PageLive(PageId page) const {
  const Space* sp = d_.spaces->Containing(page * kPageSizeBytes);
  return sp != nullptr && sp->area == Area::kStable;
}

Status RedoExecutor::ApplyEntryToPage(const RedoPlanEntry& entry,
                                      const DirtyPageTable& dpt, PageId pid,
                                      bool* applied) {
  const LogRecord& rec = entry.rec;
  auto it = dpt.find(pid);
  if (it == dpt.end() || rec.lsn < it->second || !PageLive(pid)) {
    return Status::OK();
  }
  SHEAP_ASSIGN_OR_RETURN(PageImage * frame, d_.pool->Pin(pid));
  if (frame->page_lsn < rec.lsn) {
    const HeapAddr page_base = pid * kPageSizeBytes;
    ForEachWrite(rec, [&](HeapAddr addr, const uint8_t* data, uint64_t n) {
      // Clip the write to this page; other pages get their slice when
      // their own turn comes.
      const HeapAddr lo = std::max(addr, page_base);
      const HeapAddr hi = std::min(addr + n, page_base + kPageSizeBytes);
      if (lo >= hi) return;
      std::memcpy(frame->data.data() + (lo - page_base), data + (lo - addr),
                  hi - lo);
    });
    d_.pool->MarkDirty(pid, rec.lsn);
    *applied = true;
  }
  d_.pool->Unpin(pid);
  return Status::OK();
}

}  // namespace sheap
