#include "gc/scan_executor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "fault/fault_injector.h"
#include "gc/atomic_gc.h"
#include "heap/object.h"
#include "storage/buffer_pool.h"

namespace sheap {

ScanExecutor::ScanExecutor(AtomicGc* gc, uint32_t threads)
    : gc_(gc), threads_(std::max<uint32_t>(1, threads)) {}

void ScanExecutor::ScanTask(PageTask* task, HeapAddr from_base,
                            HeapAddr from_end, HeapAddr frontier) const {
  const HeapAddr page_base = task->page_base;
  const HeapAddr page_end = page_base + kPageSizeBytes;
  // Same walk as the serial ScanPage, against the pinned frame: start at
  // the LOT anchor (whose header was pre-read — it may lie on an earlier
  // page) and parse headers until the page ends or a dead tail appears.
  HeapAddr obj = task->anchor;
  uint64_t w = task->anchor_header;
  while (obj < page_end && obj < frontier) {
    if (!IsHeaderWord(w)) break;  // abandoned tail of an earlier trap bump
    const ObjectHeader hdr = DecodeHeader(w);
    for (uint64_t i = 0; i < hdr.nslots; ++i) {
      const HeapAddr slot_addr = SlotAddr(obj, i);
      if (slot_addr < page_base) continue;
      if (slot_addr >= page_end) break;
      if (!gc_->ctx_.types->IsPointerSlot(hdr.class_id, i)) continue;
      const uint64_t v = task->frame->ReadWord(WordInPage(slot_addr));
      if (v != kNullAddr && v >= from_base && v < from_end) {
        task->out.push_back(Candidate{WordInPage(slot_addr), v});
      }
    }
    obj += hdr.TotalWords() * kWordSizeBytes;
    if (obj >= page_end || obj >= frontier) break;
    w = task->frame->ReadWord(WordInPage(obj));
  }
}

Status ScanExecutor::RunRound(uint64_t budget, uint64_t* pages_done) {
  *pages_done = 0;
  if (budget == 0 || !gc_->sem_.collecting()) return Status::OK();
  const Space* cur = gc_->CurrentSpace();
  const HeapAddr frontier = gc_->sem_.copy_ptr;
  const uint64_t full_limit = (frontier - cur->base()) / kPageSizeBytes;

  // Gather up to `budget` unscanned fully-copied pages. Monotone cursor +
  // word-skipping probe: scan bits only ever get set during a collection,
  // so every page below the first unset bit stays scanned and the cursor
  // never moves backwards.
  std::vector<uint64_t> pages;
  uint64_t probe = gc_->scan_cursor_;
  bool first_probe = true;
  while (pages.size() < budget) {
    const uint64_t idx = gc_->scanned_.FindFirstUnset(probe);
    gc_->stats_.scan_cursor_steps += (idx >> 6) - (probe >> 6) + 1;
    if (first_probe) {
      gc_->scan_cursor_ = idx;
      first_probe = false;
    }
    if (idx >= full_limit) break;
    pages.push_back(idx);
    probe = idx + 1;
  }
  if (pages.empty()) return Status::OK();

  // Crash window: pages claimed for the round, nothing logged yet.
  SHEAP_FAULT_POINT(gc_->ctx_.log->faults(), "gc.scan.worker_claim");

  const Space* from_sp = gc_->FromSpace();
  const HeapAddr from_base = from_sp->base();
  const HeapAddr from_end = from_sp->end();

  // Build tasks for pages with copied data and pre-pin their frames, in
  // ascending page order so pool fetches log kPageFetch deterministically.
  // Workers must never touch the pool (a racing same-page miss is
  // unsupported) — they only read the frames pinned here. Pages without a
  // LOT anchor follow the serial rule: marked scanned below, no record.
  std::vector<PageTask> tasks;
  tasks.reserve(pages.size());
  std::vector<PageId> pinned;
  pinned.reserve(pages.size());
  auto unpin_all = [&]() {
    for (PageId pid : pinned) gc_->ctx_.pool->Unpin(pid);
    pinned.clear();
  };
  for (uint64_t idx : pages) {
    const HeapAddr anchor = gc_->lot_[idx];
    if (anchor == kNullAddr) continue;
    PageTask t;
    t.index = idx;
    t.page_base = cur->base() + idx * kPageSizeBytes;
    t.anchor = anchor;
    auto header = gc_->ctx_.mem->ReadWord(anchor);
    if (!header.ok()) {
      unpin_all();
      return header.status();
    }
    t.anchor_header = *header;
    auto frame = gc_->ctx_.pool->Pin(PageOf(t.page_base));
    if (!frame.ok()) {
      unpin_all();
      return frame.status();
    }
    pinned.push_back(PageOf(t.page_base));
    t.frame = *frame;
    tasks.push_back(std::move(t));
  }

  // Worker phase: dynamic claiming off a shared index. A worker that runs
  // ahead takes tasks that statically belong to a peer (work-stealing);
  // the claim order cannot matter because workers only fill their own
  // task's candidate vector.
  const uint32_t nworkers = static_cast<uint32_t>(std::min<uint64_t>(
      threads_, std::max<size_t>(tasks.size(), 1)));
  if (nworkers <= 1) {
    for (PageTask& t : tasks) ScanTask(&t, from_base, from_end, frontier);
  } else {
    std::atomic<size_t> next{0};
    std::vector<uint64_t> steals(nworkers, 0);
    std::vector<uint64_t> lane_ns(nworkers, 0);
    std::vector<std::thread> workers;
    workers.reserve(nworkers);
    for (uint32_t w = 0; w < nworkers; ++w) {
      workers.emplace_back([&, w]() {
        // Workers make no clock charges today; the scope is defensive so a
        // future charge inside the walk lands in a lane, not the shared
        // clock (which is not thread-safe to Advance concurrently).
        SimClock::ThreadChargeScope charge(gc_->ctx_.clock, &lane_ns[w]);
        while (true) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= tasks.size()) break;
          if (i % nworkers != w) ++steals[w];
          ScanTask(&tasks[i], from_base, from_end, frontier);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (uint64_t s : steals) gc_->stats_.scan_page_steals += s;
  }
  unpin_all();

  // Scan-phase cost on parallel hardware: the busiest lane. Dynamic
  // claiming balances uniform page walks to ceil(n / workers) per lane;
  // at one worker this equals the serial per-page charge exactly.
  if (!tasks.empty()) {
    const uint64_t lane_ns = ((tasks.size() + nworkers - 1) / nworkers) *
                             kWordsPerPage *
                             gc_->ctx_.clock->model().scan_word_ns;
    gc_->ctx_.clock->Advance(lane_ns);
    gc_->stats_.scan_phase_ns += lane_ns;
  }

  // Resolve pass (read-only): candidates in canonical ascending page/slot
  // order, assigning contiguous to-addresses at the copy frontier — the
  // deterministic merge of the workers' would-be allocation buffers. On
  // out-of-space nothing has been logged or written: the round fails clean.
  struct PlannedCopy {
    HeapAddr from;
    HeapAddr to;
    uint64_t nwords;
  };
  std::vector<PlannedCopy> copies;
  std::vector<uint8_t> buffer;
  std::unordered_map<HeapAddr, HeapAddr> resolved;
  const HeapAddr run_base = gc_->sem_.copy_ptr;
  const HeapAddr alloc_floor =
      gc_->sem_.alloc_ptr - (gc_->sem_.alloc_ptr % kPageSizeBytes);
  uint64_t run_words = 0;
  for (PageTask& t : tasks) {
    for (const Candidate& c : t.out) {
      HeapAddr nv;
      auto it = resolved.find(c.value);
      if (it != resolved.end()) {
        nv = it->second;
      } else {
        SHEAP_ASSIGN_OR_RETURN(uint64_t w, gc_->ctx_.mem->ReadWord(c.value));
        if (IsForwardWord(w)) {
          nv = ForwardTarget(w);
        } else if (!IsHeaderWord(w)) {
          return Status::Corruption("copy source is not an object");
        } else {
          const uint64_t total = DecodeHeader(w).TotalWords();
          const uint64_t nbytes = total * kWordSizeBytes;
          if (run_base + run_words * kWordSizeBytes + nbytes > alloc_floor) {
            return Status::OutOfSpace("to-space exhausted during copy");
          }
          nv = run_base + run_words * kWordSizeBytes;
          const size_t off = buffer.size();
          buffer.resize(off + nbytes);
          SHEAP_RETURN_IF_ERROR(
              gc_->ctx_.mem->ReadBytes(c.value, nbytes, buffer.data() + off));
          copies.push_back(PlannedCopy{c.value, nv, total});
          run_words += total;
        }
        resolved.emplace(c.value, nv);
      }
      t.updates.emplace_back(c.word, nv);
    }
  }

  // Apply pass: log first, write under the record's LSN (§3.4). The batch
  // record precedes every scan record that references its to-addresses, so
  // any log prefix a crash retains satisfies the serial protocol's
  // copy-before-scan ordering.
  if (!copies.empty()) {
    LogRecord rec;
    rec.type = RecordType::kGcCopyBatch;
    rec.addr2 = run_base;
    rec.count = run_words;
    rec.contents = buffer;
    rec.utr_entries.reserve(copies.size());
    for (const PlannedCopy& c : copies) {
      rec.utr_entries.push_back(UtrEntry{c.from, c.to, c.nwords});
    }
    const Lsn lsn = gc_->ctx_.log->Append(&rec);
    SHEAP_RETURN_IF_ERROR(gc_->ctx_.mem->WriteBytesLogged(
        run_base, rec.contents.data(), rec.contents.size(), lsn));
    for (const PlannedCopy& c : copies) {
      SHEAP_RETURN_IF_ERROR(gc_->ctx_.mem->WriteWordLogged(
          c.from, MakeForwardWord(c.to), lsn));
    }
    ++gc_->stats_.copy_batch_records;
    gc_->stats_.copy_batch_objects += copies.size();
    gc_->sem_.copy_ptr = run_base + run_words * kWordSizeBytes;
    for (const PlannedCopy& c : copies) {
      gc_->UpdateLot(c.to, c.nwords);
      ++gc_->stats_.objects_copied;
      gc_->stats_.words_copied += c.nwords;
      gc_->ctx_.clock->ChargeCopyWords(c.nwords);
      gc_->ctx_.locks->Rekey(c.from, c.to);
      if (gc_->on_object_moved) gc_->on_object_moved(c.from, c.to, c.nwords);
    }
  }

  // Per-page scan records in ascending page order. Pages with translations
  // get a kGcScan each; maximal runs of adjacent translation-free pages
  // collapse into one clean-run record (aux = kScanRun).
  size_t ti = 0;
  size_t pi = 0;
  while (pi < pages.size()) {
    const uint64_t idx = pages[pi];
    if (ti >= tasks.size() || tasks[ti].index != idx) {
      ++pi;  // empty page: no record, marked scanned below
      continue;
    }
    PageTask& t = tasks[ti];
    if (!t.updates.empty()) {
      LogRecord rec;
      rec.type = RecordType::kGcScan;
      rec.aux = 0;
      rec.page = t.page_base / kPageSizeBytes;
      rec.slot_updates = t.updates;
      const Lsn lsn = gc_->ctx_.log->Append(&rec);
      for (const auto& [word, value] : t.updates) {
        SHEAP_RETURN_IF_ERROR(gc_->ctx_.mem->WriteWordLogged(
            t.page_base + static_cast<HeapAddr>(word) * kWordSizeBytes,
            value, lsn));
      }
      ++ti;
      ++pi;
      continue;
    }
    uint64_t len = 1;
    size_t run_ti = ti + 1;
    size_t run_pi = pi + 1;
    while (run_ti < tasks.size() && run_pi < pages.size() &&
           pages[run_pi] == idx + len &&
           tasks[run_ti].index == pages[run_pi] &&
           tasks[run_ti].updates.empty()) {
      ++len;
      ++run_ti;
      ++run_pi;
    }
    LogRecord rec;
    rec.type = RecordType::kGcScan;
    rec.aux = LogRecord::kScanRun;
    rec.page = t.page_base / kPageSizeBytes;
    rec.count = len;
    gc_->ctx_.log->Append(&rec);
    ++gc_->stats_.scan_run_records;
    gc_->stats_.scan_run_pages += len;
    ti = run_ti;
    pi = run_pi;
  }

  // Crash window: the whole round is spooled; any retained prefix of it
  // replays to a state the serial protocol could also have reached.
  SHEAP_FAULT_POINT(gc_->ctx_.log->faults(), "gc.batch.merged");

  for (uint64_t idx : pages) gc_->scanned_.Set(idx);
  gc_->stats_.pages_scanned += tasks.size();
  ++gc_->stats_.scan_rounds;
  *pages_done = pages.size();
  return Status::OK();
}

}  // namespace sheap
