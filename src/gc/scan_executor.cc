#include "gc/scan_executor.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "fault/fault_injector.h"
#include "gc/atomic_gc.h"
#include "storage/buffer_pool.h"

namespace sheap {

ScanExecutor::ScanExecutor(AtomicGc* gc, uint32_t threads)
    : gc_(gc), threads_(std::max<uint32_t>(1, threads)) {}

Status ScanExecutor::RunRound(uint64_t budget, uint64_t* pages_done) {
  *pages_done = 0;
  if (budget == 0 || !gc_->state_.sem.collecting()) return Status::OK();
  const Space* cur = gc_->CurrentSpace();
  const HeapAddr frontier = gc_->state_.sem.copy_ptr;
  const uint64_t full_limit = (frontier - cur->base()) / kPageSizeBytes;

  // Gather up to `budget` unscanned fully-copied pages. Monotone cursor +
  // word-skipping probe: scan bits only ever get set during a collection,
  // so every page below the first unset bit stays scanned and the cursor
  // never moves backwards.
  std::vector<uint64_t> pages;
  uint64_t probe = gc_->scan_cursor_;
  bool first_probe = true;
  while (pages.size() < budget) {
    const uint64_t idx = gc_->state_.scanned.FindFirstUnset(probe);
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
    const HeapAddr anchor = gc_->state_.lot[idx];
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
  // task's slot vector.
  auto walk = [&](PageTask* t) {
    gc_->WalkPage(*t->frame, t->page_base, t->anchor, t->anchor_header,
                  frontier, &t->slots);
  };
  const uint32_t nworkers = static_cast<uint32_t>(std::min<uint64_t>(
      threads_, std::max<size_t>(tasks.size(), 1)));
  if (nworkers <= 1) {
    for (PageTask& t : tasks) walk(&t);
  } else {
    std::atomic<size_t> next{0};
    std::vector<uint64_t> steals(nworkers, 0);
    // Workers make no clock charges (the charge below is analytic); the
    // lanes only keep a future charge inside the walk off the shared clock.
    gc_->ctx_.clock->RunLanes(nworkers, [&](uint32_t w) {
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) break;
        if (i % nworkers != w) ++steals[w];
        walk(&tasks[i]);
      }
    });
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

  // Copy step: the slots, in canonical ascending page/slot order, through
  // the collector's copy planner — contiguous to-addresses at the copy
  // frontier, the deterministic merge of the workers' would-be allocation
  // buffers — then one kGcCopyBatch, logged ahead of every scan record
  // that names its to-addresses (§3.4). A planning failure (out of space)
  // has logged and written nothing: the round fails clean.
  for (PageTask& t : tasks) {
    SHEAP_RETURN_IF_ERROR(gc_->PlanTranslations(&t.slots, 0));
  }
  SHEAP_RETURN_IF_ERROR(gc_->CommitCopies());

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
    if (!t.slots.empty()) {
      LogRecord rec;
      rec.type = RecordType::kGcScan;
      rec.aux = 0;
      rec.page = t.page_base / kPageSizeBytes;
      rec.slot_updates = std::move(t.slots);
      const Lsn lsn = gc_->ctx_.log->Append(&rec);
      for (const auto& [word, value] : rec.slot_updates) {
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
           tasks[run_ti].slots.empty()) {
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

  for (uint64_t idx : pages) gc_->state_.MarkScanned(idx, 1);
  gc_->stats_.pages_scanned += tasks.size();
  ++gc_->stats_.scan_rounds;
  *pages_done = pages.size();
  return Status::OK();
}

}  // namespace sheap
