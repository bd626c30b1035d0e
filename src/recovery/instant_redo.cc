#include "recovery/instant_redo.h"

#include <algorithm>

#include "common/check.h"

namespace sheap {

namespace {

/// Set while a thread is replaying a page. Pins performed by the replay
/// itself (the target page, via RedoExecutor) re-enter the before_pin hook;
/// this flag short-circuits that re-entry — for the on-demand path's own
/// recursive pin and for drain workers, whose pages are already claimed.
thread_local bool g_in_redo = false;

struct InRedoScope {
  InRedoScope() { g_in_redo = true; }
  ~InRedoScope() { g_in_redo = false; }
};

// The crash windows live in tiny wrappers so callers can revert page state
// (and record the terminal aborted outcome) instead of early-returning past
// the bookkeeping. The literal SHEAP_FAULT_POINT sites keep the
// manifest/lint reconciliation (tests/crash_matrix_points.h) two-sided.

/// Crash window: a page is claimed in-flight, its redo not yet applied.
Status OndemandCrashWindow([[maybe_unused]] FaultInjector* faults) {
  SHEAP_FAULT_POINT(faults, "recovery.ondemand.page_redo");
  return Status::OK();
}

/// Crash window: a drain batch is claimed, its redo not yet applied.
Status DrainCrashWindow([[maybe_unused]] FaultInjector* faults) {
  SHEAP_FAULT_POINT(faults, "recovery.drain.step");
  return Status::OK();
}

}  // namespace

InstantRedoManager::InstantRedoManager(const Deps& deps)
    : d_(deps),
      drain_threads_(std::max<uint32_t>(
          1, std::min(deps.drain_threads, RedoExecutor::kMaxPartitions))),
      exec_(RedoExecutor::Deps{deps.pool, deps.spaces}) {}

void InstantRedoManager::Install(RedoPlan plan, DirtyPageTable dpt) {
  MutexLock lock(&mu_);
  SHEAP_CHECK(!stats_.installed);
  plan_ = std::move(plan);
  dpt_ = std::move(dpt);
  entry_applied_.assign(plan_.entries.size(), 0);
  // (page, plan index) pairs, pre-gated by the DPT recLSN: a pair the
  // page's gate would skip never enters the table, so a page with nothing
  // to replay is never pending. Sorting groups them by page, ascending
  // plan index (= LSN) within a page.
  std::vector<std::pair<PageId, uint32_t>> pairs;
  for (size_t i = 0; i < plan_.entries.size(); ++i) {
    for (PageId pid : plan_.entries[i].pages) {
      auto it = dpt_.find(pid);
      if (it == dpt_.end() || plan_.entries[i].rec.lsn < it->second) continue;
      pairs.emplace_back(pid, static_cast<uint32_t>(i));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  page_entries_.reserve(pairs.size());
  for (const auto& [pid, idx] : pairs) {
    if (pages_.empty() || pages_.back().pid != pid) {
      const uint32_t at = static_cast<uint32_t>(page_entries_.size());
      pages_.push_back(PageSpan{pid, at, at});
    }
    page_entries_.push_back(idx);
    ++pages_.back().end;
  }
  state_.assign(pages_.size(), PageState::kPending);
  pending_count_ = pages_.size();
  stats_.installed = true;
  stats_.pending_pages = pending_count_;
  active_ = pending_count_ > 0;
}

size_t InstantRedoManager::FindPage(PageId pid) const {
  auto it = std::lower_bound(
      pages_.begin(), pages_.end(), pid,
      [](const PageSpan& span, PageId p) { return span.pid < p; });
  if (it == pages_.end() || it->pid != pid) return pages_.size();
  return static_cast<size_t>(it - pages_.begin());
}

Status InstantRedoManager::ApplyPage(size_t idx,
                                     std::vector<uint8_t>* applied_flags) {
  const PageSpan& span = pages_[idx];
  applied_flags->assign(span.end - span.begin, 0);
  InRedoScope in_redo;
  for (uint32_t k = span.begin; k < span.end; ++k) {
    bool applied = false;
    SHEAP_RETURN_IF_ERROR(exec_.ApplyEntryToPage(
        plan_.entries[page_entries_[k]], dpt_, span.pid, &applied));
    (*applied_flags)[k - span.begin] = applied ? 1 : 0;
  }
  return Status::OK();
}

void InstantRedoManager::CommitPage(size_t idx,
                                    const std::vector<uint8_t>& applied_flags,
                                    uint64_t InstantRedoStats::*counter) {
  // Fold per-(entry,page) applied flags into per-entry firsts, so an entry
  // spanning several pages is still one applied record.
  const PageSpan& span = pages_[idx];
  const size_t n = std::min<size_t>(span.end - span.begin,
                                    applied_flags.size());
  for (size_t k = 0; k < n; ++k) {
    const uint32_t entry = page_entries_[span.begin + k];
    if (applied_flags[k] && !entry_applied_[entry]) {
      entry_applied_[entry] = 1;
      ++stats_.records_applied;
    }
  }
  if (counter == nullptr) {
    // Failed replay: whatever prefix applied is durable progress (the
    // page-LSN gate makes the retry skip it), but the page stays pending
    // so the next touch or drain batch finishes it.
    state_[idx] = PageState::kPending;
    return;
  }
  state_[idx] = PageState::kDone;
  --pending_count_;
  ++(stats_.*counter);
}

Status InstantRedoManager::OnPageAccess(PageId pid) {
  if (g_in_redo || !active_) return Status::OK();
  const size_t idx = FindPage(pid);
  if (idx == pages_.size()) return Status::OK();
  {
    MutexLock lock(&mu_);
    if (state_[idx] == PageState::kDone) return Status::OK();
    // Heap actions are serialized and drain workers never re-enter the
    // gate (the in-redo flag), so an access can only find the page pending.
    SHEAP_CHECK(state_[idx] == PageState::kPending);
    state_[idx] = PageState::kInFlight;
  }
  Status st = OndemandCrashWindow(d_.faults);
  std::vector<uint8_t> applied;
  if (st.ok()) st = ApplyPage(idx, &applied);
  MutexLock lock(&mu_);
  if (!st.ok()) {
    CommitPage(idx, applied, /*counter=*/nullptr);
    if (st.IsCrashed()) stats_.aborted = true;
    return st;
  }
  CommitPage(idx, applied, &InstantRedoStats::ondemand_pages);
  stats_.pending_pages = pending_count_;
  if (pending_count_ == 0) active_ = false;
  return Status::OK();
}

Status InstantRedoManager::DrainStep(uint64_t max_pages) {
  if (!active_ || max_pages == 0) return Status::OK();
  struct Job {
    size_t idx = 0;
    std::vector<uint8_t> applied;
    Status status;
  };
  std::vector<Job> jobs;
  {
    MutexLock lock(&mu_);
    while (drain_cursor_ < pages_.size() &&
           state_[drain_cursor_] == PageState::kDone) {
      ++drain_cursor_;
    }
    for (size_t i = drain_cursor_;
         i < pages_.size() && jobs.size() < max_pages; ++i) {
      if (state_[i] != PageState::kPending) continue;
      state_[i] = PageState::kInFlight;
      jobs.push_back(Job{i, {}, Status::OK()});
    }
  }
  if (jobs.empty()) return Status::OK();

  Status window = DrainCrashWindow(d_.faults);
  if (!window.ok()) {
    MutexLock lock(&mu_);
    for (const Job& job : jobs) state_[job.idx] = PageState::kPending;
    if (window.IsCrashed()) stats_.aborted = true;
    return window;
  }

  const uint32_t nthreads = static_cast<uint32_t>(
      std::min<uint64_t>(drain_threads_, jobs.size()));
  if (nthreads <= 1) {
    // Serial drain: charges flow straight to the shared clock.
    for (Job& job : jobs) job.status = ApplyPage(job.idx, &job.applied);
  } else {
    // Page-hash partitioned drain: eviction off, every page confined to
    // one worker, per-worker clock lanes, and a deterministic busiest-lane
    // + merge-term charge.
    d_.pool->BeginConcurrent();
    const uint64_t busiest = d_.clock->RunLanes(nthreads, [&](uint32_t p) {
      for (Job& job : jobs) {
        if (RedoExecutor::PartitionOf(pages_[job.idx].pid, nthreads) != p) {
          continue;
        }
        job.status = ApplyPage(job.idx, &job.applied);
      }
    });
    d_.pool->EndConcurrent();
    d_.clock->Advance(busiest + d_.clock->model().scan_word_ns * jobs.size());
  }

  // Deterministic merge in ascending page order (the claim order above).
  Status first_error = Status::OK();
  MutexLock lock(&mu_);
  for (Job& job : jobs) {
    if (job.status.ok()) {
      CommitPage(job.idx, job.applied, &InstantRedoStats::drained_pages);
    } else {
      CommitPage(job.idx, job.applied, /*counter=*/nullptr);
      if (job.status.IsCrashed()) stats_.aborted = true;
      if (first_error.ok()) first_error = job.status;
    }
  }
  stats_.pending_pages = pending_count_;
  if (pending_count_ == 0) active_ = false;
  return first_error;
}

Status InstantRedoManager::DrainAll() {
  while (active_) {
    SHEAP_RETURN_IF_ERROR(DrainStep(~0ull));
  }
  return Status::OK();
}

void InstantRedoManager::Abandon() {
  MutexLock lock(&mu_);
  if (pending_count_ > 0) stats_.aborted = true;
  active_ = false;
}

InstantRedoStats InstantRedoManager::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

std::vector<std::pair<PageId, Lsn>> InstantRedoManager::PendingDirtyPages()
    const {
  MutexLock lock(&mu_);
  std::vector<std::pair<PageId, Lsn>> out;
  for (size_t i = 0; i < pages_.size(); ++i) {
    if (state_[i] == PageState::kDone) continue;
    // Install admitted the page through the DPT, so it has an entry.
    out.emplace_back(pages_[i].pid, dpt_.at(pages_[i].pid));
  }
  return out;
}

}  // namespace sheap
