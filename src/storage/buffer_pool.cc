#include "storage/buffer_pool.h"

#include <algorithm>

#include "common/check.h"
#include "fault/fault_injector.h"
#include "util/sim_clock.h"

namespace sheap {

BufferPool::BufferPool(Disk* disk, size_t capacity_frames, Hooks hooks)
    : disk_(disk), capacity_(capacity_frames), hooks_(std::move(hooks)) {
  SHEAP_CHECK(capacity_ > 0);
}

void BufferPool::BumpStat(uint64_t BufferPoolStats::*field,
                          uint64_t n) const {
  MutexLock lock(&stats_mu_);
  stats_.*field += n;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  {
    MutexLock lock(&stats_mu_);
    s = stats_;
  }
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
  }
  return s;
}

void BufferPool::ResetStats() {
  {
    MutexLock lock(&stats_mu_);
    stats_ = BufferPoolStats();
  }
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.hits = 0;
    shard.misses = 0;
  }
}

void BufferPool::LruPushBack(Frame* frame) {
  frame->lru_prev = lru_tail_;
  frame->lru_next = nullptr;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = frame;
  } else {
    lru_head_ = frame;
  }
  lru_tail_ = frame;
}

void BufferPool::LruRemove(Frame* frame) {
  if (frame->lru_prev != nullptr) {
    frame->lru_prev->lru_next = frame->lru_next;
  } else {
    lru_head_ = frame->lru_next;
  }
  if (frame->lru_next != nullptr) {
    frame->lru_next->lru_prev = frame->lru_prev;
  } else {
    lru_tail_ = frame->lru_prev;
  }
  frame->lru_prev = nullptr;
  frame->lru_next = nullptr;
}

BufferPool::Frame* BufferPool::AllocateFrame() {
  MutexLock lock(&store_mu_);
  if (!free_frames_.empty()) {
    Frame* frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  return &frame_store_.emplace_back();
}

void BufferPool::ReleaseFrame(Frame* frame) {
  MutexLock lock(&store_mu_);
  // Reset the metadata only: the one reuse of a free frame is a miss, and
  // its successful Disk::ReadPage overwrites the whole image (a failed read
  // releases the frame again), so zeroing 4 KiB here would never be read.
  frame->pid = 0;
  frame->pin_count = 0;
  frame->dirty = false;
  frame->rec_lsn = kInvalidLsn;
  frame->lru_prev = nullptr;
  frame->lru_next = nullptr;
  free_frames_.push_back(frame);
}

StatusOr<PageImage*> BufferPool::Pin(PageId pid) {
  if (hooks_.before_pin) {
    SHEAP_RETURN_IF_ERROR(hooks_.before_pin(pid));
  }
  return PinFrame(pid);
}

StatusOr<PageImage*> BufferPool::PinFrame(PageId pid) {
  Shard& shard = ShardFor(pid);
  // One hit or one miss per Pin: a lost miss race pins the published frame
  // without counting a second time.
  for (bool counted = false;; counted = true) {
    {
      MutexLock lock(&shard.mu);
      auto it = shard.page_to_frame.find(pid);
      if (it != shard.page_to_frame.end()) {
        if (!counted) ++shard.hits;
        Frame* frame = it->second;
        if (frame->pin_count == 0) {
          MutexLock lru_lock(&lru_mu_);
          LruRemove(frame);
        }
        ++frame->pin_count;
        return &frame->image;
      }
      if (!counted) ++shard.misses;
    }

    // Concurrent regimes never evict: a victim could belong to another redo
    // worker's partition, or be mid-access by another mutator thread. The
    // pool transiently grows instead, exactly as it already does when every
    // frame is pinned.
    if (concurrent_depth_.load(std::memory_order_relaxed) == 0) {
      SHEAP_RETURN_IF_ERROR(MaybeEvict());
    }

    Frame* frame = AllocateFrame();
    frame->pid = pid;
    // Transient read errors (device-level, injected in the simulator) are
    // retried with bounded exponential backoff; Corruption (bit rot caught
    // by the page CRC) and other errors surface immediately.
    FaultInjector* faults = disk_->faults();
    for (uint32_t attempt = 0;; ++attempt) {
      Status s = disk_->ReadPage(pid, &frame->image);
      if (s.ok()) break;
      if (!s.IsIOError() || attempt >= kMaxIoRetries) {
        if (s.IsIOError() && faults != nullptr) faults->NoteExhausted();
        ReleaseFrame(frame);
        return s;
      }
      if (faults != nullptr) faults->BackoffBeforeRetry(attempt);
    }
    frame->pin_count = 1;
    bool published;
    {
      MutexLock lock(&shard.mu);
      published = shard.page_to_frame.emplace(pid, frame).second;
    }
    if (!published) {
      // Lost a same-page miss race: another mutator thread fetched and
      // published this page while we were reading it. Discard our copy and
      // pin the published frame via the hit path (the winner already
      // emitted the page-fetch notification).
      ReleaseFrame(frame);
      continue;
    }
    if (hooks_.on_page_fetch) hooks_.on_page_fetch(pid);
    return &frame->image;
  }
}

Status BufferPool::AccessImage(PageId pid, AccessMode mode, Lsn lsn,
                               void* fn_arg, void (*fn)(void*, PageImage*)) {
  if (hooks_.before_pin) {
    SHEAP_RETURN_IF_ERROR(hooks_.before_pin(pid));
  }
  // The LSN a write dirties the frame under; an unlogged write has none.
  const Lsn dirty_lsn = mode == AccessMode::kWriteLogged ? lsn : kInvalidLsn;
  Shard& shard = ShardFor(pid);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.page_to_frame.find(pid);
    if (it != shard.page_to_frame.end()) {
      // A hit: Pin + Unpin's net effect on the LRU is to make an unpinned
      // frame the most recent one; a pinned frame is not in the list.
      ++shard.hits;
      Frame* frame = it->second;
      if (frame->pin_count == 0) {
        MutexLock lru_lock(&lru_mu_);
        if (frame != lru_tail_) {
          LruRemove(frame);
          LruPushBack(frame);
        }
      }
      fn(fn_arg, &frame->image);
      if (mode != AccessMode::kRead) SetDirty(&shard, frame, dirty_lsn);
      return Status::OK();
    }
  }
  // A miss: the one fetch path (before_pin has already run).
  SHEAP_ASSIGN_OR_RETURN(PageImage * image, PinFrame(pid));
  fn(fn_arg, image);
  if (mode != AccessMode::kRead) MarkDirty(pid, dirty_lsn);
  Unpin(pid);
  return Status::OK();
}

void BufferPool::Unpin(PageId pid) {
  Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  auto it = shard.page_to_frame.find(pid);
  SHEAP_CHECK(it != shard.page_to_frame.end());
  Frame* frame = it->second;
  SHEAP_CHECK(frame->pin_count > 0);
  if (--frame->pin_count == 0) {
    MutexLock lru_lock(&lru_mu_);
    LruPushBack(frame);
  }
}

void BufferPool::SetDirty(Shard* shard, Frame* frame, Lsn lsn) {
  if (!frame->dirty) {
    frame->dirty = true;
    frame->rec_lsn = lsn;
    shard->dirty[frame->pid] = lsn;
  }
  frame->image.page_lsn = std::max(frame->image.page_lsn, lsn);
}

void BufferPool::MarkDirty(PageId pid, Lsn lsn) {
  Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  auto it = shard.page_to_frame.find(pid);
  SHEAP_CHECK(it != shard.page_to_frame.end());
  // The WAL protocol modifies pinned pages.
  SHEAP_CHECK(it->second->pin_count > 0);
  SetDirty(&shard, it->second, lsn);
}

void BufferPool::MarkDirtyUnlogged(PageId pid) {
  Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  auto it = shard.page_to_frame.find(pid);
  SHEAP_CHECK(it != shard.page_to_frame.end());
  SHEAP_CHECK(it->second->pin_count > 0);
  // No log record protects this page: no recLSN, page LSN unchanged.
  SetDirty(&shard, it->second, kInvalidLsn);
}

Status BufferPool::WriteBack(PageId pid) {
  Frame* frame;
  {
    Shard& shard = ShardFor(pid);
    MutexLock lock(&shard.mu);
    auto it = shard.page_to_frame.find(pid);
    if (it == shard.page_to_frame.end()) {
      return Status::NotFound("page not resident");
    }
    frame = it->second;
  }
  if (frame->pin_count > 0) return Status::Busy("page pinned");
  if (!frame->dirty) return Status::OK();
  return WritePages({Candidate{pid, frame}}, 1);
}

Status BufferPool::FlushAll() {
  return WritePages(DirtyCandidates(), flush_writers_);
}

Status BufferPool::WriteBackRandomSubset(Rng* rng, double fraction) {
  std::vector<Candidate> chosen;
  for (const Candidate& c : DirtyCandidates()) {
    if (rng->Bernoulli(fraction)) chosen.push_back(c);
  }
  return WritePages(chosen, 1);
}

std::vector<BufferPool::Candidate> BufferPool::DirtyCandidates() {
  std::vector<Candidate> dirty;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    for (const auto& [pid, rec_lsn] : shard.dirty) {
      dirty.push_back(Candidate{pid, shard.page_to_frame.at(pid)});
    }
  }
  BumpStat(&BufferPoolStats::dirty_scan_steps, dirty.size());
  std::sort(dirty.begin(), dirty.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.pid < b.pid;
            });
  std::erase_if(dirty,
                [](const Candidate& c) { return c.frame->pin_count > 0; });
  return dirty;
}

Status BufferPool::WritePages(const std::vector<Candidate>& pages,
                              uint32_t lanes) {
  if (pages.empty()) return Status::OK();

  // WAL constraint (I2), once for the whole batch and on the calling thread
  // (the log writer is not driven from the lanes): after this the stable
  // log holds every record reflected in any of the images.
  Lsn max_lsn = kInvalidLsn;  // the smallest Lsn: unlogged pages add none
  for (const Candidate& c : pages) {
    max_lsn = std::max(max_lsn, c.frame->image.page_lsn);
  }
  if (max_lsn != kInvalidLsn) {
    SHEAP_CHECK(hooks_.flush_log_to != nullptr);
    SHEAP_RETURN_IF_ERROR(hooks_.flush_log_to(max_lsn));
  }

  // Coalesce page-adjacent pages into runs: one seek per run. A run is
  // (index of its first page in `pages`, page count).
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t i = 0; i < pages.size(); ++i) {
    if (i == 0 || pages[i - 1].pid + 1 != pages[i].pid) {
      runs.emplace_back(i, 0);
    }
    ++runs.back().second;
  }

  // A lane stops at its first failed run; the runs it never reached stay
  // unwritten.
  std::vector<Status> run_status(runs.size(), Status::OK());
  std::vector<uint8_t> written(runs.size(), 0);
  lanes = static_cast<uint32_t>(std::min<size_t>(lanes, runs.size()));
  auto write_lane = [&](uint32_t lane) {
    for (size_t r = lane; r < runs.size(); r += lanes) {
      run_status[r] = WriteRun(&pages[runs[r].first], runs[r].second);
      if (!run_status[r].ok()) return;
      written[r] = 1;
    }
  };
  if (lanes <= 1) {
    write_lane(0);
  } else {
    // Strided assignment keeps which-lane-writes-what deterministic; the
    // busiest lane's simulated time is what the write-back costs (parallel
    // hardware), folded in after the join.
    SimClock* clock = disk_->clock();
    clock->Advance(clock->RunLanes(lanes, write_lane));
  }

  // End-write notifications are log appends: spool them serially, after
  // every lane is done, in ascending page order — the log contents do not
  // depend on the lane count or on lane interleaving.
  Status result = Status::OK();
  for (size_t r = 0; r < runs.size(); ++r) {
    if (result.ok() && !run_status[r].ok()) result = run_status[r];
    if (!written[r] || !hooks_.on_end_write) continue;
    for (size_t i = 0; i < runs[r].second; ++i) {
      hooks_.on_end_write(pages[runs[r].first + i].pid);
    }
  }
  return result;
}

Status BufferPool::WriteRun(const Candidate* pages, size_t n) {
  FaultInjector* faults = disk_->faults();
  // Crash window: WAL satisfied, no image of the run on disk yet.
  SHEAP_FAULT_POINT(faults, "pool.writeback.before");
  std::vector<const PageImage*> images;
  images.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    images.push_back(&pages[i].frame->image);
  }
  for (uint32_t attempt = 0;; ++attempt) {
    // Rewriting a run is idempotent: after a transient fault part-way
    // through, retry the whole run.
    Status s = disk_->WritePageRun(pages[0].pid, images.data(), n);
    if (s.ok()) break;
    if (!s.IsIOError()) return s;
    if (attempt >= kMaxIoRetries) {
      if (faults != nullptr) faults->NoteExhausted();
      return s;
    }
    if (faults != nullptr) faults->BackoffBeforeRetry(attempt);
  }
  // Crash window: the run is on disk, its pages still dirty and no
  // end-write spooled.
  SHEAP_FAULT_POINT(faults, "pool.writeback.after");
  BumpStat(&BufferPoolStats::write_backs, n);
  BumpStat(&BufferPoolStats::flush_runs);
  for (size_t i = 0; i < n; ++i) {
    Frame* frame = pages[i].frame;
    Shard& shard = ShardFor(pages[i].pid);
    MutexLock lock(&shard.mu);
    shard.dirty.erase(frame->pid);
    frame->dirty = false;
    frame->rec_lsn = kInvalidLsn;
  }
  return Status::OK();
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPages() const {
  std::vector<std::pair<PageId, Lsn>> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    out.insert(out.end(), shard.dirty.begin(), shard.dirty.end());
  }
  std::sort(out.begin(), out.end());
  BumpStat(&BufferPoolStats::dirty_scan_steps, out.size());
  return out;
}

void BufferPool::DropAll() {
  // Crash path; strictly serial (any worker pools have joined), so the
  // locks are taken one at a time — no nesting, no ordering concerns.
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.page_to_frame.clear();
    shard.dirty.clear();
  }
  {
    MutexLock lru_lock(&lru_mu_);
    lru_head_ = nullptr;
    lru_tail_ = nullptr;
  }
  MutexLock store_lock(&store_mu_);
  frame_store_.clear();
  free_frames_.clear();
}

void BufferPool::DropRange(PageId first, uint64_t count) {
  for (PageId pid = first; pid < first + count; ++pid) {
    Frame* frame;
    {
      Shard& shard = ShardFor(pid);
      MutexLock lock(&shard.mu);
      auto it = shard.page_to_frame.find(pid);
      if (it == shard.page_to_frame.end()) continue;
      frame = it->second;
      SHEAP_CHECK(frame->pin_count == 0);
      if (frame->dirty) shard.dirty.erase(pid);
      shard.page_to_frame.erase(it);
    }
    {
      MutexLock lru_lock(&lru_mu_);
      LruRemove(frame);
    }
    ReleaseFrame(frame);
  }
}

void BufferPool::BeginConcurrent() {
  concurrent_depth_.fetch_add(1, std::memory_order_relaxed);
}

void BufferPool::EndConcurrent() {
  const uint32_t prev =
      concurrent_depth_.fetch_sub(1, std::memory_order_relaxed);
  SHEAP_CHECK(prev > 0);
  if (prev > 1) return;  // an enclosing regime is still open
  // Rebuild the unpinned-LRU in ascending page order: worker interleaving
  // determined the order frames were unpinned in, and later eviction
  // decisions must not depend on it (determinism contract).
  MutexLock lru_lock(&lru_mu_);
  std::vector<std::pair<PageId, Frame*>> entries;
  for (Frame* frame = lru_head_; frame != nullptr; frame = frame->lru_next) {
    entries.emplace_back(frame->pid, frame);
  }
  std::sort(entries.begin(), entries.end());
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
  for (const auto& [pid, frame] : entries) LruPushBack(frame);
}

bool BufferPool::IsResident(PageId pid) const {
  const Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  return shard.page_to_frame.count(pid) > 0;
}

bool BufferPool::IsDirty(PageId pid) const {
  const Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  return shard.dirty.count(pid) > 0;
}

uint32_t BufferPool::PinCount(PageId pid) const {
  const Shard& shard = ShardFor(pid);
  const Frame* frame;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.page_to_frame.find(pid);
    if (it == shard.page_to_frame.end()) return 0;
    frame = it->second;
  }
  return frame->pin_count;
}

size_t BufferPool::ResidentCount() const {
  MutexLock lock(&store_mu_);
  return frame_store_.size() - free_frames_.size();
}

size_t BufferPool::DirtyCount() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    n += shard.dirty.size();
  }
  return n;
}

size_t BufferPool::FreeFrameCount() const {
  MutexLock lock(&store_mu_);
  return free_frames_.size();
}

Status BufferPool::MaybeEvict() {
  if (ResidentCount() < capacity_) return Status::OK();
  // The LRU list holds only unpinned frames: the head IS the victim — one
  // probe, no skipping. With every frame pinned the list is empty and the
  // pool grows past capacity rather than fail; the paper's protocols pin
  // only briefly, so this is a transient condition. Serial contexts only:
  // the lru peek below is not revalidated.
  Frame* frame;
  {
    MutexLock lru_lock(&lru_mu_);
    if (lru_head_ == nullptr) return Status::OK();
    frame = lru_head_;
  }
  const PageId pid = frame->pid;
  BumpStat(&BufferPoolStats::evict_probe_steps);
  if (frame->dirty) {
    SHEAP_RETURN_IF_ERROR(WritePages({Candidate{pid, frame}}, 1));
  }
  BumpStat(&BufferPoolStats::evictions);
  {
    Shard& shard = ShardFor(pid);
    MutexLock lock(&shard.mu);
    shard.page_to_frame.erase(pid);
  }
  {
    MutexLock lru_lock(&lru_mu_);
    LruRemove(frame);
  }
  ReleaseFrame(frame);
  return Status::OK();
}

}  // namespace sheap
