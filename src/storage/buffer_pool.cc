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

BufferPool::Frame* BufferPool::FramePtr(uint32_t idx) {
  MutexLock lock(&store_mu_);
  return &frame_store_[idx];
}

const BufferPool::Frame* BufferPool::FramePtr(uint32_t idx) const {
  MutexLock lock(&store_mu_);
  return &frame_store_[idx];
}

void BufferPool::BumpStat(uint64_t BufferPoolStats::*field,
                          uint64_t n) const {
  MutexLock lock(&stats_mu_);
  stats_.*field += n;
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  MutexLock lock(&stats_mu_);
  stats_ = BufferPoolStats();
}

void BufferPool::LruPushBack(uint32_t idx) {
  Frame& frame = *FramePtr(idx);
  frame.lru_prev = lru_tail_;
  frame.lru_next = kNoFrame;
  if (lru_tail_ != kNoFrame) {
    FramePtr(lru_tail_)->lru_next = idx;
  } else {
    lru_head_ = idx;
  }
  lru_tail_ = idx;
}

void BufferPool::LruRemove(uint32_t idx) {
  Frame& frame = *FramePtr(idx);
  if (frame.lru_prev != kNoFrame) {
    FramePtr(frame.lru_prev)->lru_next = frame.lru_next;
  } else {
    lru_head_ = frame.lru_next;
  }
  if (frame.lru_next != kNoFrame) {
    FramePtr(frame.lru_next)->lru_prev = frame.lru_prev;
  } else {
    lru_tail_ = frame.lru_prev;
  }
  frame.lru_prev = kNoFrame;
  frame.lru_next = kNoFrame;
}

void BufferPool::DirtyInsert(Shard* shard, const Frame& frame) {
  shard->dirty[frame.pid] = frame.rec_lsn;
  if (frame.rec_lsn != kInvalidLsn) {
    shard->dirty_rec_lsns.insert(frame.rec_lsn);
  }
}

void BufferPool::DirtyErase(Shard* shard, const Frame& frame) {
  shard->dirty.erase(frame.pid);
  if (frame.rec_lsn != kInvalidLsn) {
    auto it = shard->dirty_rec_lsns.find(frame.rec_lsn);
    SHEAP_CHECK(it != shard->dirty_rec_lsns.end());
    shard->dirty_rec_lsns.erase(it);  // one instance only
  }
}

uint32_t BufferPool::AllocateFrame() {
  MutexLock lock(&store_mu_);
  if (!free_frames_.empty()) {
    const uint32_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  frame_store_.emplace_back();
  return static_cast<uint32_t>(frame_store_.size() - 1);
}

void BufferPool::ReleaseFrame(uint32_t idx) {
  MutexLock lock(&store_mu_);
  frame_store_[idx] = Frame();
  free_frames_.push_back(idx);
}

StatusOr<PageImage*> BufferPool::Pin(PageId pid) {
  if (hooks_.before_pin) {
    SHEAP_RETURN_IF_ERROR(hooks_.before_pin(pid));
  }
  Shard& shard = ShardFor(pid);
  for (;;) {
    {
      MutexLock lock(&shard.mu);
      auto it = shard.page_to_frame.find(pid);
      if (it != shard.page_to_frame.end()) {
        BumpStat(&BufferPoolStats::hits);
        const uint32_t idx = it->second;
        Frame& frame = *FramePtr(idx);
        if (frame.pin_count == 0) {
          MutexLock lru_lock(&lru_mu_);
          LruRemove(idx);
        }
        ++frame.pin_count;
        return &frame.image;
      }
    }

    BumpStat(&BufferPoolStats::misses);
    // Concurrent regimes never evict: a victim could belong to another redo
    // worker's partition, or be mid-access by another mutator thread. The
    // pool transiently grows instead, exactly as it already does when every
    // frame is pinned.
    if (concurrent_depth_.load(std::memory_order_relaxed) == 0) {
      SHEAP_RETURN_IF_ERROR(MaybeEvict());
    }

    const uint32_t idx = AllocateFrame();
    Frame& frame = *FramePtr(idx);
    frame.pid = pid;
    // Transient read errors (device-level, injected in the simulator) are
    // retried with bounded exponential backoff; Corruption (bit rot caught
    // by the page CRC) and other errors surface immediately.
    FaultInjector* faults = disk_->faults();
    for (uint32_t attempt = 0;; ++attempt) {
      Status s = disk_->ReadPage(pid, &frame.image);
      if (s.ok()) break;
      if (!s.IsIOError() || attempt >= kMaxIoRetries) {
        if (s.IsIOError() && faults != nullptr) faults->NoteExhausted();
        ReleaseFrame(idx);
        return s;
      }
      if (faults != nullptr) faults->BackoffBeforeRetry(attempt);
    }
    frame.pin_count = 1;
    bool published;
    {
      MutexLock lock(&shard.mu);
      published = shard.page_to_frame.emplace(pid, idx).second;
    }
    if (!published) {
      // Lost a same-page miss race: another mutator thread fetched and
      // published this page while we were reading it. Discard our copy and
      // pin the published frame via the hit path (the winner already
      // emitted the page-fetch notification).
      ReleaseFrame(idx);
      continue;
    }
    if (hooks_.on_page_fetch) hooks_.on_page_fetch(pid);
    return &frame.image;
  }
}

void BufferPool::Unpin(PageId pid) {
  Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  auto it = shard.page_to_frame.find(pid);
  SHEAP_CHECK(it != shard.page_to_frame.end());
  Frame& frame = *FramePtr(it->second);
  SHEAP_CHECK(frame.pin_count > 0);
  if (--frame.pin_count == 0) {
    MutexLock lru_lock(&lru_mu_);
    LruPushBack(it->second);
  }
}

void BufferPool::MarkDirty(PageId pid, Lsn lsn) {
  Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  auto it = shard.page_to_frame.find(pid);
  SHEAP_CHECK(it != shard.page_to_frame.end());
  Frame& frame = *FramePtr(it->second);
  SHEAP_CHECK(frame.pin_count > 0);  // WAL protocol modifies pinned pages
  if (!frame.dirty) {
    frame.dirty = true;
    frame.rec_lsn = lsn;
    DirtyInsert(&shard, frame);
  }
  frame.image.page_lsn = std::max(frame.image.page_lsn, lsn);
}

void BufferPool::MarkDirtyUnlogged(PageId pid) {
  Shard& shard = ShardFor(pid);
  MutexLock lock(&shard.mu);
  auto it = shard.page_to_frame.find(pid);
  SHEAP_CHECK(it != shard.page_to_frame.end());
  Frame& frame = *FramePtr(it->second);
  SHEAP_CHECK(frame.pin_count > 0);
  if (!frame.dirty) {
    frame.dirty = true;
    frame.rec_lsn = kInvalidLsn;  // no log record protects this page
    DirtyInsert(&shard, frame);
  }
}

Status BufferPool::WriteBack(PageId pid) {
  uint32_t idx;
  {
    Shard& shard = ShardFor(pid);
    MutexLock lock(&shard.mu);
    auto it = shard.page_to_frame.find(pid);
    if (it == shard.page_to_frame.end()) {
      return Status::NotFound("page not resident");
    }
    idx = it->second;
  }
  const Frame& frame = *FramePtr(idx);
  if (frame.pin_count > 0) return Status::Busy("page pinned");
  if (!frame.dirty) return Status::OK();
  return WritePages({Candidate{pid, idx}}, 1);
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
  std::erase_if(dirty, [this](const Candidate& c) {
    return FramePtr(c.idx)->pin_count > 0;
  });
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
    max_lsn = std::max(max_lsn, FramePtr(c.idx)->image.page_lsn);
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
    images.push_back(&FramePtr(pages[i].idx)->image);
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
    Frame& frame = *FramePtr(pages[i].idx);
    Shard& shard = ShardFor(pages[i].pid);
    MutexLock lock(&shard.mu);
    DirtyErase(&shard, frame);
    frame.dirty = false;
    frame.rec_lsn = kInvalidLsn;
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

Lsn BufferPool::MinRecLsn() const {
  Lsn min_lsn = kInvalidLsn;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    if (shard.dirty_rec_lsns.empty()) continue;
    const Lsn lsn = *shard.dirty_rec_lsns.begin();
    if (min_lsn == kInvalidLsn || lsn < min_lsn) min_lsn = lsn;
  }
  return min_lsn;
}

void BufferPool::DropAll() {
  // Crash path; strictly serial (any worker pools have joined), so the
  // locks are taken one at a time — no nesting, no ordering concerns.
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.page_to_frame.clear();
    shard.dirty.clear();
    shard.dirty_rec_lsns.clear();
  }
  {
    MutexLock lru_lock(&lru_mu_);
    lru_head_ = kNoFrame;
    lru_tail_ = kNoFrame;
  }
  MutexLock store_lock(&store_mu_);
  frame_store_.clear();
  free_frames_.clear();
}

void BufferPool::DropRange(PageId first, uint64_t count) {
  for (PageId pid = first; pid < first + count; ++pid) {
    uint32_t idx;
    {
      Shard& shard = ShardFor(pid);
      MutexLock lock(&shard.mu);
      auto it = shard.page_to_frame.find(pid);
      if (it == shard.page_to_frame.end()) continue;
      idx = it->second;
      Frame& frame = *FramePtr(idx);
      SHEAP_CHECK(frame.pin_count == 0);
      if (frame.dirty) DirtyErase(&shard, frame);
      shard.page_to_frame.erase(it);
    }
    {
      MutexLock lru_lock(&lru_mu_);
      LruRemove(idx);
    }
    ReleaseFrame(idx);
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
  std::vector<std::pair<PageId, uint32_t>> entries;
  for (uint32_t idx = lru_head_; idx != kNoFrame;) {
    Frame& frame = *FramePtr(idx);
    entries.emplace_back(frame.pid, idx);
    idx = frame.lru_next;
  }
  std::sort(entries.begin(), entries.end());
  lru_head_ = kNoFrame;
  lru_tail_ = kNoFrame;
  for (const auto& [pid, idx] : entries) {
    Frame& frame = *FramePtr(idx);
    frame.lru_prev = kNoFrame;
    frame.lru_next = kNoFrame;
    LruPushBack(idx);
  }
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
  uint32_t idx;
  {
    MutexLock lock(&shard.mu);
    auto it = shard.page_to_frame.find(pid);
    if (it == shard.page_to_frame.end()) return 0;
    idx = it->second;
  }
  return FramePtr(idx)->pin_count;
}

size_t BufferPool::ResidentCount() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    n += shard.page_to_frame.size();
  }
  return n;
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
  uint32_t idx;
  PageId pid;
  {
    MutexLock lru_lock(&lru_mu_);
    if (lru_head_ == kNoFrame) return Status::OK();
    idx = lru_head_;
    pid = FramePtr(idx)->pid;
  }
  BumpStat(&BufferPoolStats::evict_probe_steps);
  Frame& frame = *FramePtr(idx);
  if (frame.dirty) {
    SHEAP_RETURN_IF_ERROR(WritePages({Candidate{pid, idx}}, 1));
  }
  BumpStat(&BufferPoolStats::evictions);
  {
    Shard& shard = ShardFor(pid);
    MutexLock lock(&shard.mu);
    shard.page_to_frame.erase(pid);
  }
  {
    MutexLock lru_lock(&lru_mu_);
    LruRemove(idx);
  }
  ReleaseFrame(idx);
  return Status::OK();
}

}  // namespace sheap
