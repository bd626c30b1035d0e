// BufferPool: volatile main-memory cache of disk pages (paper §2.2.1).
//
// Responsibilities from the paper:
//  * pin/unpin: a pinned page may not be written back to disk (the
//    write-ahead log protocol pins pages while a modification's redo record
//    has not yet been spooled);
//  * the WAL constraint: a dirty frame is written to disk only after the
//    stable log contains every record up to the frame's page LSN
//    (Invariant I2 => repeating history, Invariant 2.1);
//  * page-fetch / end-write notifications so the recovery system can log
//    them and later deduce a superset of the dirty pages (§2.2.4, opt. 1).
//
// Write-back: every dirty page reaches disk through one pipeline, whoever
// asks — eviction, WriteBack(pid), WriteBackRandomSubset, FlushAll. It
// forces the log once through the largest page LSN of the chosen pages,
// coalesces them into page-adjacent runs, writes each run as one
// sequential device I/O (one retry loop, one `pool.writeback.before/after`
// crash-point pair), marks the run's pages clean under their shard lock,
// and finally spools the end-write notifications in ascending page order.
// Callers differ only in which pages they choose and in how many writer
// lanes the runs are spread over.
//
// Hot-path complexity: frames live in a stable-address store with a free
// list and are addressed by pointer everywhere (page map, LRU links, free
// list, write-back candidates); an intrusive doubly-linked LRU holds ONLY
// unpinned frames, so eviction pops its head in O(1) with no pinned-frame
// skipping; a dirty index (page -> recLSN) makes DirtyPages(), checkpoint
// snapshots, and write-back selection O(dirty) instead of O(frames) (the
// checkpoint reads its truncation floor off that snapshot). A short
// access through Access() that hits costs one shard lock, one page lookup
// and at most one LRU relink (DESIGN.md §5c, "One shard lock per pool
// hit").
//
// Thread safety: the page map, dirty index and hit/miss counters are
// sharded by page hash with a mutex per shard; the LRU links, the frame
// store's growth + free list, and the remaining stats each have their own
// mutex. A shard lock may be held while taking the LRU lock; the store and
// stats locks are taken with no other pool lock held. Never two shards at
// once (see DESIGN.md §5e for the ranks). The discipline is machine-checked:
// every guarded field carries SHEAP_GUARDED_BY, lock-held helpers carry
// SHEAP_REQUIRES, and a clang build rejects violations at compile time.
// Two concurrent regimes are supported:
//  * parallel redo (BeginConcurrent/EndConcurrent): recovery workers call
//    Pin/Unpin/MarkDirty from several threads, each confined to its own
//    page partition; eviction is disabled so no worker ever writes back (or
//    steals) another partition's frame, and the pool may transiently grow
//    past capacity exactly as it already does when every frame is pinned;
//  * parallel flush (FlushAll): the write-back pipeline spreads its runs
//    over a small pool of writer lanes.
// Outside those regimes the pool is used single-threaded as before.

#ifndef SHEAP_STORAGE_BUFFER_POOL_H_
#define SHEAP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "storage/page.h"
#include "storage/env.h"

namespace sheap {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t write_backs = 0;
  /// Frames examined while choosing an eviction victim. The intrusive
  /// unpinned-only LRU examines exactly one frame per eviction, so this
  /// stays equal to `evictions` (the old list scan skipped pinned frames
  /// and could touch O(frames)).
  uint64_t evict_probe_steps = 0;
  /// Frames visited by dirty-set traversals (DirtyPages, FlushAll,
  /// WriteBackRandomSubset). Bounded by the number of DIRTY frames per
  /// call, not by residency — asserted in storage_test.
  uint64_t dirty_scan_steps = 0;
  /// Page-adjacent runs written back, each as one sequential device I/O
  /// (`write_backs` counts their pages).
  uint64_t flush_runs = 0;
};

/// Main-memory page cache with pinning and WAL-constrained write-back.
class BufferPool {
 public:
  struct Hooks {
    /// Ensure the stable log contains all records with LSN <= lsn.
    /// Must be set; called before any dirty write-back.
    std::function<Status(Lsn)> flush_log_to;
    /// Called after fetching a page from disk (spool a page-fetch record).
    std::function<void(PageId)> on_page_fetch;
    /// Called after a dirty page reaches disk (spool an end-write record).
    std::function<void(PageId)> on_end_write;
    /// Called at the top of every Pin, before the page is looked up or
    /// fetched — the instant-recovery gate (recovery/instant_redo.h)
    /// replays a not-yet-redone page here so no caller ever observes
    /// un-redone bytes. A failure fails the Pin. The hook may itself Pin
    /// the same page (it guards against its own re-entry).
    std::function<Status(PageId)> before_pin;
  };

  BufferPool(Disk* disk, size_t capacity_frames, Hooks hooks);

  /// Replace the hooks (recovery runs with fetch/end-write notifications
  /// disabled, then installs the logging hooks for normal operation).
  void SetHooks(Hooks hooks) { hooks_ = std::move(hooks); }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pin the page in memory, fetching from disk on a miss. The returned
  /// frame pointer stays valid until the matching Unpin. Pins nest.
  StatusOr<PageImage*> Pin(PageId pid);

  /// Release one pin.
  void Unpin(PageId pid);

  /// What a short access does to the frame's dirty state: nothing (a read),
  /// MarkDirty's rule under the access's LSN, or MarkDirtyUnlogged's rule.
  enum class AccessMode { kRead, kWriteLogged, kWriteUnlogged };

  /// Run `fn(PageImage*)` on the page's image: the pool primitive behind
  /// every HeapMemory word and byte access. Its effect is that of Pin, fn,
  /// the mode's MarkDirty rule (with `lsn` for kWriteLogged) and Unpin:
  /// before_pin fires once, outside any lock; one hit or miss is counted;
  /// an unpinned frame becomes the LRU's most recent. A hit takes the
  /// page's shard lock once and runs `fn` under it, so `fn` must be short
  /// and must not call into the pool. A miss goes through Pin's fetch path.
  template <typename Fn>
  Status Access(PageId pid, Fn fn, AccessMode mode = AccessMode::kRead,
                Lsn lsn = kInvalidLsn) {
    return AccessImage(pid, mode, lsn, &fn, [](void* f, PageImage* image) {
      (*static_cast<Fn*>(f))(image);
    });
  }

  /// Record that the (pinned) frame was modified under `lsn`; sets the page
  /// LSN and, if the frame was clean, its recovery LSN.
  void MarkDirty(PageId pid, Lsn lsn);

  /// Mark a frame dirty with no associated log record (volatile-area pages,
  /// which are not logged and need not survive a crash).
  void MarkDirtyUnlogged(PageId pid);

  /// Write one dirty, unpinned frame back to disk (respecting WAL).
  /// Returns NotFound if the page is not resident, Busy if pinned,
  /// OK and no-op if clean.
  Status WriteBack(PageId pid);

  /// Write back every dirty unpinned frame, spreading the runs over
  /// flush_writers() lanes; simulated time advances by the busiest lane, so
  /// a flush of N scattered pages costs ~N/writers seeks instead of N. The
  /// log contents are those of a one-lane flush.
  Status FlushAll();

  /// Background-writer simulation: choose each dirty unpinned frame
  /// independently with probability `fraction` (one RNG draw per frame, in
  /// page order), then write the chosen frames back. Used for crash-state
  /// diversification and steady-state cleaning.
  Status WriteBackRandomSubset(Rng* rng, double fraction);

  /// Snapshot of the dirty-page table: (page, recLSN) pairs, page-ordered.
  std::vector<std::pair<PageId, Lsn>> DirtyPages() const;

  /// Crash: main memory is lost. Drops every frame without writing.
  void DropAll();

  /// Drop resident frames of pages in [first, first+count) without writing
  /// (space deallocation: from-space discard after a collection).
  void DropRange(PageId first, uint64_t count);

  /// Enter/leave a concurrent regime: between the calls, multiple threads
  /// may Pin/Unpin/MarkDirty. Two callers rely on it: parallel redo (each
  /// worker confined to its own page partition) and true concurrent
  /// mutators (same-page sharing allowed; a lost same-page miss race in Pin
  /// discards the loser's fetch and pins the published frame). Eviction is
  /// disabled while concurrent. The calls nest — the heap holds the regime
  /// open for its lifetime in multi-mutator mode while the instant-recovery
  /// drain opens inner regimes — and the final EndConcurrent rebuilds the
  /// unpinned-LRU in ascending page order, so subsequent eviction decisions
  /// do not depend on thread interleaving. Begin/End themselves must be
  /// called from quiescent (exclusive) contexts.
  void BeginConcurrent();
  void EndConcurrent();

  /// Number of writer lanes FlushAll spreads its runs over (1 = inline
  /// serial flush). Default 4.
  void set_flush_writers(uint32_t n) { flush_writers_ = n == 0 ? 1 : n; }
  uint32_t flush_writers() const { return flush_writers_; }

  bool IsResident(PageId pid) const;
  bool IsDirty(PageId pid) const;
  uint32_t PinCount(PageId pid) const;
  /// Frames holding a page: allocated minus free. Equal to the number of
  /// resident pages whenever no miss is between its fetch and its publish,
  /// which always holds in the serial contexts where eviction runs.
  size_t ResidentCount() const SHEAP_EXCLUDES(store_mu_);
  size_t DirtyCount() const;
  /// Frames on the reusable free list (allocated but unoccupied).
  size_t FreeFrameCount() const;

  /// Snapshot of the counters (hits and misses summed over the shards,
  /// the rest copied under the stats lock; concurrent regimes may be
  /// bumping them).
  BufferPoolStats stats() const SHEAP_EXCLUDES(stats_mu_);
  void ResetStats() SHEAP_EXCLUDES(stats_mu_);

 private:
  static constexpr uint32_t kShards = 16;

  struct Frame {
    PageImage image;
    PageId pid = 0;
    uint32_t pin_count = 0;
    bool dirty = false;
    Lsn rec_lsn = kInvalidLsn;  // LSN of first record dirtying this frame
    // Intrusive LRU links; in the list only while resident and unpinned.
    Frame* lru_prev = nullptr;
    Frame* lru_next = nullptr;
  };

  /// One lock's worth of the page map + dirty index + hit/miss counters.
  /// Page-ordered maps keep per-shard iteration deterministic; cross-shard
  /// snapshots merge-sort. `mu` is the pool's lowest rank: the only pool
  /// lock taken under it is lru_mu_, and never two shards at once.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<PageId, Frame*> page_to_frame SHEAP_GUARDED_BY(mu);
    std::map<PageId, Lsn> dirty SHEAP_GUARDED_BY(mu);  // page -> recLSN
    uint64_t hits SHEAP_GUARDED_BY(mu) = 0;
    uint64_t misses SHEAP_GUARDED_BY(mu) = 0;
  };

  static uint32_t ShardIndex(PageId pid) {
    return static_cast<uint32_t>((pid * 0x9E3779B97F4A7C15ull) >> 60) %
           kShards;
  }
  Shard& ShardFor(PageId pid) { return shards_[ShardIndex(pid)]; }
  const Shard& ShardFor(PageId pid) const { return shards_[ShardIndex(pid)]; }

  // Frames are addressed by pointer: the deque never moves its elements,
  // so a Frame* stays valid until the frame is released. Frame *contents*
  // are not capability-guarded: pin_count/dirty/image are protected by the
  // pin discipline, the shard lock on the Access hit path, and the
  // partition confinement of the concurrent regimes (DESIGN.md §5e).

  /// Pin's body after the before_pin gate: look the page up (a hit) or
  /// fetch and publish it (a miss), and pin it.
  StatusOr<PageImage*> PinFrame(PageId pid);

  /// Access's body; `fn(fn_arg, image)` is the caller's callable.
  Status AccessImage(PageId pid, AccessMode mode, Lsn lsn, void* fn_arg,
                     void (*fn)(void*, PageImage*));

  /// The one dirty-marking rule: a clean frame becomes dirty with recLSN
  /// `lsn` (kInvalidLsn for an unlogged write), and the page LSN becomes
  /// max(page LSN, lsn).
  void SetDirty(Shard* shard, Frame* frame, Lsn lsn)
      SHEAP_REQUIRES(shard->mu);

  // Unpinned-LRU list maintenance (O(1) each).
  void LruPushBack(Frame* frame) SHEAP_REQUIRES(lru_mu_);
  void LruRemove(Frame* frame) SHEAP_REQUIRES(lru_mu_);

  Frame* AllocateFrame() SHEAP_EXCLUDES(store_mu_);
  void ReleaseFrame(Frame* frame) SHEAP_EXCLUDES(store_mu_);

  void BumpStat(uint64_t BufferPoolStats::*field, uint64_t n = 1) const
      SHEAP_EXCLUDES(stats_mu_);

  /// Evict one unpinned frame if over capacity. Dirty victims are written
  /// back first (WAL-constrained). With every frame pinned the pool grows
  /// past capacity rather than fail. Serial contexts only.
  Status MaybeEvict();

  /// A dirty, unpinned frame chosen for write-back.
  struct Candidate {
    PageId pid = 0;
    Frame* frame = nullptr;
  };

  /// The dirty, unpinned frames in ascending page order — the one scan of
  /// the dirty set behind FlushAll and WriteBackRandomSubset. O(dirty).
  std::vector<Candidate> DirtyCandidates();

  /// The write-back pipeline (see file comment). `pages` are dirty,
  /// unpinned and in ascending page order; their runs are spread over up
  /// to `lanes` writer threads. On failure the pages of every run not
  /// written stay dirty and get no end-write; the first error in page
  /// order is returned.
  Status WritePages(const std::vector<Candidate>& pages, uint32_t lanes);

  /// Write the page-adjacent run pages[0..n) to disk and mark it clean.
  /// The log already covers it (WritePages forced it).
  Status WriteRun(const Candidate* pages, size_t n);

  Disk* disk_;
  size_t capacity_;
  Hooks hooks_;
  uint32_t flush_writers_ = 4;
  /// Concurrent-regime nesting depth (eviction disabled while > 0).
  /// Mutated only from quiescent contexts; read (relaxed) on the Pin path.
  std::atomic<uint32_t> concurrent_depth_{0};

  // frame_store_ growth + free list: taken only on a miss or a release,
  // with no other pool lock held.
  mutable Mutex store_mu_ SHEAP_ACQUIRED_AFTER(lru_mu_);
  /// Stable addresses; slots are reused.
  std::deque<Frame> frame_store_ SHEAP_GUARDED_BY(store_mu_);
  std::vector<Frame*> free_frames_ SHEAP_GUARDED_BY(store_mu_);

  Shard shards_[kShards];

  mutable Mutex lru_mu_;  // the unpinned-LRU links; taken under a shard lock
  Frame* lru_head_ SHEAP_GUARDED_BY(lru_mu_) = nullptr;  // least recent
  Frame* lru_tail_ SHEAP_GUARDED_BY(lru_mu_) = nullptr;  // most recent

  // Every counter but hits/misses (those live in the shards); a leaf.
  mutable Mutex stats_mu_ SHEAP_ACQUIRED_AFTER(store_mu_);
  mutable BufferPoolStats stats_ SHEAP_GUARDED_BY(stats_mu_);
};

}  // namespace sheap

#endif  // SHEAP_STORAGE_BUFFER_POOL_H_
