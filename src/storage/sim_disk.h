// SimDisk: the non-volatile page store backing the heap's one-level store.
//
// Crash semantics (paper §2.2.2): on a system failure main memory is lost but
// the disk survives. SimDisk *is* the disk, so it survives by construction —
// a crash is simulated by discarding the buffer pool while keeping the
// SimDisk. Page writes are atomic (standard single-page atomicity
// assumption).
//
// Every stored page carries a CRC32C over its image; reads verify it and
// report bit-rot (media decay, injected via FaultInjector or CorruptPage)
// as a typed Corruption status instead of handing garbage to the heap.
// Reads and writes can also fail with transient IOErrors when a fault is
// armed; callers (BufferPool) retry with bounded backoff.

#ifndef SHEAP_STORAGE_SIM_DISK_H_
#define SHEAP_STORAGE_SIM_DISK_H_

#include <cstdint>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/env.h"
#include "storage/page.h"
#include "util/sim_clock.h"

namespace sheap {

class FaultInjector;

/// Sparse array of page images, charging random-I/O cost to the SimClock.
class SimDisk final : public Disk {
 public:
  explicit SimDisk(SimClock* clock, FaultInjector* faults = nullptr)
      : clock_(clock), faults_(faults) {}

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  /// Read a page into *out. A page never written reads as all-zero with
  /// page_lsn == kInvalidLsn (the store is logically zero-initialized,
  /// matching a freshly allocated backing file). Returns IOError for an
  /// injected transient fault and Corruption when the stored image fails
  /// CRC32C verification (bit rot).
  Status ReadPage(PageId pid, PageImage* out) override SHEAP_EXCLUDES(mu_);

  /// Write `n` page-adjacent images (pages first..first+n-1) as one
  /// sequential device operation: the first page pays a seek plus its
  /// transfer, each further page only its transfer, so a one-page run costs
  /// exactly one random I/O. Each page fires its own "disk.write" fault
  /// site before it is charged or stored; on a transient fault, pages
  /// before the failing one remain written (rewriting a run is idempotent,
  /// so callers simply retry the run).
  Status WritePageRun(PageId first, const PageImage* const* images,
                      size_t n) override SHEAP_EXCLUDES(mu_);

  /// Drop a page (space deallocation). Subsequent reads return zeroes.
  void DropPage(PageId pid) override SHEAP_EXCLUDES(mu_);

  /// Test hook: flip one bit of a stored page's image without updating its
  /// CRC, modeling silent media decay. No-op if the page was never written.
  void CorruptPage(PageId pid, uint32_t bit_index) SHEAP_EXCLUDES(mu_);

  bool Exists(PageId pid) const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pages_.count(pid) > 0;
  }

  FaultInjector* faults() const override { return faults_; }
  SimClock* clock() const override { return clock_; }

  /// Snapshot of the counters (copied under the lock; flush writers and
  /// redo workers bump them concurrently).
  DiskStats stats() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = DiskStats();
  }

  /// Number of distinct pages ever written and not dropped.
  size_t PageCount() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pages_.size();
  }

 private:
  struct StoredPage {
    PageImage image;
    uint32_t crc = 0;  // CRC32C over image.data + image.page_lsn
  };

  static uint32_t PageCrc(const PageImage& image);

  SimClock* clock_;
  FaultInjector* faults_;
  /// Guards pages_ and stats_: parallel redo workers read pages and the
  /// flush writer pool stores runs concurrently. Simulated-time charges go
  /// through SimClock's thread-local sink, so they need no lock here.
  /// Leaf lock (rank 5): nothing else is acquired while holding it.
  mutable Mutex mu_;
  std::unordered_map<PageId, StoredPage> pages_ SHEAP_GUARDED_BY(mu_);
  mutable DiskStats stats_ SHEAP_GUARDED_BY(mu_);
};

}  // namespace sheap

#endif  // SHEAP_STORAGE_SIM_DISK_H_
