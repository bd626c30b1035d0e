// RealDisk: the file-backed page store (the real-hardware Disk).
//
// One backing file holds 8 KiB slots, one per PageId: 4 KiB of page data
// followed by a 4 KiB metadata block (magic, live flag, page LSN, CRC32C).
// Both halves are written with a single pwrite, so every offset and size
// the device issues is 4096-aligned — the prerequisite for O_DIRECT. The
// store opens with O_DIRECT when the caller asks for it and the filesystem
// cooperates; otherwise (tmpfs, overlayfs, ...) it falls back to buffered
// I/O and counts the fallback, so benches can report which mode actually
// ran. Reads verify the stored CRC32C exactly like SimDisk, and the same
// fault-injection sites fire, so the crash matrix can drive this device
// too.
//
// Crash semantics match the paper's disk: bytes handed to pwrite survive a
// *process* kill (they live in the OS page cache); only machine-level
// durability needs fsync, which the WAL protocol provides via the log
// device — the store itself is write-back and relies on the log for
// redo, exactly like the simulated disk.

#ifndef SHEAP_STORAGE_REAL_DISK_H_
#define SHEAP_STORAGE_REAL_DISK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>

#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "storage/env.h"
#include "storage/page.h"

namespace sheap {

class FaultInjector;
class SimClock;

/// File-backed page store; see file comment.
class RealDisk final : public Disk {
 public:
  /// Slot geometry: 4 KiB data + 4 KiB metadata, both pwrite-aligned.
  static constexpr uint64_t kSlotBytes = 2 * kPageSizeBytes;

  /// Open (creating if needed) `path` as the page store. `direct_io`
  /// requests O_DIRECT; when the filesystem refuses, the store silently
  /// runs buffered and reports it through stats().buffered_fallbacks and
  /// direct_io(). Existing live slots are scanned so Exists/PageCount
  /// survive reopen.
  static StatusOr<std::unique_ptr<RealDisk>> Open(const std::string& path,
                                                  bool direct_io,
                                                  SimClock* clock,
                                                  FaultInjector* faults);
  ~RealDisk() override;

  RealDisk(const RealDisk&) = delete;
  RealDisk& operator=(const RealDisk&) = delete;

  Status ReadPage(PageId pid, PageImage* out) override SHEAP_EXCLUDES(mu_);
  Status WritePageRun(PageId first, const PageImage* const* images,
                      size_t n) override SHEAP_EXCLUDES(mu_);
  void DropPage(PageId pid) override SHEAP_EXCLUDES(mu_);

  /// Test hook (parity with SimDisk): flip one bit of the stored image
  /// without updating its CRC. No-op if the page was never written.
  void CorruptPage(PageId pid, uint32_t bit_index) SHEAP_EXCLUDES(mu_);

  bool Exists(PageId pid) const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return live_.count(pid) > 0;
  }
  size_t PageCount() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return live_.size();
  }

  DiskStats stats() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = DiskStats();
  }

  FaultInjector* faults() const override { return faults_; }
  SimClock* clock() const override { return clock_; }

  /// True when the file descriptor actually carries O_DIRECT.
  bool direct_io() const { return direct_io_; }

 private:
  RealDisk(int fd, bool direct_io, bool direct_requested, std::string path,
           SimClock* clock, FaultInjector* faults)
      : fd_(fd),
        direct_io_(direct_io),
        direct_requested_(direct_requested),
        path_(std::move(path)),
        clock_(clock),
        faults_(faults) {}

  /// Serialize one slot (data + meta) into `slot` (kSlotBytes, aligned).
  static void EncodeSlot(const PageImage& image, uint8_t* slot);
  /// Decode a slot; returns false for a fresh/dropped slot, Corruption via
  /// *crc_ok=false when the CRC fails.
  static bool DecodeSlot(const uint8_t* slot, PageImage* out, bool* crc_ok);

  Status PwriteAll(const uint8_t* buf, size_t n, uint64_t offset);
  /// Full-slot read; short reads past EOF zero-fill (fresh page).
  Status PreadSlot(PageId pid, uint8_t* slot);

  const int fd_;
  const bool direct_io_;
  const bool direct_requested_;
  const std::string path_;
  SimClock* const clock_;
  FaultInjector* const faults_;

  /// Guards live_ and stats_; parallel redo workers and flush writers hit
  /// the device concurrently (pread/pwrite themselves are thread-safe —
  /// positioned I/O shares no file offset). Leaf lock: nothing else is
  /// acquired while holding it.
  mutable Mutex mu_;
  std::unordered_set<PageId> live_ SHEAP_GUARDED_BY(mu_);
  mutable DiskStats stats_ SHEAP_GUARDED_BY(mu_);
};

}  // namespace sheap

#endif  // SHEAP_STORAGE_REAL_DISK_H_
