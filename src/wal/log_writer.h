// LogWriter: spools records to a volatile log buffer and flushes them to the
// stable log device (paper §2.2.1). "Write to the log" = spool to the
// buffer; "force the log" = synchronous flush (commit). The buffer dies in a
// crash; only flushed bytes survive.
//
// Concurrency contract: the writer IS internally synchronized — one leaf
// mutex (mu_) makes each Append/Flush/Force atomic, so LSN assignment is a
// linearization point. In single-mutator mode the callers still serialize
// low-level actions, the lock is uncontended, and LSN assignment (and
// therefore the crash matrix) stays byte-deterministic exactly as before.
// With true concurrent mutators (StableHeapOptions::mutator_threads > 1)
// several threads spool records concurrently; the LSN order then depends
// on thread interleaving, which is why concurrent mode is validated by
// invariant checks after recovery rather than byte equality. mu_ ranks
// below every other lock (a buffer-pool shard or the commit queue may
// flush the log while held; the writer calls out only to the device and
// the fault injector). See DESIGN.md §5e/§5i.

#ifndef SHEAP_WAL_LOG_WRITER_H_
#define SHEAP_WAL_LOG_WRITER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "fault/fault_injector.h"
#include "storage/page.h"
#include "storage/env.h"
#include "wal/record.h"

namespace sheap {

/// Writer-internal counters: spool-buffer behaviour and drain activity.
/// `spool_reallocs` counts capacity growths of the volatile buffer after
/// construction — the steady state is zero (the buffer is reserved up
/// front and reused across drains, never reallocated per record).
struct LogWriterStats {
  uint64_t appends = 0;         // records spooled
  uint64_t drains = 0;          // buffer drains (async + synchronous)
  uint64_t spool_reallocs = 0;  // volatile-buffer capacity growths
};

/// Per-record-type counters for log-volume accounting (experiment E10).
struct LogVolumeStats {
  struct PerType {
    uint64_t records = 0;
    uint64_t bytes = 0;  // framed size
  };
  std::array<PerType, static_cast<size_t>(RecordType::kMaxRecordType) + 1>
      by_type{};

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto& t : by_type) total += t.bytes;
    return total;
  }
  const PerType& For(RecordType type) const {
    return by_type[static_cast<size_t>(type)];
  }
};

/// Appends framed records; LSN = 1 + global byte offset of the record frame.
class LogWriter {
 public:
  explicit LogWriter(LogDevice* device);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Spool the record to the volatile log buffer. Assigns and returns its
  /// LSN (also stored into rec->lsn). When the buffer passes
  /// kAutoFlushBytes it drains to the device asynchronously (the actor
  /// does not wait; the bytes remain tearable until a barrier).
  Lsn Append(LogRecord* rec) SHEAP_EXCLUDES(mu_);

  /// Background-drain threshold for the volatile log buffer.
  static constexpr size_t kAutoFlushBytes = 64 * 1024;

  /// Ensure every record with LSN <= lsn is on the stable device. Used by
  /// the buffer pool's WAL constraint; raises the durable barrier. IOError
  /// if the device could not make the flushed bytes durable.
  Status FlushTo(Lsn lsn) SHEAP_EXCLUDES(mu_);

  /// Flush the entire buffer without forcing the device (background/group
  /// flush; the flushed bytes may still tear in a crash unless a WAL flush
  /// or Force later raises the barrier).
  Status Flush() SHEAP_EXCLUDES(mu_);

  /// Force: flush everything, wait for the device, raise the barrier.
  /// This is the only synchronous log operation (commit-time, §2.2.1).
  /// IOError, with durable_lsn() unchanged, if the barrier did not rise.
  Status Force() SHEAP_EXCLUDES(mu_);

  /// The machine's fault injector (may be null outside the simulator).
  FaultInjector* faults() const { return device_->faults(); }

  Lsn next_lsn() const SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return NextLsnLocked();
  }
  Lsn last_lsn() const SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return last_lsn_;
  }
  Lsn flushed_lsn() const SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return flushed_lsn_;
  }
  /// Every record with LSN <= durable_lsn() is behind the durable barrier:
  /// on the stable device and acknowledged, so it can never tear. This is
  /// the bound the group-commit queue checks waiters against.
  Lsn durable_lsn() const SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return durable_lsn_;
  }

  uint64_t buffered_bytes() const SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return buffer_.size();
  }
  /// Quiescent inspection only (single mutator, or after workers join);
  /// returns references to mu_-guarded counters without the lock.
  const LogVolumeStats& volume_stats() const
      SHEAP_NO_THREAD_SAFETY_ANALYSIS {
    return volume_;
  }
  void ResetVolumeStats() SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    volume_ = LogVolumeStats();
  }
  const LogWriterStats& writer_stats() const
      SHEAP_NO_THREAD_SAFETY_ANALYSIS {
    return writer_;
  }

 private:
  Lsn NextLsnLocked() const SHEAP_REQUIRES(mu_) {
    return 1 + base_offset_ + buffer_.size();
  }
  Status FlushLocked() SHEAP_REQUIRES(mu_);
  /// Raise the device's durable barrier over every flushed byte and advance
  /// durable_lsn_ to match; IOError, durable_lsn_ unchanged, if the device
  /// could not (a failed fdatasync leaves RealLogDevice's barrier low).
  Status RaiseBarrierLocked() SHEAP_REQUIRES(mu_);

  LogDevice* device_;
  /// Leaf lock: one Append/Flush/Force is one atomic transition of the
  /// spool. Uncontended (and behavior-neutral) in single-mutator mode.
  mutable Mutex mu_;
  uint64_t base_offset_ SHEAP_GUARDED_BY(mu_);  // device size at last flush
  /// Framed bytes not yet on the device.
  std::vector<uint8_t> buffer_ SHEAP_GUARDED_BY(mu_);
  Lsn last_lsn_ SHEAP_GUARDED_BY(mu_) = kInvalidLsn;  // last assigned LSN
  /// All records <= this are on the device.
  Lsn flushed_lsn_ SHEAP_GUARDED_BY(mu_) = kInvalidLsn;
  /// All records <= this are un-tearable.
  Lsn durable_lsn_ SHEAP_GUARDED_BY(mu_) = kInvalidLsn;
  /// Last record currently in the buffer.
  Lsn last_buffered_lsn_ SHEAP_GUARDED_BY(mu_) = kInvalidLsn;
  LogVolumeStats volume_ SHEAP_GUARDED_BY(mu_);
  LogWriterStats writer_ SHEAP_GUARDED_BY(mu_);
};

}  // namespace sheap

#endif  // SHEAP_WAL_LOG_WRITER_H_
