// SimLogDevice: the stable-storage sequential log device (paper §2.2.1).
//
// The recovery system spools to a volatile log buffer (see wal::LogWriter);
// this device models only the *stable log*: bytes appended here survive a
// crash. A real implementation duplexes two disks; the simulator treats
// appends as atomic but supports torn-tail injection (truncating the final
// flush mid-record) to exercise the record CRC path.

#ifndef SHEAP_STORAGE_SIM_LOG_DEVICE_H_
#define SHEAP_STORAGE_SIM_LOG_DEVICE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/env.h"
#include "storage/page.h"
#include "util/sim_clock.h"

namespace sheap {

class FaultInjector;

/// Append-only stable byte store. Offsets are stable log addresses.
/// Thread-safe: a crash fault fired on one thread tears the tail while
/// another thread's log writer appends (mirrors RealLogDevice::mu_).
class SimLogDevice final : public LogDevice {
 public:
  explicit SimLogDevice(SimClock* clock, FaultInjector* faults = nullptr)
      : clock_(clock), faults_(faults) {}

  SimLogDevice(const SimLogDevice&) = delete;
  SimLogDevice& operator=(const SimLogDevice&) = delete;

  /// Append bytes durably; charges sequential-append cost (the caller
  /// waits for the device: WAL flushes and forces).
  Status Append(const uint8_t* data, size_t n) override SHEAP_EXCLUDES(mu_);

  /// Append bytes durably without charging the current actor (background
  /// drain of the log buffer: the device works while the processor runs).
  Status AppendAsync(const uint8_t* data, size_t n) override
      SHEAP_EXCLUDES(mu_);

  /// Charge the latency of a synchronous force (the data itself was already
  /// appended by Append; this models waiting for the device).
  void Force() override SHEAP_EXCLUDES(mu_) {
    clock_->ChargeLogForce();
    MutexLock lock(&mu_);
    ++stats_.forces;
  }

  uint64_t size() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return bytes_.size();
  }
  /// Raw stable-log bytes, for byte-equality checks. Quiescent callers
  /// only: the pointer is not protected once returned.
  const uint8_t* data() const SHEAP_NO_THREAD_SAFETY_ANALYSIS {
    return bytes_.data();
  }

  /// Read n bytes at offset into out; returns Corruption if out of range.
  Status ReadAt(uint64_t offset, size_t n, uint8_t* out) const override
      SHEAP_EXCLUDES(mu_);

  /// Master record: the well-known location (in a real system, a fixed disk
  /// block updated atomically) holding the LSN of the most recent
  /// checkpoint. Survives crashes.
  void SetMasterLsn(Lsn lsn) override SHEAP_EXCLUDES(mu_) {
    clock_->ChargeRandomIo(64);
    MutexLock lock(&mu_);
    master_lsn_ = lsn;
  }
  Lsn master_lsn() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return master_lsn_;
  }

  /// Discard the log prefix before `offset` (log truncation after
  /// checkpoint). Earlier offsets remain addressable but unreadable.
  void TruncatePrefix(uint64_t offset) override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (offset > truncated_prefix_) truncated_prefix_ = offset;
  }
  uint64_t truncated_prefix() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return truncated_prefix_;
  }

  /// Durable barrier: bytes at offsets below the barrier are acknowledged
  /// durable (a Force completed, or a WAL-mandated flush preceded a page
  /// write) and can never tear. Raised by the log writer.
  void MarkDurableBarrier() override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    durable_barrier_ = bytes_.size();
  }
  uint64_t durable_barrier() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return durable_barrier_;
  }

  /// Crash-injection hook: tear off up to the last n bytes, as if the final
  /// flush did not fully reach stable storage. Never tears below the
  /// durable barrier.
  void TearTail(size_t n) override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    uint64_t new_size = bytes_.size() > n ? bytes_.size() - n : 0;
    if (new_size < durable_barrier_) new_size = durable_barrier_;
    bytes_.resize(new_size);
  }

  FaultInjector* faults() const override { return faults_; }

  LogDeviceStats stats() const override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() override SHEAP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = LogDeviceStats();
  }

 private:
  SimClock* clock_;
  FaultInjector* faults_ = nullptr;
  /// Guards the stable bytes, the barrier, the prefix, the master and the
  /// counters. Leaf lock: the fault site is evaluated before taking it and
  /// clock charges need no lock.
  mutable Mutex mu_;
  std::vector<uint8_t> bytes_ SHEAP_GUARDED_BY(mu_);
  uint64_t truncated_prefix_ SHEAP_GUARDED_BY(mu_) = 0;
  uint64_t durable_barrier_ SHEAP_GUARDED_BY(mu_) = 0;
  Lsn master_lsn_ SHEAP_GUARDED_BY(mu_) = kInvalidLsn;
  LogDeviceStats stats_ SHEAP_GUARDED_BY(mu_);
};

}  // namespace sheap

#endif  // SHEAP_STORAGE_SIM_LOG_DEVICE_H_
