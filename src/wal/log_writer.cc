#include "wal/log_writer.h"

#include "common/check.h"

namespace sheap {

LogWriter::LogWriter(LogDevice* device)
    : device_(device), base_offset_(device->size()) {
  // Reopening after a crash: everything already on the device is flushed.
  flushed_lsn_ = base_offset_ > 0 ? base_offset_ : kInvalidLsn;
  // flushed_lsn_ as an upper bound: any LSN <= base_offset_ is stable. We
  // track it as a byte-offset bound rather than an exact record LSN; the
  // comparison in FlushTo only needs the bound. Recovery replays only
  // barriered bytes, so on reopen everything on the device is durable.
  durable_lsn_ = flushed_lsn_;
  // Size the spool once so steady-state appends never reallocate: the
  // buffer drains at kAutoFlushBytes, so 2x covers the largest overshoot a
  // single oversized record can cause before the drain.
  buffer_.reserve(2 * kAutoFlushBytes);
}

Lsn LogWriter::Append(LogRecord* rec) {
  MutexLock lock(&mu_);
  const Lsn lsn = NextLsnLocked();
  rec->lsn = lsn;
  const size_t before = buffer_.size();
  const size_t cap_before = buffer_.capacity();
  EncodeFramed(*rec, &buffer_);
  ++writer_.appends;
  if (buffer_.capacity() != cap_before) ++writer_.spool_reallocs;
  auto& pt = volume_.by_type[static_cast<size_t>(rec->type)];
  ++pt.records;
  pt.bytes += buffer_.size() - before;
  last_lsn_ = lsn;
  last_buffered_lsn_ = lsn;
  if (buffer_.size() >= kAutoFlushBytes) {
    // Background drain: the device streams the buffer out while the
    // processor continues (no simulated-time charge to this actor). A
    // failed drain is harmless — the bytes stay spooled and the next
    // flush (which retries with backoff) carries them out.
    if (device_->AppendAsync(buffer_.data(), buffer_.size()).ok()) {
      base_offset_ += buffer_.size();
      buffer_.clear();  // keeps capacity: the spool is reused, not freed
      flushed_lsn_ = last_buffered_lsn_;
      ++writer_.drains;
    }
  }
  return lsn;
}

Status LogWriter::FlushTo(Lsn lsn) {
  MutexLock lock(&mu_);
  if (lsn > flushed_lsn_) {
    SHEAP_RETURN_IF_ERROR(FlushLocked());
  }
  // Crash window: the records are on the device but still tearable. The
  // WAL constraint is only satisfied once the barrier below is raised.
  SHEAP_FAULT_POINT(faults(), "wal.walflush.barrier");
  // The WAL dependency makes everything up to `lsn` un-tearable, including
  // bytes that reached the device via background drain.
  return RaiseBarrierLocked();
}

Status LogWriter::RaiseBarrierLocked() {
  device_->MarkDurableBarrier();
  // A device whose sync failed leaves its barrier below the flushed bytes:
  // nothing new is durable, so nothing may be acknowledged as durable.
  if (device_->durable_barrier() < base_offset_) {
    return Status::IOError("log sync failed: durable barrier not raised");
  }
  if (flushed_lsn_ != kInvalidLsn) durable_lsn_ = flushed_lsn_;
  return Status::OK();
}

Status LogWriter::Flush() {
  MutexLock lock(&mu_);
  return FlushLocked();
}

Status LogWriter::FlushLocked() {
  if (buffer_.empty()) return Status::OK();
  SHEAP_FAULT_POINT(faults(), "wal.flush.begin");
  for (uint32_t attempt = 0;; ++attempt) {
    Status s = device_->Append(buffer_.data(), buffer_.size());
    if (s.ok()) break;
    if (!s.IsIOError()) return s;  // injected crash, etc.
    if (attempt >= kMaxIoRetries) {
      if (faults() != nullptr) faults()->NoteExhausted();
      return s;
    }
    if (faults() != nullptr) faults()->BackoffBeforeRetry(attempt);
  }
  // Crash window: bytes reached the device, but the writer has not yet
  // advanced its bookkeeping. The heap dies here anyway; recovery sees an
  // un-barriered (tearable) suffix either way.
  SHEAP_FAULT_POINT(faults(), "wal.flush.mid");
  base_offset_ += buffer_.size();
  buffer_.clear();  // keeps capacity: the spool is reused, not freed
  if (last_buffered_lsn_ != kInvalidLsn) flushed_lsn_ = last_buffered_lsn_;
  ++writer_.drains;
  return Status::OK();
}

Status LogWriter::Force() {
  MutexLock lock(&mu_);
  SHEAP_RETURN_IF_ERROR(FlushLocked());
  device_->Force();
  // Crash window: the device acknowledged the force but the barrier (our
  // model of the acknowledgement reaching the commit path) is not raised.
  SHEAP_FAULT_POINT(faults(), "wal.force.before_barrier");
  SHEAP_RETURN_IF_ERROR(RaiseBarrierLocked());
  SHEAP_FAULT_POINT(faults(), "wal.force.after_barrier");
  return Status::OK();
}

}  // namespace sheap
