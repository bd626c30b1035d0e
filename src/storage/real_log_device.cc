#include "storage/real_log_device.h"

#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "fault/fault_injector.h"
#include "util/crc32c.h"
#include "util/sim_clock.h"

namespace sheap {

namespace {

constexpr uint32_t kMasterMagic = 0x53484d52;  // "SHMR"
constexpr size_t kMasterBytes = 512;

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

StatusOr<std::unique_ptr<RealLogDevice>> RealLogDevice::Open(
    const std::string& prefix, SimClock* clock, FaultInjector* faults) {
  const std::string log_path = prefix + ".log";
  const std::string master_path = prefix + ".master";
  int log_fd = ::open(log_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::IOError("open " + log_path + ": " + strerror(errno));
  }
  int master_fd =
      ::open(master_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (master_fd < 0) {
    ::close(log_fd);
    return Status::IOError("open " + master_path + ": " + strerror(errno));
  }
  auto dev = std::unique_ptr<RealLogDevice>(
      new RealLogDevice(log_fd, master_fd, prefix, clock, faults));

  struct stat st;
  if (fstat(log_fd, &st) != 0) {
    return Status::IOError("fstat " + log_path + ": " + strerror(errno));
  }
  MutexLock lock(&dev->mu_);
  dev->file_size_ = static_cast<uint64_t>(st.st_size);
  // A reopen only happens after the writing process is gone; whatever
  // reached the file is all the log there is, and recovery treats it as
  // the durable prefix (the record-CRC scan still rejects a torn final
  // record, exactly as on the simulator).
  dev->durable_barrier_ = dev->file_size_;
  dev->synced_size_ = dev->file_size_;

  uint8_t rec[kMasterBytes] = {0};
  ssize_t got = pread(master_fd, rec, kMasterBytes, 0);
  if (got == static_cast<ssize_t>(kMasterBytes) &&
      GetU32(rec) == kMasterMagic) {
    uint32_t crc = crc32c::Mask(crc32c::Value(rec + 8, 24));
    if (crc == GetU32(rec + 4)) {
      dev->master_lsn_ = GetU64(rec + 8);
      dev->truncated_prefix_ = GetU64(rec + 16);
    }
  }
  return dev;
}

RealLogDevice::~RealLogDevice() {
  ::close(log_fd_);
  ::close(master_fd_);
}

Status RealLogDevice::Append(const uint8_t* data, size_t n) {
#if SHEAP_FAULT_INJECTION
  if (faults_ != nullptr) {
    SHEAP_RETURN_IF_ERROR(faults_->OnIo("log.append"));
  }
#endif
  clock_->ChargeLogAppend(n);
  MutexLock lock(&mu_);
  ++stats_.appends;
  stats_.bytes_appended += n;
  staged_.emplace_back(data, data + n);
  staged_bytes_ += n;
  return Status::OK();
}

Status RealLogDevice::AppendAsync(const uint8_t* data, size_t n) {
#if SHEAP_FAULT_INJECTION
  if (faults_ != nullptr) {
    SHEAP_RETURN_IF_ERROR(faults_->OnIo("log.append"));
  }
#endif
  MutexLock lock(&mu_);
  ++stats_.appends;
  stats_.bytes_appended += n;
  staged_.emplace_back(data, data + n);
  staged_bytes_ += n;
  return Status::OK();
}

Status RealLogDevice::SyncLocked() {
  // A batch leaves staged_ once it is in the file: after a failed batch
  // the retry writes only that batch and what follows it.
  while (!staged_.empty()) {
    struct iovec iov[64];
    int cnt = 0;
    size_t batch_bytes = 0;
    for (; cnt < 64 && static_cast<size_t>(cnt) < staged_.size(); ++cnt) {
      iov[cnt].iov_base = staged_[cnt].data();
      iov[cnt].iov_len = staged_[cnt].size();
      batch_bytes += staged_[cnt].size();
    }
    size_t remaining = batch_bytes;
    int idx = 0;
    while (remaining > 0) {
      ssize_t wrote =
          pwritev(log_fd_, iov + idx, cnt - idx,
                  static_cast<off_t>(file_size_ + (batch_bytes - remaining)));
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(prefix_ + ".log: pwritev: " + strerror(errno));
      }
      ++stats_.writev_batches;
      stats_.writev_iovecs += static_cast<uint64_t>(cnt - idx);
      remaining -= static_cast<size_t>(wrote);
      // Skip fully written iovecs; trim a partially written one.
      size_t w = static_cast<size_t>(wrote);
      while (w > 0 && iov[idx].iov_len <= w) {
        w -= iov[idx].iov_len;
        ++idx;
      }
      if (w > 0) {
        iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + w;
        iov[idx].iov_len -= w;
      }
    }
    file_size_ += batch_bytes;
    staged_bytes_ -= batch_bytes;
    staged_.erase(staged_.begin(), staged_.begin() + cnt);
  }
  if (file_size_ > synced_size_) {
    if (fdatasync(log_fd_) != 0) {
      return Status::IOError(prefix_ + ".log: fdatasync: " + strerror(errno));
    }
    ++stats_.fdatasyncs;
    synced_size_ = file_size_;
  }
  return Status::OK();
}

void RealLogDevice::Force() {
  clock_->ChargeLogForce();
  MutexLock lock(&mu_);
  ++stats_.forces;
  (void)SyncLocked();
}

void RealLogDevice::MarkDurableBarrier() {
  MutexLock lock(&mu_);
  if (SyncLocked().ok()) durable_barrier_ = file_size_;
}

Status RealLogDevice::ReadAt(uint64_t offset, size_t n, uint8_t* out) const {
  MutexLock lock(&mu_);
  if (offset < truncated_prefix_) {
    return Status::Corruption("log read before truncation point");
  }
  if (offset + n > file_size_ + staged_bytes_) {
    return Status::Corruption("log read past end of stable log");
  }
  size_t want = n;
  if (offset < file_size_) {
    size_t from_file = static_cast<size_t>(
        std::min<uint64_t>(want, file_size_ - offset));
    size_t done = 0;
    while (done < from_file) {
      ssize_t got = pread(log_fd_, out + done, from_file - done,
                          static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(prefix_ + ".log: pread: " + strerror(errno));
      }
      if (got == 0) {
        return Status::Corruption("log file shorter than expected");
      }
      done += static_cast<size_t>(got);
    }
    out += from_file;
    offset += from_file;
    want -= from_file;
  }
  // Remainder comes from the staged (not yet written) suffix.
  uint64_t pos = offset - file_size_;
  for (const std::vector<uint8_t>& chunk : staged_) {
    if (want == 0) break;
    if (pos >= chunk.size()) {
      pos -= chunk.size();
      continue;
    }
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(want, chunk.size() - pos));
    std::memcpy(out, chunk.data() + pos, take);
    out += take;
    want -= take;
    pos = 0;
  }
  return want == 0 ? Status::OK()
                   : Status::Corruption("log read past end of stable log");
}

void RealLogDevice::WriteMasterLocked() {
  uint8_t rec[kMasterBytes] = {0};
  PutU32(rec, kMasterMagic);
  PutU64(rec + 8, master_lsn_);
  PutU64(rec + 16, truncated_prefix_);
  PutU32(rec + 4, crc32c::Mask(crc32c::Value(rec + 8, 24)));
  size_t done = 0;
  while (done < kMasterBytes) {
    ssize_t wrote = pwrite(master_fd_, rec + done, kMasterBytes - done,
                           static_cast<off_t>(done));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return;
    }
    done += static_cast<size_t>(wrote);
  }
  if (fdatasync(master_fd_) == 0) ++stats_.fdatasyncs;
}

void RealLogDevice::SetMasterLsn(Lsn lsn) {
  clock_->ChargeRandomIo(64);
  MutexLock lock(&mu_);
  master_lsn_ = lsn;
  WriteMasterLocked();
}

void RealLogDevice::TruncatePrefix(uint64_t offset) {
  MutexLock lock(&mu_);
  if (offset <= truncated_prefix_) return;
  truncated_prefix_ = offset;
  WriteMasterLocked();
}

void RealLogDevice::TearTail(size_t n) {
  MutexLock lock(&mu_);
  const uint64_t total = file_size_ + staged_bytes_;
  uint64_t new_size = total > n ? total - n : 0;
  if (new_size < durable_barrier_) new_size = durable_barrier_;
  if (new_size >= total) return;
  if (new_size >= file_size_) {
    // Only staged bytes tear: drop from the back of the staging buffer.
    uint64_t keep = new_size - file_size_;
    size_t i = 0;
    uint64_t acc = 0;
    while (i < staged_.size() && acc + staged_[i].size() <= keep) {
      acc += staged_[i].size();
      ++i;
    }
    if (i < staged_.size()) {
      staged_[i].resize(static_cast<size_t>(keep - acc));
      staged_.erase(staged_.begin() + static_cast<ptrdiff_t>(i) + 1,
                    staged_.end());
      if (staged_[i].empty()) staged_.pop_back();
    }
    staged_bytes_ = keep;
    return;
  }
  staged_.clear();
  staged_bytes_ = 0;
  if (ftruncate(log_fd_, static_cast<off_t>(new_size)) == 0) {
    file_size_ = new_size;
    if (synced_size_ > new_size) synced_size_ = new_size;
  }
}

}  // namespace sheap
