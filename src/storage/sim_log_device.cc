#include "storage/sim_log_device.h"

#include <cstring>

#include "fault/fault_injector.h"

namespace sheap {

Status SimLogDevice::Append(const uint8_t* data, size_t n) {
#if SHEAP_FAULT_INJECTION
  if (faults_ != nullptr) {
    SHEAP_RETURN_IF_ERROR(faults_->OnIo("log.append"));
  }
#endif
  clock_->ChargeLogAppend(n);
  MutexLock lock(&mu_);
  ++stats_.appends;
  stats_.bytes_appended += n;
  bytes_.insert(bytes_.end(), data, data + n);
  return Status::OK();
}

Status SimLogDevice::AppendAsync(const uint8_t* data, size_t n) {
#if SHEAP_FAULT_INJECTION
  if (faults_ != nullptr) {
    SHEAP_RETURN_IF_ERROR(faults_->OnIo("log.append"));
  }
#endif
  MutexLock lock(&mu_);
  ++stats_.appends;
  stats_.bytes_appended += n;
  bytes_.insert(bytes_.end(), data, data + n);
  return Status::OK();
}

Status SimLogDevice::ReadAt(uint64_t offset, size_t n, uint8_t* out) const {
  MutexLock lock(&mu_);
  if (offset < truncated_prefix_) {
    return Status::Corruption("log read before truncation point");
  }
  if (offset + n > bytes_.size()) {
    return Status::Corruption("log read past end of stable log");
  }
  std::memcpy(out, bytes_.data() + offset, n);
  return Status::OK();
}

}  // namespace sheap
