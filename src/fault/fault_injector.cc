#include "fault/fault_injector.h"

#include <algorithm>

#include "storage/env.h"
#include "util/sim_clock.h"

namespace sheap {

void FaultInjector::Arm(FaultSpec spec) {
  MutexLock lock(&mu_);
  armed_.push_back(Armed{std::move(spec), /*consumed=*/false});
  ++stats_.armed;
}

uint64_t FaultInjector::Count(
    const char* name, std::unordered_map<std::string, uint64_t>* counts,
    std::vector<std::string>* order) {
  auto [it, fresh] = counts->emplace(name, 0);
  if (fresh) order->push_back(it->first);
  return ++it->second;
}

Status FaultInjector::OnPoint(const char* point) {
  // The crash is decided under mu_, but the tail is torn after releasing
  // it: TearTail takes the device's own lock, and mu_ stays a leaf.
  LogDevice* tear_device = nullptr;
  uint64_t tear_bytes = 0;
  {
    MutexLock lock(&mu_);
    ++stats_.points_hit;
    const uint64_t hit = Count(point, &point_counts_, &point_order_);
    if (tracing_) return Status::OK();
    auto it = std::find_if(armed_.begin(), armed_.end(), [&](const Armed& a) {
      return !a.consumed && a.spec.kind == FaultKind::kCrash &&
             a.spec.point == point && hit >= a.spec.hit;
    });
    if (it == armed_.end()) return Status::OK();
    it->consumed = true;
    ++stats_.fired;
    crash_fired_ = true;
    crash_point_ = point;
    if (it->spec.tear_tail_bytes > 0) {
      tear_device = log_device_;
      tear_bytes = it->spec.tear_tail_bytes;
    }
  }
  if (tear_device != nullptr) tear_device->TearTail(tear_bytes);
  return Status::Crashed(std::string("fault-injected crash at ") + point);
}

Status FaultInjector::OnIo(const char* site, uint64_t page) {
  MutexLock lock(&mu_);
  const uint64_t hit = Count(site, &io_counts_, &io_order_);
  if (tracing_) return Status::OK();
  for (Armed& a : armed_) {
    if (a.spec.kind != FaultKind::kTransientError) continue;
    if (a.spec.point != site) continue;
    if (a.spec.page != FaultSpec::kAnyPage && a.spec.page != page) continue;
    if (hit < a.spec.hit || hit >= a.spec.hit + a.spec.count) continue;
    ++stats_.fired;
    return Status::IOError(std::string("fault-injected I/O error at ") +
                           site);
  }
  return Status::OK();
}

bool FaultInjector::ConsumeBitRot(const char* site, uint64_t page) {
  MutexLock lock(&mu_);
  if (tracing_) return false;
  const auto it = io_counts_.find(site);
  const uint64_t hit = it == io_counts_.end() ? 0 : it->second;
  for (Armed& a : armed_) {
    if (a.consumed || a.spec.kind != FaultKind::kBitRot) continue;
    if (a.spec.point != site) continue;
    if (a.spec.page != FaultSpec::kAnyPage && a.spec.page != page) continue;
    if (hit < a.spec.hit) continue;
    a.consumed = true;
    ++stats_.fired;
    return true;
  }
  return false;
}

void FaultInjector::BackoffBeforeRetry(uint32_t attempt) {
  MutexLock lock(&mu_);
  ++stats_.retried;
  if (clock_ != nullptr) {
    // Exponential backoff starting at 0.5 simulated ms: a transient device
    // error costs the actor real (simulated) time, like a real driver's
    // retry path.
    clock_->Advance((500'000ull) << attempt);
  }
}

std::vector<std::pair<std::string, uint64_t>> FaultInjector::Points() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(point_order_.size());
  for (const std::string& name : point_order_) {
    out.emplace_back(name, point_counts_.at(name));
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> FaultInjector::IoSites() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(io_order_.size());
  for (const std::string& name : io_order_) {
    out.emplace_back(name, io_counts_.at(name));
  }
  return out;
}

}  // namespace sheap
