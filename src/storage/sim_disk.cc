#include "storage/sim_disk.h"

#include <string>

#include "fault/fault_injector.h"
#include "util/crc32c.h"

namespace sheap {

uint32_t SimDisk::PageCrc(const PageImage& image) {
  uint32_t crc = crc32c::Value(image.data.data(), image.data.size());
  crc = crc32c::Extend(crc, &image.page_lsn, sizeof(image.page_lsn));
  return crc32c::Mask(crc);
}

Status SimDisk::ReadPage(PageId pid, PageImage* out) {
#if SHEAP_FAULT_INJECTION
  if (faults_ != nullptr) {
    SHEAP_RETURN_IF_ERROR(faults_->OnIo("disk.read", pid));
    if (faults_->ConsumeBitRot("disk.read", pid)) {
      CorruptPage(pid, /*bit_index=*/6);
    }
  }
#endif
  MutexLock lock(&mu_);
  auto it = pages_.find(pid);
  if (it == pages_.end()) {
    // A page never written has no backing-store image: virtual memory
    // supplies a zero-filled frame without any I/O (fresh to-space pages
    // must be free to touch, or copying collection would pay a seek per
    // page it has never used).
    ++stats_.fresh_reads;
    *out = PageImage();
    return Status::OK();
  }
  clock_->ChargeRandomIo(kPageSizeBytes);
  ++stats_.page_reads;
  if (PageCrc(it->second.image) != it->second.crc) {
    ++stats_.crc_failures;
    return Status::Corruption("page " + std::to_string(pid) +
                              " failed CRC32C verification (bit rot)");
  }
  *out = it->second.image;
  return Status::OK();
}

Status SimDisk::WritePageRun(PageId first, const PageImage* const* images,
                             size_t n) {
  const CostModel& model = clock_->model();
  for (size_t i = 0; i < n; ++i) {
    const PageId pid = first + i;
#if SHEAP_FAULT_INJECTION
    if (faults_ != nullptr) {
      SHEAP_RETURN_IF_ERROR(faults_->OnIo("disk.write", pid));
    }
#endif
    // One seek positions the head; each page then pays only its transfer.
    clock_->Advance((i == 0 ? model.disk_seek_ns : 0) +
                    model.disk_transfer_ns_per_kib * (kPageSizeBytes / 1024));
    MutexLock lock(&mu_);
    ++stats_.page_writes;
    pages_[pid] = StoredPage{*images[i], PageCrc(*images[i])};
  }
  return Status::OK();
}

void SimDisk::DropPage(PageId pid) {
  MutexLock lock(&mu_);
  pages_.erase(pid);
}

void SimDisk::CorruptPage(PageId pid, uint32_t bit_index) {
  MutexLock lock(&mu_);
  auto it = pages_.find(pid);
  if (it == pages_.end()) return;
  PageImage& image = it->second.image;
  image.data[(bit_index / 8) % image.data.size()] ^=
      static_cast<uint8_t>(1u << (bit_index % 8));
}

}  // namespace sheap
