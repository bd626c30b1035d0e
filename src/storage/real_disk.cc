#include "storage/real_disk.h"

#include <errno.h>
#include <fcntl.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "fault/fault_injector.h"
#include "util/crc32c.h"
#include "util/sim_clock.h"

namespace sheap {

namespace {

constexpr uint32_t kSlotMagic = 0x53485250;  // "SHRP"
constexpr uint32_t kSlotLive = 1;

// Aligned scratch buffer for O_DIRECT transfers; alignment is the slot
// half (4096), which satisfies every known O_DIRECT requirement.
class AlignedBuf {
 public:
  explicit AlignedBuf(size_t n) {
    if (posix_memalign(&p_, kPageSizeBytes, n) != 0) p_ = nullptr;
    if (p_ != nullptr) std::memset(p_, 0, n);
  }
  ~AlignedBuf() { free(p_); }
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  uint8_t* get() { return static_cast<uint8_t*>(p_); }

 private:
  void* p_ = nullptr;
};

uint32_t PageCrc(const PageImage& image) {
  uint32_t crc = crc32c::Value(image.data.data(), image.data.size());
  crc = crc32c::Extend(crc, &image.page_lsn, sizeof(image.page_lsn));
  return crc32c::Mask(crc);
}

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

StatusOr<std::unique_ptr<RealDisk>> RealDisk::Open(const std::string& path,
                                                   bool direct_io,
                                                   SimClock* clock,
                                                   FaultInjector* faults) {
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  int fd = -1;
  bool direct = false;
#ifdef O_DIRECT
  if (direct_io) {
    fd = ::open(path.c_str(), flags | O_DIRECT, 0644);
    direct = fd >= 0;
  }
#endif
  if (fd < 0) {
    // tmpfs and friends reject O_DIRECT with EINVAL: run buffered.
    fd = ::open(path.c_str(), flags, 0644);
  }
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  auto disk = std::unique_ptr<RealDisk>(
      new RealDisk(fd, direct, direct_io, path, clock, faults));

  // Rebuild the live-slot set so Exists/PageCount survive reopen: read
  // each slot's metadata block (open-time only; sequential 4 KiB reads).
  struct stat st;
  if (fstat(fd, &st) != 0) {
    return Status::IOError("fstat " + path + ": " + strerror(errno));
  }
  const uint64_t slots = static_cast<uint64_t>(st.st_size) / kSlotBytes;
  AlignedBuf meta(kPageSizeBytes);
  if (meta.get() == nullptr) return Status::IOError("posix_memalign failed");
  for (uint64_t s = 0; s < slots; ++s) {
    const uint64_t off = s * kSlotBytes + kPageSizeBytes;
    ssize_t got = pread(fd, meta.get(), kPageSizeBytes, off);
    if (got != static_cast<ssize_t>(kPageSizeBytes)) continue;
    if (GetU32(meta.get()) == kSlotMagic &&
        GetU32(meta.get() + 4) == kSlotLive) {
      disk->live_.insert(s);
    }
  }
  return disk;
}

RealDisk::~RealDisk() { ::close(fd_); }

void RealDisk::EncodeSlot(const PageImage& image, uint8_t* slot) {
  std::memcpy(slot, image.data.data(), kPageSizeBytes);
  uint8_t* meta = slot + kPageSizeBytes;
  std::memset(meta, 0, kPageSizeBytes);
  PutU32(meta, kSlotMagic);
  PutU32(meta + 4, kSlotLive);
  PutU64(meta + 8, image.page_lsn);
  PutU32(meta + 16, PageCrc(image));
}

bool RealDisk::DecodeSlot(const uint8_t* slot, PageImage* out, bool* crc_ok) {
  *crc_ok = true;
  const uint8_t* meta = slot + kPageSizeBytes;
  if (GetU32(meta) != kSlotMagic || GetU32(meta + 4) != kSlotLive) {
    return false;  // fresh or dropped slot
  }
  std::memcpy(out->data.data(), slot, kPageSizeBytes);
  out->page_lsn = GetU64(meta + 8);
  *crc_ok = PageCrc(*out) == GetU32(meta + 16);
  return true;
}

Status RealDisk::PwriteAll(const uint8_t* buf, size_t n, uint64_t offset) {
  while (n > 0) {
    ssize_t wrote = pwrite(fd_, buf, n, static_cast<off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(path_ + ": pwrite: " + strerror(errno));
    }
    buf += wrote;
    n -= static_cast<size_t>(wrote);
    offset += static_cast<uint64_t>(wrote);
  }
  return Status::OK();
}

Status RealDisk::PreadSlot(PageId pid, uint8_t* slot) {
  size_t n = kSlotBytes;
  uint64_t offset = pid * kSlotBytes;
  uint8_t* dst = slot;
  while (n > 0) {
    ssize_t got = pread(fd_, dst, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(path_ + ": pread: " + strerror(errno));
    }
    if (got == 0) {
      std::memset(dst, 0, n);  // past EOF: fresh page
      return Status::OK();
    }
    dst += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

Status RealDisk::ReadPage(PageId pid, PageImage* out) {
#if SHEAP_FAULT_INJECTION
  if (faults_ != nullptr) {
    SHEAP_RETURN_IF_ERROR(faults_->OnIo("disk.read", pid));
    if (faults_->ConsumeBitRot("disk.read", pid)) {
      CorruptPage(pid, /*bit_index=*/6);
    }
  }
#endif
  AlignedBuf slot(kSlotBytes);
  if (slot.get() == nullptr) return Status::IOError("posix_memalign failed");
  SHEAP_RETURN_IF_ERROR(PreadSlot(pid, slot.get()));
  bool crc_ok = true;
  const bool present = DecodeSlot(slot.get(), out, &crc_ok);
  MutexLock lock(&mu_);
  if (!present) {
    ++stats_.fresh_reads;
    *out = PageImage();
    return Status::OK();
  }
  ++stats_.page_reads;
  if (!crc_ok) {
    ++stats_.crc_failures;
    return Status::Corruption("page " + std::to_string(pid) +
                              " failed CRC32C verification (bit rot)");
  }
  return Status::OK();
}

Status RealDisk::WritePageRun(PageId first, const PageImage* const* images,
                              size_t n) {
  if (n == 0) return Status::OK();
  AlignedBuf run(n * kSlotBytes);
  if (run.get() == nullptr) return Status::IOError("posix_memalign failed");
  for (size_t i = 0; i < n; ++i) {
#if SHEAP_FAULT_INJECTION
    if (faults_ != nullptr) {
      SHEAP_RETURN_IF_ERROR(faults_->OnIo("disk.write", first + i));
    }
#endif
    EncodeSlot(*images[i], run.get() + i * kSlotBytes);
  }
  SHEAP_RETURN_IF_ERROR(
      PwriteAll(run.get(), n * kSlotBytes, first * kSlotBytes));
  MutexLock lock(&mu_);
  for (size_t i = 0; i < n; ++i) {
    ++stats_.page_writes;
    if (direct_io_) {
      ++stats_.direct_io_writes;
    } else if (direct_requested_) {
      ++stats_.buffered_fallbacks;
    }
    live_.insert(first + i);
  }
  return Status::OK();
}

void RealDisk::DropPage(PageId pid) {
  {
    MutexLock lock(&mu_);
    if (live_.erase(pid) == 0) return;
  }
  // Zero the metadata block: the slot decodes as fresh from now on.
  AlignedBuf meta(kPageSizeBytes);
  if (meta.get() == nullptr) return;
  (void)PwriteAll(meta.get(), kPageSizeBytes,
                  pid * kSlotBytes + kPageSizeBytes);
}

void RealDisk::CorruptPage(PageId pid, uint32_t bit_index) {
  {
    MutexLock lock(&mu_);
    if (live_.count(pid) == 0) return;
  }
  AlignedBuf slot(kSlotBytes);
  if (slot.get() == nullptr) return;
  if (!PreadSlot(pid, slot.get()).ok()) return;
  uint8_t* data = slot.get();
  data[(bit_index / 8) % kPageSizeBytes] ^=
      static_cast<uint8_t>(1u << (bit_index % 8));
  (void)PwriteAll(slot.get(), kSlotBytes, pid * kSlotBytes);
}

}  // namespace sheap
