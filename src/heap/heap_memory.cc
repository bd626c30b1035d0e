#include "heap/heap_memory.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace sheap {

namespace {

using AccessMode = BufferPool::AccessMode;

// Run `fn(bytes, done, chunk)` once per page chunk of the byte range
// [a, a + n), each through one pool access: `bytes` is the chunk's first
// byte in the page image and `done` its offset in the range.
template <typename Fn>
Status ForEachChunk(BufferPool* pool, HeapAddr a, uint64_t n, AccessMode mode,
                    Lsn lsn, Fn fn) {
  SHEAP_DCHECK(IsWordAligned(a) && n % kWordSizeBytes == 0);
  uint64_t done = 0;
  while (done < n) {
    const uint32_t off = OffsetInPage(a + done);
    const uint64_t chunk = std::min<uint64_t>(n - done, kPageSizeBytes - off);
    SHEAP_RETURN_IF_ERROR(pool->Access(
        PageOf(a + done),
        [&](PageImage* image) { fn(image->data.data() + off, done, chunk); },
        mode, lsn));
    done += chunk;
  }
  return Status::OK();
}

}  // namespace

StatusOr<uint64_t> HeapMemory::ReadWord(HeapAddr a) {
  SHEAP_DCHECK(IsWordAligned(a));
  uint64_t v = 0;
  SHEAP_RETURN_IF_ERROR(pool_->Access(PageOf(a), [&](PageImage* image) {
    v = image->ReadWord(WordInPage(a));
  }));
  return v;
}

Status HeapMemory::WriteWordLogged(HeapAddr a, uint64_t v, Lsn lsn) {
  SHEAP_DCHECK(IsWordAligned(a));
  return pool_->Access(
      PageOf(a),
      [&](PageImage* image) { image->WriteWord(WordInPage(a), v); },
      AccessMode::kWriteLogged, lsn);
}

Status HeapMemory::WriteWordUnlogged(HeapAddr a, uint64_t v) {
  SHEAP_DCHECK(IsWordAligned(a));
  return pool_->Access(
      PageOf(a),
      [&](PageImage* image) { image->WriteWord(WordInPage(a), v); },
      AccessMode::kWriteUnlogged);
}

Status HeapMemory::ReadBytes(HeapAddr a, uint64_t n, uint8_t* out) {
  return ForEachChunk(pool_, a, n, AccessMode::kRead, kInvalidLsn,
                      [out](uint8_t* page, uint64_t done, uint64_t chunk) {
                        std::memcpy(out + done, page, chunk);
                      });
}

Status HeapMemory::WriteBytesLogged(HeapAddr a, const uint8_t* data,
                                    uint64_t n, Lsn lsn) {
  return ForEachChunk(pool_, a, n, AccessMode::kWriteLogged, lsn,
                      [data](uint8_t* page, uint64_t done, uint64_t chunk) {
                        std::memcpy(page, data + done, chunk);
                      });
}

Status HeapMemory::WriteBytesUnlogged(HeapAddr a, const uint8_t* data,
                                      uint64_t n) {
  return ForEachChunk(pool_, a, n, AccessMode::kWriteUnlogged, kInvalidLsn,
                      [data](uint8_t* page, uint64_t done, uint64_t chunk) {
                        std::memcpy(page, data + done, chunk);
                      });
}

StatusOr<ObjectHeader> HeapMemory::ReadHeader(HeapAddr base) {
  SHEAP_ASSIGN_OR_RETURN(uint64_t w, ReadWord(base));
  if (!IsHeaderWord(w)) {
    return Status::Corruption("expected object header word");
  }
  return DecodeHeader(w);
}

}  // namespace sheap
