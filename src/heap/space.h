// Space: a contiguous, recoverably-allocated range of pages (paper §3.1,
// §4.2.3). Memory is divided into spaces; a copying collection copies live
// objects from from-space to a freshly allocated to-space and then frees
// from-space. Page ids are never reused, so a fresh space reads as zeroes.

#ifndef SHEAP_HEAP_SPACE_H_
#define SHEAP_HEAP_SPACE_H_

#include <cstdint>

#include "heap/address.h"
#include "storage/page.h"

namespace sheap {

/// Which half of the divided heap a space belongs to (paper Ch. 5).
enum class Area : uint8_t {
  kStable = 0,   // atomic GC + write-ahead logging
  kVolatile = 1  // plain GC, no logging, lost at crash
};

using SpaceId = uint32_t;
constexpr SpaceId kInvalidSpaceId = 0;

/// Descriptor of one space.
struct Space {
  SpaceId id = kInvalidSpaceId;
  PageId base_page = 0;
  uint64_t npages = 0;
  Area area = Area::kStable;

  HeapAddr base() const { return base_page * kPageSizeBytes; }
  HeapAddr end() const { return (base_page + npages) * kPageSizeBytes; }
  uint64_t size_bytes() const { return npages * kPageSizeBytes; }
  uint64_t size_words() const { return npages * kWordsPerPage; }
  bool Contains(HeapAddr a) const {
    return a >= base() && a < end();
  }
};

}  // namespace sheap

#endif  // SHEAP_HEAP_SPACE_H_
