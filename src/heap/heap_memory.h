// HeapMemory: word- and byte-granular access to the one-level store through
// the buffer pool, with the pin/modify/mark-dirty discipline of the
// write-ahead log protocol (paper §2.2.3). Each page touched is one
// BufferPool::Access, which applies that discipline under one shard lock.
//
// Logged writes carry the LSN of the record describing them; the buffer pool
// uses it to enforce the WAL constraint before write-back. Unlogged writes
// (volatile-area pages) dirty the frame without a protecting record.
//
// HeapMemory charges no simulated time itself: the mutator-facing layer
// charges access costs, collectors charge copy/scan costs, and the storage
// layer charges I/O, so each cost is attributed exactly once.

#ifndef SHEAP_HEAP_HEAP_MEMORY_H_
#define SHEAP_HEAP_HEAP_MEMORY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "heap/address.h"
#include "heap/object.h"
#include "storage/buffer_pool.h"

namespace sheap {

/// Word/byte access with automatic pinning; operations may span pages.
class HeapMemory {
 public:
  explicit HeapMemory(BufferPool* pool) : pool_(pool) {}

  StatusOr<uint64_t> ReadWord(HeapAddr a);
  Status WriteWordLogged(HeapAddr a, uint64_t v, Lsn lsn);
  Status WriteWordUnlogged(HeapAddr a, uint64_t v);

  /// Bulk reads/writes; may cross page boundaries. `a` and `n` are in bytes
  /// and must be word-aligned.
  Status ReadBytes(HeapAddr a, uint64_t n, uint8_t* out);
  Status WriteBytesLogged(HeapAddr a, const uint8_t* data, uint64_t n,
                          Lsn lsn);
  Status WriteBytesUnlogged(HeapAddr a, const uint8_t* data, uint64_t n);

  /// Read and decode the header word at `base`; Corruption if the word is
  /// not a header (e.g. the object was forwarded).
  StatusOr<ObjectHeader> ReadHeader(HeapAddr base);

  /// Read the raw first word of an object (header or forwarding pointer).
  StatusOr<uint64_t> ReadHeaderWord(HeapAddr base) { return ReadWord(base); }

  BufferPool* pool() { return pool_; }

 private:
  BufferPool* pool_;
};

}  // namespace sheap

#endif  // SHEAP_HEAP_HEAP_MEMORY_H_
