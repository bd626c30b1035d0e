// LogReader: sequential and random-access reads of the *stable* log.
// Recovery only ever consults the stable log (the volatile buffer died in
// the crash); a torn final record (CRC mismatch / short frame) marks the
// end of the recoverable log.
//
// The sequential path (Next) is segmented and double-buffered: the reader
// holds the current segment in memory and prefetches the following segment
// from the device before the current one is exhausted, so record decode
// overlaps the (simulated) device transfer of the next segment instead of
// issuing a device read per frame. A frame that lies inside the current
// segment is checked and decoded in place; only a frame that straddles two
// segments is first assembled in a scratch buffer the reader reuses.
// Random access (ReadAt, used by undo's prev_lsn chain walks) reads the
// frame straight from the device into that same buffer. Both paths decode
// through one CRC-and-decode step.

#ifndef SHEAP_WAL_LOG_READER_H_
#define SHEAP_WAL_LOG_READER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "storage/page.h"
#include "storage/env.h"
#include "wal/record.h"

namespace sheap {

/// Reads framed records from a LogDevice.
class LogReader {
 public:
  /// Size of each streamed segment. Large enough that a segment holds many
  /// records (frames commonly run tens to hundreds of bytes), small enough
  /// that double-buffering two of them is cheap.
  static constexpr size_t kDefaultSegmentBytes = 128 * 1024;

  explicit LogReader(const LogDevice* device,
                     size_t segment_bytes = kDefaultSegmentBytes)
      : device_(device),
        segment_bytes_(segment_bytes),
        offset_(device->truncated_prefix()) {}

  /// Position the cursor at the record with the given LSN.
  Status Seek(Lsn lsn);

  /// Read the next record into *rec and advance. Returns false at the end
  /// of the valid log (clean end or torn tail). A torn tail is recorded in
  /// saw_torn_tail() but is not an error: repeating history simply stops
  /// at the last complete record.
  StatusOr<bool> Next(LogRecord* rec);

  /// Random access: read the single record at `lsn`.
  Status ReadAt(Lsn lsn, LogRecord* rec);

  bool saw_torn_tail() const { return saw_torn_tail_; }
  uint64_t offset() const { return offset_; }

  /// Segments loaded ahead of the decode cursor (the double-buffer fills).
  uint64_t segments_prefetched() const { return segments_prefetched_; }

 private:
  /// Check the `len` body bytes of the frame at device offset `offset`
  /// against its CRC and decode them into *rec.
  static Status DecodeFrame(const uint8_t* body, uint32_t len,
                            uint32_t masked_crc, uint64_t offset,
                            LogRecord* rec);

  /// Make cur_ the segment holding device offset `off`: promote the
  /// prefetched segment when `off` lies in it, else load cold. Either way
  /// the segment after cur_ is prefetched.
  Status Position(uint64_t off);
  /// Point *out at the `n` bytes at device offset `off`: inside cur_ when
  /// they lie in one segment, else copied into scratch_. Valid until the
  /// next read. Caller has checked off + n <= device size.
  Status Span(uint64_t off, size_t n, const uint8_t** out);
  /// Load the segment starting at `base` into *buf (clamped to device end).
  Status LoadSegment(uint64_t base, std::vector<uint8_t>* buf);

  const LogDevice* device_;
  size_t segment_bytes_;
  uint64_t offset_;  // byte offset of the next frame
  bool saw_torn_tail_ = false;

  // Double buffer. cur_ covers [cur_base_, cur_base_+cur_.size());
  // next_ (when non-empty) covers the segment immediately after cur_.
  // Both are empty before the first read and after a Seek.
  std::vector<uint8_t> cur_, next_;
  uint64_t cur_base_ = 0;
  uint64_t segments_prefetched_ = 0;
  // Straddling frames (Next) and random-access frames (ReadAt).
  std::vector<uint8_t> scratch_;
};

}  // namespace sheap

#endif  // SHEAP_WAL_LOG_READER_H_
