#include "wal/log_reader.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "util/crc32c.h"

namespace sheap {

Status LogReader::Seek(Lsn lsn) {
  SHEAP_CHECK(lsn != kInvalidLsn);
  offset_ = lsn - 1;
  if (offset_ < device_->truncated_prefix()) {
    return Status::Corruption("seek before log truncation point");
  }
  // The cursor moved arbitrarily; drop the buffered segments.
  cur_.clear();
  next_.clear();
  return Status::OK();
}

Status LogReader::DecodeFrame(const uint8_t* body, uint32_t len,
                              uint32_t masked_crc, uint64_t offset,
                              LogRecord* rec) {
  if (crc32c::Value(body, len) != crc32c::Unmask(masked_crc)) {
    return Status::Corruption("record crc mismatch");
  }
  Decoder bdec(body, len);
  SHEAP_RETURN_IF_ERROR(LogRecord::DecodeFrom(&bdec, rec));
  if (!bdec.empty()) return Status::Corruption("trailing bytes in record");
  rec->lsn = offset + 1;
  return Status::OK();
}

Status LogReader::LoadSegment(uint64_t base, std::vector<uint8_t>* buf) {
  const uint64_t end = device_->size();
  const size_t n =
      static_cast<size_t>(std::min<uint64_t>(segment_bytes_, end - base));
  buf->resize(n);
  return device_->ReadAt(base, n, buf->data());
}

Status LogReader::Position(uint64_t off) {
  const uint64_t cur_end = cur_base_ + cur_.size();
  if (off >= cur_base_ && off < cur_end) return Status::OK();
  if (!next_.empty() && off >= cur_end && off < cur_end + next_.size()) {
    // Promote the prefetched segment and immediately start the next
    // prefetch: decode of the promoted segment overlaps its transfer.
    cur_base_ = cur_end;
    cur_.swap(next_);
  } else {
    // Cold start (or a frame larger than the buffered window): load the
    // segment holding `off`.
    SHEAP_RETURN_IF_ERROR(LoadSegment(off, &cur_));
    cur_base_ = off;
  }
  next_.clear();
  const uint64_t next_base = cur_base_ + cur_.size();
  if (next_base < device_->size()) {
    SHEAP_RETURN_IF_ERROR(LoadSegment(next_base, &next_));
    ++segments_prefetched_;
  }
  return Status::OK();
}

Status LogReader::Span(uint64_t off, size_t n, const uint8_t** out) {
  if (n == 0) {
    *out = nullptr;
    return Status::OK();
  }
  SHEAP_RETURN_IF_ERROR(Position(off));
  if (off + n <= cur_base_ + cur_.size()) {
    *out = cur_.data() + (off - cur_base_);
    return Status::OK();
  }
  // The span straddles segments: assemble it in scratch_, refilling the
  // segments as the cursor crosses their boundaries.
  scratch_.resize(n);
  for (size_t done = 0; done < n;) {
    SHEAP_RETURN_IF_ERROR(Position(off + done));
    const size_t take = static_cast<size_t>(std::min<uint64_t>(
        n - done, cur_base_ + cur_.size() - (off + done)));
    std::memcpy(scratch_.data() + done, cur_.data() + (off + done - cur_base_),
                take);
    done += take;
  }
  *out = scratch_.data();
  return Status::OK();
}

StatusOr<bool> LogReader::Next(LogRecord* rec) {
  const uint64_t end = device_->size();
  if (offset_ >= end) return false;  // clean end
  // Any short/corrupt/undecodable final frame reads as a torn tail:
  // repeating history stops at the last complete record.
  auto torn = [this] {
    saw_torn_tail_ = true;
    return false;
  };
  if (offset_ + kRecordFrameHeader > end) return torn();
  const uint8_t* header;
  if (!Span(offset_, kRecordFrameHeader, &header).ok()) return torn();
  Decoder hdec(header, kRecordFrameHeader);
  uint32_t len, masked_crc;
  SHEAP_CHECK(hdec.GetU32(&len) && hdec.GetU32(&masked_crc));
  if (offset_ + kRecordFrameHeader + len > end) return torn();
  const uint8_t* body;
  if (!Span(offset_ + kRecordFrameHeader, len, &body).ok() ||
      !DecodeFrame(body, len, masked_crc, offset_, rec).ok()) {
    return torn();
  }
  offset_ += kRecordFrameHeader + len;
  return true;
}

Status LogReader::ReadAt(Lsn lsn, LogRecord* rec) {
  SHEAP_CHECK(lsn != kInvalidLsn);
  const uint64_t offset = lsn - 1;
  if (offset + kRecordFrameHeader > device_->size()) {
    return Status::Corruption("short frame header");
  }
  uint8_t header[kRecordFrameHeader];
  SHEAP_RETURN_IF_ERROR(
      device_->ReadAt(offset, kRecordFrameHeader, header));
  Decoder hdec(header, kRecordFrameHeader);
  uint32_t len, masked_crc;
  SHEAP_CHECK(hdec.GetU32(&len) && hdec.GetU32(&masked_crc));
  if (offset + kRecordFrameHeader + len > device_->size()) {
    return Status::Corruption("short frame body");
  }
  scratch_.resize(len);
  SHEAP_RETURN_IF_ERROR(
      device_->ReadAt(offset + kRecordFrameHeader, len, scratch_.data()));
  return DecodeFrame(scratch_.data(), len, masked_crc, offset, rec);
}

}  // namespace sheap
