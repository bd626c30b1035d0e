// Unit tests for the write-ahead log: record encode/decode for every type,
// writer/reader framing, flush/force semantics, torn tails, random access.

#include <gtest/gtest.h>

#include "storage/sim_env.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/record.h"

namespace sheap {
namespace {

LogRecord RoundTrip(const LogRecord& rec) {
  std::vector<uint8_t> buf;
  rec.EncodeTo(&buf);
  Decoder dec(buf);
  LogRecord out;
  SHEAP_CHECK_OK(LogRecord::DecodeFrom(&dec, &out));
  SHEAP_CHECK(dec.empty());
  return out;
}

TEST(RecordTest, UpdateRoundTrip) {
  LogRecord rec;
  rec.type = RecordType::kUpdate;
  rec.txn_id = 7;
  rec.prev_lsn = 100;
  rec.addr = 4096 + 16;
  rec.new_word = 0xbeef;
  rec.old_word = 0xcafe;
  rec.aux = LogRecord::kFlagPointer;
  LogRecord out = RoundTrip(rec);
  EXPECT_EQ(out.type, RecordType::kUpdate);
  EXPECT_EQ(out.txn_id, 7u);
  EXPECT_EQ(out.prev_lsn, 100u);
  EXPECT_EQ(out.addr, 4096u + 16);
  EXPECT_EQ(out.new_word, 0xbeefu);
  EXPECT_EQ(out.old_word, 0xcafeu);
  EXPECT_EQ(out.aux, LogRecord::kFlagPointer);
}

TEST(RecordTest, GcCopyBatchRoundTripCarriesContents) {
  LogRecord rec;
  rec.type = RecordType::kGcCopyBatch;
  rec.addr2 = 65536;
  rec.count = 5;
  rec.contents.resize(5 * 8);
  for (size_t i = 0; i < rec.contents.size(); ++i) {
    rec.contents[i] = static_cast<uint8_t>(i + 1);
  }
  rec.utr_entries = {{8192, 65536, 3}, {8448, 65536 + 24, 2}};
  LogRecord out = RoundTrip(rec);
  EXPECT_EQ(out.type, RecordType::kGcCopyBatch);
  EXPECT_EQ(out.addr2, 65536u);
  EXPECT_EQ(out.count, 5u);
  EXPECT_EQ(out.contents, rec.contents);
  EXPECT_EQ(out.utr_entries, rec.utr_entries);
}

/// A body in the retired per-object copy format: type 15, then from, to,
/// word count and the length-prefixed contents.
std::vector<uint8_t> RetiredGcCopyBody(uint64_t from, uint64_t to,
                                       const std::vector<uint8_t>& contents) {
  std::vector<uint8_t> body;
  Encoder enc(&body);
  enc.PutU8(static_cast<uint8_t>(RecordType::kGcCopy));
  enc.PutVarint(from);
  enc.PutVarint(to);
  enc.PutVarint(contents.size() / kWordSizeBytes);
  enc.PutLengthPrefixed(contents.data(), contents.size());
  return body;
}

TEST(RecordTest, RetiredGcCopyTypeDecodesAsCorruption) {
  std::vector<uint8_t> body =
      RetiredGcCopyBody(8192, 65536, {1, 2, 3, 4, 5, 6, 7, 8});
  Decoder dec(body);
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom(&dec, &out).IsCorruption());
}

TEST(RecordTest, OneObjectGcCopyBatchIsNoLargerThanRetiredGcCopy) {
  // Each `to` and the run length follow from addr2 and the word counts,
  // so a batch of one object carries what the retired record did.
  LogRecord rec;
  rec.type = RecordType::kGcCopyBatch;
  rec.addr2 = 65536;
  rec.contents = std::vector<uint8_t>(3 * kWordSizeBytes, 0x5a);
  rec.utr_entries = {{8192, 65536, 3}};
  std::vector<uint8_t> batch;
  rec.EncodeTo(&batch);
  EXPECT_LE(batch.size(), RetiredGcCopyBody(8192, 65536, rec.contents).size());
  LogRecord out = RoundTrip(rec);
  EXPECT_EQ(out.count, 3u);
  EXPECT_EQ(out.utr_entries, rec.utr_entries);
}

TEST(RecordTest, GcCopyBatchWordCountsMustCoverItsContents) {
  // A kGcCopyBatch body: addr2, one length-prefixed word of contents, then
  // per-object {from, nwords} entries.
  auto body = [](std::initializer_list<uint64_t> entries) {
    std::vector<uint8_t> b;
    Encoder enc(&b);
    enc.PutU8(static_cast<uint8_t>(RecordType::kGcCopyBatch));
    enc.PutVarint(65536);
    const uint8_t word[8] = {};
    enc.PutLengthPrefixed(word, sizeof(word));
    for (uint64_t v : entries) enc.PutVarint(v);
    return b;
  };
  auto decode = [](const std::vector<uint8_t>& b) {
    Decoder dec(b);
    LogRecord out;
    return LogRecord::DecodeFrom(&dec, &out);
  };
  EXPECT_TRUE(decode(body({8192, 1})).ok());
  EXPECT_TRUE(decode(body({8192, 2})).IsCorruption());  // overshoots
  EXPECT_TRUE(decode(body({8192, 0})).IsCorruption());  // empty object
  EXPECT_TRUE(decode(body({})).IsCorruption());         // covers nothing
}

TEST(RecordTest, GcScanRoundTrip) {
  LogRecord rec;
  rec.type = RecordType::kGcScan;
  rec.page = 17;
  rec.aux = 0;
  rec.slot_updates = {{4, 0x1000}, {9, 0x2000}};
  LogRecord out = RoundTrip(rec);
  EXPECT_EQ(out.page, 17u);
  EXPECT_EQ(out.slot_updates, rec.slot_updates);
}

TEST(RecordTest, UtrRoundTrip) {
  LogRecord rec;
  rec.type = RecordType::kUtr;
  rec.utr_entries = {{100, 200, 5}, {300, 400, 2}};
  LogRecord out = RoundTrip(rec);
  ASSERT_EQ(out.utr_entries.size(), 2u);
  EXPECT_EQ(out.utr_entries[0], (UtrEntry{100, 200, 5}));
  EXPECT_EQ(out.utr_entries[1], (UtrEntry{300, 400, 2}));
}

TEST(RecordTest, CheckpointPayloadRoundTrip) {
  LogRecord rec;
  rec.type = RecordType::kCheckpoint;
  rec.payload = std::vector<uint8_t>(1000, 0x5a);
  LogRecord out = RoundTrip(rec);
  EXPECT_EQ(out.payload, rec.payload);
}

TEST(RecordTest, EveryTypeRoundTripsItsFields) {
  for (uint8_t t = 1; t <= static_cast<uint8_t>(RecordType::kMaxRecordType);
       ++t) {
    if (t == static_cast<uint8_t>(RecordType::kGcCopy)) continue;  // retired
    LogRecord rec;
    rec.type = static_cast<RecordType>(t);
    rec.txn_id = 1;
    rec.prev_lsn = 2;
    rec.undo_next_lsn = 3;
    rec.addr = 4;
    rec.addr2 = 5;
    rec.new_word = 6;
    rec.old_word = 7;
    rec.aux = 0;
    rec.count = 3;
    rec.page = 10;
    // One 3-word object laid out at addr2, as a kGcCopyBatch requires.
    rec.contents = std::vector<uint8_t>(3 * kWordSizeBytes, 0xaa);
    rec.slot_updates = {{1, 2}};
    rec.utr_entries = {{1, 5, 3}};
    rec.payload = {0xbb};
    LogRecord out = RoundTrip(rec);
    EXPECT_EQ(out.type, rec.type) << LogRecord::TypeName(rec.type);
  }
}

TEST(RecordTest, DecodeRejectsBadType) {
  std::vector<uint8_t> buf = {0};  // type 0 invalid
  Decoder dec(buf);
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom(&dec, &out).IsCorruption());
  std::vector<uint8_t> buf2 = {99};
  Decoder dec2(buf2);
  EXPECT_TRUE(LogRecord::DecodeFrom(&dec2, &out).IsCorruption());
}

class LogTest : public ::testing::Test {
 protected:
  SimEnv env_;
};

TEST_F(LogTest, AppendAssignsMonotonicLsns) {
  LogWriter writer(env_.log());
  LogRecord a, b;
  a.type = RecordType::kBegin;
  a.txn_id = 1;
  b.type = RecordType::kBegin;
  b.txn_id = 2;
  Lsn la = writer.Append(&a);
  Lsn lb = writer.Append(&b);
  EXPECT_EQ(la, 1u);  // first record: offset 0 => LSN 1
  EXPECT_GT(lb, la);
}

TEST_F(LogTest, ReaderSeesRecordsAfterFlush) {
  LogWriter writer(env_.log());
  LogRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn_id = 5;
  Lsn lsn = writer.Append(&rec);
  // Not flushed yet: the stable log is empty.
  LogReader before(env_.log());
  LogRecord out;
  auto more = before.Next(&out);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);

  ASSERT_TRUE(writer.Flush().ok());
  LogReader after(env_.log());
  more = after.Next(&out);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(out.type, RecordType::kBegin);
  EXPECT_EQ(out.txn_id, 5u);
  EXPECT_EQ(out.lsn, lsn);
}

TEST_F(LogTest, FlushToIsIdempotent) {
  LogWriter writer(env_.log());
  LogRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn_id = 1;
  Lsn lsn = writer.Append(&rec);
  ASSERT_TRUE(writer.FlushTo(lsn).ok());
  const uint64_t size = env_.log()->size();
  ASSERT_TRUE(writer.FlushTo(lsn).ok());
  EXPECT_EQ(env_.log()->size(), size);
  EXPECT_GE(writer.flushed_lsn(), lsn);
}

TEST_F(LogTest, ForceRaisesDurableBarrier) {
  LogWriter writer(env_.log());
  LogRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn_id = 1;
  writer.Append(&rec);
  ASSERT_TRUE(writer.Force().ok());
  EXPECT_EQ(env_.log()->durable_barrier(), env_.log()->size());
  EXPECT_EQ(env_.log()->stats().forces, 1u);
}

TEST_F(LogTest, SpoolBufferIsReusedWithoutReallocation) {
  LogWriter writer(env_.log());
  EXPECT_EQ(writer.writer_stats().spool_reallocs, 0u);
  // Steady state: appends drain through the spool without ever growing it
  // (the capacity is reserved once at construction and then recycled).
  for (uint64_t i = 0; i < 20000; ++i) {
    LogRecord rec;
    rec.type = RecordType::kBegin;
    rec.txn_id = i + 1;
    writer.Append(&rec);
  }
  const LogWriterStats& ws = writer.writer_stats();
  EXPECT_EQ(ws.appends, 20000u);
  EXPECT_GT(ws.drains, 0u);          // auto-drain bounded the spool size
  EXPECT_EQ(ws.spool_reallocs, 0u);  // never regrown
}

TEST_F(LogTest, DurableLsnAdvancesOnlyAtBarriers) {
  LogWriter writer(env_.log());
  LogRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn_id = 1;
  Lsn lsn = writer.Append(&rec);
  EXPECT_EQ(writer.durable_lsn(), kInvalidLsn);  // nothing barriered yet
  ASSERT_TRUE(writer.Flush().ok());  // on the device, but still tearable
  EXPECT_EQ(writer.durable_lsn(), kInvalidLsn);
  ASSERT_TRUE(writer.Force().ok());  // the barrier makes it durable
  EXPECT_GE(writer.durable_lsn(), lsn);
}

TEST_F(LogTest, ReadAtRandomAccess) {
  LogWriter writer(env_.log());
  std::vector<Lsn> lsns;
  for (uint64_t i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.type = RecordType::kBegin;
    rec.txn_id = i + 1;
    lsns.push_back(writer.Append(&rec));
  }
  ASSERT_TRUE(writer.Flush().ok());
  LogReader reader(env_.log());
  LogRecord out;
  ASSERT_TRUE(reader.ReadAt(lsns[7], &out).ok());
  EXPECT_EQ(out.txn_id, 8u);
  ASSERT_TRUE(reader.ReadAt(lsns[0], &out).ok());
  EXPECT_EQ(out.txn_id, 1u);
}

TEST_F(LogTest, TornTailStopsIterationCleanly) {
  LogWriter writer(env_.log());
  for (uint64_t i = 0; i < 5; ++i) {
    LogRecord rec;
    rec.type = RecordType::kBegin;
    rec.txn_id = i + 1;
    writer.Append(&rec);
  }
  ASSERT_TRUE(writer.Flush().ok());
  env_.log()->TearTail(3);  // mid-record tear

  LogReader reader(env_.log());
  LogRecord out;
  uint64_t count = 0;
  while (true) {
    auto more = reader.Next(&out);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++count;
  }
  EXPECT_EQ(count, 4u);
  EXPECT_TRUE(reader.saw_torn_tail());
}

TEST_F(LogTest, CorruptedBodyDetected) {
  LogWriter writer(env_.log());
  LogRecord rec;
  rec.type = RecordType::kUpdate;
  rec.txn_id = 1;
  rec.prev_lsn = 0;
  rec.addr = 8;
  rec.new_word = 1;
  rec.old_word = 2;
  rec.aux = 0;
  Lsn lsn = writer.Append(&rec);
  ASSERT_TRUE(writer.Flush().ok());
  // Flip a byte inside the record body.
  const_cast<uint8_t*>(env_.log()->data())[kRecordFrameHeader + 2] ^= 0xff;
  LogReader reader(env_.log());
  LogRecord out;
  EXPECT_TRUE(reader.ReadAt(lsn, &out).IsCorruption());
}

TEST_F(LogTest, VolumeStatsTrackPerType) {
  LogWriter writer(env_.log());
  LogRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn_id = 1;
  writer.Append(&rec);
  rec = LogRecord();
  rec.type = RecordType::kCommit;
  rec.txn_id = 1;
  writer.Append(&rec);
  EXPECT_EQ(writer.volume_stats().For(RecordType::kBegin).records, 1u);
  EXPECT_EQ(writer.volume_stats().For(RecordType::kCommit).records, 1u);
  EXPECT_GT(writer.volume_stats().TotalBytes(), 0u);
}

TEST_F(LogTest, WriterResumesAfterReopen) {
  Lsn last;
  {
    LogWriter writer(env_.log());
    LogRecord rec;
    rec.type = RecordType::kBegin;
    rec.txn_id = 1;
    last = writer.Append(&rec);
    ASSERT_TRUE(writer.Flush().ok());
  }
  LogWriter writer2(env_.log());
  LogRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn_id = 2;
  Lsn next = writer2.Append(&rec);
  EXPECT_GT(next, last);
  ASSERT_TRUE(writer2.Flush().ok());
  // Both records readable in order.
  LogReader reader(env_.log());
  LogRecord out;
  auto more = reader.Next(&out);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(out.txn_id, 1u);
  more = reader.Next(&out);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(out.txn_id, 2u);
}

// The streaming reader at segment edges: with 64-byte segments the log below
// holds frames that lie inside one segment, frames that straddle two, and
// frames larger than a whole segment.
class LogReaderSegmentTest : public ::testing::Test {
 protected:
  static constexpr size_t kSegment = 64;
  /// Each record's LSN and re-encoded body.
  using Records = std::vector<std::pair<Lsn, std::vector<uint8_t>>>;

  void SetUp() override {
    LogWriter writer(env_.log());
    const size_t payload_sizes[] = {0, 3, 17, 40, 100, 9, 300, 1, 64, 130};
    for (uint64_t i = 0; i < 40; ++i) {
      LogRecord rec;
      if (i % 4 == 3) {
        rec.type = RecordType::kCheckpoint;
        rec.payload.resize(payload_sizes[(i / 4) % 10]);
        for (size_t b = 0; b < rec.payload.size(); ++b) {
          rec.payload[b] = static_cast<uint8_t>(i * 31 + b);
        }
      } else if (i % 2 == 1) {
        rec.type = RecordType::kUpdate;
        rec.txn_id = i;
        rec.prev_lsn = i * 1000;
        rec.addr = i << 20;
        rec.addr2 = (i << 20) - 8;
        rec.new_word = ~i;
        rec.old_word = i * i;
      } else {
        rec.type = RecordType::kBegin;
        rec.txn_id = i + 1;
      }
      writer.Append(&rec);
    }
    ASSERT_TRUE(writer.Flush().ok());
    expected_ = ReadAll(LogReader::kDefaultSegmentBytes);
    ASSERT_EQ(expected_.size(), 40u);
  }

  /// The log's records, read with Next.
  Records ReadAll(size_t segment_bytes, bool* torn = nullptr) {
    LogReader reader(env_.log(), segment_bytes);
    Records out;
    LogRecord rec;
    while (true) {
      auto more = reader.Next(&rec);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) break;
      out.emplace_back(rec.lsn, Body(rec));
    }
    if (torn != nullptr) *torn = reader.saw_torn_tail();
    return out;
  }

  static std::vector<uint8_t> Body(const LogRecord& rec) {
    std::vector<uint8_t> body;
    rec.EncodeTo(&body);
    return body;
  }

  /// Device offsets [begin, end) of record i's frame.
  std::pair<uint64_t, uint64_t> Frame(size_t i) {
    const uint64_t begin = expected_[i].first - 1;
    const uint64_t end = i + 1 < expected_.size()
                             ? expected_[i + 1].first - 1
                             : env_.log()->size();
    return {begin, end};
  }

  SimEnv env_;
  Records expected_;
};

TEST_F(LogReaderSegmentTest, SmallSegmentsDecodeTheSameRecords) {
  // The log exercises all three frame placements. A reader that starts at
  // offset 0 loads segments back to back, so a frame straddles iff it
  // crosses a multiple of the segment size.
  bool inside = false, straddles = false, larger = false;
  for (size_t i = 0; i < expected_.size(); ++i) {
    const auto [begin, end] = Frame(i);
    if (end - begin > kSegment) larger = true;
    if (begin / kSegment == (end - 1) / kSegment) {
      inside = true;
    } else {
      straddles = true;
    }
  }
  EXPECT_TRUE(inside && straddles && larger);

  bool torn = true;
  EXPECT_EQ(ReadAll(kSegment, &torn), expected_);
  EXPECT_FALSE(torn);
}

TEST_F(LogReaderSegmentTest, FlippedCrcReadsAsTornTail) {
  // One frame inside the first segment, one straddling the first edge.
  size_t inside = expected_.size(), straddles = expected_.size();
  for (size_t i = 1; i < expected_.size(); ++i) {
    const auto [begin, end] = Frame(i);
    if (end > kSegment) {
      if (begin < kSegment) straddles = i;
      break;
    }
    inside = i;
  }
  ASSERT_LT(inside, expected_.size());
  ASSERT_LT(straddles, expected_.size());
  uint8_t* log = const_cast<uint8_t*>(env_.log()->data());
  for (size_t victim : {inside, straddles}) {
    for (size_t crc_byte = 4; crc_byte < kRecordFrameHeader; ++crc_byte) {
      uint8_t& b = log[Frame(victim).first + crc_byte];
      b ^= 0x5a;
      bool torn = false;
      const auto got = ReadAll(kSegment, &torn);
      b ^= 0x5a;
      EXPECT_TRUE(torn) << "frame " << victim << " crc byte " << crc_byte;
      EXPECT_EQ(got, Records(expected_.begin(), expected_.begin() + victim));
    }
  }
}

TEST_F(LogReaderSegmentTest, ReadAtMatchesNext) {
  LogReader reader(env_.log(), kSegment);
  LogRecord rec;
  for (const auto& [lsn, body] : expected_) {
    ASSERT_TRUE(reader.ReadAt(lsn, &rec).ok());
    EXPECT_EQ(rec.lsn, lsn);
    EXPECT_EQ(Body(rec), body);
  }
  // Random access leaves the streaming cursor where it was.
  ASSERT_TRUE(reader.Seek(expected_[5].first).ok());
  ASSERT_TRUE(reader.ReadAt(expected_[30].first, &rec).ok());
  auto more = reader.Next(&rec);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(rec.lsn, expected_[5].first);
  EXPECT_EQ(Body(rec), expected_[5].second);
}

}  // namespace
}  // namespace sheap
