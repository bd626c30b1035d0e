// Log record types for the stable heap (paper Figures 4.1-4.7, 5.2-5.5).
//
// Transactional records (repeating history, Mohan [34] / §2.2.3):
//   kBegin / kUpdate / kClr / kCommit / kAbortTxn / kEnd / kAlloc
// Buffer-manager records (§2.2.4 optimization 1):
//   kPageFetch / kEndWrite
// Checkpointing (§2.2.4 optimization 2, §4.6):
//   kCheckpoint (+ the master pointer kept by the log device)
// Recoverable allocation of spaces (§4.2.3):
//   kSpaceAlloc / kSpaceFree
// Atomic incremental garbage collection (§3.4):
//   kGcFlip / kGcCopyBatch / kGcScan / kGcComplete
//   kGcCopyBatch is the copy step: every stable-area copy goes through the
//   collector's one copy planner, which logs a contiguous run of copies as
//   one record — addr2 = run start, contents = the concatenated object
//   bytes, utr_entries = the per-object table {from, to, nwords} (redo
//   re-writes every forwarding word from it; analysis replays the copy
//   frontier, LOT and UTT from it). Only {from, nwords} is encoded: each
//   `to` and the run length `count` are rebuilt from addr2 and the word
//   counts, so a one-object batch is no larger than the retired kGcCopy.
//   kGcCopy (15) is a retired id: the per-object copy record it named is
//   no longer written, and decoding one reports Corruption.
// Roots in recovery information (§4.2.1-4.2.2):
//   kUtr (undo translation records) / kRootObject (root-array anchor)
// Stable/volatile division (§5.2-5.3):
//   kV2sCopy (move newly stable object at commit, Fig 5.2)
//   kInitialValue (defer-move method: log contents at commit, Fig 4.x)
//   kVolatileFlip (volatile-area space turnover, Fig 7.2)
//
// Update granularity: one heap word (slot) per record. The paper's low-level
// update actions modify a single object; slot granularity additionally makes
// undo-root translation exact (§4.2.2) because every undo value is either a
// single pointer or a single scalar.

#ifndef SHEAP_WAL_RECORD_H_
#define SHEAP_WAL_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "util/coder.h"

namespace sheap {

enum class RecordType : uint8_t {
  kHeapFormat = 1,   // first record ever: heap geometry/config payload
  kBegin = 2,
  kUpdate = 3,
  kClr = 4,          // compensation log record (redo-only, §2.2.3)
  kCommit = 5,
  kAbortTxn = 6,     // abort has begun; CLRs follow
  kEnd = 7,          // transaction finished (after commit or full rollback)
  kAlloc = 8,        // stable-area allocation (redo: header word; undo: none)
  kPageFetch = 9,
  kEndWrite = 10,
  kCheckpoint = 11,
  kSpaceAlloc = 12,
  kSpaceFree = 13,
  kGcFlip = 14,
  kGcCopy = 15,  // retired: never written; DecodeFrom rejects it
  kGcScan = 16,
  kGcComplete = 17,
  kUtr = 18,
  kRootObject = 19,
  kV2sCopy = 20,
  kInitialValue = 21,
  kVolatileFlip = 22,
  kClassDef = 23,  // pointer-map definition, so GC state is rebuildable
  kPrepare = 24,   // two-phase commit: transaction is in doubt (§2.2)
  kGcCopyBatch = 25,  // one record for a contiguous run of GC copies
  kDtxDecision = 26,  // 2PC coordinator log only: forced commit decision
  kDtxEnd = 27,       // 2PC coordinator log only: all participants acked
  kMaxRecordType = 27,
};

/// One undo-translation entry: object moved from `from` to `to`,
/// `nwords` words long (§4.2.2).
struct UtrEntry {
  uint64_t from = 0;
  uint64_t to = 0;
  uint64_t nwords = 0;
  bool operator==(const UtrEntry&) const = default;
};

/// A decoded log record. Which fields are meaningful depends on `type`;
/// encoding writes only the fields in the per-type mask (see record.cc).
struct LogRecord {
  RecordType type = RecordType::kBegin;
  Lsn lsn = kInvalidLsn;  // assigned by the writer / filled by the reader

  uint64_t txn_id = 0;
  Lsn prev_lsn = kInvalidLsn;       // per-transaction backward chain
  Lsn undo_next_lsn = kInvalidLsn;  // CLR: next record to undo

  uint64_t addr = 0;      // slot byte-address; from-addr (copy); space id
  uint64_t addr2 = 0;     // to-addr (copy); second space id; object base
                          // (update records: lets recovery rebuild the
                          // in-memory undo info of prepared transactions)
  uint64_t new_word = 0;  // redo value (update/CLR); purpose (space alloc)
  uint64_t old_word = 0;  // undo value (update)
  uint64_t aux = 0;       // flags / class id / area / space id
  uint64_t count = 0;     // nwords / npages
  PageId page = 0;        // page id (page-fetch / end-write / scan)

  std::vector<uint8_t> contents;  // object bytes (copy / v2scopy / initial)
  std::vector<std::pair<uint32_t, uint64_t>> slot_updates;  // scan record
  std::vector<UtrEntry> utr_entries;
  std::vector<uint8_t> payload;  // checkpoint / format blob

  /// Flag bits carried in `aux` for kUpdate / kClr.
  static constexpr uint64_t kFlagPointer = 1;  // the slot is a pointer slot

  /// `aux` value for kGcScan: partial slot translation rather than a full
  /// page scan (does not mark the page scanned during analysis).
  static constexpr uint64_t kScanPartial = 1;
  /// `aux` value for kGcScan: a trap-driven page scan that abandoned the
  /// page tail (analysis replays the copy-pointer bump).
  static constexpr uint64_t kScanBumped = 2;
  /// `aux` value for kGcScan: `count` consecutive pages starting at `page`
  /// were scanned with zero slot translations (batched executor encoding;
  /// analysis marks the whole run scanned, redo has nothing to apply).
  static constexpr uint64_t kScanRun = 3;

  /// Serialize the record body (no framing).
  void EncodeTo(std::vector<uint8_t>* out) const;

  /// Parse a record body. Returns Corruption on malformed input.
  static Status DecodeFrom(Decoder* dec, LogRecord* out);

  /// Debug name of the record type.
  static const char* TypeName(RecordType type);

  bool IsTransactional() const {
    switch (type) {
      case RecordType::kBegin:
      case RecordType::kUpdate:
      case RecordType::kClr:
      case RecordType::kCommit:
      case RecordType::kAbortTxn:
      case RecordType::kEnd:
      case RecordType::kAlloc:
      case RecordType::kV2sCopy:
      case RecordType::kInitialValue:
      case RecordType::kPrepare:
        return true;
      default:
        return false;
    }
  }
};

/// Framing: each record in the log is [u32 body_len][u32 masked_crc][body].
constexpr size_t kRecordFrameHeader = 8;

/// Encode `rec` with framing into *out (appends).
void EncodeFramed(const LogRecord& rec, std::vector<uint8_t>* out);

}  // namespace sheap

#endif  // SHEAP_WAL_RECORD_H_
