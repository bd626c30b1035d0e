// Recovery bookkeeping tables: the active-transaction table and dirty-page
// table reconstructed by analysis and snapshotted by checkpoints
// (paper §2.2.4, §4.6).

#ifndef SHEAP_RECOVERY_TABLES_H_
#define SHEAP_RECOVERY_TABLES_H_

#include <cstdint>
#include <map>

#include "heap/handle_table.h"
#include "storage/page.h"

namespace sheap {

/// Transaction status as known to recovery.
enum class AttStatus : uint8_t {
  kActive = 0,
  kCommitted = 1,  // kCommit seen, kEnd not yet
  kAborting = 2,   // kAbortTxn seen, rollback incomplete
  kPrepared = 3,   // kPrepare seen: in doubt; survives recovery with locks
};

/// One active-transaction-table entry.
struct AttEntry {
  AttStatus status = AttStatus::kActive;
  Lsn first_lsn = kInvalidLsn;
  Lsn last_lsn = kInvalidLsn;  // head of the backward chain
};

using ActiveTxnTable = std::map<TxnId, AttEntry>;

/// Dirty-page table: page -> recovery LSN (redo must start at the earliest).
using DirtyPageTable = std::map<PageId, Lsn>;

/// The oldest valid recLSN of `dpt`, or kInvalidLsn when every row is
/// unlogged: where redo starts reading the log, and so the oldest record a
/// checkpoint carrying `dpt` must keep.
inline Lsn OldestRecLsn(const DirtyPageTable& dpt) {
  Lsn oldest = kInvalidLsn;
  for (const auto& [page, rec_lsn] : dpt) {
    if (rec_lsn == kInvalidLsn) continue;
    if (oldest == kInvalidLsn || rec_lsn < oldest) oldest = rec_lsn;
  }
  return oldest;
}

}  // namespace sheap

#endif  // SHEAP_RECOVERY_TABLES_H_
