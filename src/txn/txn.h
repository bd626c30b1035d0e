// Transaction state (paper §2.1): transactions are serializable and total,
// built from short low-level recoverable actions (read / update / allocate)
// that synchronize through read/write locks on objects.

#ifndef SHEAP_TXN_TXN_H_
#define SHEAP_TXN_TXN_H_

#include <cstdint>
#include <vector>

#include "heap/address.h"
#include "heap/handle_table.h"
#include "storage/page.h"

namespace sheap {

enum class TxnState : uint8_t {
  kActive,
  kCommitting,  // promotion/commit record being emitted
  kCommitted,
  kAborting,
  kAborted,
  kPrepared,    // two-phase commit: in doubt, awaiting the coordinator
};

/// In-memory record of one update action; doubles as the undo information
/// for normal (non-crash) abort and as the source for undo-root translation
/// at a flip (§4.2.1). Slot-granular: one heap word.
struct TxnUpdate {
  HeapAddr obj_base = kNullAddr;   // object containing the slot
  uint64_t slot = 0;               // slot index within the object
  uint64_t old_word = 0;           // undo value
  uint64_t new_word = 0;           // redo value (kept for diagnostics)
  bool is_pointer = false;
  bool logged = false;             // stable-area updates are logged
  Lsn lsn = kInvalidLsn;           // LSN of the kUpdate record if logged
};

/// In-memory record of one allocate action (undo: the object becomes
/// garbage; no physical undo needed).
struct TxnAlloc {
  HeapAddr base = kNullAddr;
  bool stable_area = false;
};

/// A transaction's in-memory state. Lost at a crash (active transactions
/// are aborted by recovery from the log).
struct Txn {
  TxnId id = kNoTxn;
  TxnState state = TxnState::kActive;
  Lsn first_lsn = kInvalidLsn;
  Lsn last_lsn = kInvalidLsn;  // head of the backward record chain
  std::vector<TxnUpdate> updates;  // in execution order
  std::vector<TxnAlloc> allocs;
  std::vector<Ref> handles;  // every Ref handed out; released at the end
  uint64_t begin_sequence = 0;  // age, used by deadlock victim selection
  uint64_t gtid = 0;            // global id when prepared under 2PC
};

}  // namespace sheap

#endif  // SHEAP_TXN_TXN_H_
