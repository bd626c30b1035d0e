// Undo Translation Table (paper §4.2.1-4.2.2, Figure 4.3).
//
// The undo information of an active transaction names objects by the
// addresses they had when the update ran. When a flip moves those objects,
// the addresses (and any old pointer *values* that referenced from-space
// objects) go stale. At each flip the collector copies every object named
// by active transactions' recovery information (undo roots are GC roots),
// logs Undo Translation Records, and enters them here. Undo — during normal
// abort after a crash, or in the recovery undo pass — translates addresses
// through the table, composing across multiple flips.
//
// Entries are pruned when every transaction that was active at the flip has
// ended; the table is part of the checkpoint so recovery can rebuild it
// without reading the log before the checkpoint.
//
// The batches are the table; the range index over them is a lookup
// structure that only restart undo (and tests) read. Adding and pruning
// batches — at every flip, promotion and transaction end, and for every
// copy batch recovery analysis replays — only marks the index stale; the
// first lookup after a change rebuilds it. A lookup may therefore write,
// so lookups need the same exclusion as AddBatch and OnTxnEnd.

#ifndef SHEAP_RECOVERY_UTT_H_
#define SHEAP_RECOVERY_UTT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "heap/address.h"
#include "heap/handle_table.h"
#include "util/coder.h"
#include "wal/record.h"

namespace sheap {

/// Composable object-relocation map keyed by source address range.
class UndoTranslationTable {
 public:
  UndoTranslationTable() = default;

  /// Add a flip's translations. `active` is the set of transactions active
  /// at the flip; the batch can be pruned once they have all ended (so a
  /// batch with no active transactions is not kept at all).
  void AddBatch(const std::vector<UtrEntry>& entries,
                const std::vector<TxnId>& active);

  /// Notify that a transaction ended (commit or abort completed).
  void OnTxnEnd(TxnId txn);

  /// Translate an address through relocation chains to its current value.
  /// Addresses not covered by any entry are returned unchanged.
  HeapAddr Translate(HeapAddr a) const;

  /// True if `a` falls inside some entry's source range.
  bool Covers(HeapAddr a) const;

  /// Distinct source addresses across all batches.
  size_t EntryCount() const { return Index().size(); }
  size_t BatchCount() const { return batches_.size(); }
  void Clear();

  // Checkpoint payload.
  void EncodeTo(Encoder* enc) const;
  Status DecodeFrom(Decoder* dec);

 private:
  struct Batch {
    std::vector<UtrEntry> entries;
    std::vector<TxnId> pending;  // txns that must end before pruning
  };

  const UtrEntry* FindCovering(HeapAddr a) const;
  /// The index, rebuilt first if a batch was added or pruned since.
  const std::vector<UtrEntry>& Index() const;

  std::vector<Batch> batches_;
  // Every batch's entries sorted by `from`, one per source address (a later
  // batch, or a later entry of one batch, wins), for range lookup by binary
  // search. Valid only while !index_stale_.
  mutable std::vector<UtrEntry> index_;
  mutable bool index_stale_ = false;
};

}  // namespace sheap

#endif  // SHEAP_RECOVERY_UTT_H_
