// SpaceManager: recoverable allocation of spaces (paper §4.2.3).
//
// Space allocation and deallocation are logged (kSpaceAlloc / kSpaceFree) so
// that after a crash recovery knows which page ranges belong to which space
// — in particular which space was from-space and to-space of an interrupted
// collection. Page ids grow monotonically and are never reused.

#ifndef SHEAP_HEAP_SPACE_MANAGER_H_
#define SHEAP_HEAP_SPACE_MANAGER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "heap/space.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "util/coder.h"
#include "wal/log_writer.h"

namespace sheap {

/// Tracks the live spaces; logs allocation/free; survives crashes via the
/// log and checkpoints. A freed space is forgotten: page ids are never
/// reused, so an address in it belongs to no space (Containing returns
/// nullptr and redo treats its pages as dead).
class SpaceManager {
 public:
  SpaceManager(LogWriter* log, Disk* disk, BufferPool* pool)
      : log_(log), disk_(disk), pool_(pool) {}

  /// Allocate a fresh space of `npages` pages; logs kSpaceAlloc.
  StatusOr<SpaceId> Allocate(uint64_t npages, Area area);

  /// Free a space: logs kSpaceFree, drops its buffer-pool frames and disk
  /// pages, and removes it from the table.
  Status Free(SpaceId id);

  const Space* Find(SpaceId id) const;
  /// The live space containing address `a`, or nullptr.
  const Space* Containing(HeapAddr a) const;

  // ---- recovery-side rebuilding (no logging, no page drops) ----
  void ApplyAllocRecord(const LogRecord& rec);
  void ApplyFreeRecord(const LogRecord& rec);

  /// Drop the disk pages of the spaces ApplyFreeRecord removed, after redo
  /// completes (redo itself never touches them: their pages lie outside
  /// every space).
  void DropFreedFromDisk();

  // ---- checkpoint payload ----
  void EncodeTo(Encoder* enc) const;
  Status DecodeFrom(Decoder* dec);

  const std::deque<Space>& spaces() const { return spaces_; }

 private:
  std::deque<Space>::iterator Lookup(SpaceId id);

  LogWriter* log_;
  Disk* disk_;
  BufferPool* pool_;
  std::deque<Space> spaces_;  // live spaces only, in allocation order
  // Spaces analysis replayed as freed, awaiting DropFreedFromDisk.
  std::vector<Space> replayed_frees_;
  SpaceId next_space_id_ = 1;
  PageId next_page_ = 0;
};

}  // namespace sheap

#endif  // SHEAP_HEAP_SPACE_MANAGER_H_
