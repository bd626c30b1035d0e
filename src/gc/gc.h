// Shared garbage-collection infrastructure: the collector context (handles
// to every subsystem a collector coordinates with), semispace state, the
// Last Object Table (§3.2.1), and collection statistics.

#ifndef SHEAP_GC_GC_H_
#define SHEAP_GC_GC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "heap/address.h"
#include "heap/handle_table.h"
#include "heap/heap_memory.h"
#include "heap/space_manager.h"
#include "heap/type_registry.h"
#include "recovery/utt.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "util/bitmap.h"
#include "util/sim_clock.h"
#include "wal/log_writer.h"

namespace sheap {

class HeapMapping;

/// Everything a collector touches. An atomic collector is defined by its
/// coordination with the recovery system (log) and the transaction system
/// (undo roots, locks); hence the wide context.
struct GcContext {
  HeapMemory* mem = nullptr;
  BufferPool* pool = nullptr;
  LogWriter* log = nullptr;
  SpaceManager* spaces = nullptr;
  TypeRegistry* types = nullptr;
  HandleTable* handles = nullptr;
  TxnManager* txns = nullptr;
  LockManager* locks = nullptr;
  SimClock* clock = nullptr;
  UndoTranslationTable* utt = nullptr;
  /// Hardware VM mirror (Env::mapping()); non-null only on a real backend
  /// with the mprotect barrier enabled. The collector then protects
  /// unscanned to-space pages in the MMU at a flip and the read barrier
  /// probes the mirror — a protected-page access takes a real SIGSEGV.
  HeapMapping* mapping = nullptr;
};

/// Read-barrier implementation (paper §3.2.1, §3.8).
enum class GcBarrierMode : uint8_t {
  /// Ellis-Li-Appel: unscanned to-space pages are protected; first access
  /// traps and scans the whole page. At most one trap per page.
  kPageProtection = 0,
  /// Baker: a software check on every heap reference; from-space values are
  /// translated (and their objects copied) one slot at a time.
  kPerAccess = 1,
};

/// How collector steps are made crash-safe (the atomicity axis).
enum class GcDurability : uint8_t {
  /// This paper: copy/scan steps follow the write-ahead log protocol; no
  /// synchronous writes anywhere.
  kWriteAheadLog = 0,
  /// Detlefs [15] comparator: each step performs synchronous random page
  /// writes instead of logging. Pause-shape comparison only (experiment
  /// E7); crash recovery is not wired up for this mode.
  kSynchronousWrites = 1,
};

/// Semispace pointers (Baker's to-space layout, Figure 3.3): the collector
/// copies at the low end (copy_ptr grows up); mutators allocate at the high
/// end (alloc_ptr grows down). Mutator-allocated pages never need scanning.
struct SemiSpaceState {
  SpaceId current = kInvalidSpaceId;  // to-space during a collection
  SpaceId from = kInvalidSpaceId;     // non-invalid iff collecting
  HeapAddr copy_ptr = kNullAddr;      // next free word for copies
  HeapAddr alloc_ptr = kNullAddr;     // allocation boundary (exclusive)

  bool collecting() const { return from != kInvalidSpaceId; }
  uint64_t free_bytes() const {
    return alloc_ptr > copy_ptr ? alloc_ptr - copy_ptr : 0;
  }
};

/// Per-collection and cumulative collector statistics. Pauses are in
/// simulated nanoseconds (see util/sim_clock.h).
struct GcStats {
  uint64_t collections_started = 0;
  uint64_t collections_completed = 0;
  uint64_t objects_copied = 0;
  uint64_t words_copied = 0;
  uint64_t pages_scanned = 0;
  uint64_t read_barrier_traps = 0;  // mutator-access-triggered page scans
  uint64_t read_barrier_fast_hits = 0;    // direct-mapped cache hits
  uint64_t read_barrier_fast_misses = 0;  // cache misses (bitmap consulted)
  uint64_t hw_barrier_traps = 0;     // real SIGSEGV traps (mprotect mirror)
  uint64_t hw_pages_protected = 0;   // mirror pages PROT_NONE'd at flips
  uint64_t scan_cursor_steps = 0;   // bitmap words examined finding work
  uint64_t waste_words = 0;         // page tails abandoned before scanning
  uint64_t sync_page_writes = 0;    // Detlefs comparator only

  // Parallel scan executor (timing/steal fields are schedule-dependent and
  // excluded from byte-determinism comparisons; the rest are deterministic).
  uint64_t scan_workers = 0;        // configured worker count
  uint64_t scan_rounds = 0;         // executor rounds run
  uint64_t scan_page_steals = 0;    // pages claimed off their home worker
  uint64_t copy_batch_records = 0;  // kGcCopyBatch records emitted
  uint64_t copy_batch_objects = 0;  // objects coalesced into them
  uint64_t scan_run_records = 0;    // kGcScan clean-run records emitted
  uint64_t scan_run_pages = 0;      // pages covered by those runs
  uint64_t scan_phase_ns = 0;       // executor scan-walk time (busiest lane)
  uint64_t max_pause_ns = 0;
  uint64_t total_pause_ns = 0;
  uint64_t pause_count = 0;
  std::vector<uint64_t> pause_samples_ns;  // every pause, for histograms

  void RecordPause(uint64_t ns) {
    if (ns > max_pause_ns) max_pause_ns = ns;
    total_pause_ns += ns;
    ++pause_count;
    pause_samples_ns.push_back(ns);
  }
  double MeanPauseNs() const {
    return pause_count == 0
               ? 0.0
               : static_cast<double>(total_pause_ns) / pause_count;
  }
};

}  // namespace sheap

#endif  // SHEAP_GC_GC_H_
