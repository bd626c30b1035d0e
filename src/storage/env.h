// Storage/VM backend abstraction (ROADMAP item 4).
//
// The engine runs against three abstract devices:
//   * Disk       — the non-volatile page store backing the one-level store;
//   * LogDevice  — the append-only stable log (paper §2.2.1);
//   * HeapMapping— an optional hardware VM mirror of the heap's page space,
//                  used to drive the Ellis read barrier with real
//                  mprotect(PROT_NONE) + SIGSEGV traps instead of a software
//                  page-scanned check.
// An Env bundles one of each plus the cost-model clock and the fault
// injector. Two implementations exist:
//   * SimEnv  (storage/sim_env.h)  — the deterministic simulator: in-memory
//     devices charging analytic costs to a SimClock. It remains the
//     substrate for the crash matrix and every byte-determinism proof.
//   * RealEnv (storage/real_env.h) — real hardware: a file-backed page
//     store (pread/pwrite, optional O_DIRECT with aligned buffers), a WAL
//     file whose force is batched pwritev + fdatasync, and an mmap-backed
//     protection mirror for the read barrier. Wall-clock benches (E18)
//     measure this backend.
//
// Consumers (BufferPool, LogWriter, LogReader, Checkpointer,
// RecoveryManager, SpaceManager, StableHeap, TwoPhaseCoordinator,
// ShardedHeap) hold only these interfaces; nothing outside storage/ names a
// concrete Sim*/Real* type. The Sim classes keep their richer concrete
// surfaces (torn-tail injection, raw log bytes, bit-rot hooks) for tests
// that hold the concrete objects, via covariant accessors on SimEnv.

#ifndef SHEAP_STORAGE_ENV_H_
#define SHEAP_STORAGE_ENV_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "storage/page.h"

namespace sheap {

class FaultInjector;
class SimClock;

/// Statistics kept by a page store.
struct DiskStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t fresh_reads = 0;    // no backing image: logically zero-filled
  uint64_t crc_failures = 0;   // reads that failed CRC32C verification
  // Real backend only (zero on the simulator).
  uint64_t direct_io_writes = 0;  // O_DIRECT page writes issued
  uint64_t buffered_fallbacks = 0;  // ops served buffered after O_DIRECT
                                    // was requested but unavailable
};

/// Statistics kept by a stable-log device.
struct LogDeviceStats {
  uint64_t appends = 0;  // flush operations handed to the device
  uint64_t bytes_appended = 0;
  uint64_t forces = 0;   // synchronous flushes (commit, etc.)
  // Real backend only (zero on the simulator).
  uint64_t writev_batches = 0;  // pwritev calls draining staged chunks
  uint64_t writev_iovecs = 0;   // staged chunks coalesced into them
  uint64_t fdatasyncs = 0;      // actual device syncs issued
};

/// Non-volatile page store. Page writes are atomic (standard single-page
/// atomicity assumption); reads of never-written pages return zero images.
class Disk {
 public:
  virtual ~Disk() = default;

  /// Read a page into *out. A page never written reads as all-zero with
  /// page_lsn == kInvalidLsn. Returns IOError for a transient fault and
  /// Corruption when the stored image fails CRC32C verification.
  virtual Status ReadPage(PageId pid, PageImage* out) = 0;

  /// Write `n` page-adjacent images (pages first..first+n-1) as one
  /// sequential device operation: one seek, then per-page transfer. Each
  /// page is written atomically with a fresh CRC32C and counts as one
  /// page_write. On a transient fault some pages of the run may already be
  /// written; rewriting a run is idempotent, so callers retry the whole
  /// run. This is the only write a backend implements: the buffer pool's
  /// write-back pipeline writes every dirty page through it.
  virtual Status WritePageRun(PageId first, const PageImage* const* images,
                              size_t n) = 0;

  /// Atomically write one page image: a one-page run. Virtual only so a
  /// decorating Disk can observe direct single-page writes.
  virtual Status WritePage(PageId pid, const PageImage& image) {
    const PageImage* one = &image;
    return WritePageRun(pid, &one, 1);
  }

  /// Drop a page (space deallocation). Subsequent reads return zeroes.
  virtual void DropPage(PageId pid) = 0;

  virtual bool Exists(PageId pid) const = 0;

  /// Number of distinct pages written and not dropped.
  virtual size_t PageCount() const = 0;

  virtual DiskStats stats() const = 0;
  virtual void ResetStats() = 0;

  /// The machine's fault injector (may be null).
  virtual FaultInjector* faults() const = 0;

  /// The cost-model clock this device charges (never null). Consumers use
  /// it for thread-lane accounting around parallel device work.
  virtual SimClock* clock() const = 0;
};

/// Append-only stable byte store. Offsets are stable log addresses.
class LogDevice {
 public:
  virtual ~LogDevice() = default;

  /// Append bytes; the caller waits for the device (WAL flushes).
  virtual Status Append(const uint8_t* data, size_t n) = 0;

  /// Append bytes without charging the current actor (background drain of
  /// the log buffer; the device works while the processor runs).
  virtual Status AppendAsync(const uint8_t* data, size_t n) = 0;

  /// Synchronous force: everything appended so far becomes durable. On the
  /// real backend this drains staged chunks with one pwritev and issues
  /// fdatasync; on the simulator it charges the force latency.
  virtual void Force() = 0;

  virtual uint64_t size() const = 0;

  /// Read n bytes at offset into out; Corruption if out of range.
  virtual Status ReadAt(uint64_t offset, size_t n, uint8_t* out) const = 0;

  /// Master record: the well-known location holding the LSN of the most
  /// recent checkpoint. Survives crashes.
  virtual void SetMasterLsn(Lsn lsn) = 0;
  virtual Lsn master_lsn() const = 0;

  /// Discard the log prefix before `offset` (truncation after checkpoint).
  /// Earlier offsets remain addressable but unreadable.
  virtual void TruncatePrefix(uint64_t offset) = 0;
  virtual uint64_t truncated_prefix() const = 0;

  /// Durable barrier: bytes below it are acknowledged durable and can never
  /// tear. Raised by the log writer after a force or a WAL-mandated flush.
  /// The real device makes the barrier physical (fdatasync) here.
  virtual void MarkDurableBarrier() = 0;
  virtual uint64_t durable_barrier() const = 0;

  /// Crash-injection hook: tear off up to the last n bytes, never below the
  /// durable barrier. The real device implements it with ftruncate.
  virtual void TearTail(size_t n) = 0;

  virtual FaultInjector* faults() const = 0;

  virtual LogDeviceStats stats() const = 0;
  virtual void ResetStats() = 0;
};

/// Hardware VM mirror of the heap's global page space: one virtual page per
/// heap page. The collector protects unscanned to-space pages at a flip;
/// `Touch` performs a real load from the mirror, so touching a protected
/// page takes a SIGSEGV that the mapping's handler resolves (unprotect +
/// count) before the load retries. The software scanned-bitmap remains the
/// authority — the mirror adds the hardware trap and its cost/count.
class HeapMapping {
 public:
  virtual ~HeapMapping() = default;

  /// Pages this mapping mirrors; Protect/Unprotect/Touch beyond the
  /// capacity are no-ops (the software barrier still guards such pages).
  virtual uint64_t capacity_pages() const = 0;

  /// mprotect(PROT_NONE) the mirror pages [first, first+count).
  virtual void Protect(PageId first, uint64_t count) = 0;

  /// mprotect(PROT_READ|PROT_WRITE) the mirror pages [first, first+count).
  virtual void Unprotect(PageId first, uint64_t count) = 0;

  /// Probe-load the mirror page; returns true when the load trapped (the
  /// page was protected — the handler unprotected it and counted the trap).
  virtual bool Touch(PageId pid) = 0;

  /// Total SIGSEGV traps resolved by this mapping's handler.
  virtual uint64_t trap_count() const = 0;
};

/// The non-volatile environment a heap lives on. It survives a crash;
/// everything else (buffer pool, log buffer, lock tables, in-memory GC
/// state) lives inside the StableHeap object and dies with it.
class Env {
 public:
  virtual ~Env() = default;

  /// The cost-model clock. The real backend owns one too (analytic charges
  /// still accumulate and keep recovery's lane accounting working); its
  /// meaningful timings are wall-clock, measured by the benches.
  virtual SimClock* clock() = 0;
  virtual Disk* disk() = 0;
  virtual LogDevice* log() = 0;
  virtual FaultInjector* faults() = 0;

  /// Hardware VM mirror driving the Ellis read barrier, or null when the
  /// backend has none (the simulator, or a real env with the barrier off).
  virtual HeapMapping* mapping() { return nullptr; }

  /// "sim" or "real"; stamped into bench output.
  virtual const char* backend_name() const = 0;
};

/// Parameters controlling a simulated crash (StableHeap::SimulateCrash):
/// how much of the dirty page set reaches disk first, and how much of the
/// un-acknowledged stable-log tail tears. Works on any backend — TearTail
/// is part of the LogDevice contract.
struct CrashOptions {
  /// Probability that each dirty, unpinned page reaches disk before the
  /// crash. 0 = crash with nothing written; 1 = everything unpinned written.
  double writeback_fraction = 0.5;
  /// Seed for the write-back subset choice.
  uint64_t seed = 1;
  /// Bytes to tear off the un-acknowledged stable-log tail (clamped to the
  /// last durable barrier; forced bytes can never tear).
  uint64_t tear_tail_bytes = 0;
};

}  // namespace sheap

#endif  // SHEAP_STORAGE_ENV_H_
