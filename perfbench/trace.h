// Span recorder and timing Env decorator for the wall-clock benchmark.
//
// A span is one call into a layer: its kind, start, end, parent span and
// the transaction it ran for. The benchmark opens a span around every public
// StableHeap call it makes; TimedEnv opens one around every Disk and
// LogDevice call the heap makes, so device spans nest under the heap call
// that caused them. Per thread, a small stack of open spans turns each
// closed span into self time (its duration minus its children's) and a
// [root kind][kind] aggregate, where the root is the outermost open span.
// The first kMaxSpans spans of the traced phase are kept in memory and
// written out by Tracer::Dump at the end of the run.
//
// With tracing off the benchmark passes a null Tracer and runs on the plain
// RealEnv: no clock reads, no decorator.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <time.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/env.h"

namespace perfbench {

inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Span kinds. The first group are StableHeap calls, then a wait the
/// benchmark spends inside the commit protocol, then device calls.
enum Kind : uint8_t {
  kBegin,
  kRead,   // ReadScalar / ReadRef / GetRoot
  kWrite,  // WriteScalar / WriteRef
  kAlloc,
  kCommit,  // Commit, retried through Busy until OK
  kAbort,
  kOpen,
  kCheckpoint,
  kCrash,
  kGcControl,   // StartStableCollection / StepStableCollection
  kCommitWait,  // sleep between Busy commit polls (child of kCommit)
  kLogAppend,   // Append / AppendAsync
  kLogForce,    // Force / MarkDurableBarrier
  kLogRead,
  kLogOther,  // master record, truncation, tail tear
  kDiskRead,
  kDiskWrite,  // WritePage / WritePageRun
  kDiskOther,
  kNumKinds
};

inline const char* KindName(Kind k) {
  static constexpr const char* kNames[kNumKinds] = {
      "core.begin",       "core.read",         "core.write",
      "core.alloc",       "core.commit",       "core.abort",
      "recovery.open",    "recovery.checkpoint", "core.crash",
      "gc.control",       "core.commit.wait",  "storage.log.append",
      "storage.log.force", "storage.log.read", "storage.log.other",
      "storage.disk.read", "storage.disk.write", "storage.disk.other"};
  return kNames[k];
}

/// True for spans that are calls into StableHeap (not waits, not devices).
inline bool IsHeapCall(Kind k) { return k <= kGcControl; }

struct Agg {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// Aggregates over a phase. `by[root][kind]`: spans of `kind` whose
/// outermost enclosing span (on the same thread) is of kind `root`; a span
/// with no parent is its own root.
struct Totals {
  std::array<std::array<Agg, kNumKinds>, kNumKinds> by{};
  uint64_t txn_wall_ns = 0;  // Begin-to-commit-OK, summed over transactions
  uint64_t txn_heap_ns = 0;  // top-level StableHeap spans inside them

  /// Every `kind` span regardless of root.
  Agg Of(Kind kind) const {
    Agg a;
    for (const auto& row : by) {
      a.count += row[kind].count;
      a.total_ns += row[kind].total_ns;
      a.self_ns += row[kind].self_ns;
    }
    return a;
  }
  Totals& operator+=(const Totals& o);
  Totals operator-(const Totals& o) const;
};

/// One recorded span. `parent` indexes the same thread's span list
/// (-1: none, or the parent fell outside the bound).
struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;
  uint32_t txn;
  uint16_t thread;
  Kind kind;
};

/// Process-wide recorder. Threads register lazily; a thread's record is
/// recycled when the thread exits (the pool's flush writers come and go
/// with every checkpoint).
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 1u << 19;

  /// The process's tracer, created on first use.
  static Tracer* Get();

  void Enter(Kind kind);
  void Exit();
  /// Transaction window on the calling thread, for span coverage.
  void TxnBegin(uint64_t txn);
  void TxnEnd(uint64_t wall_ns);

  /// Sum of every thread's aggregates. Call while no traced thread runs.
  Totals Snapshot();
  /// Forget recorded spans and duration samples (start of a phase).
  void ResetSamples();
  /// Durations of every kCommit / kAlloc span since ResetSamples.
  std::vector<uint64_t> Samples(Kind kind);
  uint64_t spans_dropped();

  /// Write the kept spans as tab-separated text; false on I/O error.
  bool Dump(const std::string& path);

  struct Thread;
  Thread* Current();
  void Release(Thread* t);

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Thread>> threads_;  // guarded by mu_
  std::vector<Thread*> free_;                     // guarded by mu_
};

/// RAII span; a null tracer makes it free.
class Scope {
 public:
  Scope(Tracer* t, Kind kind) : t_(t) {
    if (t_ != nullptr) t_->Enter(kind);
  }
  ~Scope() {
    if (t_ != nullptr) t_->Exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* const t_;
};

/// Env decorator timing every Disk and LogDevice call of the wrapped Env.
class TimedEnv final : public sheap::Env {
 public:
  TimedEnv(sheap::Env* inner, Tracer* tracer);
  ~TimedEnv() override;

  sheap::SimClock* clock() override { return inner_->clock(); }
  sheap::Disk* disk() override;
  sheap::LogDevice* log() override;
  sheap::FaultInjector* faults() override { return inner_->faults(); }
  sheap::HeapMapping* mapping() override { return inner_->mapping(); }
  const char* backend_name() const override {
    return inner_->backend_name();
  }

 private:
  class Disk;
  class Log;
  sheap::Env* const inner_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<Log> log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
