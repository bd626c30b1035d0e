// SimClock: deterministic simulated-time cost model.
//
// The paper's evaluation claims are about the *shape* of costs (pauses bounded
// vs. growing, recovery flat vs. linear in heap size, synchronous random
// writes vs. none). Wall-clock on a modern laptop with an in-memory "disk"
// would hide all of that, so the storage layer and the collectors charge
// their work to this clock using a parameterized cost model resembling the
// early-90s hardware the thesis targeted (slow rotating disk, ~10 MIPS CPU).
// Benchmarks report simulated milliseconds; tests can assert cost shapes
// deterministically.
//
// Concurrency contract: the clock needs no mutex. In single-mutator mode
// the total is only advanced between low-level actions, and parallel
// workers (redo partitions, flush writers) charge into per-thread sinks
// that the coordinator merges after joining them. With true concurrent
// mutators (StableHeapOptions::mutator_threads > 1) every mutator thread
// runs inside a ThreadChargeScope lane, so the shared counter is still
// quiescent; it is nevertheless a relaxed atomic so stray un-laned charges
// are a benign perturbation rather than a data race. See DESIGN.md §5e/§5i.

#ifndef SHEAP_UTIL_SIM_CLOCK_H_
#define SHEAP_UTIL_SIM_CLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace sheap {

/// Cost model parameters, in simulated nanoseconds.
struct CostModel {
  /// Random page read/write: seek + rotational latency.
  uint64_t disk_seek_ns = 15'000'000;  // 15 ms
  /// Per-KiB transfer cost once positioned.
  uint64_t disk_transfer_ns_per_kib = 600'000;  // ~1.7 MB/s
  /// Sequential log append per KiB (no seek when appending).
  uint64_t log_append_ns_per_kib = 600'000;
  /// Forcing the log: flush latency floor (one sequential write).
  uint64_t log_force_ns = 8'000'000;  // 8 ms
  /// Cost of taking a VM protection trap (kernel round trip).
  uint64_t trap_ns = 500'000;  // 0.5 ms
  /// Baker software read barrier: the per-reference comparison the thesis
  /// calls too expensive on stock hardware (§3.2.1).
  uint64_t baker_check_ns = 60;
  /// Copying one 8-byte word between spaces.
  uint64_t copy_word_ns = 400;
  /// Examining one word during a scan (pointer test + translate).
  uint64_t scan_word_ns = 300;
  /// One mutator-level heap access (read/write of a slot).
  uint64_t access_ns = 200;
};

/// Accumulates simulated time. Not thread-safe by default; the simulator
/// serializes low-level actions (see workload::Scheduler). The one sanctioned
/// multi-threaded use is ThreadChargeScope below: a worker thread that enters
/// a scope for this clock accrues its charges into a thread-local counter
/// instead of now_ns_, and the coordinator folds the per-worker totals back
/// in after joining (typically as max-over-partitions, modeling parallel
/// hardware under deterministic simulated time).
class SimClock {
 public:
  SimClock() = default;
  explicit SimClock(const CostModel& model) : model_(model) {}

  const CostModel& model() const { return model_; }
  void set_model(const CostModel& model) { model_ = model; }

  uint64_t now_ns() const { return now_ns_.load(std::memory_order_relaxed); }
  void Advance(uint64_t ns) {
    if (tls_sink_clock_ == this) {
      *tls_sink_ns_ += ns;
      return;
    }
    now_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// RAII: while alive on a thread, every charge that thread makes against
  /// `clock` lands in *sink_ns rather than the shared counter. Charges
  /// against *other* clocks are unaffected (a worker may legitimately touch
  /// two SimEnvs in tests). Scopes do not nest per thread.
  class ThreadChargeScope {
   public:
    ThreadChargeScope(SimClock* clock, uint64_t* sink_ns) : clock_(clock) {
      tls_sink_clock_ = clock;
      tls_sink_ns_ = sink_ns;
    }
    ~ThreadChargeScope() {
      tls_sink_clock_ = nullptr;
      tls_sink_ns_ = nullptr;
    }
    ThreadChargeScope(const ThreadChargeScope&) = delete;
    ThreadChargeScope& operator=(const ThreadChargeScope&) = delete;

   private:
    SimClock* clock_;
  };

  /// Run fn(lane) for every lane in [0, lanes) (lanes >= 1), each on a
  /// thread of its own inside a ThreadChargeScope, join them, and return
  /// the busiest lane's simulated time. Nothing is charged here: each
  /// caller folds the result in with its own cost formula (parallel
  /// hardware).
  template <typename Fn>
  uint64_t RunLanes(uint32_t lanes, const Fn& fn) {
    std::vector<uint64_t> lane_ns(lanes, 0);
    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([this, &fn, &lane_ns, lane]() {
        ThreadChargeScope charge(this, &lane_ns[lane]);
        fn(lane);
      });
    }
    for (std::thread& t : threads) t.join();
    return *std::max_element(lane_ns.begin(), lane_ns.end());
  }

  // Charging helpers used by the storage layer and collectors.
  void ChargeRandomIo(uint64_t bytes) {
    Advance(model_.disk_seek_ns +
            model_.disk_transfer_ns_per_kib * ((bytes + 1023) / 1024));
  }
  void ChargeLogAppend(uint64_t bytes) {
    Advance(model_.log_append_ns_per_kib * ((bytes + 1023) / 1024));
  }
  void ChargeLogForce() { Advance(model_.log_force_ns); }
  void ChargeTrap() { Advance(model_.trap_ns); }
  void ChargeBakerCheck() { Advance(model_.baker_check_ns); }
  void ChargeCopyWords(uint64_t nwords) {
    Advance(model_.copy_word_ns * nwords);
  }
  void ChargeScanWords(uint64_t nwords) {
    Advance(model_.scan_word_ns * nwords);
  }
  void ChargeAccess() { Advance(model_.access_ns); }

  void Reset() { now_ns_.store(0, std::memory_order_relaxed); }

 private:
  // constinit: other translation units then access these directly instead
  // of through a TLS wrapper that checks for a dynamic initializer. With
  // g++ 12 under -fsanitize=undefined that wrapper path tests the zero flag
  // of an `addq x@gottpoff(%rip)` which the linker relaxes to a flag-less
  // `lea`, so UBSan reported "store to null pointer" on every scope entry.
  static constinit thread_local SimClock* tls_sink_clock_;
  static constinit thread_local uint64_t* tls_sink_ns_;

  CostModel model_;
  std::atomic<uint64_t> now_ns_{0};
};

/// RAII span that measures simulated time elapsed inside a scope.
class SimSpan {
 public:
  explicit SimSpan(const SimClock* clock)
      : clock_(clock), start_ns_(clock->now_ns()) {}
  uint64_t elapsed_ns() const { return clock_->now_ns() - start_ns_; }

 private:
  const SimClock* clock_;
  uint64_t start_ns_;
};

}  // namespace sheap

#endif  // SHEAP_UTIL_SIM_CLOCK_H_
