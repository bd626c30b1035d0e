// sheap_perfbench: one wall-clock workload against the public StableHeap
// API on RealEnv, in its own process. perfbench/run.py builds this binary,
// runs it, and selects the metrics the caller asked for.
//
//   sheap_perfbench --workload <name> --seed <n> --seconds <s>
//                   [--trace 0|1] [--fixed-work] [--dir <heap root>]
//                   [--trace-out <file>]
//
// Prints one JSON object on stdout: correctness, attempted/failed
// transaction counts, and every metric it measured as [value, unit].
// --fixed-work replaces the time bound with a fixed amount of work, so two
// runs with the same seed must report identical counts (perfbench/selftest.py).
// See perfbench/README.md for the workloads and the metric definitions.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/stable_heap.h"
#include "storage/real_env.h"
#include "trace.h"
#include "workload/graph_gen.h"
#include "workload/workloads.h"

namespace perfbench {
namespace {

using sheap::ClassId;
using sheap::CrashOptions;
using sheap::Env;
using sheap::Ref;
using sheap::Rng;
using sheap::StableHeap;
using sheap::StableHeapOptions;
using sheap::Status;
using sheap::StatusOr;
using sheap::TxnId;

// ------------------------------------------------------------ plumbing

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool fixed_work = false;
  std::string dir = ".bench_build/heap";
  std::string trace_out;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(3);
}

void Ok(const Status& st, const char* what) {
  if (!st.ok()) Die(what, st);
}

template <class T>
T Val(StatusOr<T> v, const char* what) {
  if (!v.ok()) Die(what, v.status());
  return std::move(*v);
}

/// Correctness checks; a failed one makes the run report correct=false.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool cond, const std::string& what) {
    if (!cond && failures.size() < 16) failures.push_back(what);
  }
};

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<uint64_t>& v) {
  double sum = 0;
  for (uint64_t x : v) sum += x;
  return v.empty() ? 0 : sum / v.size();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Percentile `p` of each block of 10 consecutive samples, median over the
/// blocks: a burst of host noise then moves only the blocks it covers.
double BlockPercentile(const std::vector<uint64_t>& v, double p) {
  constexpr size_t kBlock = 10;
  std::vector<double> per_block;
  for (size_t i = 0; i + kBlock <= v.size(); i += kBlock) {
    per_block.push_back(Percentile(
        std::vector<uint64_t>(v.begin() + i, v.begin() + i + kBlock), p));
  }
  return per_block.empty() ? Percentile(v, p) : Median(per_block);
}

uint64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Host speed, measured: the thread CPU time of a fixed piece of user-mode
/// work that runs no sheap code (sort 16K pseudo-random words, then follow
/// a chain through them). The benchmark runs it between measured
/// stretches. On a shared host the CPU time of the same code drifts by a
/// fifth and more over minutes, for every workload at once (README.md);
/// the gated CPU and reopen figures are scaled by kReferenceNs over the
/// run's median reference time, so that drift cancels while a slower heap
/// still shows.
constexpr double kReferenceNs = 1'500'000;

uint64_t ReferenceCpuNs() {
  static std::vector<uint64_t> words(1 << 14);
  static volatile uint64_t sink;
  const uint64_t c0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  uint64_t x = 88172645463325252ull;
  for (uint64_t& w : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::sort(words.begin(), words.end());
  uint64_t at = 0;
  for (size_t i = 0; i < words.size(); ++i) at = words[at % words.size()] + i;
  sink = at;
  return CpuNs(CLOCK_THREAD_CPUTIME_ID) - c0;
}

/// This thread's CPU time so far, total and in user mode. The total is
/// exact; the kernel splits it into user and system time by sampling at
/// each clock tick, so the user share is exact only summed over many
/// ticks (tens per 0.5 s window; the median over windows smooths it).
struct ThreadCpu {
  uint64_t total_ns;
  uint64_t user_ns;

  static ThreadCpu Now() {
    struct rusage ru;
    ::getrusage(RUSAGE_THREAD, &ru);
    auto ns = [](const timeval& tv) {
      return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
             static_cast<uint64_t>(tv.tv_usec) * 1000;
    };
    return {ns(ru.ru_utime) + ns(ru.ru_stime), ns(ru.ru_utime)};
  }
};

/// Per-window figures of a measured phase, each a median over its windows.
struct WindowStats {
  double rate = 0;    // committed/s
  double p50_ns = 0;  // latency percentiles
  double p95_ns = 0;
  double p99_ns = 0;
  double cpu_ns = 0;   // mean thread CPU time per transaction
  double user_ns = 0;  // ... of which in user mode (window sum / count)
};

/// A measured phase that can pause (set-up and verification inside it are
/// not measured): wall time, when tracing the span aggregates of the
/// measured stretches only, and the committed transactions' samples,
/// grouped into windows of kWindowNs measured time. Each window is reduced
/// to its figures when the next one starts, so the samples held stay those
/// of one window and memory does not grow with the transaction count.
class Phase {
 public:
  static constexpr uint64_t kWindowNs = 500'000'000;

  explicit Phase(Tracer* tracer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->ResetSamples();
    // Touched now, so the sample buffers are resident before peak RSS is
    // taken and never reallocate (0.5 s of transactions fit).
    for (auto* v : {&wall_, &cpu_, &user_}) {
      v->resize(1 << 17);
      v->clear();
    }
  }
  void Start() {
    if (tracer_ != nullptr) mark_ = tracer_->Snapshot();
    start_ = NowNs();
  }
  void Stop() {
    ns_ += NowNs() - start_;
    if (tracer_ != nullptr) totals_ += tracer_->Snapshot() - mark_;
  }
  uint64_t ns() const { return ns_; }
  const Totals& totals() const { return totals_; }

  /// A committed transaction of the current stretch ended at wall-clock
  /// `done_ns` after `wall_ns`, using `cpu` of its thread's CPU time.
  /// Thread-safe.
  void Record(uint64_t done_ns, uint64_t wall_ns, const ThreadCpu& cpu) {
    std::lock_guard<std::mutex> lock(mu_);
    CloseUpTo((ns_ + done_ns - start_) / kWindowNs);
    wall_.push_back(wall_ns);
    cpu_.push_back(cpu.total_ns);
    user_.push_back(cpu.user_ns);
  }

  /// Medians over the phase's whole windows (after the last Stop). With
  /// no whole window (a short --fixed-work run) the partial one counts.
  WindowStats Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    CloseUpTo(ns_ / kWindowNs);
    if (rates_.empty()) Close(ns_);
    return WindowStats{Median(rates_), Median(p50_), Median(p95_),
                       Median(p99_), Median(cpu_means_), Median(user_means_)};
  }

 private:
  /// Reduce the held window and every empty one before window `k`.
  void CloseUpTo(uint64_t k) {
    for (; window_ < k; ++window_) Close(kWindowNs);
  }
  void Close(uint64_t window_ns) {
    rates_.push_back(wall_.size() * 1e9 / std::max<uint64_t>(1, window_ns));
    if (wall_.size() >= 100) {
      p50_.push_back(Percentile(wall_, 0.50));
      p95_.push_back(Percentile(wall_, 0.95));
      p99_.push_back(Percentile(wall_, 0.99));
      cpu_means_.push_back(Mean(cpu_));
      user_means_.push_back(Mean(user_));
    }
    wall_.clear();
    cpu_.clear();
    user_.clear();
  }

  Tracer* const tracer_;
  uint64_t start_ = 0;  // of the current stretch
  uint64_t ns_ = 0;     // measured time of the stretches before it
  Totals mark_;
  Totals totals_;
  std::mutex mu_;
  uint64_t window_ = 0;  // index of the window the samples belong to
  std::vector<uint64_t> wall_;
  std::vector<uint64_t> cpu_;
  std::vector<uint64_t> user_;
  std::vector<double> rates_, p50_, p95_, p99_, cpu_means_, user_means_;
};

// -------------------------------------------------------------- counters

enum CounterId {
  kLogBytes,
  kFdatasyncs,
  kWritevs,
  kPageReads,
  kPageWrites,
  kPoolHits,
  kPoolMisses,
  kEvictions,
  kGcCollections,
  kGcPages,
  kGcCopied,
  kGcTraps,
  kGcHwTraps,
  kLockAcquires,
  kLockConflicts,
  kWalBytes,
  kWalGcBytes,
  kGroupEnqueued,
  kGroupBatches,
  kGroupPolls,
  kHandshakes,
  kNumCounters
};

using Counters = std::array<uint64_t, kNumCounters>;

/// Device counters live as long as the env; the rest as long as the heap.
Counters Snap(StableHeap* heap, Env* real_env) {
  using sheap::RecordType;
  Counters c{};
  const sheap::LogDeviceStats log = real_env->log()->stats();
  const sheap::DiskStats disk = real_env->disk()->stats();
  c[kLogBytes] = log.bytes_appended;
  c[kFdatasyncs] = log.fdatasyncs;
  c[kWritevs] = log.writev_batches;
  c[kPageReads] = disk.page_reads;
  c[kPageWrites] = disk.page_writes;
  const sheap::BufferPoolStats pool = heap->stats().pool;
  c[kPoolHits] = pool.hits;
  c[kPoolMisses] = pool.misses;
  c[kEvictions] = pool.evictions;
  const sheap::GcStats& gc = heap->stable_gc_stats();
  c[kGcCollections] = gc.collections_completed;
  c[kGcPages] = gc.pages_scanned;
  c[kGcCopied] = gc.objects_copied;
  c[kGcTraps] = gc.read_barrier_traps;
  c[kGcHwTraps] = gc.hw_barrier_traps;
  c[kLockAcquires] = heap->lock_stats().acquires.load(std::memory_order_relaxed);
  c[kLockConflicts] =
      heap->lock_stats().conflicts.load(std::memory_order_relaxed);
  const sheap::LogVolumeStats& vol = heap->log_volume();
  c[kWalBytes] = vol.TotalBytes();
  for (RecordType t : {RecordType::kGcFlip, RecordType::kGcCopy,
                       RecordType::kGcScan, RecordType::kGcComplete,
                       RecordType::kUtr, RecordType::kGcCopyBatch}) {
    c[kWalGcBytes] += vol.For(t).bytes;
  }
  const sheap::GroupCommitStats& group = heap->group_commit_stats();
  c[kGroupEnqueued] = group.enqueued;
  c[kGroupBatches] = group.batches;
  c[kGroupPolls] = group.polls;
  c[kHandshakes] = heap->gate_stats().handshakes;
  return c;
}

// ---------------------------------------------------------- traced API

/// The public StableHeap calls the workloads make, each under its span.
class Api {
 public:
  Api(StableHeap* heap, Tracer* tracer) : h_(heap), t_(tracer) {}

  StatusOr<TxnId> Begin() {
    Scope s(t_, kBegin);
    return h_->Begin();
  }
  StatusOr<Ref> GetRoot(TxnId txn, uint64_t index) {
    Scope s(t_, kRead);
    return h_->GetRoot(txn, index);
  }
  StatusOr<Ref> ReadRef(TxnId txn, Ref ref, uint64_t slot) {
    Scope s(t_, kRead);
    return h_->ReadRef(txn, ref, slot);
  }
  StatusOr<uint64_t> ReadScalar(TxnId txn, Ref ref, uint64_t slot) {
    Scope s(t_, kRead);
    return h_->ReadScalar(txn, ref, slot);
  }
  Status WriteScalar(TxnId txn, Ref ref, uint64_t slot, uint64_t value) {
    Scope s(t_, kWrite);
    return h_->WriteScalar(txn, ref, slot, value);
  }
  Status WriteRef(TxnId txn, Ref ref, uint64_t slot, Ref target) {
    Scope s(t_, kWrite);
    return h_->WriteRef(txn, ref, slot, target);
  }
  StatusOr<Ref> Allocate(TxnId txn, ClassId cls, uint64_t nslots) {
    Scope s(t_, kAlloc);
    return h_->Allocate(txn, cls, nslots);
  }
  Status Abort(TxnId txn) {
    Scope s(t_, kAbort);
    return h_->Abort(txn);
  }
  /// Commit through the Busy-retry protocol (group commit answers Busy
  /// until the batch is durable); *busy counts the Busy replies. The
  /// short sleep between polls lets the other mutator join the batch.
  Status Commit(TxnId txn, uint64_t* busy) {
    Scope s(t_, kCommit);
    for (;;) {
      Status st = h_->Commit(txn);
      if (!st.IsBusy()) return st;
      ++*busy;
      Scope w(t_, kCommitWait);
      ::usleep(10);
    }
  }
  void Checkpoint() {
    Scope s(t_, kCheckpoint);
    Ok(h_->CheckpointWithWriteback(), "CheckpointWithWriteback");
  }
  /// Start a stable collection unless one is running, then scan up to
  /// `pages` pages of it.
  void StepCollection(uint64_t pages) {
    Scope s(t_, kGcControl);
    if (!h_->stable_gc()->collecting()) {
      Ok(h_->StartStableCollection(), "StartStableCollection");
    }
    if (pages > 0) Ok(h_->StepStableCollection(pages), "StepStableCollection");
  }

 private:
  StableHeap* const h_;
  Tracer* const t_;
};

/// Per-mutator transaction tallies for the timed phase.
struct TxnTally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t writes = 0;  // committed transactions that wrote
  uint64_t busy = 0;
  std::string first_error;
  Phase* phase = nullptr;  // where committed transactions are sampled

  void Merge(const TxnTally& o) {
    attempted += o.attempted;
    committed += o.committed;
    writes += o.writes;
    busy += o.busy;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// Run one transaction: Begin, `body`, Commit. Latency and the thread's
/// CPU time run from before Begin to commit-OK. On an error the
/// transaction is aborted and counted as attempted but not committed.
template <class Body>
bool RunTxn(Api& api, Tracer* tracer, uint64_t seq, bool writes,
            TxnTally* tally, Body&& body) {
  const ThreadCpu cpu0 =
      tally->phase != nullptr ? ThreadCpu::Now() : ThreadCpu{};
  const uint64_t t0 = NowNs();
  if (tracer != nullptr) tracer->TxnBegin(seq);
  ++tally->attempted;
  Status st;
  StatusOr<TxnId> txn = api.Begin();
  if (!txn.ok()) {
    st = txn.status();
  } else {
    st = body(*txn);
    if (st.ok()) {
      st = api.Commit(*txn, &tally->busy);
    } else {
      // The body's error is what gets reported; a failed abort leaves the
      // transaction to recovery.
      (void)api.Abort(*txn);
    }
  }
  const uint64_t t1 = NowNs();
  const uint64_t dt = t1 - t0;
  if (tracer != nullptr) tracer->TxnEnd(dt);
  if (!st.ok()) {
    if (tally->first_error.empty()) tally->first_error = st.ToString();
    return false;
  }
  ++tally->committed;
  if (writes) ++tally->writes;
  if (tally->phase != nullptr) {
    const ThreadCpu cpu1 = ThreadCpu::Now();
    tally->phase->Record(t1, dt, {cpu1.total_ns - cpu0.total_ns,
                                  cpu1.user_ns - cpu0.user_ns});
  }
  return true;
}

// ------------------------------------------------------------------ host

/// Owns the heap directory, the RealEnv (plus the timing decorator when
/// tracing) and the heap, and accumulates counters across reopens.
class Host {
 public:
  Host(const Args& args, Tracer* tracer) : args_(args), tracer_(tracer) {}
  ~Host() { Destroy(); }
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  StableHeapOptions opts;

  void CreateEnv() {
    Destroy();
    dir_ = args_.dir + "/" + args_.workload + "." +
           std::to_string(::getpid()) + "." + std::to_string(serial_++);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) Die("create " + dir_, Status::IOError(ec.message()));
    sheap::RealEnvOptions ro;
    ro.dir = dir_;
    // Buffered page store, as on a memory-backed filesystem (where
    // O_DIRECT falls back to buffered anyway): page reads then cost the
    // kernel copy, not the shared virtual disk's queue.
    ro.direct_io = false;
    real_ = Val(sheap::RealEnv::Create(ro), "RealEnv::Create");
    if (tracer_ != nullptr) {
      timed_ = std::make_unique<TimedEnv>(real_.get(), tracer_);
    }
  }

  /// Open (format) a fresh heap; set-up, so no span.
  void Format() {
    heap_ = Val(StableHeap::Open(env(), opts), "StableHeap::Open");
  }
  /// Open (recover) after a crash, under a recovery.open span.
  void Recover() {
    Scope s(tracer_, kOpen);
    heap_ = Val(StableHeap::Open(env(), opts), "StableHeap::Open");
  }

  /// Machine crash: a seeded share of dirty pages reaches the store, the
  /// process state dies with the heap object.
  void Crash(uint64_t seed) {
    {
      Scope s(tracer_, kCrash);
      Ok(heap_->SimulateCrash(CrashOptions{0.3, seed, 0}), "SimulateCrash");
    }
    heap_.reset();
  }

  /// Push the heap files' page-cache writeback to the device now, in
  /// unmeasured time, so it does not land on the log's fdatasync calls in
  /// the next measured stretch. The heap does not depend on it: its page
  /// store relies on the log for durability.
  void FlushFiles() {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      const int fd = ::open(entry.path().c_str(), O_RDONLY);
      if (fd < 0) continue;
      (void)::fdatasync(fd);  // best effort: only moves writeback earlier
      ::close(fd);
    }
  }

  void Destroy() {
    heap_.reset();
    timed_.reset();
    real_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
      dir_.clear();
    }
  }

  Env* env() {
    return timed_ != nullptr ? static_cast<Env*>(timed_.get()) : real_.get();
  }
  StableHeap* heap() { return heap_.get(); }
  Api api() { return Api(heap_.get(), tracer_); }
  Tracer* tracer() { return tracer_; }
  const Args& args() const { return args_; }

  /// Counter accumulation: Mark at the start of a stretch, Collect at its
  /// end (before the heap goes away).
  void Mark() { mark_ = Snap(heap_.get(), real_.get()); }
  void Collect() {
    const Counters now = Snap(heap_.get(), real_.get());
    for (size_t i = 0; i < kNumCounters; ++i) sum_[i] += now[i] - mark_[i];
  }
  const Counters& counters() const { return sum_; }

 private:
  const Args& args_;
  Tracer* const tracer_;
  std::string dir_;
  uint64_t serial_ = 0;
  std::unique_ptr<sheap::RealEnv> real_;
  std::unique_ptr<TimedEnv> timed_;
  std::unique_ptr<StableHeap> heap_;
  Counters mark_{};
  Counters sum_{};
};

// ------------------------------------------------------------- results

struct Restarts {
  std::vector<uint64_t> reopen_ns;     // Open call to first commit-OK
  std::vector<uint64_t> first_txn_ns;  // Open return to first commit-OK
  uint64_t log_bytes_read = 0;
  uint64_t analysis_records = 0;
  uint64_t redo_applied = 0;
  uint64_t undo_records = 0;
};

struct Result {
  std::vector<double> setup_s;
  TxnTally txns;
  uint64_t wall_ns = 0;
  Restarts restarts;
  Counters counters{};
  Totals run_totals;      // traced: the measured phase
  Totals restart_totals;  // traced: the restart cycles between segments
  std::vector<uint64_t> commit_span_ns;
  std::vector<uint64_t> alloc_span_ns;
  uint32_t threads = 1;
  WindowStats windows;
  std::vector<double> reference_ns;  // ReferenceCpuNs between stretches
  double peak_rss_mb = 0;  // at the end of the measured phase
  // crash-reopen: mean reopen of the first and the last ten cycles.
  std::array<double, 2> reopen_growth_ms{};

  /// Take the timed phase's wall time, throughput and span aggregates
  /// (after every mutator's tally is merged into `txns`).
  void Finish(Phase& phase, Tracer* tracer) {
    wall_ns = phase.ns();
    peak_rss_mb = PeakRssMb();
    windows = phase.Finish();
    run_totals = phase.totals();
    if (tracer != nullptr) {
      commit_span_ns = tracer->Samples(kCommit);
      alloc_span_ns = tracer->Samples(kAlloc);
    }
  }
};

/// Open after a crash and run the first transaction; records the
/// restart sample and the recovery counters.
template <class FirstTxn>
void Reopen(Host* host, Restarts* r, TxnTally* tally, FirstTxn&& first) {
  const uint64_t t0 = NowNs();
  host->Recover();
  const uint64_t t1 = NowNs();
  const sheap::RecoveryStats& rs = host->heap()->recovery_stats();
  r->log_bytes_read += rs.log_bytes_read;
  r->analysis_records += rs.analysis_records;
  r->redo_applied += rs.redo_records_applied;
  r->undo_records += rs.undo_records;
  host->Mark();
  const uint64_t committed = tally->committed;
  first();
  const uint64_t t2 = NowNs();
  if (tally->committed == committed + 1) {
    r->reopen_ns.push_back(t2 - t0);
    r->first_txn_ns.push_back(t2 - t1);
  }
}

// ------------------------------------------------------------------ bank

constexpr uint64_t kAccounts = 65536;
constexpr uint64_t kBucket = 64;  // workload::Bank's bucket size
constexpr uint64_t kInitial = 1'000'000;
constexpr uint64_t kBankRoot = 0;

/// Transfer `amount` from `from` to `to` (to != from) over the
/// workload::Bank layout: root -> directory -> buckets of balances.
Status TransferBody(Api& api, TxnId txn, uint64_t from, uint64_t to,
                    uint64_t amount) {
  SHEAP_ASSIGN_OR_RETURN(Ref dir, api.GetRoot(txn, kBankRoot));
  SHEAP_ASSIGN_OR_RETURN(Ref fb, api.ReadRef(txn, dir, from / kBucket));
  SHEAP_ASSIGN_OR_RETURN(Ref tb, api.ReadRef(txn, dir, to / kBucket));
  SHEAP_ASSIGN_OR_RETURN(uint64_t fbal,
                         api.ReadScalar(txn, fb, from % kBucket));
  SHEAP_ASSIGN_OR_RETURN(uint64_t tbal, api.ReadScalar(txn, tb, to % kBucket));
  if (fbal < amount) return Status::InvalidArgument("insufficient funds");
  SHEAP_RETURN_IF_ERROR(api.WriteScalar(txn, fb, from % kBucket, fbal - amount));
  return api.WriteScalar(txn, tb, to % kBucket, tbal + amount);
}

/// Read-only lookup of `n` balances.
Status LookupBody(Api& api, TxnId txn, const uint64_t* accounts, int n,
                  uint64_t* sum) {
  SHEAP_ASSIGN_OR_RETURN(Ref dir, api.GetRoot(txn, kBankRoot));
  for (int i = 0; i < n; ++i) {
    SHEAP_ASSIGN_OR_RETURN(Ref b, api.ReadRef(txn, dir, accounts[i] / kBucket));
    SHEAP_ASSIGN_OR_RETURN(uint64_t bal,
                           api.ReadScalar(txn, b, accounts[i] % kBucket));
    *sum += bal;
  }
  return Status::OK();
}

/// Draws the bank's transaction mix over accounts [lo, lo + n): three in
/// four are transfers with to != from, one in four reads 8 balances.
class BankMutator {
 public:
  BankMutator(uint64_t seed, uint64_t lo, uint64_t n)
      : rng_(seed), lo_(lo), n_(n) {}

  /// One transaction of the mix; updates `shadow` when a transfer commits.
  bool Next(Api& api, Tracer* tracer, TxnTally* tally,
            std::vector<uint64_t>* shadow) {
    ++seq_;
    if (rng_.Uniform(4) != 0) return Transfer(api, tracer, tally, shadow);
    uint64_t accounts[8];
    for (uint64_t& a : accounts) a = lo_ + rng_.Uniform(n_);
    uint64_t sum = 0;
    return RunTxn(api, tracer, seq_, false, tally, [&](TxnId txn) {
      sum = 0;
      return LookupBody(api, txn, accounts, 8, &sum);
    });
  }

  bool Transfer(Api& api, Tracer* tracer, TxnTally* tally,
                std::vector<uint64_t>* shadow) {
    const uint64_t from = lo_ + rng_.Uniform(n_);
    uint64_t to = lo_ + rng_.Uniform(n_ - 1);
    if (to >= from) ++to;  // never to == from (see README: Transfer(a, a))
    const uint64_t amount = 1 + rng_.Uniform(100);
    const bool ok = RunTxn(api, tracer, ++seq_, true, tally, [&](TxnId txn) {
      return TransferBody(api, txn, from, to, amount);
    });
    if (ok) {
      (*shadow)[from] -= amount;
      (*shadow)[to] += amount;
    }
    return ok;
  }

  /// Begin a transaction that overwrites one balance and never commits.
  void Loser(Api& api) {
    const uint64_t a = lo_ + rng_.Uniform(n_);
    TxnId txn = Val(api.Begin(), "Begin");
    Ref dir = Val(api.GetRoot(txn, kBankRoot), "GetRoot");
    Ref b = Val(api.ReadRef(txn, dir, a / kBucket), "ReadRef");
    Ok(api.WriteScalar(txn, b, a % kBucket, 0xDEADBEEF), "WriteScalar");
  }

 private:
  Rng rng_;
  uint64_t lo_;
  uint64_t n_;
  uint64_t seq_ = 0;
};

/// Every balance equals the shadow (so the total is conserved, the last
/// acknowledged transfer is visible and a loser's write is gone).
void VerifyBank(Host* host, const std::vector<uint64_t>& shadow,
                const std::string& when, Checks* checks) {
  StableHeap* heap = host->heap();
  TxnId txn = Val(heap->Begin(), "Begin");
  Ref dir = Val(heap->GetRoot(txn, kBankRoot), "GetRoot");
  uint64_t total = 0;
  uint64_t mismatches = 0;
  for (uint64_t b = 0; b < kAccounts / kBucket; ++b) {
    Ref bucket = Val(heap->ReadRef(txn, dir, b), "ReadRef");
    for (uint64_t i = 0; i < kBucket; ++i) {
      const uint64_t bal = Val(heap->ReadScalar(txn, bucket, i), "ReadScalar");
      total += bal;
      if (bal != shadow[b * kBucket + i]) ++mismatches;
    }
    Ok(heap->ReleaseRef(txn, bucket), "ReleaseRef");
  }
  uint64_t busy = 0;
  Ok(Api(heap, nullptr).Commit(txn, &busy), "Commit");
  checks->Expect(total == kAccounts * kInitial,
                 "bank total " + std::to_string(total) + " != " +
                     std::to_string(kAccounts * kInitial) + " " + when);
  checks->Expect(mismatches == 0, std::to_string(mismatches) +
                                      " balances differ from the shadow " +
                                      when);
}

/// Fresh heap holding the bank; returns the shadow balances.
void SetupBank(Host* host) {
  host->CreateEnv();
  host->Format();
  sheap::workload::Bank bank(host->heap(), kBankRoot);
  Ok(bank.Setup(kAccounts, kInitial), "Bank::Setup");
}

// ------------------------------------------------------------------- CAD

constexpr uint64_t kCadRoot = 0;
constexpr uint64_t kCadDepth = 5;
constexpr uint64_t kCadFanout = 4;
constexpr uint64_t kCadComposites = 256;
constexpr uint64_t kCadLeaves = 1024;  // fanout^depth
constexpr uint64_t kCadAssemblies = 1365;
constexpr uint64_t kCompositePayload = 7'000'000;  // BuildCadDesign's tag
constexpr uint64_t kFreshPayload = 100'000'000;

/// Shadow of the CAD design: which part every leaf slot holds.
struct CadShadow {
  std::vector<uint64_t> slot_payload;  // kCadLeaves * fanout
  std::vector<uint64_t> composite_refs;
  uint64_t fresh_slots = 0;
  uint64_t next_fresh = kFreshPayload;

  uint64_t Reachable() const {
    uint64_t n = kCadAssemblies + fresh_slots * 4;
    for (uint64_t r : composite_refs) n += r > 0 ? 3 : 0;  // part + 2 atoms
    return n;
  }
  void Replace(uint64_t slot, uint64_t payload) {
    const uint64_t old = slot_payload[slot];
    if (old < kFreshPayload) {
      --composite_refs[old - kCompositePayload];
      ++fresh_slots;
    }
    slot_payload[slot] = payload;
  }
};

class CadMutator {
 public:
  CadMutator(uint64_t seed, sheap::workload::NodeClass cls)
      : rng_(seed), cls_(cls) {}

  /// Descend to leaf slot `slot` (path digits base fanout) within txn.
  StatusOr<Ref> Leaf(Api& api, TxnId txn, uint64_t leaf) {
    SHEAP_ASSIGN_OR_RETURN(Ref node, api.GetRoot(txn, kCadRoot));
    uint64_t div = kCadLeaves / kCadFanout;
    for (uint64_t d = 0; d < kCadDepth; ++d, div /= kCadFanout) {
      SHEAP_ASSIGN_OR_RETURN(node,
                             api.ReadRef(txn, node, 1 + (leaf / div) % kCadFanout));
    }
    return node;
  }

  /// Replace one child of leaf slot `slot` with a fresh 4-object part
  /// tagged `payload`.
  Status ReplaceBody(Api& api, TxnId txn, uint64_t slot, uint64_t payload) {
    SHEAP_ASSIGN_OR_RETURN(Ref leaf, Leaf(api, txn, slot / kCadFanout));
    SHEAP_ASSIGN_OR_RETURN(Ref part, api.Allocate(txn, cls_.id, cls_.nslots));
    SHEAP_RETURN_IF_ERROR(api.WriteScalar(txn, part, 0, payload));
    for (uint64_t k = 0; k < 3; ++k) {
      SHEAP_ASSIGN_OR_RETURN(Ref atom, api.Allocate(txn, cls_.id, cls_.nslots));
      SHEAP_RETURN_IF_ERROR(api.WriteScalar(txn, atom, 0, payload + k + 1));
      SHEAP_RETURN_IF_ERROR(api.WriteRef(txn, part, 1 + k, atom));
    }
    return api.WriteRef(txn, leaf, 1 + slot % kCadFanout, part);
  }

  /// Replace the children of leaf slots [first, first + n) in one
  /// transaction.
  bool Replace(Api& api, Tracer* tracer, TxnTally* tally, CadShadow* shadow,
               uint64_t first, uint64_t n = 1) {
    const uint64_t base = shadow->next_fresh;
    shadow->next_fresh += 4 * n;
    const bool ok =
        RunTxn(api, tracer, ++seq_, true, tally, [&](TxnId txn) -> Status {
          for (uint64_t i = 0; i < n; ++i) {
            SHEAP_RETURN_IF_ERROR(
                ReplaceBody(api, txn, first + i, base + 4 * i));
          }
          return Status::OK();
        });
    if (ok) {
      for (uint64_t i = 0; i < n; ++i) shadow->Replace(first + i, base + 4 * i);
      last_slot_ = first + n - 1;
    }
    return ok;
  }

  bool Next(Api& api, Tracer* tracer, TxnTally* tally, CadShadow* shadow) {
    return Replace(api, tracer, tally, shadow,
                   rng_.Uniform(kCadLeaves * kCadFanout));
  }

  /// A transaction that swaps a fresh part into a leaf and never commits.
  uint64_t Loser(Api& api, CadShadow* shadow) {
    const uint64_t slot = rng_.Uniform(kCadLeaves * kCadFanout);
    TxnId txn = Val(api.Begin(), "Begin");
    Ok(ReplaceBody(api, txn, slot, shadow->next_fresh), "loser replace");
    shadow->next_fresh += 4;
    return slot;
  }

  uint64_t last_slot() const { return last_slot_; }

 private:
  Rng rng_;
  sheap::workload::NodeClass cls_;
  uint64_t seq_ = 0;
  uint64_t last_slot_ = 0;
};

/// Payload tags of the parts the given leaf slots hold (one transaction).
std::vector<uint64_t> SlotPayloads(Host* host,
                                   const sheap::workload::NodeClass& cls,
                                   const std::vector<uint64_t>& slots) {
  Api api(host->heap(), nullptr);
  CadMutator m(0, cls);
  TxnId txn = Val(api.Begin(), "Begin");
  std::vector<uint64_t> out;
  for (uint64_t slot : slots) {
    Ref leaf = Val(m.Leaf(api, txn, slot / kCadFanout), "leaf");
    Ref part = Val(api.ReadRef(txn, leaf, 1 + slot % kCadFanout), "ReadRef");
    out.push_back(Val(api.ReadScalar(txn, part, 0), "ReadScalar"));
  }
  uint64_t busy = 0;
  Ok(api.Commit(txn, &busy), "Commit");
  return out;
}

/// Reachable objects equal the shadow's count; the given slots hold the
/// parts the shadow says.
void VerifyCad(Host* host, const sheap::workload::NodeClass& cls,
               const CadShadow& shadow, const std::vector<uint64_t>& slots,
               bool count_reachable, const std::string& when,
               Checks* checks) {
  if (count_reachable) {
    StableHeap* heap = host->heap();
    TxnId txn = Val(heap->Begin(), "Begin");
    Ref root = Val(heap->GetRoot(txn, kCadRoot), "GetRoot");
    const uint64_t reachable = Val(
        sheap::workload::CountReachable(heap, txn, root), "CountReachable");
    uint64_t busy = 0;
    Ok(Api(heap, nullptr).Commit(txn, &busy), "Commit");
    checks->Expect(reachable == shadow.Reachable(),
                   "reachable " + std::to_string(reachable) + " != shadow " +
                       std::to_string(shadow.Reachable()) + " " + when);
  }
  const std::vector<uint64_t> got = SlotPayloads(host, cls, slots);
  for (size_t i = 0; i < slots.size(); ++i) {
    const uint64_t slot = slots[i];
    checks->Expect(got[i] == shadow.slot_payload[slot],
                   "leaf slot " + std::to_string(slot) + " holds part " +
                       std::to_string(got[i]) + ", expected " +
                       std::to_string(shadow.slot_payload[slot]) + " " + when);
  }
}

// -------------------------------------------------------------- workloads

/// Loop control for one measured stretch: a deadline, or a fixed count
/// (--fixed-work).
class Budget {
 public:
  Budget(const Args& a, double seconds, uint64_t fixed_count)
      : fixed_(a.fixed_work ? fixed_count : 0),
        deadline_(NowNs() + static_cast<uint64_t>(seconds * 1e9)) {}
  bool More(uint64_t done) const {
    return fixed_ > 0 ? done < fixed_ : NowNs() < deadline_;
  }

 private:
  uint64_t fixed_;
  uint64_t deadline_;
};

/// Every workload but crash-reopen measures kSegments segments of
/// transactions on `host`. After each one, unmeasured, a restart cycle on
/// `cycle_host` (the same heap, or a twin) takes a flush checkpoint, runs `work` (a fixed number of
/// transactions and a loser), crashes, reopens up to the commit of
/// `first`, and runs `verify`. The flush checkpoint makes every cycle
/// recover the same amount of log; spreading the cycles over the run keeps
/// a burst of host noise from landing on all the reopens.
constexpr int kSegments = 60;
constexpr uint64_t kFixedTxnsPerSegment = 350;

struct Cycle {
  std::function<void(Api&)> work;
  std::function<void(Api&, TxnTally*)> first;
  std::function<void(int)> verify;
};

void RunSegments(Host* host, Host* cycle_host, Phase* phase, Result* res,
                 Checks* checks,
                 const std::function<void(const Budget&)>& segment,
                 const Cycle& cycle) {
  const Args& args = host->args();
  Tracer* tracer = host->tracer();
  for (int c = 0; c < kSegments; ++c) {
    host->Mark();
    phase->Start();
    segment(Budget(args, args.seconds / kSegments, kFixedTxnsPerSegment));
    phase->Stop();
    host->Collect();
    res->reference_ns.push_back(ReferenceCpuNs());

    const Totals before = tracer != nullptr ? tracer->Snapshot() : Totals();
    Host* ch = cycle_host;
    Api plain(ch->heap(), nullptr);  // cycle transactions are not measured
    ch->api().Checkpoint();
    cycle.work(plain);
    ch->Crash(args.seed * 7919 + c);
    TxnTally tally;
    Reopen(ch, &res->restarts, &tally, [&] {
      Api api(ch->heap(), nullptr);
      cycle.first(api, &tally);
    });
    checks->Expect(tally.committed == 1, "first transaction after reopen "
                                         "failed: " + tally.first_error);
    cycle.verify(c);
    if (tracer != nullptr) res->restart_totals += tracer->Snapshot() - before;
    host->FlushFiles();
    if (cycle_host != host) cycle_host->FlushFiles();
  }
}

uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// bank-oltp (1 mutator, force per commit) and bank-2t-group (2 mutators,
/// group commit, disjoint halves of the accounts).
Result RunBank(const Args& args, Tracer* tracer, uint32_t threads, bool group,
               Checks* checks) {
  Result res;
  res.threads = threads;
  Host host(args, tracer);
  host.opts.flush_writer_threads = std::min(4u, HardwareThreads());
  if (group) {
    host.opts.mutator_threads = threads;
    host.opts.group_commit = true;
    host.opts.group_commit_options.max_batch = 8;
    host.opts.group_commit_options.close_after_polls = 16;
  }
  std::vector<uint64_t> shadow;
  std::vector<BankMutator> muts;
  const uint64_t share = kAccounts / threads;

  // Each mutator thread runs `body` with its own sim-clock lane.
  auto parallel = [&](const std::function<void(uint32_t)>& body) {
    if (threads == 1) return body(0);
    std::vector<uint64_t> lanes(threads, 0);
    std::vector<std::thread> ts;
    for (uint32_t t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        sheap::SimClock::ThreadChargeScope lane(host.env()->clock(),
                                                &lanes[t]);
        body(t);
      });
    }
    for (std::thread& th : ts) th.join();
  };

  for (int i = 0; i < kSetups; ++i) {
    const uint64_t t0 = NowNs();
    SetupBank(&host);
    shadow.assign(kAccounts, kInitial);
    muts.clear();
    for (uint32_t t = 0; t < threads; ++t) {
      muts.emplace_back(args.seed * 1000 + t, t * share, share);
    }
    // Untimed warm-up.
    parallel([&](uint32_t t) {
      Api api = host.api();
      TxnTally warm;
      for (uint32_t k = 0; k < 100 / threads; ++k) {
        muts[t].Next(api, nullptr, &warm, &shadow);
      }
    });
    res.setup_s.push_back((NowNs() - t0) / 1e9);
  }
  host.FlushFiles();

  Phase phase(tracer);
  std::vector<TxnTally> tallies(threads);
  for (TxnTally& t : tallies) t.phase = &phase;
  // A lone committer waits out the group-commit poll deadline, so the
  // group variant runs shorter restart cycles.
  const uint64_t cycle_txns = group ? 25 : 100;
  BankMutator rmut(args.seed * 1000 + 99, 0, share);
  RunSegments(
      &host, &host, &phase, &res, checks,
      [&](const Budget& budget) {
        parallel([&](uint32_t t) {
          Api api = host.api();
          for (uint64_t n = 0; budget.More(n * threads); ++n) {
            muts[t].Next(api, tracer, &tallies[t], &shadow);
          }
        });
      },
      Cycle{[&](Api& api) {
              TxnTally t;
              for (uint64_t k = 0; k < cycle_txns; ++k) {
                rmut.Transfer(api, nullptr, &t, &shadow);
              }
              rmut.Loser(api);
            },
            [&](Api& api, TxnTally* t) {
              rmut.Transfer(api, nullptr, t, &shadow);
            },
            [&](int c) {
              VerifyBank(&host, shadow, "after reopen " + std::to_string(c),
                         checks);
            }});
  res.txns = std::move(tallies[0]);
  for (uint32_t t = 1; t < threads; ++t) res.txns.Merge(tallies[t]);
  res.Finish(phase, tracer);
  res.counters = host.counters();
  VerifyBank(&host, shadow, "after the timed phase", checks);
  if (!group) {
    checks->Expect(res.counters[kFdatasyncs] >= res.txns.writes,
                   "force-on-commit issued fewer fdatasyncs than write "
                   "transactions");
  }
  return res;
}

/// Fresh heap holding the CAD design at its steady live size; fills the
/// shadow and returns the node class.
sheap::workload::NodeClass SetupCad(Host* host, CadShadow* shadow,
                                    Checks* checks) {
  const uint64_t seed = host->args().seed;
  host->opts.divided_heap = false;
  host->opts.stable_space_pages = 256;
  host->opts.buffer_pool_frames = 128;
  host->opts.flush_writer_threads = std::min(4u, HardwareThreads());
  host->CreateEnv();
  host->Format();
  const sheap::workload::NodeClass cls = Val(
      sheap::workload::RegisterNodeClass(host->heap(), kCadFanout),
      "RegisterNodeClass");
  Rng rng(seed);
  Val(sheap::workload::BuildCadDesign(host->heap(), cls, kCadRoot, kCadDepth,
                                      kCadFanout, kCadComposites, &rng),
      "BuildCadDesign");
  // Shadow: which composite every leaf slot references.
  *shadow = CadShadow();
  shadow->composite_refs.assign(kCadComposites, 0);
  std::vector<uint64_t> all(kCadLeaves * kCadFanout);
  for (uint64_t s = 0; s < all.size(); ++s) all[s] = s;
  shadow->slot_payload = SlotPayloads(host, cls, all);
  for (uint64_t p : shadow->slot_payload) {
    ++shadow->composite_refs[p - kCompositePayload];
  }
  // Untimed warm-up: replace every leaf slot once, so the live set is at
  // its steady size before timing starts. Batches of 64 slots keep the
  // set-up from being a measure of the log device's sync latency.
  constexpr uint64_t kWarmBatch = 64;
  CadMutator warmer(seed * 1000 + 7, cls);
  Api api = host->api();
  TxnTally warm;
  for (uint64_t s = 0; s < all.size(); s += kWarmBatch) {
    warmer.Replace(api, nullptr, &warm, shadow, s, kWarmBatch);
  }
  checks->Expect(warm.committed == all.size() / kWarmBatch,
                 "warm-up transaction failed: " + warm.first_error);
  return cls;
}

/// cad-churn: undivided heap larger than the buffer pool; every
/// transaction allocates a fresh part, so the incremental collector, its
/// barrier traps and pool eviction stay busy. The restart cycles run on a
/// twin heap built the same way:
/// the cycles flip collections and crash, which would otherwise change the
/// measured heap's collection cadence and empty its pool.
Result RunCad(const Args& args, Tracer* tracer, Checks* checks) {
  Result res;
  Host host(args, tracer);
  sheap::workload::NodeClass cls;
  CadShadow shadow;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t t0 = NowNs();
    cls = SetupCad(&host, &shadow, checks);
    res.setup_s.push_back((NowNs() - t0) / 1e9);
  }
  auto mut = std::make_unique<CadMutator>(args.seed * 1000, cls);
  Host twin(args, tracer);
  CadShadow twin_shadow;
  SetupCad(&twin, &twin_shadow, checks);
  host.FlushFiles();
  twin.FlushFiles();

  Phase phase(tracer);
  res.txns.phase = &phase;
  CadMutator rmut(args.seed * 1000 + 99, cls);
  uint64_t acked_slot = 0;
  uint64_t loser_slot = 0;
  RunSegments(
      &host, &twin, &phase, &res, checks,
      [&](const Budget& budget) {
        Api api = host.api();
        for (uint64_t n = 0; budget.More(n); ++n) {
          mut->Next(api, tracer, &res.txns, &shadow);
        }
      },
      Cycle{[&](Api& api) {
              // Flip halfway, so every crash lands mid-collection
              // (allocation paces the scan: about 4 of 256 pages per
              // transaction).
              TxnTally t;
              for (uint64_t k = 0; k < 100; ++k) {
                if (k == 50) api.StepCollection(0);
                rmut.Next(api, nullptr, &t, &twin_shadow);
              }
              acked_slot = rmut.last_slot();
              loser_slot = rmut.Loser(api, &twin_shadow);
            },
            [&](Api& api, TxnTally* t) {
              rmut.Next(api, nullptr, t, &twin_shadow);
            },
            [&](int c) {
              // The reachability walk is the expensive part: every tenth.
              VerifyCad(&twin, cls, twin_shadow, {acked_slot, loser_slot},
                        c % 10 == 9, "after reopen " + std::to_string(c),
                        checks);
            }});
  res.Finish(phase, tracer);
  res.counters = host.counters();
  VerifyCad(&host, cls, shadow, {mut->last_slot()}, true,
            "after the timed phase", checks);
  checks->Expect(res.counters[kFdatasyncs] >= res.txns.writes,
                 "force-on-commit issued fewer fdatasyncs than write "
                 "transactions");
  return res;
}

/// crash-reopen: repetitions of a fixed sequence of crash cycles on a
/// fresh bank. Each cycle runs transfers, leaves a loser, now and then
/// steps a stable collection or takes a flush checkpoint, crashes and
/// reopens to the first committed transfer.
constexpr int kCrashCycles = 100;
constexpr uint64_t kCycleTxns = 200;

Result RunCrashReopen(const Args& args, Tracer* tracer, Checks* checks) {
  Result res;
  Host host(args, tracer);
  host.opts.flush_writer_threads = std::min(4u, HardwareThreads());
  std::vector<uint64_t> shadow;

  auto setup = [&] {
    const uint64_t t0 = NowNs();
    SetupBank(&host);
    shadow.assign(kAccounts, kInitial);
    // Without this the first cycles replay the setup transaction.
    Ok(host.heap()->CheckpointWithWriteback(), "CheckpointWithWriteback");
    res.setup_s.push_back((NowNs() - t0) / 1e9);
    host.FlushFiles();
  };
  for (int i = 0; i + 1 < kSetups; ++i) setup();

  Phase watch(tracer);
  res.txns.phase = &watch;
  std::array<uint64_t, 2> growth_ns{};  // first and last ten cycles
  std::array<uint64_t, 2> growth_n{};
  double first_rep_rss_mb = 0;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  for (int rep = 0; rep == 0 || (!args.fixed_work && NowNs() < deadline);
       ++rep) {
    setup();
    BankMutator mut(args.seed * 1000 + rep, 0, kAccounts);
    watch.Start();
    host.Mark();
    for (int c = 0; c < kCrashCycles; ++c) {
      Api api = host.api();
      for (uint64_t k = 0; k < kCycleTxns; ++k) {
        mut.Transfer(api, tracer, &res.txns, &shadow);
      }
      if (c % 4 == 3) api.StepCollection(16);
      if (c % 10 == 9) api.Checkpoint();
      mut.Loser(api);
      host.Collect();
      host.Crash(args.seed * 7919 + rep * 1000 + c);
      // The first transfer's latency belongs to the reopen sample, not to
      // the transfer latencies.
      TxnTally first;
      Reopen(&host, &res.restarts, &first, [&] {
        Api a = host.api();
        mut.Transfer(a, tracer, &first, &shadow);
      });
      checks->Expect(first.committed == 1,
                     "first transfer after reopen failed: " +
                         first.first_error);
      res.txns.Merge(first);
      if (c < 10 || c >= kCrashCycles - 10) {
        growth_ns[c < 10 ? 0 : 1] += res.restarts.reopen_ns.back();
        ++growth_n[c < 10 ? 0 : 1];
      }
      host.Collect();
      watch.Stop();
      res.reference_ns.push_back(ReferenceCpuNs());
      VerifyBank(&host, shadow, "after reopen " + std::to_string(c), checks);
      host.FlushFiles();
      watch.Start();
      host.Mark();
    }
    host.Collect();
    watch.Stop();
    // Later repetitions only add allocator churn from the heaps before.
    if (rep == 0) first_rep_rss_mb = PeakRssMb();
  }
  res.Finish(watch, tracer);
  res.peak_rss_mb = first_rep_rss_mb;
  res.counters = host.counters();
  for (int i = 0; i < 2; ++i) {
    res.reopen_growth_ms[i] =
        growth_ns[i] / 1e6 / std::max<uint64_t>(1, growth_n[i]);
  }
  checks->Expect(res.counters[kFdatasyncs] >= res.txns.writes,
                 "force-on-commit issued fewer fdatasyncs than write "
                 "transactions");
  return res;
}

// ---------------------------------------------------------------- output

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": [" + buf + ", \"" +
             items_[i].unit + "\"]";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

std::string FsType(const std::string& dir) {
  struct statfs s;
  if (::statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void Report(const Args& args, Tracer* tracer, const Result& r,
            const Checks& checks) {
  const Counters& c = r.counters;
  const double n = static_cast<double>(std::max<uint64_t>(1, r.txns.committed));
  const double secs = r.wall_ns / 1e9;
  const double opens =
      static_cast<double>(std::max<size_t>(1, r.restarts.reopen_ns.size()));
  Metrics m;

  // End to end.
  m.Add("setup_s", Median(r.setup_s), "s");
  m.Add("txn_per_s", r.windows.rate, "1/s");
  m.Add("txn_p50_ms", r.windows.p50_ns / 1e6, "ms");
  m.Add("txn_p95_ms", r.windows.p95_ns / 1e6, "ms");
  m.Add("txn_p99_ms", r.windows.p99_ns / 1e6, "ms");
  m.Add("txn_cpu_us", r.windows.cpu_ns / 1e3, "us");
  const double reference_ns = Median(r.reference_ns);
  const double scale = kReferenceNs / std::max(1.0, reference_ns);
  m.Add("reference_ms", reference_ns / 1e6, "ms");
  m.Add("txn_user_us", r.windows.user_ns / 1e3, "us");
  m.Add("txn_user_norm_us", r.windows.user_ns * scale / 1e3, "us");
  m.Add("txn_failed_ratio",
        static_cast<double>(r.txns.attempted - r.txns.committed) /
            std::max<uint64_t>(1, r.txns.attempted),
        "ratio");
  const double reopen_p50_ns = BlockPercentile(r.restarts.reopen_ns, 0.50);
  m.Add("reopen_p50_ms", reopen_p50_ns / 1e6, "ms");
  m.Add("reopen_p50_norm_ms", reopen_p50_ns * scale / 1e6, "ms");
  m.Add("reopen_p90_ms", BlockPercentile(r.restarts.reopen_ns, 0.90) / 1e6,
        "ms");
  m.Add("dev_bytes_per_txn",
        (c[kLogBytes] + c[kPageWrites] * double{sheap::kPageSizeBytes}) / n,
        "B");
  m.Add("peak_rss_mb", r.peak_rss_mb, "MB");

  // Per layer: counters (exact with one mutator).
  m.Add("core.commit.busy_per_txn", r.txns.busy / n, "count");
  m.Add("core.gate.handshakes", c[kHandshakes], "count");
  m.Add("gc.collections", c[kGcCollections], "count");
  m.Add("gc.pages_scanned_per_txn", c[kGcPages] / n, "count");
  m.Add("gc.objects_copied_per_txn", c[kGcCopied] / n, "count");
  m.Add("gc.traps_per_txn", c[kGcTraps] / n, "count");
  m.Add("gc.hw_traps_per_txn", c[kGcHwTraps] / n, "count");
  m.Add("txn.lock.acquires_per_txn", c[kLockAcquires] / n, "count");
  m.Add("txn.lock.conflicts_per_txn", c[kLockConflicts] / n, "count");
  m.Add("wal.bytes_per_txn", c[kWalBytes] / n, "B");
  m.Add("wal.gc_bytes_per_txn", c[kWalGcBytes] / n, "B");
  m.Add("wal.group.batch_size",
        c[kGroupBatches] ? double(c[kGroupEnqueued]) / c[kGroupBatches] : 0,
        "count");
  m.Add("wal.group.polls_per_txn", c[kGroupPolls] / n, "count");
  m.Add("storage.log.fdatasyncs_per_txn", c[kFdatasyncs] / n, "count");
  m.Add("storage.log.writev_per_txn", c[kWritevs] / n, "count");
  m.Add("storage.disk.page_reads_per_txn", c[kPageReads] / n, "count");
  m.Add("storage.disk.page_writes_per_txn", c[kPageWrites] / n, "count");
  m.Add("storage.pool.hit_ratio",
        double(c[kPoolHits]) /
            std::max<uint64_t>(1, c[kPoolHits] + c[kPoolMisses]),
        "ratio");
  m.Add("storage.pool.evictions_per_txn", c[kEvictions] / n, "count");
  m.Add("recovery.log_bytes_read_per_open",
        r.restarts.log_bytes_read / opens, "B");
  m.Add("recovery.analysis_records_per_open",
        r.restarts.analysis_records / opens, "count");
  m.Add("recovery.redo_applied_per_open", r.restarts.redo_applied / opens,
        "count");
  m.Add("recovery.undo_records_per_open", r.restarts.undo_records / opens,
        "count");
  m.Add("recovery.first_txn.ms", Mean(r.restarts.first_txn_ns) / 1e6, "ms");

  // Per layer: spans.
  bool coverage_ok = true;
  if (tracer != nullptr) {
    const Totals& t = r.run_totals;
    Totals all = r.run_totals;
    all += r.restart_totals;
    auto us = [&](Kind k) { return t.Of(k).total_ns / n / 1e3; };
    m.Add("core.begin.us_per_txn", us(kBegin), "us");
    m.Add("core.read.us_per_txn", us(kRead), "us");
    m.Add("core.write.us_per_txn", us(kWrite), "us");
    m.Add("core.commit.self_us_per_txn", t.Of(kCommit).self_ns / n / 1e3,
          "us");
    m.Add("core.commit.p99_us", Percentile(r.commit_span_ns, 0.99) / 1e3,
          "us");
    m.Add("core.commit.wait_us_per_txn", us(kCommitWait), "us");
    m.Add("core.alloc.us_per_txn", us(kAlloc), "us");
    m.Add("core.alloc.p99_us", Percentile(r.alloc_span_ns, 0.99) / 1e3, "us");
    m.Add("storage.log.append.us_per_txn", us(kLogAppend), "us");
    m.Add("storage.log.force.us_per_txn", us(kLogForce), "us");
    m.Add("storage.disk.read.us_per_txn", us(kDiskRead), "us");
    m.Add("storage.disk.write.us_per_txn", us(kDiskWrite), "us");
    const double nopen =
        static_cast<double>(std::max<uint64_t>(1, all.Of(kOpen).count));
    m.Add("recovery.open.self_ms",
          all.by[kOpen][kOpen].self_ns / nopen / 1e6, "ms");
    m.Add("recovery.open.disk_read_ms",
          all.by[kOpen][kDiskRead].total_ns / nopen / 1e6, "ms");
    m.Add("recovery.open.log_read_ms",
          all.by[kOpen][kLogRead].total_ns / nopen / 1e6, "ms");
    const Agg ck = all.Of(kCheckpoint);
    m.Add("recovery.checkpoint.ms",
          ck.count ? ck.total_ns / double(ck.count) / 1e6 : 0, "ms");
    m.Add("bench.driver.us_per_txn",
          (t.txn_wall_ns - std::min(t.txn_wall_ns, t.txn_heap_ns)) / n / 1e3,
          "us");
    const double coverage =
        t.txn_wall_ns ? double(t.txn_heap_ns) / t.txn_wall_ns : 0;
    m.Add("trace.span_coverage", coverage, "ratio");
    m.Add("trace.spans_dropped", tracer->spans_dropped(), "count");
    coverage_ok = coverage >= 0.90;
    if (!args.trace_out.empty() && !tracer->Dump(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  std::vector<std::string> failures = checks.failures;
  if (!coverage_ok) failures.push_back("StableHeap spans cover < 90% of "
                                       "transaction wall time");
  if (r.restarts.reopen_ns.empty()) failures.push_back("no reopen measured");
  std::string fail_json = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    fail_json += (i ? ", \"" : "\"") + JsonEscape(failures[i]) + "\"";
  }
  fail_json += "]";

  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"failures\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
      "\"info\": {\"fs_type\": \"%s\", \"build_type\": \"%s\", "
      "\"fault_injection\": %s, \"mutator_threads\": %u, "
      "\"hardware_threads\": %u, \"committed\": %llu, \"reopens\": %zu, "
      "\"timed_s\": %.6f, \"reopen_first10_ms\": %.6f, "
      "\"reopen_last10_ms\": %.6f, \"first_error\": \"%s\"}}\n",
      args.workload.c_str(), failures.empty() ? "true" : "false",
      fail_json.c_str(), static_cast<unsigned long long>(r.txns.attempted),
      static_cast<unsigned long long>(r.txns.attempted - r.txns.committed),
      m.Json().c_str(), FsType(args.dir).c_str(), PERFBENCH_BUILD_TYPE,
      SHEAP_FAULT_INJECTION ? "true" : "false", r.threads, HardwareThreads(),
      static_cast<unsigned long long>(r.txns.committed),
      r.restarts.reopen_ns.size(), secs, r.reopen_growth_ms[0],
      r.reopen_growth_ms[1],
      JsonEscape(r.txns.first_error).c_str());
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--fixed-work") {
      a->fixed_work = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <bank-oltp|cad-churn|crash-reopen|"
                 "bank-2t-group> --seed <n> --seconds <s> [--trace 0|1] "
                 "[--fixed-work] [--dir <d>] [--trace-out <f>]\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  Tracer* tracer = args.trace ? Tracer::Get() : nullptr;
  Checks checks;
  Result r;
  if (args.workload == "bank-oltp") {
    r = RunBank(args, tracer, 1, false, &checks);
  } else if (args.workload == "bank-2t-group") {
    if (HardwareThreads() < 2) {
      std::fprintf(stderr, "bank-2t-group needs 2 hardware threads\n");
      return 2;
    }
    r = RunBank(args, tracer, 2, true, &checks);
  } else if (args.workload == "cad-churn") {
    r = RunCad(args, tracer, &checks);
  } else if (args.workload == "crash-reopen") {
    r = RunCrashReopen(args, tracer, &checks);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Report(args, tracer, r, checks);
  return 0;
}
