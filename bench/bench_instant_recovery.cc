// E15 — time-to-first-transaction vs redo backlog (instant recovery, see
// src/recovery/instant_redo.h and DESIGN.md §5g): offline recovery pays the
// whole redo pass inside Open, so its time-to-first-transaction grows with
// the log since the checkpoint. With instant_recovery the heap opens right
// after analysis + undo and redoes pages on demand behind a per-page gate:
// the first transaction pays analysis plus a handful of on-demand page
// redos — roughly flat while the redo plan grows 8x.

#include "bench_util.h"
#include "storage/sim_env.h"

using namespace sheap;
using namespace sheap::bench;

namespace {

constexpr uint64_t kObjects = 512;  // one-page objects under a directory

StableHeapOptions BaseOptions() {
  StableHeapOptions opts;
  opts.stable_space_pages = 8192;
  opts.volatile_space_pages = 2048;
  opts.divided_heap = false;
  opts.buffer_pool_frames = 65536;
  return opts;
}

/// Crashed image whose redo plan spans exactly `updated_pages` cold pages:
/// a fully written-back + checkpointed heap of one-page objects, then one
/// committed update to each of the first `updated_pages` objects, then a
/// crash with no write-back (every planned page must be fetched and
/// redone).
std::unique_ptr<SimEnv> BuildCrashed(const StableHeapOptions& opts,
                                     uint64_t updated_pages) {
  auto env = std::make_unique<SimEnv>();
  auto heap = std::move(*StableHeap::Open(env.get(), opts));
  const uint64_t slots = kPageSizeBytes / kWordSizeBytes - 1;
  ClassId big =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(slots, false)));
  ClassId dir =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(kObjects, true)));

  TxnId setup = BENCH_VAL(heap->Begin());
  Ref dref = BENCH_VAL(heap->AllocateStable(setup, dir, kObjects));
  BENCH_OK(heap->SetRoot(setup, 0, dref));
  for (uint64_t i = 0; i < kObjects; ++i) {
    Ref obj = BENCH_VAL(heap->AllocateStable(setup, big, slots));
    BENCH_OK(heap->WriteRef(setup, dref, i, obj));
  }
  BENCH_OK(heap->Commit(setup));
  BENCH_OK(heap->WriteBackPages(1.0, 5));
  BENCH_OK(heap->Checkpoint());

  TxnId txn = BENCH_VAL(heap->Begin());
  Ref d2 = BENCH_VAL(heap->GetRoot(txn, 0));
  for (uint64_t i = 0; i < updated_pages; ++i) {
    Ref obj = BENCH_VAL(heap->ReadRef(txn, d2, i));
    for (uint64_t k = 0; k < 8; ++k) {
      BENCH_OK(heap->WriteScalar(txn, obj, k, i + k));
    }
  }
  BENCH_OK(heap->Commit(txn));

  BENCH_OK(heap->SimulateCrash(CrashOptions{0.0, 13, 0}));
  heap.reset();
  return env;
}

struct Result {
  double ttft_ms = 0;     // open + first committed transaction
  double open_ms = 0;     // time_to_open_ns
  double drain_ms = 0;    // instant only: the remaining background drain
  uint64_t planned = 0;   // redo-plan pages pending at open
  uint64_t ondemand = 0;  // pages redone at first touch
  uint64_t applied = 0;   // redo records applied once converged
};

/// Open the crashed heap and run one transaction that reads an updated
/// object — the paper-style "first transaction after the crash".
Result RunOne(const StableHeapOptions& opts, uint64_t updated_pages) {
  std::unique_ptr<SimEnv> env = BuildCrashed(opts, updated_pages);
  const uint64_t start = env->clock()->now_ns();
  auto heap = std::move(*StableHeap::Open(env.get(), opts));

  Result r;
  r.open_ms = Ms(heap->recovery_stats().time_to_open_ns);
  r.planned = heap->recovery_stats().pending_pages;

  // Object 0 lives on the highest planned page (allocation runs downward),
  // which the ascending cooperative drain reaches last — this read is a
  // genuine first touch through the gate, not a page the Begin-time drain
  // batch already covered.
  TxnId txn = BENCH_VAL(heap->Begin());
  Ref d = BENCH_VAL(heap->GetRoot(txn, 0));
  Ref obj = BENCH_VAL(heap->ReadRef(txn, d, 0));
  uint64_t got = BENCH_VAL(heap->ReadScalar(txn, obj, 1));
  if (got != 1) {
    std::fprintf(stderr, "first transaction read stale data\n");
    std::abort();
  }
  BENCH_OK(heap->Commit(txn));
  r.ttft_ms = Ms(env->clock()->now_ns() - start);

  const uint64_t drain_start = env->clock()->now_ns();
  BENCH_OK(heap->DrainInstantRecovery());
  r.drain_ms = Ms(env->clock()->now_ns() - drain_start);
  const RecoveryStats rs = heap->recovery_stats();
  r.ondemand = rs.ondemand_pages;
  r.applied = rs.redo_records_applied;
  return r;
}

}  // namespace

int main() {
  JsonBench("instant_recovery");
  Header("E15 time-to-first-transaction vs redo backlog",
         "instant recovery opens after analysis and redoes pages on "
         "demand: first-transaction latency stays ~flat while the redo "
         "plan grows 8x; offline recovery pays the whole plan up front");
  Row("  %-8s %14s %14s %12s %12s %10s", "pages", "offline-ttft", "instant-ttft",
      "open(ms)", "drain(ms)", "ondemand");

  std::vector<double> offline_ttft, instant_ttft;
  uint64_t offline_applied = 0;
  uint64_t instant_applied = 0;
  uint64_t last_ondemand = 0;
  for (uint64_t pages : {32ull, 64ull, 128ull, 256ull}) {
    Result off = RunOne(BaseOptions(), pages);
    StableHeapOptions inst_opts = BaseOptions();
    inst_opts.instant_recovery = true;
    inst_opts.recovery_threads = 1;
    inst_opts.instant_drain_pages = 4;
    Result inst = RunOne(inst_opts, pages);

    Row("  %-8llu %14.3f %14.3f %12.3f %12.3f %10llu",
        (unsigned long long)pages, off.ttft_ms, inst.ttft_ms, inst.open_ms,
        inst.drain_ms, (unsigned long long)inst.ondemand);
    offline_ttft.push_back(off.ttft_ms);
    instant_ttft.push_back(inst.ttft_ms);
    offline_applied = off.applied;
    instant_applied = inst.applied;
    last_ondemand = inst.ondemand;

    char name[64];
    std::snprintf(name, sizeof name, "offline_ttft_ms_%llu",
                  (unsigned long long)pages);
    EmitMetric(name, off.ttft_ms, "ms");
    std::snprintf(name, sizeof name, "instant_ttft_ms_%llu",
                  (unsigned long long)pages);
    EmitMetric(name, inst.ttft_ms, "ms");
    std::snprintf(name, sizeof name, "instant_open_ms_%llu",
                  (unsigned long long)pages);
    EmitMetric(name, inst.open_ms, "ms");
    std::snprintf(name, sizeof name, "instant_drain_ms_%llu",
                  (unsigned long long)pages);
    EmitMetric(name, inst.drain_ms, "ms");
    EmitMetric("planned_pages_" + std::to_string(pages),
               static_cast<double>(inst.planned), "pages");
  }

  const double offline_growth = offline_ttft.back() / offline_ttft.front();
  const double instant_growth = instant_ttft.back() / instant_ttft.front();
  Row("  offline ttft growth over 8x backlog: %.2fx", offline_growth);
  Row("  instant ttft growth over 8x backlog: %.2fx", instant_growth);
  EmitMetric("offline_ttft_growth_8x", offline_growth, "x");
  EmitMetric("instant_ttft_growth_8x", instant_growth, "x");

  ShapeCheck(offline_growth > 3.0,
             "offline first-transaction latency grows with the backlog");
  ShapeCheck(instant_growth < 2.0,
             "instant first-transaction latency is ~flat over 8x backlog");
  ShapeCheck(instant_ttft.back() * 2 < offline_ttft.back(),
             "at 256 pending pages instant beats offline ttft by >2x");
  ShapeCheck(instant_applied == offline_applied,
             "drained instant redo applies exactly the offline record set");
  ShapeCheck(last_ondemand >= 1,
             "the first transaction redoes its page on demand");
  return Finish();
}
