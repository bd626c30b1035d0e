// E3 — Garbage-collection pauses vs live-heap size (paper §1, §3): a
// stop-the-world atomic collection pauses for the whole copy+scan (growing
// with the live set, the reason the earlier Kolodner-Liskov-Weihl collector
// does not scale); the incremental atomic collector's pauses are bounded by
// the flip (roots only) and per-step page scans.

#include "bench_util.h"
#include "storage/sim_env.h"

using namespace sheap;
using namespace sheap::bench;
using workload::NodeClass;

namespace {

struct PauseResult {
  double max_ms = 0;
  double mean_ms = 0;
  uint64_t pauses = 0;
};

PauseResult RunOne(bool incremental, uint64_t live_words) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 16384;
  opts.volatile_space_pages = 8192;
  opts.divided_heap = false;
  opts.incremental_gc = incremental;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  NodeClass cls = BENCH_VAL(workload::RegisterNodeClass(heap.get(), 2));
  PlantLiveData(heap.get(), cls, 0, live_words);
  heap->stable_gc_stats() = GcStats();  // measure the collection only

  if (incremental) {
    BENCH_OK(heap->StartStableCollection());
    // The mutator keeps working between steps (allocation-paced stepping);
    // here the driver steps explicitly with one page per step.
    while (heap->stable_gc()->collecting()) {
      BENCH_OK(heap->StepStableCollection(1));
    }
  } else {
    BENCH_OK(heap->CollectStableFully());
  }

  const GcStats& stats = heap->stable_gc_stats();
  PauseResult r;
  r.max_ms = Ms(stats.max_pause_ns);
  r.mean_ms = Ms(static_cast<uint64_t>(stats.MeanPauseNs()));
  r.pauses = stats.pause_count;
  return r;
}

struct ScanScale {
  double scan_ms = 0;          // executor scan-walk sim time (busiest lane)
  double gc_log_kib = 0;       // kGcCopyBatch + kGcScan bytes
  double scan_log_kib = 0;     // kGcScan bytes alone
  uint64_t batch_records = 0;
  uint64_t scan_runs = 0;
  uint64_t sync_writes = 0;
};

/// One full collection of a wide fan-out live graph driven in 64-page
/// steps, with `threads` scan workers. Wide fan-out matters: scanning a
/// directory page copies hundreds of objects ahead of the scan, so fully
/// copied pages pile up behind the frontier for the executor to claim (a
/// linked list is the degenerate case — the scan chases the copy pointer
/// page by page and everything stays on the serial frontier path).
ScanScale RunScan(uint32_t threads) {
  SimEnv env;
  StableHeapOptions opts;
  opts.stable_space_pages = 16384;
  opts.volatile_space_pages = 8192;
  opts.divided_heap = false;
  opts.gc_threads = threads;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  // Three levels: pointer directories -> half-pointer mids -> scalar
  // leaves. Mid pages give the executor copy candidates (kGcCopyBatch);
  // leaf pages are translation-free (clean-run kGcScan).
  ClassId mid = BENCH_VAL(heap->RegisterClass(
      std::vector<bool>{true, true, true, true, false, false, false,
                        false}));
  for (uint64_t d = 0; d < 8; ++d) {
    TxnId txn = BENCH_VAL(heap->Begin());
    Ref dir = BENCH_VAL(heap->AllocateStable(txn, kClassPtrArray, 300));
    for (uint64_t i = 0; i < 300; ++i) {
      Ref m = BENCH_VAL(heap->AllocateStable(txn, mid, 8));
      for (uint64_t k = 0; k < 4; ++k) {
        Ref leaf =
            BENCH_VAL(heap->AllocateStable(txn, kClassDataArray, 12));
        BENCH_OK(heap->WriteScalar(txn, leaf, 0, d * 1000 + i + k));
        BENCH_OK(heap->WriteRef(txn, m, k, leaf));
      }
      BENCH_OK(heap->WriteRef(txn, dir, i, m));
    }
    BENCH_OK(heap->SetRoot(txn, d, dir));
    BENCH_OK(heap->Commit(txn));
  }
  heap->stable_gc_stats() = GcStats();
  LogVolumeStats before = heap->log_writer()->volume_stats();

  BENCH_OK(heap->StartStableCollection());
  while (heap->stable_gc()->collecting()) {
    BENCH_OK(heap->StepStableCollection(64));
  }

  const GcStats& stats = heap->stable_gc_stats();
  const LogVolumeStats& after = heap->log_writer()->volume_stats();
  auto delta = [&](RecordType t) {
    return static_cast<double>(after.For(t).bytes - before.For(t).bytes);
  };
  ScanScale r;
  r.scan_ms = Ms(stats.scan_phase_ns);
  r.scan_log_kib = delta(RecordType::kGcScan) / 1024;
  r.gc_log_kib =
      (delta(RecordType::kGcCopyBatch) + delta(RecordType::kGcScan)) / 1024;
  r.batch_records = stats.copy_batch_records;
  r.scan_runs = stats.scan_run_records;
  r.sync_writes = stats.sync_page_writes;
  return r;
}

}  // namespace

int main() {
  Header("E3  collection pauses vs live heap size",
         "stop-the-world pause grows with the live set; incremental pauses "
         "stay bounded (flip + single page scans)");
  Row("  %-10s %-12s %10s %12s %10s", "live(MiB)", "collector",
      "max(ms)", "mean(ms)", "pauses");

  std::vector<uint64_t> sizes_words = {1ull << 17,   // 1 MiB
                                       1ull << 19,   // 4 MiB
                                       1ull << 21};  // 16 MiB
  std::vector<double> stw_max, inc_max;
  for (uint64_t words : sizes_words) {
    PauseResult stw = RunOne(/*incremental=*/false, words);
    PauseResult inc = RunOne(/*incremental=*/true, words);
    const double mib = static_cast<double>(words) * 8 / (1024 * 1024);
    Row("  %-10.1f %-12s %10.2f %12.3f %10llu", mib, "stop-world",
        stw.max_ms, stw.mean_ms, (unsigned long long)stw.pauses);
    Row("  %-10.1f %-12s %10.2f %12.3f %10llu", mib, "incremental",
        inc.max_ms, inc.mean_ms, (unsigned long long)inc.pauses);
    stw_max.push_back(stw.max_ms);
    inc_max.push_back(inc.max_ms);
  }

  ShapeCheck(stw_max.back() > stw_max.front() * 8,
             "stop-the-world max pause grows ~linearly with live size");
  // The max incremental pause is bounded by flip cost + one page scan +
  // at most one log-buffer drain — a constant, independent of live size.
  ShapeCheck(inc_max.back() < 60.0,
             "incremental max pause is bounded (<60 ms) at every size");
  ShapeCheck(inc_max.back() * 10 < stw_max.back(),
             "incremental max pause << stop-the-world at 16 MiB");

  // E14 — parallel scan scaling + batched-record log volume (DESIGN.md
  // §5f): the scan phase parallelizes across workers with byte-identical
  // logs, and record batching shrinks the collection's log traffic.
  Header("E14  parallel scan scaling and batched GC records",
         "scan-phase sim time drops with workers (busiest-lane charge); "
         "kGcCopyBatch + clean-run kGcScan records shrink the log");
  Row("  %-10s %12s %12s %12s %10s", "threads", "scan(ms)", "gc-log(KiB)",
      "scan(KiB)", "runs");

  JsonBench("gc");
  ScanScale t1 = RunScan(1);
  ScanScale t2 = RunScan(2);
  ScanScale t4 = RunScan(4);
  for (auto& [threads, r] :
       std::initializer_list<std::pair<uint32_t, ScanScale&>>{
           {1, t1}, {2, t2}, {4, t4}}) {
    Row("  %-10u %12.2f %12.1f %12.1f %10llu", threads, r.scan_ms,
        r.gc_log_kib, r.scan_log_kib, (unsigned long long)r.scan_runs);
  }

  EmitMetric("scan_ms_threads1", t1.scan_ms, "ms");
  EmitMetric("scan_ms_threads2", t2.scan_ms, "ms");
  EmitMetric("scan_ms_threads4", t4.scan_ms, "ms");
  EmitMetric("scan_speedup_threads4", t1.scan_ms / t4.scan_ms, "x");
  EmitMetric("gc_log_kib_batched", t1.gc_log_kib, "KiB");
  EmitMetric("scan_log_kib_batched", t1.scan_log_kib, "KiB");
  EmitMetric("copy_batch_records", static_cast<double>(t1.batch_records),
             "records");
  EmitMetric("sync_page_writes", static_cast<double>(t1.sync_writes),
             "writes");

  ShapeCheck(t1.scan_ms >= 2.0 * t4.scan_ms,
             "4 scan workers finish the scan phase >= 2x faster");
  ShapeCheck(t2.scan_ms < t1.scan_ms, "2 workers beat 1");
  ShapeCheck(t1.batch_records > 0, "batched copies actually happened");
  ShapeCheck(t1.scan_runs > 0, "clean-run scan records actually happened");
  ShapeCheck(t1.sync_writes == 0 && t4.sync_writes == 0,
             "the WAL-mode collector never writes synchronously");
  ShapeCheck(t1.gc_log_kib == t4.gc_log_kib && t1.scan_log_kib ==
             t4.scan_log_kib,
             "log volume is identical at 1 and 4 workers");
  return Finish();
}
