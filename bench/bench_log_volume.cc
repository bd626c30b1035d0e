// E10 — Log volume of the atomic collector (paper §3.6 and the [R]
// reconstruction note in DESIGN.md): our copy records carry the object
// contents, so one collection logs roughly (bytes copied) + scan/flip
// overhead. The table breaks the collection's log traffic down by record
// type and reports bytes logged per byte copied across object sizes.
// Every copy step is one kGcCopyBatch from the collector's copy planner
// (DESIGN.md §5f). A linked list is its worst case: the frontier page's
// walk copies one object per batch.

#include "bench_util.h"
#include "storage/sim_env.h"

using namespace sheap;
using namespace sheap::bench;

int main() {
  JsonBench("gc_log_volume");
  Header("E10  atomic-GC log volume per collection",
         "contents-carrying copy records cost ~1 byte of log per byte "
         "copied; scan records add a few words per translated pointer");
  Row("  %-12s %12s %12s %12s %12s %10s", "obj-words", "copied(KiB)",
      "copy(KiB)", "scan(KiB)", "total(KiB)", "ratio");

  for (uint64_t payload_slots : {2u, 16u, 128u}) {
    SimEnv env;
    StableHeapOptions opts;
    opts.stable_space_pages = 8192;
    opts.volatile_space_pages = 4096;
    opts.divided_heap = false;
    auto heap = std::move(*StableHeap::Open(&env, opts));
    // One pointer slot + payload scalars.
    std::vector<bool> map(1 + payload_slots, false);
    map[0] = true;
    ClassId cls = BENCH_VAL(heap->RegisterClass(map));

    // A committed chain of ~512 KiB total.
    const uint64_t per_node = 2 + payload_slots;
    const uint64_t nodes = 512 * 1024 / 8 / per_node;
    TxnId txn = BENCH_VAL(heap->Begin());
    Ref prev = kNullRef;
    for (uint64_t i = 0; i < nodes; ++i) {
      Ref node = BENCH_VAL(heap->Allocate(txn, cls, 1 + payload_slots));
      if (prev != kNullRef) BENCH_OK(heap->WriteRef(txn, node, 0, prev));
      prev = node;
    }
    BENCH_OK(heap->SetRoot(txn, 0, prev));
    BENCH_OK(heap->Commit(txn));

    LogVolumeStats before = heap->log_writer()->volume_stats();
    const uint64_t words_before = heap->stable_gc_stats().words_copied;
    BENCH_OK(heap->CollectStableFully());
    const LogVolumeStats& after = heap->log_writer()->volume_stats();

    const double copied_kib =
        static_cast<double>(heap->stable_gc_stats().words_copied -
                            words_before) *
        8 / 1024;
    const double copy_kib =
        static_cast<double>(after.For(RecordType::kGcCopyBatch).bytes -
                            before.For(RecordType::kGcCopyBatch).bytes) /
        1024;
    const double scan_kib =
        static_cast<double>(after.For(RecordType::kGcScan).bytes -
                            before.For(RecordType::kGcScan).bytes) /
        1024;
    const double total_kib = copy_kib + scan_kib;
    Row("  %-12llu %12.1f %12.1f %12.1f %12.1f %10.2f",
        (unsigned long long)(1 + payload_slots), copied_kib, copy_kib,
        scan_kib, total_kib, total_kib / copied_kib);
    EmitMetric("ratio_slots" + std::to_string(1 + payload_slots),
               total_kib / copied_kib, "log-bytes/copied-byte");
    if (payload_slots == 128) {
      ShapeCheck(total_kib / copied_kib < 1.3,
                 "large objects: log overhead ratio approaches 1.0");
    }
    if (payload_slots == 2) {
      ShapeCheck(total_kib / copied_kib < 2.5,
                 "small pointer-dense objects: ratio stays bounded");
    }
  }
  return Finish();
}
