// E6 — Checkpoints shorten recovery and are cheap (paper §2.2.4): sweeping
// the checkpoint interval trades a tiny quiescent pause (spool one record,
// update the master pointer — no synchronous writes, no page flushes)
// against the length of the log recovery must read.

#include "bench_util.h"
#include "storage/sim_env.h"

using namespace sheap;
using namespace sheap::bench;
using workload::Bank;

namespace {

struct FlushResult {
  double pause_ms = 0;
  double recover_ms = 0;
  uint64_t flush_runs = 0;
  uint64_t write_backs = 0;
};

// Heavy (flush) checkpoint vs the paper's cheap one: dirty ~192 adjacent
// pages (one-page objects under a directory), checkpoint either way, crash
// with no background cleaning, measure the checkpoint pause and the
// recovery it buys. Adjacent dirty pages coalesce into a handful of
// single-seek run writes.
FlushResult RunFlushCompare(bool with_writeback) {
  constexpr uint64_t kPages = 192;
  const uint64_t slots = kPageSizeBytes / kWordSizeBytes - 1;

  auto env = std::make_unique<SimEnv>();
  StableHeapOptions opts;
  opts.stable_space_pages = 8192;
  opts.volatile_space_pages = 2048;
  opts.divided_heap = false;
  opts.buffer_pool_frames = 65536;
  opts.flush_writer_threads = 4;
  auto heap = std::move(*StableHeap::Open(env.get(), opts));

  ClassId big =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(slots, false)));
  ClassId dir =
      BENCH_VAL(heap->RegisterClass(std::vector<bool>(kPages, true)));
  TxnId setup = BENCH_VAL(heap->Begin());
  Ref dref = BENCH_VAL(heap->AllocateStable(setup, dir, kPages));
  BENCH_OK(heap->SetRoot(setup, 0, dref));
  for (uint64_t i = 0; i < kPages; ++i) {
    Ref obj = BENCH_VAL(heap->AllocateStable(setup, big, slots));
    BENCH_OK(heap->WriteRef(setup, dref, i, obj));
  }
  BENCH_OK(heap->Commit(setup));
  BENCH_OK(heap->WriteBackPages(1.0, 5));
  BENCH_OK(heap->Checkpoint());

  // Dirty one word in each page-sized object.
  TxnId txn = BENCH_VAL(heap->Begin());
  Ref d2 = BENCH_VAL(heap->GetRoot(txn, 0));
  for (uint64_t i = 0; i < kPages; ++i) {
    Ref obj = BENCH_VAL(heap->ReadRef(txn, d2, i));
    BENCH_OK(heap->WriteScalar(txn, obj, i % slots, i));
  }
  BENCH_OK(heap->Commit(txn));

  // The pool's counters are whole-run totals (the setup's write-back is in
  // them); the checkpoint's own work is the delta across it.
  const BufferPoolStats pool_before = heap->stats().pool;
  const uint64_t before = env->clock()->now_ns();
  BENCH_OK(with_writeback ? heap->CheckpointWithWriteback()
                          : heap->Checkpoint());
  FlushResult r;
  r.pause_ms = Ms(env->clock()->now_ns() - before);
  const BufferPoolStats pool_after = heap->stats().pool;
  r.flush_runs = pool_after.flush_runs - pool_before.flush_runs;
  r.write_backs = pool_after.write_backs - pool_before.write_backs;

  BENCH_OK(heap->SimulateCrash(CrashOptions{0.0, 17, 0}));
  heap.reset();
  heap = std::move(*StableHeap::Open(env.get(), opts));
  r.recover_ms = Ms(heap->recovery_stats().sim_time_ns);
  return r;
}

}  // namespace

int main() {
  JsonBench("checkpoint");
  Header("E6  checkpoint interval vs recovery time (and checkpoint cost)",
         "frequent cheap checkpoints keep recovery short; a checkpoint is "
         "one spooled record — no forces, no page flushes");
  Row("  %-18s %14s %14s %16s", "ckpt-interval", "recover(ms)",
      "log-read(KiB)", "ckpt-pause(us)");

  std::vector<double> recovery_ms;
  constexpr uint64_t kTransfers = 1600;
  for (uint64_t interval : {0u, 400u, 100u, 25u}) {  // 0 = never
    auto env = std::make_unique<SimEnv>();
    StableHeapOptions opts;
    opts.stable_space_pages = 8192;
    opts.volatile_space_pages = 2048;
    auto heap = std::move(*StableHeap::Open(env.get(), opts));
    Bank bank(heap.get(), 0);
    BENCH_OK(bank.Setup(256, 1000));
    BENCH_OK(heap->WriteBackPages(1.0, 3));

    double last_ckpt_pause_us = 0;
    Rng rng(9);
    for (uint64_t i = 0; i < kTransfers; ++i) {
      const uint64_t from = rng.Uniform(256);
      const uint64_t to = (from + 1 + rng.Uniform(255)) % 256;
      BENCH_OK(bank.Transfer(from, to, 1));
      if (interval != 0 && i % interval == interval - 1) {
        BENCH_OK(heap->Checkpoint());
        last_ckpt_pause_us =
            static_cast<double>(heap->checkpoint_stats().last_pause_ns) /
            1000.0;
        BENCH_OK(heap->WriteBackPages(1.0, i));  // background cleaning
      }
    }
    BENCH_OK(heap->SimulateCrash(CrashOptions{0.5, 11, 0}));
    heap.reset();
    heap = std::move(*StableHeap::Open(env.get(), opts));

    char label[32];
    if (interval == 0) {
      std::snprintf(label, sizeof label, "never");
    } else {
      std::snprintf(label, sizeof label, "every %llu txns",
                    (unsigned long long)interval);
    }
    Row("  %-18s %14.2f %14.1f %16.1f", label,
        Ms(heap->recovery_stats().sim_time_ns),
        static_cast<double>(heap->recovery_stats().log_bytes_read) / 1024,
        last_ckpt_pause_us);
    recovery_ms.push_back(Ms(heap->recovery_stats().sim_time_ns));
    char name[48];
    std::snprintf(name, sizeof name, "recover_ms_interval%llu",
                  (unsigned long long)interval);
    EmitMetric(name, recovery_ms.back(), "ms");
  }

  ShapeCheck(recovery_ms.back() * 3 < recovery_ms.front(),
             "frequent checkpoints cut recovery time by >3x vs none");
  bool monotone = true;
  for (size_t i = 1; i < recovery_ms.size(); ++i) {
    if (recovery_ms[i] > recovery_ms[i - 1] * 1.5) monotone = false;
  }
  ShapeCheck(monotone,
             "recovery time shrinks as checkpoints become more frequent");

  Header("E6b flush checkpoint (parallel coalesced writeback) vs cheap one",
         "a flush checkpoint pays run-coalesced parallel page writes up "
         "front and nearly empties the DPT; the cheap one stays ~free");
  Row("  %-16s %12s %14s %12s %12s", "kind", "pause(ms)", "recover(ms)",
      "flush-runs", "writebacks");
  FlushResult cheap = RunFlushCompare(false);
  FlushResult flush = RunFlushCompare(true);
  Row("  %-16s %12.2f %14.2f %12llu %12llu", "cheap", cheap.pause_ms,
      cheap.recover_ms, (unsigned long long)cheap.flush_runs,
      (unsigned long long)cheap.write_backs);
  Row("  %-16s %12.2f %14.2f %12llu %12llu", "flush", flush.pause_ms,
      flush.recover_ms, (unsigned long long)flush.flush_runs,
      (unsigned long long)flush.write_backs);
  EmitMetric("cheap_ckpt_pause_ms", cheap.pause_ms, "ms");
  EmitMetric("flush_ckpt_pause_ms", flush.pause_ms, "ms");
  EmitMetric("cheap_ckpt_recover_ms", cheap.recover_ms, "ms");
  EmitMetric("flush_ckpt_recover_ms", flush.recover_ms, "ms");
  EmitMetric("flush_runs", static_cast<double>(flush.flush_runs), "runs");
  EmitMetric("flush_write_backs", static_cast<double>(flush.write_backs),
             "pages");
  ShapeCheck(flush.recover_ms * 2 < cheap.recover_ms,
             "flush checkpoint cuts post-crash recovery by >2x");
  ShapeCheck(cheap.pause_ms * 2 < flush.pause_ms,
             "the cheap checkpoint stays much cheaper than the flush one");
  ShapeCheck(flush.flush_runs > 0 && flush.flush_runs < flush.write_backs,
             "writeback coalesced adjacent pages into fewer runs");
  return Finish();
}
