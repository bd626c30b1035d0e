// Log inspector: builds a small heap, runs a few transactions and a
// collection, then walks the stable log and prints every record — a view of
// exactly what the write-ahead protocols of the paper emit (update records
// with undo/redo, GC copy/scan/flip records, UTRs, V2scopy promotions,
// checkpoints).
//
//   $ ./log_inspector

#include <cstdio>
#include <memory>
#include <vector>

#include "core/stable_heap.h"
#include "shard/sharded_heap.h"
#include "wal/log_reader.h"
#include "storage/sim_env.h"

using namespace sheap;

#define CHECK_OK(expr)                                             \
  do {                                                             \
    ::sheap::Status _st = (expr);                                  \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "error: %s\n", _st.ToString().c_str()); \
      return 1;                                                    \
    }                                                              \
  } while (0)

int main() {
  SimEnv env;
#if SHEAP_FAULT_INJECTION
  // Demonstrate the fault injector: fail one upcoming log append so the
  // retry/backoff path runs and the stats below come out nonzero.
  {
    FaultSpec spec;
    spec.point = "log.append";
    spec.kind = FaultKind::kTransientError;
    spec.hit = 3;
    spec.count = 1;
    env.faults()->Arm(spec);
  }
#endif
  StableHeapOptions options;
  options.stable_space_pages = 64;
  options.volatile_space_pages = 32;
  auto heap_or = StableHeap::Open(&env, options);
  CHECK_OK(heap_or.status());
  auto heap = std::move(*heap_or);

  auto cls = heap->RegisterClass({false, true});
  CHECK_OK(cls.status());

  // A committed transaction that promotes two objects...
  {
    auto txn = heap->Begin();
    auto a = heap->Allocate(*txn, *cls, 2);
    auto b = heap->Allocate(*txn, *cls, 2);
    CHECK_OK(a.status());
    CHECK_OK(b.status());
    CHECK_OK(heap->WriteScalar(*txn, *a, 0, 1));
    CHECK_OK(heap->WriteRef(*txn, *a, 1, *b));
    CHECK_OK(heap->SetRoot(*txn, 0, *a));
    CHECK_OK(heap->Commit(*txn));
  }
  // ...an aborted one (CLRs)...
  {
    auto txn = heap->Begin();
    auto root = heap->GetRoot(*txn, 0);
    CHECK_OK(root.status());
    CHECK_OK(heap->WriteScalar(*txn, *root, 0, 2));
    CHECK_OK(heap->Abort(*txn));
  }
  // ...a stable collection (flip/copy/scan/complete) and a checkpoint.
  CHECK_OK(heap->CollectStableFully());
  CHECK_OK(heap->Checkpoint());
  CHECK_OK(heap->ForceLog());

  std::printf("%-6s %-14s %s\n", "LSN", "TYPE", "DETAIL");
  LogReader reader(env.log());
  CHECK_OK(reader.Seek(env.log()->truncated_prefix() + 1));
  LogRecord rec;
  while (true) {
    auto more = reader.Next(&rec);
    CHECK_OK(more.status());
    if (!*more) break;
    std::printf("%-6llu %-14s ", (unsigned long long)rec.lsn,
                LogRecord::TypeName(rec.type));
    switch (rec.type) {
      case RecordType::kUpdate:
      case RecordType::kClr:
        std::printf("txn=%llu addr=%llu new=%llx old=%llx%s",
                    (unsigned long long)rec.txn_id,
                    (unsigned long long)rec.addr,
                    (unsigned long long)rec.new_word,
                    (unsigned long long)rec.old_word,
                    rec.aux & LogRecord::kFlagPointer ? " ptr" : "");
        break;
      case RecordType::kAlloc:
        std::printf("txn=%llu addr=%llu class=%llu nslots=%llu",
                    (unsigned long long)rec.txn_id,
                    (unsigned long long)rec.addr,
                    (unsigned long long)rec.aux,
                    (unsigned long long)rec.count);
        break;
      case RecordType::kV2sCopy:
        std::printf("from=%llu to=%llu words=%llu (%zu content bytes)",
                    (unsigned long long)rec.addr,
                    (unsigned long long)rec.addr2,
                    (unsigned long long)rec.count, rec.contents.size());
        break;
      case RecordType::kGcScan:
        if (rec.aux == LogRecord::kScanRun) {
          std::printf("pages=[%llu,%llu) clean run",
                      (unsigned long long)rec.page,
                      (unsigned long long)(rec.page + rec.count));
        } else {
          std::printf("page=%llu translations=%zu%s",
                      (unsigned long long)rec.page, rec.slot_updates.size(),
                      rec.aux == LogRecord::kScanPartial ? " (partial)" : "");
        }
        break;
      case RecordType::kGcCopyBatch:
        std::printf("run-base=%llu words=%llu objects=%zu "
                    "(%zu content bytes)",
                    (unsigned long long)rec.addr2,
                    (unsigned long long)rec.count, rec.utr_entries.size(),
                    rec.contents.size());
        break;
      case RecordType::kGcFlip:
        std::printf("from-space=%llu to-space=%llu",
                    (unsigned long long)rec.addr,
                    (unsigned long long)rec.addr2);
        break;
      case RecordType::kUtr:
        std::printf("%zu translations", rec.utr_entries.size());
        break;
      case RecordType::kCheckpoint:
        std::printf("%zu payload bytes", rec.payload.size());
        break;
      case RecordType::kSpaceAlloc:
        std::printf("space=%llu base-page=%llu npages=%llu %s",
                    (unsigned long long)rec.aux,
                    (unsigned long long)rec.page,
                    (unsigned long long)rec.count,
                    rec.new_word == 0 ? "stable" : "volatile");
        break;
      case RecordType::kSpaceFree:
        std::printf("space=%llu", (unsigned long long)rec.aux);
        break;
      case RecordType::kBegin:
      case RecordType::kCommit:
      case RecordType::kAbortTxn:
      case RecordType::kEnd:
        std::printf("txn=%llu", (unsigned long long)rec.txn_id);
        break;
      case RecordType::kPrepare:
        std::printf("txn=%llu gtid=%llu", (unsigned long long)rec.txn_id,
                    (unsigned long long)rec.aux);
        break;
      case RecordType::kHeapFormat:
        std::printf("%zu format bytes", rec.payload.size());
        break;
      case RecordType::kClassDef:
        std::printf("class=%llu map-words=%llu",
                    (unsigned long long)rec.aux,
                    (unsigned long long)rec.count);
        break;
      case RecordType::kPageFetch:
      case RecordType::kEndWrite:
        std::printf("page=%llu", (unsigned long long)rec.page);
        break;
      case RecordType::kGcComplete:
        std::printf("from-space=%llu reclaimed",
                    (unsigned long long)rec.addr);
        break;
      case RecordType::kRootObject:
        std::printf("root=%llu", (unsigned long long)rec.addr);
        break;
      case RecordType::kInitialValue:
        std::printf("txn=%llu addr=%llu src=%llu words=%llu",
                    (unsigned long long)rec.txn_id,
                    (unsigned long long)rec.addr,
                    (unsigned long long)rec.addr2,
                    (unsigned long long)rec.count);
        break;
      case RecordType::kVolatileFlip:
        std::printf("from-space=%llu to-space=%llu",
                    (unsigned long long)rec.addr,
                    (unsigned long long)rec.addr2);
        break;
      case RecordType::kDtxDecision:
        std::printf("gtid=%llu participants=%llu COMMIT decision",
                    (unsigned long long)rec.txn_id,
                    (unsigned long long)rec.aux);
        break;
      case RecordType::kDtxEnd:
        std::printf("gtid=%llu forgotten (all acks in)",
                    (unsigned long long)rec.txn_id);
        break;
      case RecordType::kGcCopy:  // retired id: the reader never yields it
        break;
    }
    std::printf("\n");
  }

  const HeapStats stats = heap->stats();
  std::printf("\nfault injection: armed=%llu fired=%llu retried=%llu "
              "exhausted=%llu points-hit=%llu\n",
              (unsigned long long)stats.fault.armed,
              (unsigned long long)stats.fault.fired,
              (unsigned long long)stats.fault.retried,
              (unsigned long long)stats.fault.exhausted,
              (unsigned long long)stats.fault.points_hit);
  std::printf("disk: reads=%llu writes=%llu crc-failures=%llu\n",
              (unsigned long long)stats.disk.page_reads,
              (unsigned long long)stats.disk.page_writes,
              (unsigned long long)stats.disk.crc_failures);
  std::printf("log device: appends=%llu bytes=%llu forces=%llu\n",
              (unsigned long long)stats.log_device.appends,
              (unsigned long long)stats.log_device.bytes_appended,
              (unsigned long long)stats.log_device.forces);
  const GcStats& gs = heap->stable_gc_stats();
  std::printf("gc scan: workers=%llu rounds=%llu steals=%llu "
              "cursor-steps=%llu\n",
              (unsigned long long)gs.scan_workers,
              (unsigned long long)gs.scan_rounds,
              (unsigned long long)gs.scan_page_steals,
              (unsigned long long)gs.scan_cursor_steps);
  std::printf("gc batching: copy-batches=%llu objects=%llu "
              "scan-runs=%llu run-pages=%llu\n",
              (unsigned long long)gs.copy_batch_records,
              (unsigned long long)gs.copy_batch_objects,
              (unsigned long long)gs.scan_run_records,
              (unsigned long long)gs.scan_run_pages);
  std::printf("read barrier: traps=%llu fast-hits=%llu fast-misses=%llu\n",
              (unsigned long long)gs.read_barrier_traps,
              (unsigned long long)gs.read_barrier_fast_hits,
              (unsigned long long)gs.read_barrier_fast_misses);

  // Crash and reopen with partitioned redo, to show the recovery stats the
  // parallel pipeline surfaces (phase timings are simulated time).
  {
    auto txn = heap->Begin();
    auto root = heap->GetRoot(*txn, 0);
    CHECK_OK(root.status());
    CHECK_OK(heap->WriteScalar(*txn, *root, 0, 3));
    CHECK_OK(heap->Commit(*txn));
  }
  CHECK_OK(heap->SimulateCrash(CrashOptions{0.5, 17, 64}));
  heap.reset();
  options.recovery_threads = 4;
  auto recovered_or = StableHeap::Open(&env, options);
  CHECK_OK(recovered_or.status());
  heap = std::move(*recovered_or);
  const RecoveryStats& rs = heap->stats().recovery;
  std::printf(
      "\nrecovery (after simulated crash, %llu redo partitions):\n"
      "  analysis: %llu records in %.2f ms (%llu bytes read, "
      "%llu segments prefetched)\n"
      "  redo:     %llu/%llu records applied in %.2f ms\n"
      "  undo:     %llu records, %llu CLRs, %llu losers in %.2f ms\n"
      "  torn tail seen: %s, master checkpoint used: %s\n",
      (unsigned long long)rs.redo_partitions,
      (unsigned long long)rs.analysis_records, rs.analysis_ns / 1e6,
      (unsigned long long)rs.log_bytes_read,
      (unsigned long long)rs.log_segments_prefetched,
      (unsigned long long)rs.redo_records_applied,
      (unsigned long long)rs.redo_records_seen, rs.redo_ns / 1e6,
      (unsigned long long)rs.undo_records,
      (unsigned long long)rs.clrs_written,
      (unsigned long long)rs.losers_aborted, rs.undo_ns / 1e6,
      rs.saw_torn_tail ? "yes" : "no",
      rs.used_master_checkpoint ? "yes" : "no");
  std::printf("  outcome: %s, time-to-open %.2f ms\n",
              RecoveryOutcomeName(rs.outcome), rs.time_to_open_ns / 1e6);

  // Crash once more and reopen with instant recovery: Open returns right
  // after analysis + undo, the first touches redo their pages on demand,
  // and an explicit drain finishes the plan (see recovery/instant_redo.h).
  {
    auto txn = heap->Begin();
    auto root = heap->GetRoot(*txn, 0);
    CHECK_OK(root.status());
    CHECK_OK(heap->WriteScalar(*txn, *root, 0, 4));
    CHECK_OK(heap->Commit(*txn));
  }
  CHECK_OK(heap->SimulateCrash(CrashOptions{0.0, 19, 0}));
  heap.reset();
  options.instant_recovery = true;
  options.recovery_threads = 2;
  auto instant_or = StableHeap::Open(&env, options);
  CHECK_OK(instant_or.status());
  heap = std::move(*instant_or);
  const RecoveryStats at_open = heap->stats().recovery;
  {
    auto txn = heap->Begin();  // first touch: redo on demand behind the gate
    auto root = heap->GetRoot(*txn, 0);
    CHECK_OK(root.status());
    auto val = heap->ReadScalar(*txn, *root, 0);
    CHECK_OK(val.status());
    CHECK_OK(heap->Commit(*txn));
  }
  CHECK_OK(heap->DrainInstantRecovery());
  const RecoveryStats is = heap->stats().recovery;
  std::printf(
      "\ninstant recovery (gate on, %llu drain threads):\n"
      "  at open:  outcome %s, %llu pages pending, time-to-open %.2f ms\n"
      "  drained:  outcome %s, %llu on-demand + %llu drained pages, "
      "%llu records applied\n",
      (unsigned long long)options.recovery_threads,
      RecoveryOutcomeName(at_open.outcome),
      (unsigned long long)at_open.pending_pages,
      at_open.time_to_open_ns / 1e6, RecoveryOutcomeName(is.outcome),
      (unsigned long long)is.ondemand_pages,
      (unsigned long long)is.drained_pages,
      (unsigned long long)is.redo_records_applied);

  // Sharded front end (src/shard/): two shards, a cross-shard 2PC commit,
  // and a second 2PC cut down after the decision force — crash the whole
  // cluster, dump the coordinator's decision log, then reopen and show each
  // shard's recovery outcome plus the in-doubt resolution it drove.
  std::vector<std::unique_ptr<SimEnv>> shard_envs;
  shard_envs.push_back(std::make_unique<SimEnv>());
  shard_envs.push_back(std::make_unique<SimEnv>());
  auto coord_env = std::make_unique<SimEnv>();
  ShardedHeapOptions sharded;
  sharded.shards = 2;
  sharded.shard_options.stable_space_pages = 64;
  sharded.shard_options.volatile_space_pages = 32;
  {
    auto cluster_or = ShardedHeap::Open(
        {shard_envs[0].get(), shard_envs[1].get()}, coord_env.get(), sharded);
    CHECK_OK(cluster_or.status());
    auto cluster = std::move(*cluster_or);
    auto scls = cluster->RegisterClass({false, false});
    CHECK_OK(scls.status());
    for (uint32_t s = 0; s < 2; ++s) {  // one two-slot object per shard
      auto txn = cluster->Begin();
      CHECK_OK(txn.status());
      auto obj = cluster->AllocateOn(*txn, s, *scls, 2);
      CHECK_OK(obj.status());
      CHECK_OK(cluster->WriteScalar(*txn, *obj, 0, 100));
      CHECK_OK(cluster->SetRoot(*txn, s, *obj));
      CHECK_OK(cluster->CommitSync(*txn));
    }
    {  // A completed cross-shard transfer: decision logged, then forgotten.
      auto txn = cluster->Begin();
      CHECK_OK(txn.status());
      auto a = cluster->GetRoot(*txn, 0);
      auto b = cluster->GetRoot(*txn, 1);
      CHECK_OK(a.status());
      CHECK_OK(b.status());
      CHECK_OK(cluster->WriteScalar(*txn, *a, 0, 75));
      CHECK_OK(cluster->WriteScalar(*txn, *b, 0, 125));
      CHECK_OK(cluster->CommitSync(*txn));
    }
    {  // A 2PC cut mid-protocol: votes + decision durable, no acks.
      TwoPhaseCoordinator* coord = cluster->coordinator();
      const Gtid gtid = coord->NewGtid();
      std::vector<TwoPhaseCoordinator::Branch> branches;
      for (uint32_t s = 0; s < 2; ++s) {
        StableHeap* shard = cluster->shard(s);
        auto txn = shard->Begin();
        CHECK_OK(txn.status());
        auto obj = shard->GetRoot(*txn, 0);
        CHECK_OK(obj.status());
        CHECK_OK(shard->WriteScalar(*txn, *obj, 1, 7 + s));
        branches.push_back({shard, *txn});
      }
      auto voted = coord->PrepareAll(gtid, branches);
      CHECK_OK(voted.status());
      CHECK_OK(coord->LogCommitDecision(gtid, branches.size()));
    }
    CHECK_OK(cluster->SimulateCrashAll(CrashOptions{0.5, 23, 64}));
  }

  std::printf("\ncoordinator decision log:\n");
  std::printf("%-6s %-14s %s\n", "LSN", "TYPE", "DETAIL");
  LogReader coord_reader(coord_env->log());
  CHECK_OK(coord_reader.Seek(coord_env->log()->truncated_prefix() + 1));
  while (true) {
    auto more = coord_reader.Next(&rec);
    CHECK_OK(more.status());
    if (!*more) break;
    std::printf("%-6llu %-14s ", (unsigned long long)rec.lsn,
                LogRecord::TypeName(rec.type));
    if (rec.type == RecordType::kDtxDecision) {
      std::printf("gtid=%llu participants=%llu COMMIT decision",
                  (unsigned long long)rec.txn_id,
                  (unsigned long long)rec.aux);
    } else if (rec.type == RecordType::kDtxEnd) {
      std::printf("gtid=%llu forgotten (all acks in)",
                  (unsigned long long)rec.txn_id);
    }
    std::printf("\n");
  }

  {
    sharded.shard_options.recovery_threads = 2;
    auto cluster_or = ShardedHeap::Open(
        {shard_envs[0].get(), shard_envs[1].get()}, coord_env.get(), sharded);
    CHECK_OK(cluster_or.status());
    auto cluster = std::move(*cluster_or);
    const ShardedHeapStats ss = cluster->stats();
    std::printf("\nsharded recovery (%u shards, parallel open):\n",
                cluster->num_shards());
    for (uint32_t s = 0; s < cluster->num_shards(); ++s) {
      const RecoveryStats& sr = ss.per_shard[s].recovery;
      std::printf(
          "  shard %u: outcome %s, %llu redo applied, %llu losers, "
          "%llu prepared restored, open %.2f ms\n",
          s, RecoveryOutcomeName(sr.outcome),
          (unsigned long long)sr.redo_records_applied,
          (unsigned long long)sr.losers_aborted,
          (unsigned long long)sr.prepared_restored, sr.time_to_open_ns / 1e6);
    }
    std::printf(
        "  in-doubt resolution: %llu committed, %llu aborted "
        "(%llu decisions rescanned)\n",
        (unsigned long long)ss.dtx.resolved_commit,
        (unsigned long long)ss.dtx.resolved_abort,
        (unsigned long long)ss.dtx.rescan_decisions);
    std::printf(
        "  rolled up: open critical path %.2f ms (serial sum %.2f ms), "
        "%llu redo applied across shards\n",
        ss.open_ns_max / 1e6, ss.open_ns_sum / 1e6,
        (unsigned long long)ss.total.recovery.redo_records_applied);
  }
  return 0;
}
