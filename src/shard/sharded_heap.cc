#include "shard/sharded_heap.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"

namespace sheap {

namespace {

// Field-wise accumulation for the rolled-up view. Every counter sums;
// time-to-open maxes separately (the caller keeps sum and max).
void AddHeapStats(HeapStats* total, const HeapStats& s) {
  total->fault.armed += s.fault.armed;
  total->fault.fired += s.fault.fired;
  total->fault.retried += s.fault.retried;
  total->fault.exhausted += s.fault.exhausted;
  total->fault.points_hit += s.fault.points_hit;

  total->disk.page_reads += s.disk.page_reads;
  total->disk.page_writes += s.disk.page_writes;
  total->disk.fresh_reads += s.disk.fresh_reads;
  total->disk.crc_failures += s.disk.crc_failures;

  total->log_device.appends += s.log_device.appends;
  total->log_device.bytes_appended += s.log_device.bytes_appended;
  total->log_device.forces += s.log_device.forces;

  total->pool.hits += s.pool.hits;
  total->pool.misses += s.pool.misses;
  total->pool.evictions += s.pool.evictions;
  total->pool.write_backs += s.pool.write_backs;
  total->pool.evict_probe_steps += s.pool.evict_probe_steps;
  total->pool.dirty_scan_steps += s.pool.dirty_scan_steps;
  total->pool.flush_runs += s.pool.flush_runs;

  total->recovery.analysis_records += s.recovery.analysis_records;
  total->recovery.redo_records_seen += s.recovery.redo_records_seen;
  total->recovery.redo_records_applied += s.recovery.redo_records_applied;
  total->recovery.undo_records += s.recovery.undo_records;
  total->recovery.clrs_written += s.recovery.clrs_written;
  total->recovery.losers_aborted += s.recovery.losers_aborted;
  total->recovery.winners_closed += s.recovery.winners_closed;
  total->recovery.prepared_restored += s.recovery.prepared_restored;
  total->recovery.log_bytes_read += s.recovery.log_bytes_read;
  total->recovery.ondemand_pages += s.recovery.ondemand_pages;
  total->recovery.drained_pages += s.recovery.drained_pages;
  total->recovery.pending_pages += s.recovery.pending_pages;
  // Parallel open: the slowest shard is the critical path.
  total->recovery.time_to_open_ns =
      std::max(total->recovery.time_to_open_ns, s.recovery.time_to_open_ns);
}

}  // namespace

ShardedHeap::ShardedHeap(std::vector<std::unique_ptr<StableHeap>> shards,
                         std::unique_ptr<TwoPhaseCoordinator> coordinator,
                         const ShardedHeapOptions& options)
    : shards_(std::move(shards)),
      coordinator_(std::move(coordinator)),
      options_(options) {}

StatusOr<std::unique_ptr<ShardedHeap>> ShardedHeap::Open(
    const std::vector<SimEnv*>& shard_envs, SimEnv* coordinator_env,
    const ShardedHeapOptions& options) {
  std::vector<Env*> envs(shard_envs.begin(), shard_envs.end());
  return Open(envs, static_cast<Env*>(coordinator_env), options);
}

StatusOr<std::unique_ptr<ShardedHeap>> ShardedHeap::Open(
    const std::vector<Env*>& shard_envs, Env* coordinator_env,
    const ShardedHeapOptions& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("sharded heap needs >= 1 shard");
  }
  if (options.shards > HandleTable::kMaxTags) {
    // A GRef carries its shard in the local Ref's tag bits.
    return Status::InvalidArgument("sharded heap allows at most 256 shards");
  }
  if (shard_envs.size() != options.shards) {
    return Status::InvalidArgument("shard env count != shard count");
  }
  if (coordinator_env == nullptr) {
    return Status::InvalidArgument("missing coordinator env");
  }

  const uint32_t n = options.shards;
  std::vector<StatusOr<std::unique_ptr<StableHeap>>> opened;
  opened.reserve(n);
  for (uint32_t i = 0; i < n; ++i) opened.emplace_back(nullptr);

  // Each shard's recovery runs entirely against its private Env, so
  // the opens are embarrassingly parallel: no order or thread placement
  // can change any shard's bytes, only the wall-clock shape (max over
  // shards instead of their sum — see open_ns_max / open_ns_sum).
  if (options.parallel_open && n > 1) {
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      workers.emplace_back([&, i] {
        opened[i] = StableHeap::Open(shard_envs[i], options.shard_options);
      });
    }
    for (std::thread& t : workers) t.join();
  } else {
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t i = options.reverse_open_order ? n - 1 - k : k;
      opened[i] = StableHeap::Open(shard_envs[i], options.shard_options);
    }
  }

  std::vector<std::unique_ptr<StableHeap>> shards;
  shards.reserve(n);
  uint64_t open_sum = 0;
  uint64_t open_max = 0;
  for (uint32_t i = 0; i < n; ++i) {
    SHEAP_RETURN_IF_ERROR(opened[i].status());
    shards.push_back(std::move(*opened[i]));
    const uint64_t ns = shards.back()->recovery_stats().time_to_open_ns;
    open_sum += ns;
    open_max = std::max(open_max, ns);
  }

  auto coordinator = std::make_unique<TwoPhaseCoordinator>(coordinator_env);
  auto heap = std::unique_ptr<ShardedHeap>(new ShardedHeap(
      std::move(shards), std::move(coordinator), options));
  heap->open_ns_sum_ = open_sum;
  heap->open_ns_max_ = open_max;

  if (options.resolve_in_doubt) {
    // Deterministic shard order; the decision log makes this idempotent,
    // so a crash mid-resolution just re-runs it on the next Open.
    for (uint32_t i = 0; i < n; ++i) {
      SHEAP_RETURN_IF_ERROR(heap->coordinator_->Resolve(heap->shards_[i].get()));
    }
  }
  return heap;
}

Status ShardedHeap::CheckUsable() const {
  if (!usable_) {
    return Status::Crashed("sharded heap crashed; reopen the envs");
  }
  return Status::OK();
}

StatusOr<ShardedHeap::GTxn*> ShardedHeap::FindGTxn(GTxnId id) {
  auto it = gtxns_.find(id);
  if (it == gtxns_.end()) {
    return Status::Aborted("unknown global transaction");
  }
  return &it->second;
}

StatusOr<TxnId> ShardedHeap::BranchFor(GTxn* txn, uint32_t shard) {
  SHEAP_CHECK(shard < shards_.size());
  if (txn->branch[shard] == kNoTxn) {
    SHEAP_ASSIGN_OR_RETURN(TxnId local, shards_[shard]->Begin());
    txn->branch[shard] = local;
    txn->touched.push_back(shard);
  }
  return txn->branch[shard];
}

StatusOr<ShardedHeap::Routed> ShardedHeap::Route(const GTxn* txn,
                                                 GRef ref) const {
  const uint32_t shard = HandleTable::TagOf(ref);
  // Every GRef `txn` holds came from its branch on the GRef's shard, so a
  // shard without a branch means a foreign or corrupt GRef. Rejecting it
  // before BranchFor keeps a bad GRef from turning a single-shard commit
  // into 2PC.
  if (ref == kNullGRef || shard >= shards_.size() ||
      txn->branch[shard] == kNoTxn) {
    return Status::InvalidArgument("bad global ref");
  }
  return Routed{shard, txn->branch[shard], HandleTable::Untag(ref)};
}

// ---------------------------------------------------------------- schema

StatusOr<ClassId> ShardedHeap::RegisterClass(
    const std::vector<bool>& pointer_map) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(ClassId id, shards_[0]->RegisterClass(pointer_map));
  for (uint32_t i = 1; i < shards_.size(); ++i) {
    SHEAP_ASSIGN_OR_RETURN(ClassId other,
                           shards_[i]->RegisterClass(pointer_map));
    if (other != id) {
      // Shards register classes in lockstep from a shared schema; ids can
      // only diverge if a caller bypassed the front end.
      return Status::Internal("class ids diverged across shards");
    }
  }
  return id;
}

// ----------------------------------------------------------- transactions

StatusOr<GTxnId> ShardedHeap::Begin() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  const GTxnId id = next_gtxn_++;
  GTxn txn;
  txn.branch.assign(shards_.size(), kNoTxn);
  gtxns_.emplace(id, std::move(txn));
  return id;
}

Status ShardedHeap::Commit(GTxnId gtxn) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));

  // The participants are the touched shards: each has a local branch, and
  // each branch frees its own handles (the GTxn's GRefs) when it ends, so
  // ending the GTxn only drops its entry.
  if (txn->touched.empty()) {
    ++empty_commits_;
    gtxns_.erase(gtxn);
    return Status::OK();
  }

  if (txn->touched.size() == 1) {
    // Single-shard fast path: the plain StableHeap commit, including its
    // group-commit Busy retry protocol (the GTxn survives Busy).
    const uint32_t s = txn->touched.front();
    Status st = shards_[s]->Commit(txn->branch[s]);
    if (st.IsBusy()) return st;  // the GTxn survives Busy; caller retries
    if (st.ok()) ++single_shard_commits_;
    gtxns_.erase(gtxn);
    return st;
  }

  // Cross-shard: presumed-abort 2PC. The coordinator forces one decision
  // record; participant prepare/commit records ride each shard's
  // group-commit batches.
  std::vector<TwoPhaseCoordinator::Branch> branches;
  branches.reserve(txn->touched.size());
  for (uint32_t s : txn->touched) {
    branches.push_back({shards_[s].get(), txn->branch[s]});
  }
  auto committed = coordinator_->CommitDistributed(branches);
  // On an injected crash or I/O failure mid-protocol the GTxn is done as
  // far as this process is concerned; recovery owns the outcome now.
  gtxns_.erase(gtxn);
  if (!committed.ok()) return committed.status();
  if (!*committed) {
    ++cross_shard_aborts_;
    return Status::Aborted("cross-shard transaction lost the prepare round");
  }
  ++cross_shard_commits_;
  return Status::OK();
}

Status ShardedHeap::Abort(GTxnId gtxn) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  Status first = Status::OK();
  for (uint32_t s : txn->touched) {
    Status st = shards_[s]->Abort(txn->branch[s]);
    if (!st.ok() && first.ok()) first = st;
  }
  gtxns_.erase(gtxn);
  return first;
}

// --------------------------------------------------------------- objects

StatusOr<GRef> ShardedHeap::Allocate(GTxnId gtxn, ClassId cls,
                                     uint64_t nslots) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  const uint32_t home = txn->touched.empty() ? 0 : txn->touched.front();
  return AllocateOn(gtxn, home, cls, nslots);
}

StatusOr<GRef> ShardedHeap::AllocateOn(GTxnId gtxn, uint32_t shard,
                                       ClassId cls, uint64_t nslots) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, shard));
  SHEAP_ASSIGN_OR_RETURN(Ref ref,
                         shards_[shard]->Allocate(local, cls, nslots));
  return HandleTable::Tag(ref, shard);
}

StatusOr<uint64_t> ShardedHeap::ReadScalar(GTxnId gtxn, GRef ref,
                                           uint64_t slot) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(Routed r, Route(txn, ref));
  return shards_[r.shard]->ReadScalar(r.branch, r.local, slot);
}

StatusOr<GRef> ShardedHeap::ReadRef(GTxnId gtxn, GRef ref, uint64_t slot) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(Routed r, Route(txn, ref));
  SHEAP_ASSIGN_OR_RETURN(Ref out,
                         shards_[r.shard]->ReadRef(r.branch, r.local, slot));
  return HandleTable::Tag(out, r.shard);
}

Status ShardedHeap::WriteScalar(GTxnId gtxn, GRef ref, uint64_t slot,
                                uint64_t value) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(Routed r, Route(txn, ref));
  return shards_[r.shard]->WriteScalar(r.branch, r.local, slot, value);
}

Status ShardedHeap::WriteRef(GTxnId gtxn, GRef ref, uint64_t slot,
                             GRef target) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(Routed r, Route(txn, ref));
  Ref local_target = kNullRef;
  if (target != kNullGRef) {
    SHEAP_ASSIGN_OR_RETURN(Routed t, Route(txn, target));
    if (t.shard != r.shard) {
      // The object graph is shard-local by construction: a pointer cannot
      // name an address in another shard's address space. Spanning
      // structures hang off per-shard roots instead.
      return Status::InvalidArgument("cross-shard pointer rejected");
    }
    local_target = t.local;
  }
  return shards_[r.shard]->WriteRef(r.branch, r.local, slot, local_target);
}

Status ShardedHeap::ReleaseRef(GTxnId gtxn, GRef ref) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(Routed r, Route(txn, ref));
  return shards_[r.shard]->ReleaseRef(r.branch, r.local);
}

// ----------------------------------------------------------------- roots

Status ShardedHeap::SetRoot(GTxnId gtxn, uint64_t index, GRef target) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  const uint32_t shard = ShardOfRoot(index);
  const uint64_t local_slot = index / shards_.size();
  Ref local_target = kNullRef;
  if (target != kNullGRef) {
    SHEAP_ASSIGN_OR_RETURN(Routed t, Route(txn, target));
    if (t.shard != shard) {
      return Status::InvalidArgument(
          "root and target route to different shards");
    }
    local_target = t.local;
  }
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, shard));
  return shards_[shard]->SetRoot(local, local_slot, local_target);
}

StatusOr<GRef> ShardedHeap::GetRoot(GTxnId gtxn, uint64_t index) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  const uint32_t shard = ShardOfRoot(index);
  const uint64_t local_slot = index / shards_.size();
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, shard));
  SHEAP_ASSIGN_OR_RETURN(Ref out, shards_[shard]->GetRoot(local, local_slot));
  return HandleTable::Tag(out, shard);
}

// ---------------------------------------------------------------- control

Status ShardedHeap::Checkpoint() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  for (auto& s : shards_) SHEAP_RETURN_IF_ERROR(s->Checkpoint());
  return Status::OK();
}

Status ShardedHeap::ForceLog() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  for (auto& s : shards_) SHEAP_RETURN_IF_ERROR(s->ForceLog());
  return Status::OK();
}

Status ShardedHeap::CollectStableFully() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  for (auto& s : shards_) SHEAP_RETURN_IF_ERROR(s->CollectStableFully());
  return Status::OK();
}

Status ShardedHeap::DrainInstantRecovery() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  for (auto& s : shards_) SHEAP_RETURN_IF_ERROR(s->DrainInstantRecovery());
  return Status::OK();
}

Status ShardedHeap::SimulateCrashAll(const CrashOptions& crash_options) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  usable_ = false;
  gtxns_.clear();
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    CrashOptions per_shard = crash_options;
    per_shard.seed = crash_options.seed + i;
    SHEAP_RETURN_IF_ERROR(shards_[i]->SimulateCrash(per_shard));
  }
  return Status::OK();
}

// ------------------------------------------------------------- inspection

ShardedHeapStats ShardedHeap::stats() const {
  ShardedHeapStats out;
  out.per_shard.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.per_shard.push_back(s->stats());
    AddHeapStats(&out.total, out.per_shard.back());
  }
  out.dtx = coordinator_->stats();
  out.single_shard_commits = single_shard_commits_;
  out.cross_shard_commits = cross_shard_commits_;
  out.cross_shard_aborts = cross_shard_aborts_;
  out.empty_commits = empty_commits_;
  out.open_ns_sum = open_ns_sum_;
  out.open_ns_max = open_ns_max_;
  return out;
}

}  // namespace sheap
