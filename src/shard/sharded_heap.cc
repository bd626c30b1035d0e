#include "shard/sharded_heap.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"

namespace sheap {

namespace {

// GRef layout mirrors the local handle table: 48-bit table index above a
// 16-bit generation. Generations start at 1, so a live GRef is never 0.
constexpr int kGGenBits = 16;
constexpr uint64_t kGGenMask = (1ull << kGGenBits) - 1;

uint64_t GIndexOf(GRef ref) { return ref >> kGGenBits; }
uint16_t GGenOf(GRef ref) { return static_cast<uint16_t>(ref & kGGenMask); }
GRef MakeGRef(uint64_t index, uint16_t gen) {
  return (index << kGGenBits) | gen;
}

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

StatusOr<const ShardedHeap::GHandle*> ShardedHeap::Resolve(const GTxn* txn,
                                                           GRef ref) const {
  const uint64_t idx = GIndexOf(ref);
  if (ref == kNullGRef || idx >= ghandles_.size()) {
    return Status::InvalidArgument("bad global ref");
  }
  const GHandle& h = ghandles_[idx];
  if (!h.in_use || h.generation != GGenOf(ref)) {
    return Status::InvalidArgument("stale global ref");
  }
  if (h.owner != txn->id) {
    return Status::InvalidArgument("global ref owned by another transaction");
  }
  return &h;
}

GRef ShardedHeap::Wrap(GTxn* txn, uint32_t shard, Ref local) {
  if (local == kNullRef) return kNullGRef;
  uint64_t idx;
  if (!gfree_.empty()) {
    idx = gfree_.back();
    gfree_.pop_back();
  } else {
    idx = ghandles_.size();
    ghandles_.emplace_back();
  }
  GHandle& h = ghandles_[idx];
  h.shard = shard;
  h.local = local;
  h.owner = txn->id;
  h.in_use = true;
  return MakeGRef(idx, h.generation);
}

void ShardedHeap::EndGTxn(GTxnId id) {
  for (uint64_t i = 0; i < ghandles_.size(); ++i) {
    GHandle& h = ghandles_[i];
    if (h.in_use && h.owner == id) {
      h.in_use = false;
      h.local = kNullRef;
      ++h.generation;
      if (h.generation == 0) h.generation = 1;  // skip the null pattern
      gfree_.push_back(i);
    }
  }
  gtxns_.erase(id);
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
  txn.id = id;
  txn.branch.assign(shards_.size(), kNoTxn);
  gtxns_.emplace(id, std::move(txn));
  return id;
}

Status ShardedHeap::Commit(GTxnId gtxn) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));

  // Gather the participants (shards with a local branch).
  std::vector<uint32_t> parts;
  for (uint32_t s : txn->touched) {
    if (txn->branch[s] != kNoTxn) parts.push_back(s);
  }

  if (parts.empty()) {
    ++empty_commits_;
    EndGTxn(gtxn);
    return Status::OK();
  }

  if (parts.size() == 1) {
    // Single-shard fast path: the plain StableHeap commit, including its
    // group-commit Busy retry protocol (the GTxn survives Busy).
    const uint32_t s = parts.front();
    Status st = shards_[s]->Commit(txn->branch[s]);
    if (st.IsBusy()) return st;  // the GTxn survives Busy; caller retries
    if (st.ok()) ++single_shard_commits_;
    EndGTxn(gtxn);
    return st;
  }

  // Cross-shard: presumed-abort 2PC. The coordinator forces one decision
  // record; participant prepare/commit records ride each shard's
  // group-commit batches.
  std::vector<TwoPhaseCoordinator::Branch> branches;
  branches.reserve(parts.size());
  for (uint32_t s : parts) {
    branches.push_back({shards_[s].get(), txn->branch[s]});
  }
  auto committed = coordinator_->CommitDistributed(branches);
  if (!committed.ok()) {
    // Injected crash or I/O failure mid-protocol: the GTxn is done as far
    // as this process is concerned; recovery owns the outcome now.
    EndGTxn(gtxn);
    return committed.status();
  }
  EndGTxn(gtxn);
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
    if (txn->branch[s] == kNoTxn) continue;
    Status st = shards_[s]->Abort(txn->branch[s]);
    if (!st.ok() && first.ok()) first = st;
  }
  EndGTxn(gtxn);
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
  return Wrap(txn, shard, ref);
}

StatusOr<uint64_t> ShardedHeap::ReadScalar(GTxnId gtxn, GRef ref,
                                           uint64_t slot) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(const GHandle* h, Resolve(txn, ref));
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, h->shard));
  return shards_[h->shard]->ReadScalar(local, h->local, slot);
}

StatusOr<GRef> ShardedHeap::ReadRef(GTxnId gtxn, GRef ref, uint64_t slot) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(const GHandle* h, Resolve(txn, ref));
  const uint32_t shard = h->shard;
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, shard));
  SHEAP_ASSIGN_OR_RETURN(Ref out,
                         shards_[shard]->ReadRef(local, h->local, slot));
  return Wrap(txn, shard, out);
}

Status ShardedHeap::WriteScalar(GTxnId gtxn, GRef ref, uint64_t slot,
                                uint64_t value) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(const GHandle* h, Resolve(txn, ref));
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, h->shard));
  return shards_[h->shard]->WriteScalar(local, h->local, slot, value);
}

Status ShardedHeap::WriteRef(GTxnId gtxn, GRef ref, uint64_t slot,
                             GRef target) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(const GHandle* h, Resolve(txn, ref));
  Ref local_target = kNullRef;
  if (target != kNullGRef) {
    SHEAP_ASSIGN_OR_RETURN(const GHandle* t, Resolve(txn, target));
    if (t->shard != h->shard) {
      // The object graph is shard-local by construction: a pointer cannot
      // name an address in another shard's address space. Spanning
      // structures hang off per-shard roots instead.
      return Status::InvalidArgument("cross-shard pointer rejected");
    }
    local_target = t->local;
  }
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, h->shard));
  return shards_[h->shard]->WriteRef(local, h->local, slot, local_target);
}

Status ShardedHeap::ReleaseRef(GTxnId gtxn, GRef ref) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  SHEAP_ASSIGN_OR_RETURN(const GHandle* h, Resolve(txn, ref));
  const uint64_t idx = GIndexOf(ref);
  SHEAP_ASSIGN_OR_RETURN(TxnId local, BranchFor(txn, h->shard));
  SHEAP_RETURN_IF_ERROR(shards_[h->shard]->ReleaseRef(local, h->local));
  GHandle& mut = ghandles_[idx];
  mut.in_use = false;
  mut.local = kNullRef;
  ++mut.generation;
  if (mut.generation == 0) mut.generation = 1;
  gfree_.push_back(idx);
  return Status::OK();
}

// ----------------------------------------------------------------- roots

Status ShardedHeap::SetRoot(GTxnId gtxn, uint64_t index, GRef target) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_ASSIGN_OR_RETURN(GTxn * txn, FindGTxn(gtxn));
  const uint32_t shard = ShardOfRoot(index);
  const uint64_t local_slot = index / shards_.size();
  Ref local_target = kNullRef;
  if (target != kNullGRef) {
    SHEAP_ASSIGN_OR_RETURN(const GHandle* t, Resolve(txn, target));
    if (t->shard != shard) {
      return Status::InvalidArgument(
          "root and target route to different shards");
    }
    local_target = t->local;
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
  return Wrap(txn, shard, out);
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
  ghandles_.clear();
  gfree_.clear();
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
