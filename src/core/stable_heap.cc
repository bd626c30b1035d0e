#include "core/stable_heap.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.h"

namespace sheap {

namespace {

// 0 = hardware concurrency; always at least 1, capped at `max_threads`.
uint32_t ResolveThreads(uint32_t requested, uint32_t max_threads) {
  uint32_t n = requested == 0 ? std::thread::hardware_concurrency() : requested;
  if (n == 0) n = 1;
  return std::min(n, max_threads);
}

// The state an action needs its transaction in: kActive, or kPrepared (in
// doubt) for the coordinator's CommitPrepared/AbortPrepared.
Status CheckTxnState(const Txn* txn, bool prepared) {
  const TxnState want = prepared ? TxnState::kPrepared : TxnState::kActive;
  if (txn != nullptr && txn->state == want) return Status::OK();
  return Status::Aborted(prepared ? "transaction is not in doubt"
                                  : "transaction is not active");
}

constexpr uint32_t kFormatMagic = 0x53484650;  // "SHFP"

void EncodeFormatPayload(const StableHeapOptions& opts,
                         std::vector<uint8_t>* out) {
  Encoder enc(out);
  enc.PutU32(kFormatMagic);
  enc.PutVarint(opts.stable_space_pages);
  enc.PutVarint(opts.volatile_space_pages);
  enc.PutVarint(opts.root_slots);
  enc.PutU8(opts.divided_heap ? 1 : 0);
}

Status DecodeFormatPayload(const std::vector<uint8_t>& payload,
                           StableHeapOptions* opts) {
  Decoder dec(payload);
  uint32_t magic;
  if (!dec.GetU32(&magic) || magic != kFormatMagic) {
    return Status::Corruption("bad heap format record");
  }
  uint8_t divided;
  if (!dec.GetVarint(&opts->stable_space_pages) ||
      !dec.GetVarint(&opts->volatile_space_pages) ||
      !dec.GetVarint(&opts->root_slots) || !dec.GetU8(&divided)) {
    return Status::Corruption("bad heap format payload");
  }
  opts->divided_heap = divided != 0;
  return Status::OK();
}

}  // namespace

StableHeap::StableHeap(Env* env, const StableHeapOptions& options)
    : env_(env), options_(options), gate_(options.mutator_threads > 1) {}

StableHeap::~StableHeap() {
  // Balance the BeginConcurrent taken at open (concurrent mode pins the
  // buffer pool against eviction for the heap's lifetime).
  if (pool_concurrent_ && pool_) pool_->EndConcurrent();
}

StatusOr<std::unique_ptr<StableHeap>> StableHeap::Open(
    Env* env, const StableHeapOptions& options) {
  std::unique_ptr<StableHeap> heap(new StableHeap(env, options));
  SHEAP_RETURN_IF_ERROR(heap->Initialize());
  return heap;
}

Status StableHeap::Initialize() {
  SimSpan open_span(env_->clock());
  Status st = InitializeImpl();
  if (!st.ok()) {
    // Terminal outcome on every failed open (satellite of the instant-
    // recovery work): an injected fault anywhere in the open path — the
    // recovery passes, GC resume, the final log force or checkpoint — must
    // not leave the gate half-armed or the stats claiming an open-pending
    // recovery that never opened.
    if (instant_) instant_->Abandon();
    if (recovery_stats_.outcome == RecoveryOutcome::kOpenPendingRedo) {
      recovery_stats_.outcome = RecoveryOutcome::kAborted;
    }
    return st;
  }
  recovery_stats_.time_to_open_ns = open_span.elapsed_ns();
  return Status::OK();
}

Status StableHeap::InitializeImpl() {
#if SHEAP_FAULT_INJECTION
  // A new machine boots on the surviving environment: any latched
  // injected-crash state belongs to the previous incarnation. Armed
  // one-shot faults stay consumed; un-hit faults stay armed (a crash
  // armed at a recovery point fires during the recovery below).
  env_->faults()->OnBoot();
#endif
  log_ = std::make_unique<LogWriter>(env_->log());
  commit_queue_ = std::make_unique<CommitQueue>(
      log_.get(), env_->clock(), options_.group_commit_options);
  // During format/recovery the pool runs with only the WAL-constraint hook;
  // fetch/end-write notifications are installed afterwards.
  pool_ = std::make_unique<BufferPool>(
      env_->disk(), options_.buffer_pool_frames, PoolHooks(false));
  pool_->set_flush_writers(ResolveThreads(options_.flush_writer_threads, 64));
  mem_ = std::make_unique<HeapMemory>(pool_.get());
  spaces_ = std::make_unique<SpaceManager>(log_.get(), env_->disk(),
                                           pool_.get());
  txns_ = std::make_unique<TxnManager>(log_.get());

  const bool existing = env_->log()->size() > env_->log()->truncated_prefix();
  if (existing && options_.instant_recovery) {
    // Instant recovery: the gate goes onto the pool's before_pin hook
    // *before* recovery runs, so every page access from here on — undo's
    // CLR writes, GC resume, and eventually the mutator — is uniformly
    // redone on demand. It stays inert until Redo installs the plan.
    instant_ = NewRedoGate();
    pool_->SetHooks(PoolHooks(false));
  }
  if (existing) {
    // Builds the collectors with the geometry of the format record.
    SHEAP_RETURN_IF_ERROR(RecoverHeap());
  } else {
    BuildCollectors(nullptr);
  }

  tracker_ = std::make_unique<StabilityTracker>(
      mem_.get(), &types_, volatile_gc_.get(), env_->clock(), &ls_);

  Promoter::Deps pdeps;
  pdeps.mem = mem_.get();
  pdeps.log = log_.get();
  pdeps.txns = txns_.get();
  pdeps.locks = &locks_;
  pdeps.handles = &handles_;
  pdeps.types = &types_;
  pdeps.utt = &utt_;
  pdeps.stable_gc = stable_gc_.get();
  pdeps.volatile_gc = volatile_gc_.get();
  pdeps.remembered = &remembered_;
  pdeps.ls = &ls_;
  pdeps.clock = env_->clock();
  pdeps.method = options_.promotion_method;
  pdeps.pending = &pending_;
  promoter_ = std::make_unique<Promoter>(pdeps);

  WireGcHooks();

  if (!existing) {
    SHEAP_RETURN_IF_ERROR(FormatHeap());
  }
  // The checkpointer embeds the format payload in every checkpoint so that
  // log truncation may drop the original format record.
  std::vector<uint8_t> format_payload;
  EncodeFormatPayload(options_, &format_payload);
  checkpointer_ = std::make_unique<Checkpointer>(
      log_.get(), env_->log(), pool_.get(), txns_.get(), stable_gc_.get(),
      spaces_.get(), &utt_, &types_, env_->clock(),
      std::move(format_payload));
  // Pending (unmaterialized) promotions' pages exist only in their
  // initial-value records, and under instant recovery a not-yet-redone
  // page only in the records the gate still holds: both are DPT rows, so
  // the checkpoint keeps the log they need.
  checkpointer_->extra_dirty_pages =
      [this]() -> std::vector<std::pair<PageId, Lsn>> {
    std::vector<std::pair<PageId, Lsn>> out;
    pending_.AppendDirtyPages(&out);
    if (instant_) {
      // Pages still behind the gate are dirty-in-waiting: a checkpoint
      // taken mid-drain carries them at their original recLSNs, so a crash
      // right after it still redoes them.
      for (const auto& [pid, rec_lsn] : instant_->PendingDirtyPages()) {
        out.emplace_back(pid, rec_lsn);
      }
    }
    return out;
  };
  pool_->SetHooks(PoolHooks(true));
  SHEAP_RETURN_IF_ERROR(checkpointer_->Take());
  if (concurrent()) {
    // True concurrent mutators (DESIGN.md §5i). Armed only after the open
    // path completes, so format/recovery stay on the deterministic
    // single-thread code paths:
    //   * instant recovery's incremental drain is single-thread machinery
    //     (Begin-side stepping); finish the backlog now,
    //   * eviction decisions depend on LRU order, which is schedule-
    //     dependent under concurrency — freeze eviction for the heap's
    //     lifetime (EndConcurrent in the destructor rebuilds determinism
    //     for anyone reusing the pool),
    //   * the collector asserts the gate is held exclusively around every
    //     structural transition.
    if (instant_ && instant_->active()) {
      SHEAP_RETURN_IF_ERROR(instant_->DrainAll());
    }
    pool_->BeginConcurrent();
    pool_concurrent_ = true;
    stable_gc_->AttachGate(&gate_);
  }
  return Status::OK();
}

void StableHeap::WireGcHooks() {
  stable_gc_->on_object_moved = [this](HeapAddr from, HeapAddr to,
                                       uint64_t /*total_words*/) {
    // May fire from a read-barrier trap under gc_mu_ while another mutator
    // is inside the side-table bookkeeping (gc_mu_ ranks above side_mu_).
    MutexLock side(&side_mu_);
    remembered_.RekeyObject(from, to);
  };
  stable_gc_->extra_roots =
      [this](const std::function<StatusOr<HeapAddr>(HeapAddr)>& translate) {
        return ScanVolatileAreaAsRoots(translate);
      };
  stable_gc_->before_flip = [this]() { return promoter_->Materialize(); };
  stable_gc_->before_complete = [this]() -> Status {
    if (!options_.divided_heap) return Status::OK();
    // A method-2 promotion made during the collection still forwards its
    // husk to an empty reservation; materialize it first, as before_flip
    // does (Complete runs only from Step, under the exclusive gate).
    SHEAP_RETURN_IF_ERROR(promoter_->Materialize());
    // Repair or retire promotion husks while from-space is still readable.
    return volatile_gc_->FixHusks(
        [this](HeapAddr target) -> StatusOr<HeapAddr> {
          while (stable_gc_->InFromSpace(target)) {
            SHEAP_ASSIGN_OR_RETURN(uint64_t w, mem_->ReadWord(target));
            if (!IsForwardWord(w)) return kNullAddr;  // garbage target
            target = ForwardTarget(w);
          }
          return target;
        });
  };
  volatile_gc_->on_object_moved = [this](HeapAddr from, HeapAddr to,
                                         uint64_t /*total_words*/) {
    MutexLock side(&side_mu_);
    ls_.Rekey(from, to);
  };
  volatile_gc_->extra_roots = [this](const RootTranslator& translate) {
    return VolatileExtraRoots(translate);
  };
}

BufferPool::Hooks StableHeap::PoolHooks(bool log_page_events) {
  BufferPool::Hooks hooks;
  hooks.flush_log_to = [this](Lsn lsn) { return log_->FlushTo(lsn); };
  if (log_page_events) {
    hooks.on_page_fetch = [this](PageId page) {
      LogRecord rec;
      rec.type = RecordType::kPageFetch;
      rec.page = page;
      log_->Append(&rec);
    };
    hooks.on_end_write = [this](PageId page) {
      LogRecord rec;
      rec.type = RecordType::kEndWrite;
      rec.page = page;
      log_->Append(&rec);
    };
  }
  if (instant_) {
    hooks.before_pin = [this](PageId pid) {
      return instant_->OnPageAccess(pid);
    };
  }
  return hooks;
}

void StableHeap::BuildCollectors(AtomicGc::State* recovered) {
  GcContext ctx;
  ctx.mem = mem_.get();
  ctx.pool = pool_.get();
  ctx.log = log_.get();
  ctx.spaces = spaces_.get();
  ctx.types = &types_;
  ctx.handles = &handles_;
  ctx.txns = txns_.get();
  ctx.locks = &locks_;
  ctx.clock = env_->clock();
  ctx.utt = &utt_;
  ctx.mapping = env_->mapping();
  AtomicGc::Options sopts;
  sopts.space_pages = options_.stable_space_pages;
  sopts.root_slots = options_.root_slots;
  sopts.barrier = options_.barrier_mode;
  sopts.durability = options_.gc_durability;
  sopts.threads = ResolveThreads(options_.gc_threads, 64);
  stable_gc_ = std::make_unique<AtomicGc>(ctx, sopts);
  // Install before the volatile collector is allocated. The order is
  // measured: the other way round, perfbench bank-oltp's peak RSS rose
  // from 17.2 to 19.8 MB over its 60 reopens (allocator placement).
  if (recovered != nullptr) {
    stable_gc_->InstallRecovered(std::move(*recovered));
  }
  CopyingGc::Options vopts;
  vopts.space_pages = options_.volatile_space_pages;
  volatile_gc_ = std::make_unique<CopyingGc>(ctx, vopts);
}

Status StableHeap::FormatHeap() {
  LogRecord rec;
  rec.type = RecordType::kHeapFormat;
  EncodeFormatPayload(options_, &rec.payload);
  log_->Append(&rec);
  SHEAP_RETURN_IF_ERROR(stable_gc_->Format());
  if (options_.divided_heap) {
    SHEAP_RETURN_IF_ERROR(volatile_gc_->Format());
  }
  return log_->Force();
}

std::unique_ptr<InstantRedoManager> StableHeap::NewRedoGate() {
  InstantRedoManager::Deps deps;
  deps.pool = pool_.get();
  deps.spaces = spaces_.get();
  deps.clock = env_->clock();
  deps.faults = env_->faults();
  deps.drain_threads =
      ResolveThreads(options_.recovery_threads, RedoExecutor::kMaxPartitions);
  return std::make_unique<InstantRedoManager>(deps);
}

Status StableHeap::RecoverHeap() {
  RecoveryManager::Deps deps;
  deps.device = env_->log();
  deps.spaces = spaces_.get();
  deps.types = &types_;
  deps.utt = &utt_;
  deps.txns = txns_.get();
  deps.locks = &locks_;
  deps.clock = env_->clock();
  // Offline recovery drains a gate of its own inside Open; instant
  // recovery installs into the one already on the pool's before_pin hook.
  std::unique_ptr<InstantRedoManager> offline_gate;
  if (!instant_) offline_gate = NewRedoGate();
  deps.redo = instant_ ? instant_.get() : offline_gate.get();
  deps.instant = instant_ != nullptr;
  deps.rollback = [this](Txn* txn) { return RollbackTail(txn); };
  deps.finish = [this](Txn* txn) { return FinishTxn(txn); };
  RecoveryManager recovery(deps);
  // Pessimistic terminal stamp: any failure from here to the end of the
  // open path (an injected crash between recovery passes, a GC-resume or
  // log-force fault) reads as an aborted recovery, never as a half-open
  // heap. Overwritten by the real outcome on success.
  recovery_stats_.outcome = RecoveryOutcome::kAborted;
  SHEAP_ASSIGN_OR_RETURN(RecoveryManager::Result result, recovery.Recover());
  recovery_stats_ = result.stats;

  if (result.format_payload.empty()) {
    return Status::Corruption("no heap found in log");
  }
  SHEAP_RETURN_IF_ERROR(
      DecodeFormatPayload(result.format_payload, &options_));

  BuildCollectors(&result.gc);
  SHEAP_RETURN_IF_ERROR(stable_gc_->ResumeAfterRecovery());

  txns_->BumpNextId(result.next_txn_id == 0 ? 0 : result.next_txn_id - 1);

  // The volatile area does not survive a crash (§2.1): free any volatile
  // spaces and start fresh.
  std::vector<SpaceId> stale;
  for (const Space& sp : spaces_->spaces()) {
    if (sp.area == Area::kVolatile) stale.push_back(sp.id);
  }
  for (SpaceId id : stale) {
    SHEAP_RETURN_IF_ERROR(spaces_->Free(id));
  }
  if (options_.divided_heap) {
    SHEAP_RETURN_IF_ERROR(volatile_gc_->Format());
  }
  return log_->Force();
}

Status StableHeap::CheckUsable() const {
  if (crashed_) return Status::Crashed("heap crashed; reopen to recover");
#if SHEAP_FAULT_INJECTION
  if (env_->faults()->crash_fired()) {
    return Status::Crashed("heap crashed at fault point " +
                           env_->faults()->crash_point() +
                           "; reopen to recover");
  }
#endif
  return Status::OK();
}

// --------------------------------------------------------------- schema

StatusOr<ClassId> StableHeap::RegisterClass(
    const std::vector<bool>& pointer_map) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  // Schema changes are rare and touch the append-only registry that GC
  // workers read without locks; quiesce every mutator.
  MutatorGate::ExclusiveSection exclusive(&gate_);
  SHEAP_ASSIGN_OR_RETURN(ClassId id, types_.Register(pointer_map));
  LogRecord rec;
  rec.type = RecordType::kClassDef;
  rec.aux = id;
  rec.count = pointer_map.size();
  rec.contents = types_.EncodeMap(id);
  log_->Append(&rec);
  // Schema definitions are durable immediately: heap contents allocated
  // under a class would be unparseable without its pointer map.
  SHEAP_RETURN_IF_ERROR(log_->Force());
  return id;
}

// --------------------------------------------------------- transactions

StatusOr<TxnId> StableHeap::Begin() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  SHEAP_RETURN_IF_ERROR(StepInstantDrain());
  // A shared action: txn-id allocation is a fetch_add and the manager's
  // shards take their own mutexes.
  MutatorGate::SharedSection shared(&gate_);
  Txn* txn = txns_->Begin();
  return txn->id;
}

StatusOr<Txn*> StableHeap::FindActive(TxnId txn_id) {
  Txn* txn = txns_->Find(txn_id);
  SHEAP_RETURN_IF_ERROR(CheckTxnState(txn, /*prepared=*/false));
  return txn;
}

Status StableHeap::Commit(TxnId txn_id) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  // The drain touches exclusive-only state, so it runs outside any gate
  // section; under concurrent mutators it is a no-op (open drained it).
  SHEAP_RETURN_IF_ERROR(StepInstantDrain());
  Txn* txn;
  {
    // The common case — no promotion work — is a shared action: the
    // commit record is appended under the log's own mutex and the
    // transaction joins the group-commit batch under the queue's.
    MutatorGate::SharedSection shared(&gate_);
    txn = txns_->Find(txn_id);
    bool promote = false;
    if (options_.divided_heap && txn != nullptr &&
        txn->state == TxnState::kActive) {
      MutexLock side(&side_mu_);
      promote = !remembered_.SlotsOf(txn_id).empty();
    }
    if (!promote) return CommitBody(txn, /*prepared=*/false);
  }
  // Newly stable objects move to the stable area before the commit record
  // (§5.2): if the commit record survives, so does the promotion. Promotion
  // rewrites heap pages and collector state, so it takes the gate
  // exclusively. Only an active transaction promotes, so a Busy retry
  // never promotes again.
  MutatorGate::ExclusiveSection exclusive(&gate_);
  SHEAP_RETURN_IF_ERROR(Promote(txn));
  return CommitBody(txn, /*prepared=*/false);
}

Status StableHeap::CommitBody(Txn* txn, bool prepared) {
  // A Busy retry: under group commit a kCommitting transaction is one an
  // earlier call left waiting on its commit record's durability. Without
  // group commit it is one whose force failed; the state check refuses it.
  if (options_.group_commit && txn != nullptr &&
      txn->state == TxnState::kCommitting) {
    return CommitTail(txn, /*retry=*/true);
  }
  SHEAP_RETURN_IF_ERROR(CheckTxnState(txn, prepared));
  if (!prepared && options_.divided_heap) {
    // Crash window: promotion copies spooled, commit record not.
    SHEAP_FAULT_POINT(env_->faults(), "txn.commit.promoted");
  }
  txn->state = TxnState::kCommitting;
  LogRecord rec;
  rec.type = RecordType::kCommit;
  txns_->AppendChained(txn, &rec);
  // Crash window: commit spooled but not forced — the transaction must
  // abort at recovery (or, prepared, stay in doubt) unless a later flush
  // happened to carry it out.
  SHEAP_FAULT_POINT(env_->faults(), "txn.commit.logged");
  // A 2PC decision is forced unless group commit carries it: the commit
  // record joins the open batch and is forced by the next batch leader (or
  // an unrelated barrier), so a cross-shard commit costs at most one forced
  // batch per participant.
  if (!options_.group_commit && (prepared || options_.force_on_commit)) {
    SHEAP_RETURN_IF_ERROR(log_->Force());
    // Crash window: commit durable, end record and lock release lost.
    SHEAP_FAULT_POINT(env_->faults(), "txn.commit.forced");
  }
  return CommitTail(txn, /*retry=*/false);
}

Status StableHeap::Promote(Txn* txn) {
  Status promoted = promoter_->PromoteAtCommit(txn);
  if (promoted.IsOutOfSpace() && options_.auto_collect) {
    // Promotion is all-or-nothing (capacity precheck), so it is safe to
    // reclaim the stable area and retry.
    SHEAP_RETURN_IF_ERROR(stable_gc_->CollectFully());
    promoted = promoter_->PromoteAtCommit(txn);
  }
  return promoted;
}

Status StableHeap::CommitTail(Txn* txn, bool retry) {
  if (options_.group_commit) {
    // Nothing is chained to a kCommitting transaction, so its last LSN is
    // its commit record: the ticket. It is durable iff the barrier has
    // passed it; only the owner ever checks, so only the owner finishes.
    const Lsn ticket = txn->last_lsn;
    if (!retry) {
      commit_queue_->Join(ticket);
    } else if (log_->durable_lsn() < ticket) {
      // A retry that is still waiting re-checks the queue; charging it
      // advances a lone committer's clock toward the max_delay_ns deadline.
      commit_queue_->ChargePoll();
    }
    // Leader election and batch close happen in one critical section under
    // the queue's mutex — two threads observing a closeable batch cannot
    // both force it, and a lone mutator simply leads when it polls.
    SHEAP_RETURN_IF_ERROR(commit_queue_->LeadIfReady());
    if (log_->durable_lsn() < ticket) {
      return Status::Busy("commit pending: group-commit batch open");
    }
  }
  txn->state = TxnState::kCommitted;
  return FinishTxn(txn);
}

Status StableHeap::FinishTxn(Txn* txn) {
  const TxnId txn_id = txn->id;
  locks_.ReleaseAll(txn_id);
  handles_.ReleaseTxn(txn_id, std::move(txn->handles));
  {
    // Side tables are plain maps shared by every committer.
    MutexLock side(&side_mu_);
    remembered_.EraseTxn(txn_id);
    ls_.EraseTxn(txn_id);
    utt_.OnTxnEnd(txn_id);
  }

  LogRecord end;
  end.type = RecordType::kEnd;
  end.txn_id = txn_id;
  log_->Append(&end);
  txns_->Remove(txn_id);
  return Status::OK();
}

Status StableHeap::RollbackTail(Txn* txn) {
  // Walk the in-memory undo information backwards (§2.2.3). Entries were
  // rewritten in place by every flip and promotion (recovery translated a
  // restored loser's through the UTT), so no translation is needed here —
  // that is the point of treating undo info as GC roots.
  std::vector<Lsn> logged_lsns;
  for (const TxnUpdate& e : txn->updates) {
    if (e.logged) logged_lsns.push_back(e.lsn);
  }
  size_t logged_remaining = logged_lsns.size();
  for (auto it = txn->updates.rbegin(); it != txn->updates.rend(); ++it) {
    const TxnUpdate& e = *it;
    const HeapAddr slot_addr = SlotAddr(e.obj_base, e.slot);
    Lsn lsn = kInvalidLsn;
    if (e.logged) {
      --logged_remaining;
      const Lsn undo_next =
          logged_remaining > 0 ? logged_lsns[logged_remaining - 1]
                               : kInvalidLsn;
      LogRecord clr;
      clr.type = RecordType::kClr;
      clr.undo_next_lsn = undo_next;
      clr.addr = slot_addr;
      clr.new_word = e.old_word;
      clr.aux = e.is_pointer ? LogRecord::kFlagPointer : 0;
      lsn = txns_->AppendChained(txn, &clr);
    }
    SHEAP_RETURN_IF_ERROR(
        pending_.WriteSlot(mem_.get(), slot_addr, e.old_word, lsn));
    if (e.logged) {
      // Crash window between two CLRs: recovery's rollback skips what the
      // surviving CLRs compensated and writes the rest.
      SHEAP_FAULT_POINT(env_->faults(), "txn.undo.clr_logged");
    }
  }
  txn->state = TxnState::kAborted;
  return FinishTxn(txn);
}

Status StableHeap::Abort(TxnId txn_id) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  // Undo writes only touch slots this transaction still write-locks.
  MutatorGate::SharedSection shared(&gate_);
  return AbortBody(txns_->Find(txn_id), /*prepared=*/false);
}

Status StableHeap::AbortBody(Txn* txn, bool prepared) {
  SHEAP_RETURN_IF_ERROR(CheckTxnState(txn, prepared));
  txn->state = TxnState::kAborting;
  LogRecord rec;
  rec.type = RecordType::kAbortTxn;
  txns_->AppendChained(txn, &rec);
  // Crash window: abort noted in the (volatile) log, no CLR written yet —
  // recovery undoes the whole transaction itself (or, prepared, restores
  // it in doubt).
  SHEAP_FAULT_POINT(env_->faults(), "txn.abort.logged");
  return RollbackTail(txn);
}

Status StableHeap::Prepare(TxnId txn_id, uint64_t gtid) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  // Prepare may promote (move objects between areas); exclusive.
  MutatorGate::ExclusiveSection exclusive(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));

  // Pre-commit work happens at prepare: if the coordinator decides commit,
  // only the kCommit record remains to be written.
  if (options_.divided_heap) SHEAP_RETURN_IF_ERROR(Promote(txn));

  LogRecord rec;
  rec.type = RecordType::kPrepare;
  rec.aux = gtid;
  txns_->AppendChained(txn, &rec);
  // The vote must be durable. The force also covers any group-commit
  // waiters whose commit records preceded it (piggybacking).
  SHEAP_RETURN_IF_ERROR(log_->Force());
  // Crash window: the vote is durable — recovery must restore the
  // transaction in doubt, with its locks.
  SHEAP_FAULT_POINT(env_->faults(), "txn.prepare.forced");
  txn->state = TxnState::kPrepared;
  txn->gtid = gtid;

  // Local references die; the locks and undo information stay until the
  // coordinator decides.
  handles_.ReleaseTxn(txn_id, std::exchange(txn->handles, {}));
  remembered_.EraseTxn(txn_id);
  ls_.EraseTxn(txn_id);
  return Status::OK();
}

Status StableHeap::CommitPrepared(TxnId txn_id) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return CommitBody(txns_->Find(txn_id), /*prepared=*/true);
}

Status StableHeap::AbortPrepared(TxnId txn_id) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return AbortBody(txns_->Find(txn_id), /*prepared=*/true);
}

std::vector<std::pair<TxnId, uint64_t>> StableHeap::InDoubtTransactions()
    const {
  std::vector<std::pair<TxnId, uint64_t>> out;
  for (const Txn* txn : txns_->ActiveTxns()) {
    if (txn->state == TxnState::kPrepared) {
      out.emplace_back(txn->id, txn->gtid);
    }
  }
  return out;
}

// ------------------------------------------------------------- objects

Status StableHeap::ValidateClass(ClassId cls, uint64_t nslots) const {
  if (!types_.IsRegistered(cls)) {
    return Status::InvalidArgument("unregistered class");
  }
  const uint64_t fixed = types_.FixedSlots(cls);
  if (fixed != 0 && fixed != nslots) {
    return Status::InvalidArgument("slot count does not match class");
  }
  if (nslots == 0 && fixed == 0 && cls >= kFirstUserClass) {
    return Status::InvalidArgument("record class with zero slots");
  }
  return Status::OK();
}

StatusOr<HeapAddr> StableHeap::AllocateStableRaw(Txn* txn, ClassId cls,
                                                 uint64_t nslots) {
  auto result = stable_gc_->AllocateObject(txn, cls, nslots);
  if (result.ok() || !result.status().IsOutOfSpace() ||
      !options_.auto_collect) {
    return result;
  }
  // Out of space: finish any in-flight collection, then flip, then retry.
  if (stable_gc_->collecting()) {
    SHEAP_RETURN_IF_ERROR(stable_gc_->FinishCollection());
  }
  if (options_.incremental_gc) {
    SHEAP_RETURN_IF_ERROR(stable_gc_->Flip());
  } else {
    SHEAP_RETURN_IF_ERROR(stable_gc_->CollectFully());
  }
  return stable_gc_->AllocateObject(txn, cls, nslots);
}

StatusOr<HeapAddr> StableHeap::AllocateVolatileRaw(Txn* txn, ClassId cls,
                                                   uint64_t nslots) {
  auto result = volatile_gc_->AllocateObject(txn, cls, nslots);
  if (result.ok() || !result.status().IsOutOfSpace() ||
      !options_.auto_collect) {
    return result;
  }
  SHEAP_RETURN_IF_ERROR(promoter_->Materialize());
  SHEAP_RETURN_IF_ERROR(volatile_gc_->Collect());
  return volatile_gc_->AllocateObject(txn, cls, nslots);
}

StatusOr<Ref> StableHeap::Allocate(TxnId txn_id, ClassId cls,
                                   uint64_t nslots) {
  return AllocateIn(txn_id, cls, nslots, /*stable=*/!options_.divided_heap);
}

StatusOr<Ref> StableHeap::AllocateStable(TxnId txn_id, ClassId cls,
                                         uint64_t nslots) {
  return AllocateIn(txn_id, cls, nslots, /*stable=*/true);
}

StatusOr<Ref> StableHeap::AllocateIn(TxnId txn_id, ClassId cls,
                                     uint64_t nslots, bool stable) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  // Allocation moves the space allocation pointer and may step or flip the
  // collector (auto_collect / pacing); exclusive keeps those transitions
  // race-free without per-pointer synchronization in the allocators.
  MutatorGate::ExclusiveSection exclusive(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));
  SHEAP_RETURN_IF_ERROR(ValidateClass(cls, nslots));
  SHEAP_RETURN_IF_ERROR(MaybeStepCollector());
  SHEAP_ASSIGN_OR_RETURN(HeapAddr base,
                         stable ? AllocateStableRaw(txn, cls, nslots)
                                : AllocateVolatileRaw(txn, cls, nslots));
  SHEAP_RETURN_IF_ERROR(locks_.AcquireWrite(txn_id, base));
  env_->clock()->ChargeAccess();
  return txn->handles.emplace_back(handles_.Create(txn_id, base));
}

Status StableHeap::MaybeStepCollector() {
  if (!options_.incremental_gc || !stable_gc_->collecting() ||
      options_.gc_step_pages == 0) {
    return Status::OK();
  }
  return stable_gc_->Step(options_.gc_step_pages).status();
}

StatusOr<HeapAddr> StableHeap::ResolveTarget(TxnId txn, Ref target) const {
  if (target == kNullRef) return kNullAddr;
  return handles_.Resolve(target, txn);
}

StatusOr<Ref> StableHeap::HandleFor(Txn* txn, HeapAddr v) {
  if (v == kNullAddr) return kNullRef;
  // A slot may still name a promotion husk; hand out the live address.
  SHEAP_ASSIGN_OR_RETURN(HeapAddr live, volatile_gc_->ResolveHusk(v));
  return txn->handles.emplace_back(handles_.Create(txn->id, live));
}

bool StableHeap::InStableArea(HeapAddr a) const {
  const Space* sp = spaces_->Containing(a);
  return sp != nullptr && sp->area == Area::kStable;
}

Status StableHeap::GcBarrier(HeapAddr a, bool slot, bool is_pointer) {
  const auto trap = [&] {
    return slot ? stable_gc_->EnsureSlotAccess(a, is_pointer)
                : stable_gc_->EnsureAccess(a);
  };
  // Read-barrier traps mutate collector state (scan bitmap, copy frontier,
  // barrier cache) and must be serialized across mutator threads. The
  // unlocked collecting() read is stable inside a shared section:
  // collections start and complete only under the exclusive gate, and the
  // trap path never completes a collection (Complete runs only from Step).
  if (concurrent() && stable_gc_->collecting()) {
    MutexLock gc(&gc_mu_);
    return trap();
  }
  return trap();
}

StatusOr<ObjectHeader> StableHeap::CheckedHeader(HeapAddr base,
                                                 uint64_t slot) {
  SHEAP_RETURN_IF_ERROR(GcBarrier(base, /*slot=*/false));
  ObjectHeader hdr;
  if (const auto* entry = pending_.Lookup(base)) {
    // Method-2 promotion: the header is synthesized until materialization.
    hdr.class_id = entry->cls;
    hdr.nslots = entry->nslots;
  } else {
    SHEAP_ASSIGN_OR_RETURN(hdr, mem_->ReadHeader(base));
  }
  if (slot >= hdr.nslots) {
    return Status::InvalidArgument("slot index out of range");
  }
  return hdr;
}

StatusOr<uint64_t> StableHeap::ReadSlotInternal(Txn* txn, HeapAddr base,
                                                uint64_t slot,
                                                bool want_pointer) {
  SHEAP_RETURN_IF_ERROR(locks_.AcquireRead(txn->id, base));
  SHEAP_ASSIGN_OR_RETURN(ObjectHeader hdr, CheckedHeader(base, slot));
  if (types_.IsPointerSlot(hdr.class_id, slot) != want_pointer) {
    return Status::InvalidArgument(want_pointer
                                       ? "slot holds a scalar, not a pointer"
                                       : "slot holds a pointer, not a scalar");
  }
  const HeapAddr slot_addr = SlotAddr(base, slot);
  SHEAP_RETURN_IF_ERROR(GcBarrier(slot_addr, /*slot=*/true, want_pointer));
  SHEAP_ASSIGN_OR_RETURN(uint64_t v, pending_.ReadSlot(mem_.get(), slot_addr));
  env_->clock()->ChargeAccess();
  return v;
}

Status StableHeap::WriteSlotInternal(Txn* txn, HeapAddr base, uint64_t slot,
                                     uint64_t value, bool is_pointer) {
  SHEAP_RETURN_IF_ERROR(locks_.AcquireWrite(txn->id, base));
  SHEAP_ASSIGN_OR_RETURN(ObjectHeader hdr, CheckedHeader(base, slot));
  if (types_.IsPointerSlot(hdr.class_id, slot) != is_pointer) {
    return Status::InvalidArgument("slot kind mismatch");
  }
  const HeapAddr slot_addr = SlotAddr(base, slot);
  SHEAP_RETURN_IF_ERROR(GcBarrier(slot_addr, /*slot=*/true, is_pointer));
  SHEAP_ASSIGN_OR_RETURN(uint64_t old,
                         pending_.ReadSlot(mem_.get(), slot_addr));

  const bool stable = InStableArea(base);
  TxnUpdate e;
  e.obj_base = base;
  e.slot = slot;
  e.old_word = old;
  e.new_word = value;
  e.is_pointer = is_pointer;
  if (stable) {
    // Write-ahead log protocol (§2.2.3): the redo/undo record is spooled
    // and the modification performed while the page is pinned (one action).
    LogRecord rec;
    rec.type = RecordType::kUpdate;
    rec.addr = slot_addr;
    rec.addr2 = base;
    rec.old_word = old;
    rec.new_word = value;
    rec.aux = is_pointer ? LogRecord::kFlagPointer : 0;
    e.lsn = txns_->AppendChained(txn, &rec);
    e.logged = true;
  }
  // A stable write is logged at e.lsn; a volatile one (kInvalidLsn) is not.
  SHEAP_RETURN_IF_ERROR(
      pending_.WriteSlot(mem_.get(), slot_addr, value, e.lsn));
  txn->updates.push_back(e);

  if (is_pointer && options_.divided_heap) {
    // Remembered set and stability tracking share the side tables with
    // every other writer; one mutex covers the whole bookkeeping step.
    MutexLock side(&side_mu_);
    // Remembered set: stable slots holding volatile pointers (§5.3).
    if (stable) {
      if (value != kNullAddr && volatile_gc_->Contains(value)) {
        remembered_.Put(base, slot, txn->id);
      } else {
        remembered_.Erase(base, slot);
      }
    }
    // Concurrent tracking of newly stable objects (§5.1).
    SHEAP_RETURN_IF_ERROR(
        tracker_->OnPointerWrite(*txn, base, value, stable));
  }
  env_->clock()->ChargeAccess();
  return Status::OK();
}

StatusOr<uint64_t> StableHeap::ReadScalar(TxnId txn_id, Ref ref,
                                          uint64_t slot) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::SharedSection shared(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));
  SHEAP_ASSIGN_OR_RETURN(HeapAddr base, handles_.Resolve(ref, txn_id));
  return ReadSlotInternal(txn, base, slot, /*want_pointer=*/false);
}

StatusOr<Ref> StableHeap::ReadRef(TxnId txn_id, Ref ref, uint64_t slot) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::SharedSection shared(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));
  SHEAP_ASSIGN_OR_RETURN(HeapAddr base, handles_.Resolve(ref, txn_id));
  SHEAP_ASSIGN_OR_RETURN(uint64_t v,
                         ReadSlotInternal(txn, base, slot,
                                          /*want_pointer=*/true));
  return HandleFor(txn, v);
}

Status StableHeap::WriteScalar(TxnId txn_id, Ref ref, uint64_t slot,
                               uint64_t value) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::SharedSection shared(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));
  SHEAP_ASSIGN_OR_RETURN(HeapAddr base, handles_.Resolve(ref, txn_id));
  return WriteSlotInternal(txn, base, slot, value, /*is_pointer=*/false);
}

Status StableHeap::WriteRef(TxnId txn_id, Ref ref, uint64_t slot,
                            Ref target) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::SharedSection shared(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));
  SHEAP_ASSIGN_OR_RETURN(HeapAddr base, handles_.Resolve(ref, txn_id));
  SHEAP_ASSIGN_OR_RETURN(HeapAddr value, ResolveTarget(txn_id, target));
  return WriteSlotInternal(txn, base, slot, value, /*is_pointer=*/true);
}

Status StableHeap::ReleaseRef(TxnId txn_id, Ref ref) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::SharedSection shared(&gate_);
  return handles_.Release(ref, txn_id);
}

// ----------------------------------------------------------------- roots

Status StableHeap::SetRoot(TxnId txn_id, uint64_t index, Ref target) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::SharedSection shared(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));
  SHEAP_ASSIGN_OR_RETURN(HeapAddr value, ResolveTarget(txn_id, target));
  return WriteSlotInternal(txn, stable_gc_->root_object(), index, value,
                           /*is_pointer=*/true);
}

StatusOr<Ref> StableHeap::GetRoot(TxnId txn_id, uint64_t index) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::SharedSection shared(&gate_);
  SHEAP_ASSIGN_OR_RETURN(Txn * txn, FindActive(txn_id));
  SHEAP_ASSIGN_OR_RETURN(uint64_t v,
                         ReadSlotInternal(txn, stable_gc_->root_object(),
                                          index, /*want_pointer=*/true));
  return HandleFor(txn, v);
}

// --------------------------------------------------------------- control

Status StableHeap::Checkpoint() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  // Control-plane operations quiesce every mutator thread: checkpoints
  // snapshot transaction/dirty-page tables, collections move objects, and
  // crash simulation tears down shared state. In single-thread mode the
  // gate is disabled and these sections cost nothing.
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return checkpointer_->Take();
}

Status StableHeap::CheckpointWithWriteback() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return checkpointer_->TakeWithWriteback();
}

Status StableHeap::ForceLog() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return log_->Force();
}

Status StableHeap::StartStableCollection() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return stable_gc_->Flip();
}

Status StableHeap::StepStableCollection(uint64_t pages) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return stable_gc_->Step(pages).status();
}

Status StableHeap::CollectStableFully() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  return stable_gc_->CollectFully();
}

Status StableHeap::CollectVolatile() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  if (!options_.divided_heap) {
    return Status::InvalidArgument("heap is not divided");
  }
  SHEAP_RETURN_IF_ERROR(promoter_->Materialize());
  return volatile_gc_->Collect();
}

Status StableHeap::WriteBackPages(double fraction, uint64_t seed) {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  Rng rng(seed);
  return pool_->WriteBackRandomSubset(&rng, fraction);
}

Status StableHeap::StepInstantDrain() {
  if (!instant_ || !instant_->active()) return Status::OK();
  return instant_->DrainStep(options_.instant_drain_pages);
}

Status StableHeap::DrainInstantRecovery() {
  SHEAP_RETURN_IF_ERROR(CheckUsable());
  MutatorGate::ExclusiveSection exclusive(&gate_);
  if (!instant_) return Status::OK();
  return instant_->DrainAll();
}

void StableHeap::RefreshRecoveryStats() const {
  if (!instant_) return;
  const InstantRedoStats s = instant_->stats();
  if (!s.installed) return;
  recovery_stats_.ondemand_pages = s.ondemand_pages;
  recovery_stats_.drained_pages = s.drained_pages;
  recovery_stats_.pending_pages = s.pending_pages;
  recovery_stats_.redo_records_applied = s.records_applied;
  if (s.aborted) {
    recovery_stats_.outcome = RecoveryOutcome::kAborted;
  } else if (recovery_stats_.outcome == RecoveryOutcome::kOpenPendingRedo &&
             s.pending_pages == 0) {
    recovery_stats_.outcome = RecoveryOutcome::kInstantComplete;
  }
}

Status StableHeap::SimulateCrash(const CrashOptions& crash_options) {
  // Deliberately not CheckUsable(): after an *injected* crash this is how a
  // test finalizes the crash state (partial write-back + tail tear) before
  // destroying the heap. Only an already-finalized crash is refused.
  if (crashed_) return Status::Crashed("heap crashed; reopen to recover");
  MutatorGate::ExclusiveSection exclusive(&gate_);
  Rng rng(crash_options.seed);
  SHEAP_RETURN_IF_ERROR(pool_->WriteBackRandomSubset(
      &rng, crash_options.writeback_fraction));
  if (crash_options.tear_tail_bytes > 0) {
    env_->log()->TearTail(crash_options.tear_tail_bytes);
  }
  pool_->DropAll();  // main memory is lost
  crashed_ = true;
  return Status::OK();
}

// ------------------------------------------------------------ inspection

HeapStats StableHeap::stats() const {
  HeapStats s;
  s.fault = env_->faults()->stats();
  s.disk = env_->disk()->stats();
  s.log_device = env_->log()->stats();
  s.pool = pool_->stats();
  RefreshRecoveryStats();
  s.recovery = recovery_stats_;
  return s;
}

StatusOr<HeapAddr> StableHeap::DebugAddrOf(Ref ref) const {
  return handles_.Get(ref);
}

StatusOr<uint64_t> StableHeap::DebugReadWord(HeapAddr addr) {
  if (const auto* entry = pending_.Lookup(addr)) {
    return EncodeHeader(entry->cls, entry->nslots);
  }
  return pending_.ReadSlot(mem_.get(), addr);
}

// ---------------------------------------------------- GC root callbacks

Status StableHeap::ScanVolatileAreaAsRoots(
    const std::function<StatusOr<HeapAddr>(HeapAddr)>& translate) {
  if (!options_.divided_heap) return Status::OK();
  // §5.4: volatile objects may reference stable objects; at a stable flip
  // the whole (small) volatile area is scanned as part of the root set.
  // Husk-valued slots are resolved and rewritten here, so by the end of the
  // scan no volatile slot names a husk whose target could stay uncopied.
  return volatile_gc_->ForEachObject(
      [&](HeapAddr base, const ObjectHeader& hdr) -> Status {
        for (uint64_t i = 0; i < hdr.nslots; ++i) {
          if (!types_.IsPointerSlot(hdr.class_id, i)) continue;
          const HeapAddr slot_addr = SlotAddr(base, i);
          SHEAP_ASSIGN_OR_RETURN(uint64_t v, mem_->ReadWord(slot_addr));
          if (v == kNullAddr) continue;
          SHEAP_ASSIGN_OR_RETURN(HeapAddr resolved,
                                 volatile_gc_->ResolveHusk(v));
          SHEAP_ASSIGN_OR_RETURN(HeapAddr translated, translate(resolved));
          if (translated != v) {
            SHEAP_RETURN_IF_ERROR(
                mem_->WriteWordUnlogged(slot_addr, translated));
          }
        }
        env_->clock()->ChargeScanWords(hdr.TotalWords());
        return Status::OK();
      });
}

Status StableHeap::VolatileExtraRoots(const RootTranslator& translate) {
  // 1. Remembered slots: stable slots holding volatile pointers. The
  //    rewrite of a logged (stable) page is itself logged as a scan-style
  //    record ("S4vscan"): redo re-applies it; if the owning transaction
  //    later aborts, its undo restores the old value beneath.
  for (const auto& s : remembered_.AllSlots()) {
    const HeapAddr slot_addr = SlotAddr(s.obj_base, s.slot);
    SHEAP_ASSIGN_OR_RETURN(uint64_t v, mem_->ReadWord(slot_addr));
    if (v == kNullAddr || !volatile_gc_->Contains(v)) continue;
    SHEAP_ASSIGN_OR_RETURN(HeapAddr nv, translate(v));
    if (nv == v) continue;
    LogRecord rec;
    rec.type = RecordType::kGcScan;
    rec.aux = LogRecord::kScanPartial;
    rec.page = PageOf(slot_addr);
    rec.slot_updates.emplace_back(WordInPage(slot_addr), nv);
    const Lsn lsn = log_->Append(&rec);
    SHEAP_RETURN_IF_ERROR(mem_->WriteWordLogged(slot_addr, nv, lsn));
    // Keep the in-memory undo info of the owning transaction consistent:
    // its new_word for this slot moved with the object.
    Txn* owner = txns_->Find(s.owner);
    if (owner != nullptr) {
      for (auto it = owner->updates.rbegin(); it != owner->updates.rend();
           ++it) {
        if (it->obj_base == s.obj_base && it->slot == s.slot) {
          if (it->new_word == v) it->new_word = nv;
          break;
        }
      }
    }
  }

  // 2. Undo information of active transactions: updated volatile objects
  //    and old/new pointer values are roots — abort must be able to write
  //    into them and restore valid references.
  for (Txn* txn : txns_->ActiveTxns()) {
    for (TxnUpdate& e : txn->updates) {
      if (volatile_gc_->Contains(e.obj_base)) {
        SHEAP_ASSIGN_OR_RETURN(e.obj_base, translate(e.obj_base));
      }
      if (e.is_pointer) {
        if (e.old_word != kNullAddr && volatile_gc_->Contains(e.old_word)) {
          SHEAP_ASSIGN_OR_RETURN(e.old_word, translate(e.old_word));
        }
        if (e.new_word != kNullAddr && volatile_gc_->Contains(e.new_word)) {
          SHEAP_ASSIGN_OR_RETURN(e.new_word, translate(e.new_word));
        }
      }
    }
    for (TxnAlloc& a : txn->allocs) {
      if (!a.stable_area && volatile_gc_->Contains(a.base)) {
        SHEAP_ASSIGN_OR_RETURN(a.base, translate(a.base));
      }
    }
  }

  // 3. Likely-stable objects are kept alive through the collection (their
  //    dependee transactions may still commit); entries are rekeyed via
  //    on_object_moved. Objects whose entries were not reachable otherwise
  //    still get copied here.
  for (HeapAddr obj : ls_.AllObjects()) {
    if (volatile_gc_->Contains(obj)) {
      SHEAP_ASSIGN_OR_RETURN(HeapAddr moved, translate(obj));
      (void)moved;  // rekey happens in on_object_moved
    }
  }
  return Status::OK();
}

}  // namespace sheap
