// ShardedHeap tests (src/shard/sharded_heap.h): deterministic routing,
// single-shard fast path vs cross-shard 2PC, and — the heart of it —
// per-shard byte determinism: with a fixed crashed multi-shard image
// (including a mid-2PC in-doubt state), every recovery configuration
// (shard order forward/reverse/parallel, redo thread counts, instant
// recovery with any drain thread count) must produce identical per-shard
// disk/spaces/UTT bytes and the identical in-doubt set. Then
// crash-recover-resume: reopening with in-doubt resolution applies the
// decided transfer exactly once and presumed-aborts the undecided one.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "shard/sharded_heap.h"
#include "util/coder.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

constexpr uint32_t kShards = 3;
constexpr uint64_t kAccountsPerShard = 64;
constexpr uint64_t kInitialBalance = 100;
// Two buckets per shard (locks are object-granularity; concurrent in-doubt
// 2PC rounds need disjoint objects on the shard they share).
constexpr uint64_t kBuckets = 2;
constexpr uint64_t kTotal =
    kShards * kBuckets * kAccountsPerShard * kInitialBalance;

ShardedHeapOptions BaseOptions() {
  ShardedHeapOptions opts;
  opts.shards = kShards;
  opts.shard_options.stable_space_pages = 128;
  opts.shard_options.volatile_space_pages = 64;
  opts.shard_options.divided_heap = false;
  opts.shard_options.group_commit = true;  // exercise the 2PC piggyback
  opts.parallel_open = false;
  return opts;
}

struct Cluster {
  std::vector<std::unique_ptr<SimEnv>> shard_envs;
  std::unique_ptr<SimEnv> coord_env;

  Cluster() {
    for (uint32_t i = 0; i < kShards; ++i) {
      shard_envs.push_back(std::make_unique<SimEnv>());
    }
    coord_env = std::make_unique<SimEnv>();
  }

  std::vector<SimEnv*> envs() {
    std::vector<SimEnv*> out;
    for (auto& e : shard_envs) out.push_back(e.get());
    return out;
  }

  StatusOr<std::unique_ptr<ShardedHeap>> Open(
      const ShardedHeapOptions& opts) {
    return ShardedHeap::Open(envs(), coord_env.get(), opts);
  }
};

// Each shard holds kBuckets 64-account buckets. Bucket b of shard s hangs
// off global root index b * kShards + s, which routes to shard s (local
// root slot b).
Status SetupAccounts(ShardedHeap* heap, ClassId cls) {
  for (uint64_t b = 0; b < kBuckets; ++b) {
    for (uint32_t s = 0; s < kShards; ++s) {
      SHEAP_ASSIGN_OR_RETURN(GTxnId txn, heap->Begin());
      SHEAP_ASSIGN_OR_RETURN(
          GRef bucket, heap->AllocateOn(txn, s, cls, kAccountsPerShard));
      for (uint64_t a = 0; a < kAccountsPerShard; ++a) {
        SHEAP_RETURN_IF_ERROR(
            heap->WriteScalar(txn, bucket, a, kInitialBalance));
      }
      SHEAP_RETURN_IF_ERROR(heap->SetRoot(txn, b * kShards + s, bucket));
      SHEAP_RETURN_IF_ERROR(heap->CommitSync(txn));
    }
  }
  return Status::OK();
}

// Transfer through the front end; spans shards when from/to differ.
Status Transfer(ShardedHeap* heap, uint32_t from_shard, uint64_t from_acct,
                uint32_t to_shard, uint64_t to_acct, uint64_t amount) {
  SHEAP_ASSIGN_OR_RETURN(GTxnId txn, heap->Begin());
  SHEAP_ASSIGN_OR_RETURN(GRef fb, heap->GetRoot(txn, from_shard));
  SHEAP_ASSIGN_OR_RETURN(GRef tb, heap->GetRoot(txn, to_shard));
  SHEAP_ASSIGN_OR_RETURN(uint64_t fbal,
                         heap->ReadScalar(txn, fb, from_acct));
  SHEAP_ASSIGN_OR_RETURN(uint64_t tbal, heap->ReadScalar(txn, tb, to_acct));
  SHEAP_RETURN_IF_ERROR(
      heap->WriteScalar(txn, fb, from_acct, fbal - amount));
  SHEAP_RETURN_IF_ERROR(heap->WriteScalar(txn, tb, to_acct, tbal + amount));
  return heap->CommitSync(txn);
}

StatusOr<uint64_t> GrandTotal(ShardedHeap* heap) {
  uint64_t total = 0;
  SHEAP_ASSIGN_OR_RETURN(GTxnId txn, heap->Begin());
  for (uint64_t r = 0; r < kBuckets * kShards; ++r) {
    SHEAP_ASSIGN_OR_RETURN(GRef bucket, heap->GetRoot(txn, r));
    for (uint64_t a = 0; a < kAccountsPerShard; ++a) {
      SHEAP_ASSIGN_OR_RETURN(uint64_t bal, heap->ReadScalar(txn, bucket, a));
      total += bal;
    }
  }
  SHEAP_RETURN_IF_ERROR(heap->CommitSync(txn));
  return total;
}

/// The scripted pre-crash workload: setup, single-shard and cross-shard
/// traffic, checkpoints, post-checkpoint redo work, then two 2PC rounds
/// left in doubt — gtid_decided has a forced decision but unapplied
/// participant commits; gtid_undecided stopped after the votes (presumed
/// abort must roll it back). Crashes every shard. Returns the two gtids.
struct InDoubtSetup {
  Gtid decided = 0;
  Gtid undecided = 0;
};

InDoubtSetup BuildCrashedCluster(Cluster* cluster,
                                 const ShardedHeapOptions& opts) {
  auto opened = cluster->Open(opts);
  SHEAP_CHECK_OK(opened.status());
  std::unique_ptr<ShardedHeap> heap = std::move(*opened);

  auto cls = heap->RegisterClass(std::vector<bool>(kAccountsPerShard, false));
  SHEAP_CHECK_OK(cls.status());
  SHEAP_CHECK_OK(SetupAccounts(heap.get(), *cls));

  // Single-shard traffic on every shard.
  for (uint32_t i = 0; i < 9; ++i) {
    const uint32_t s = i % kShards;
    SHEAP_CHECK_OK(Transfer(heap.get(), s, i, s, i + 1, 5));
  }
  // Cross-shard traffic (conserves the grand total).
  SHEAP_CHECK_OK(Transfer(heap.get(), 0, 2, 1, 3, 10));
  SHEAP_CHECK_OK(Transfer(heap.get(), 1, 4, 2, 5, 10));
  SHEAP_CHECK_OK(Transfer(heap.get(), 2, 6, 0, 7, 10));

  // Partial write-back + checkpoint, then post-checkpoint redo work.
  for (uint32_t s = 0; s < kShards; ++s) {
    SHEAP_CHECK_OK(heap->shard(s)->WriteBackPages(0.6, 11 + s));
  }
  SHEAP_CHECK_OK(heap->Checkpoint());
  SHEAP_CHECK_OK(Transfer(heap.get(), 0, 8, 2, 9, 20));
  SHEAP_CHECK_OK(Transfer(heap.get(), 1, 10, 1, 11, 15));

  // Two in-doubt 2PC rounds, driven through the coordinator's exposed
  // protocol steps on direct shard transactions (the front end would
  // finish them; the crash matrix needs them cut mid-protocol).
  TwoPhaseCoordinator* coord = heap->coordinator();
  InDoubtSetup out;
  // Moves `amount` between two accounts of local bucket `b` on shard `s`.
  // The two in-doubt rounds share shard 1, so they use different buckets —
  // locks are object-granularity and both prepared txns must coexist.
  auto start_local = [&](uint32_t s, uint64_t b, uint64_t from, uint64_t to,
                         uint64_t amount) {
    StableHeap* shard = heap->shard(s);
    TxnId txn = *shard->Begin();
    Ref bucket = *shard->GetRoot(txn, b);
    uint64_t fbal = *shard->ReadScalar(txn, bucket, from);
    uint64_t tbal = *shard->ReadScalar(txn, bucket, to);
    SHEAP_CHECK_OK(shard->WriteScalar(txn, bucket, from, fbal - amount));
    SHEAP_CHECK_OK(shard->WriteScalar(txn, bucket, to, tbal + amount));
    return txn;
  };

  {
    out.decided = coord->NewGtid();
    TxnId t0 = start_local(0, 0, 20, 21, 7);
    TxnId t1 = start_local(1, 0, 22, 23, 7);
    auto voted = coord->PrepareAll(
        out.decided, {{heap->shard(0), t0}, {heap->shard(1), t1}});
    SHEAP_CHECK_OK(voted.status());
    SHEAP_CHECK(*voted);
    SHEAP_CHECK_OK(coord->LogCommitDecision(out.decided, 2));
  }
  {
    out.undecided = coord->NewGtid();
    TxnId t1 = start_local(1, 1, 30, 31, 9);
    TxnId t2 = start_local(2, 1, 32, 33, 9);
    auto voted = coord->PrepareAll(
        out.undecided, {{heap->shard(1), t1}, {heap->shard(2), t2}});
    SHEAP_CHECK_OK(voted.status());
    SHEAP_CHECK(*voted);
    // No decision: the crash must resolve this one by presumed abort.
  }

  SHEAP_CHECK_OK(heap->SimulateCrashAll(CrashOptions{0.5, 23, 96}));
  return out;
}

struct ShardState {
  std::vector<std::pair<TxnId, uint64_t>> in_doubt;
  std::vector<uint8_t> spaces_enc;
  std::vector<uint8_t> utt_enc;
  std::vector<PageImage> pages;
  std::vector<uint8_t> log_bytes;
};

struct RecoveredState {
  std::vector<ShardState> shards;
  uint64_t prepared_restored = 0;
};

/// Reopen the crashed cluster with `opts` (resolution off, so the
/// restored in-doubt set is observable), drain any instant-recovery
/// backlog, flush, and snapshot every shard's bytes.
RecoveredState RecoverWith(Cluster* cluster, ShardedHeapOptions opts) {
  opts.resolve_in_doubt = false;
  auto opened = cluster->Open(opts);
  SHEAP_CHECK_OK(opened.status());
  std::unique_ptr<ShardedHeap> heap = std::move(*opened);
  if (opts.shard_options.instant_recovery) {
    SHEAP_CHECK_OK(heap->DrainInstantRecovery());
  }

  RecoveredState out;
  for (uint32_t s = 0; s < kShards; ++s) {
    StableHeap* shard = heap->shard(s);
    ShardState st;
    st.in_doubt = shard->InDoubtTransactions();
    Encoder spaces_enc(&st.spaces_enc);
    shard->spaces()->EncodeTo(&spaces_enc);
    Encoder utt_enc(&st.utt_enc);
    shard->utt()->EncodeTo(&utt_enc);
    SHEAP_CHECK_OK(shard->pool()->FlushAll());
    SimEnv* env = cluster->shard_envs[s].get();
    st.log_bytes.assign(env->log()->data(),
                        env->log()->data() + env->log()->size());
    const uint64_t npages = (opts.shard_options.stable_space_pages +
                             opts.shard_options.volatile_space_pages) *
                                2 +
                            64;
    for (PageId pid = 0; pid < npages; ++pid) {
      PageImage img;
      SHEAP_CHECK_OK(env->disk()->ReadPage(pid, &img));
      st.pages.push_back(img);
    }
    out.prepared_restored += shard->recovery_stats().prepared_restored;
    out.shards.push_back(std::move(st));
  }
  return out;
}

void ExpectIdentical(const RecoveredState& a, const RecoveredState& b,
                     const char* label, bool compare_log) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.prepared_restored, b.prepared_restored);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t s = 0; s < a.shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ShardState& x = a.shards[s];
    const ShardState& y = b.shards[s];
    EXPECT_EQ(x.in_doubt, y.in_doubt);
    EXPECT_EQ(x.spaces_enc, y.spaces_enc) << "space table diverged";
    EXPECT_EQ(x.utt_enc, y.utt_enc) << "UTT diverged";
    if (compare_log) {
      EXPECT_EQ(x.log_bytes, y.log_bytes) << "log bytes diverged";
    }
    ASSERT_EQ(x.pages.size(), y.pages.size());
    for (size_t i = 0; i < x.pages.size(); ++i) {
      EXPECT_EQ(x.pages[i].page_lsn, y.pages[i].page_lsn) << "page " << i;
      ASSERT_EQ(0, std::memcmp(x.pages[i].data.data(),
                               y.pages[i].data.data(), kPageSizeBytes))
          << "page " << i << " bytes diverged";
    }
  }
}

TEST(ShardedHeapTest, RoutingAndCommitFastPaths) {
  Cluster cluster;
  ShardedHeapOptions opts = BaseOptions();
  auto heap = std::move(*cluster.Open(opts));
  auto cls =
      heap->RegisterClass(std::vector<bool>(kAccountsPerShard, false));
  ASSERT_TRUE(cls.ok());
  ASSERT_TRUE(SetupAccounts(heap.get(), *cls).ok());

  // Root striping: index s routes to shard s.
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(heap->ShardOfRoot(s), s);
    EXPECT_EQ(heap->ShardOfRoot(s + kShards), s);
  }

  ASSERT_TRUE(Transfer(heap.get(), 0, 0, 0, 1, 10).ok());   // single-shard
  ASSERT_TRUE(Transfer(heap.get(), 0, 0, 2, 1, 10).ok());   // cross-shard

  // Snapshot the counters before GrandTotal — the audit itself is a
  // (read-only) cross-shard transaction and would count too.
  const ShardedHeapStats stats = heap->stats();
  EXPECT_EQ(*GrandTotal(heap.get()), kTotal);
  EXPECT_EQ(stats.per_shard.size(), kShards);
  // Setup commits are single-shard; the two transfers split 1/1.
  EXPECT_GE(stats.single_shard_commits, kShards + 1u);
  EXPECT_EQ(stats.cross_shard_commits, 1u);
  EXPECT_EQ(stats.cross_shard_aborts, 0u);
  EXPECT_EQ(stats.dtx.distributed_commits, 1u);
  EXPECT_EQ(stats.dtx.ends_logged, 1u);
  // The decision log holds no open decisions once everything acked.
  EXPECT_EQ(heap->coordinator()->OpenDecisions(), 0u);
}

TEST(ShardedHeapTest, CrossShardPointersAreRejected) {
  Cluster cluster;
  auto heap = std::move(*cluster.Open(BaseOptions()));
  auto ptr_cls = heap->RegisterClass({true, true});
  ASSERT_TRUE(ptr_cls.ok());

  GTxnId txn = *heap->Begin();
  GRef a = *heap->AllocateOn(txn, 0, *ptr_cls, 2);
  GRef b = *heap->AllocateOn(txn, 1, *ptr_cls, 2);
  Status st = heap->WriteRef(txn, a, 0, b);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // Same-shard pointers and null stores stay legal.
  GRef a2 = *heap->AllocateOn(txn, 0, *ptr_cls, 2);
  EXPECT_TRUE(heap->WriteRef(txn, a, 0, a2).ok());
  EXPECT_TRUE(heap->WriteRef(txn, a, 1, kNullGRef).ok());
  EXPECT_TRUE(heap->Abort(txn).ok());
}

TEST(ShardedHeapTest, StaleGRefsAreRejected) {
  Cluster cluster;
  auto heap = std::move(*cluster.Open(BaseOptions()));
  auto cls = heap->RegisterClass(std::vector<bool>(4, false));
  ASSERT_TRUE(cls.ok());

  GTxnId t1 = *heap->Begin();
  GRef obj = *heap->AllocateOn(t1, 1, *cls, 4);
  ASSERT_TRUE(heap->WriteScalar(t1, obj, 0, 42).ok());
  ASSERT_TRUE(heap->CommitSync(t1).ok());

  // The handle died with its transaction; a new transaction cannot reuse it.
  GTxnId t2 = *heap->Begin();
  EXPECT_TRUE(heap->ReadScalar(t2, obj, 0).status().IsInvalidArgument());
  EXPECT_TRUE(heap->Abort(t2).ok());
}

// Pointer slot 0, scalar slots 1..3.
std::vector<bool> PtrThenScalars() { return {true, false, false, false}; }

TEST(ShardedHeapTest, ForeignGRefOnAnUntouchedShardOpensNoBranch) {
  Cluster cluster;
  auto heap = std::move(*cluster.Open(BaseOptions()));
  auto cls = heap->RegisterClass(PtrThenScalars());
  ASSERT_TRUE(cls.ok());

  GTxnId owner = *heap->Begin();
  GRef theirs = *heap->AllocateOn(owner, 1, *cls, 4);
  ASSERT_TRUE(heap->WriteScalar(owner, theirs, 1, 5).ok());

  GTxnId caller = *heap->Begin();
  GRef mine = *heap->AllocateOn(caller, 0, *cls, 4);
  const ShardedHeapStats before = heap->stats();
  // Every use names shard 1, where the caller has no branch: each is
  // rejected before a branch opens there.
  EXPECT_TRUE(heap->ReadScalar(caller, theirs, 1).status().IsInvalidArgument());
  EXPECT_TRUE(heap->ReadRef(caller, theirs, 0).status().IsInvalidArgument());
  EXPECT_TRUE(heap->WriteScalar(caller, theirs, 1, 7).IsInvalidArgument());
  EXPECT_TRUE(heap->WriteRef(caller, theirs, 0, kNullGRef).IsInvalidArgument());
  EXPECT_TRUE(heap->WriteRef(caller, mine, 0, theirs).IsInvalidArgument());
  EXPECT_TRUE(heap->ReleaseRef(caller, theirs).IsInvalidArgument());
  // Root index 1 routes to shard 1, the target's shard.
  ASSERT_EQ(heap->ShardOfRoot(1), 1u);
  EXPECT_TRUE(heap->SetRoot(caller, 1, theirs).IsInvalidArgument());

  ASSERT_TRUE(heap->WriteScalar(caller, mine, 1, 1).ok());
  ASSERT_TRUE(heap->CommitSync(caller).ok());
  const ShardedHeapStats after = heap->stats();
  EXPECT_EQ(after.single_shard_commits, before.single_shard_commits + 1);
  EXPECT_EQ(after.cross_shard_commits, before.cross_shard_commits);

  // The owner's GRef is untouched by the rejected uses.
  EXPECT_EQ(*heap->ReadScalar(owner, theirs, 1), 5u);
  EXPECT_TRUE(heap->Abort(owner).ok());
}

TEST(ShardedHeapTest, ForeignGRefOnASharedShardFailsTheOwnerCheck) {
  Cluster cluster;
  auto heap = std::move(*cluster.Open(BaseOptions()));
  auto cls = heap->RegisterClass(PtrThenScalars());
  ASSERT_TRUE(cls.ok());

  GTxnId owner = *heap->Begin();
  GRef theirs = *heap->AllocateOn(owner, 1, *cls, 4);
  ASSERT_TRUE(heap->WriteScalar(owner, theirs, 1, 5).ok());

  // The caller holds a branch on shard 1 too, so the GRef routes; the
  // branch's own handle table rejects a handle another branch owns.
  GTxnId caller = *heap->Begin();
  GRef mine = *heap->AllocateOn(caller, 1, *cls, 4);
  EXPECT_TRUE(heap->ReadScalar(caller, theirs, 1).status().IsInvalidArgument());
  EXPECT_TRUE(heap->ReadRef(caller, theirs, 0).status().IsInvalidArgument());
  EXPECT_TRUE(heap->WriteScalar(caller, theirs, 1, 7).IsInvalidArgument());
  EXPECT_TRUE(heap->WriteRef(caller, mine, 0, theirs).IsInvalidArgument());
  EXPECT_TRUE(heap->ReleaseRef(caller, theirs).IsInvalidArgument());
  EXPECT_TRUE(heap->SetRoot(caller, 1, theirs).IsInvalidArgument());
  // The caller's own GRef on the same shard works.
  EXPECT_TRUE(heap->WriteRef(caller, mine, 0, mine).ok());
  EXPECT_TRUE(heap->Abort(caller).ok());

  EXPECT_EQ(*heap->ReadScalar(owner, theirs, 1), 5u);
  EXPECT_TRUE(heap->CommitSync(owner).ok());
}

TEST(ShardedHeapTest, ReleasedAndEndedGRefsDieAlone) {
  Cluster cluster;
  auto heap = std::move(*cluster.Open(BaseOptions()));
  auto cls = heap->RegisterClass(PtrThenScalars());
  ASSERT_TRUE(cls.ok());

  GTxnId t = *heap->Begin();
  GRef obj = *heap->AllocateOn(t, 2, *cls, 4);
  GRef keep = *heap->AllocateOn(t, 2, *cls, 4);
  ASSERT_TRUE(heap->ReleaseRef(t, obj).ok());
  EXPECT_TRUE(heap->ReadScalar(t, obj, 1).status().IsInvalidArgument());
  EXPECT_TRUE(heap->ReadRef(t, obj, 0).status().IsInvalidArgument());
  EXPECT_TRUE(heap->WriteScalar(t, obj, 1, 1).IsInvalidArgument());
  EXPECT_TRUE(heap->WriteRef(t, obj, 0, kNullGRef).IsInvalidArgument());
  EXPECT_TRUE(heap->WriteRef(t, keep, 0, obj).IsInvalidArgument());
  EXPECT_TRUE(heap->SetRoot(t, 2, obj).IsInvalidArgument());
  EXPECT_TRUE(heap->ReleaseRef(t, obj).IsInvalidArgument());
  EXPECT_TRUE(heap->WriteScalar(t, keep, 1, 1).ok());
  EXPECT_TRUE(heap->Abort(t).ok());

  // One object per shard, each pointing at itself.
  GTxnId setup = *heap->Begin();
  for (uint32_t s = 0; s < kShards; ++s) {
    GRef o = *heap->AllocateOn(setup, s, *cls, 4);
    ASSERT_TRUE(heap->WriteRef(setup, o, 0, o).ok());
    ASSERT_TRUE(heap->WriteScalar(setup, o, 1, 100 + s).ok());
    ASSERT_TRUE(heap->SetRoot(setup, s, o).ok());
  }
  ASSERT_TRUE(heap->CommitSync(setup).ok());

  // A survivor holds GRefs on every shard, made before, between and after
  // a big transaction's; the big one ends holding 20,000 GRefs.
  GTxnId survivor = *heap->Begin();
  GTxnId big = *heap->Begin();
  std::vector<GRef> kept;
  for (uint32_t s = 0; s < kShards; ++s) {
    kept.push_back(*heap->GetRoot(survivor, s));
  }
  std::vector<GRef> roots;
  for (uint32_t s = 0; s < kShards; ++s) {
    roots.push_back(*heap->GetRoot(big, s));
  }
  constexpr int kBigGRefs = 20000;
  for (int i = static_cast<int>(kShards); i < kBigGRefs; ++i) {
    auto r = heap->ReadRef(big, roots[i % kShards], 0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (i % 5000 == 0) {
      kept.push_back(*heap->ReadRef(survivor, kept[i % kShards], 0));
    }
  }
  ASSERT_TRUE(heap->Abort(big).ok());
  for (uint32_t s = 0; s < kShards; ++s) {
    kept.push_back(*heap->GetRoot(survivor, s));
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    auto v = heap->ReadScalar(survivor, kept[i], 1);
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    EXPECT_GE(*v, 100u);
    EXPECT_LT(*v, 100u + kShards);
  }
  // The big transaction's GRefs died with it.
  EXPECT_TRUE(
      heap->ReadScalar(survivor, roots[1], 1).status().IsInvalidArgument());
  EXPECT_TRUE(heap->CommitSync(survivor).ok());
}

TEST(ShardedHeapTest, NullSlotsOnEveryShardReadAsNullGRef) {
  Cluster cluster;
  auto heap = std::move(*cluster.Open(BaseOptions()));
  auto cls = heap->RegisterClass(PtrThenScalars());
  ASSERT_TRUE(cls.ok());
  GTxnId t = *heap->Begin();
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(*heap->GetRoot(t, s), kNullGRef) << s;
    GRef o = *heap->AllocateOn(t, s, *cls, 4);
    EXPECT_EQ(*heap->ReadRef(t, o, 0), kNullGRef) << s;
  }
  EXPECT_TRUE(heap->Abort(t).ok());
}

TEST(ShardedHeapTest, OpenRejectsMoreShardsThanTags) {
  constexpr uint32_t kTooMany = HandleTable::kMaxTags + 1;
  std::vector<std::unique_ptr<SimEnv>> owned;
  std::vector<SimEnv*> envs;
  for (uint32_t i = 0; i < kTooMany; ++i) {
    owned.push_back(std::make_unique<SimEnv>());
    envs.push_back(owned.back().get());
  }
  SimEnv coord;
  ShardedHeapOptions opts = BaseOptions();
  opts.shards = kTooMany;
  auto heap = ShardedHeap::Open(envs, &coord, opts);
  EXPECT_TRUE(heap.status().IsInvalidArgument()) << heap.status().ToString();
}

TEST(ShardedHeapTest, WorkloadIsDeterministic) {
  // Sanity for the matrix below: the crashed image itself is reproducible.
  ShardedHeapOptions opts = BaseOptions();
  Cluster c1, c2;
  BuildCrashedCluster(&c1, opts);
  BuildCrashedCluster(&c2, opts);
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(c1.shard_envs[s]->log()->size(),
              c2.shard_envs[s]->log()->size());
    EXPECT_EQ(0, std::memcmp(c1.shard_envs[s]->log()->data(),
                             c2.shard_envs[s]->log()->data(),
                             c1.shard_envs[s]->log()->size()));
  }
  ASSERT_EQ(c1.coord_env->log()->size(), c2.coord_env->log()->size());
}

TEST(ShardedHeapTest, ByteIdenticalAcrossRecoveryConfigs) {
  ShardedHeapOptions base = BaseOptions();

  auto fresh_recover = [&](ShardedHeapOptions opts) {
    Cluster cluster;
    BuildCrashedCluster(&cluster, base);
    return RecoverWith(&cluster, opts);
  };

  RecoveredState serial = fresh_recover(base);
  // Both in-doubt rounds survive: one prepared txn on shard 0, two on
  // shard 1, one on shard 2.
  EXPECT_EQ(serial.prepared_restored, 4u);

  {  // Reverse shard recovery order.
    ShardedHeapOptions opts = base;
    opts.reverse_open_order = true;
    ExpectIdentical(serial, fresh_recover(opts), "reverse order",
                    /*compare_log=*/true);
  }
  {  // Parallel per-shard recovery.
    ShardedHeapOptions opts = base;
    opts.parallel_open = true;
    ExpectIdentical(serial, fresh_recover(opts), "parallel open",
                    /*compare_log=*/true);
  }
  {  // Parallel redo inside every shard.
    ShardedHeapOptions opts = base;
    opts.shard_options.recovery_threads = 4;
    ExpectIdentical(serial, fresh_recover(opts), "redo threads 4",
                    /*compare_log=*/true);
  }
  for (uint32_t drain : {1u, 4u}) {  // Instant recovery, drained.
    ShardedHeapOptions opts = base;
    opts.parallel_open = true;
    opts.shard_options.instant_recovery = true;
    opts.shard_options.recovery_threads = drain;
    ExpectIdentical(serial, fresh_recover(opts),
                    ("instant drain " + std::to_string(drain)).c_str(),
                    /*compare_log=*/false);
  }
}

TEST(ShardedHeapTest, CrashRecoverResumeMid2pc) {
  ShardedHeapOptions opts = BaseOptions();
  Cluster cluster;
  InDoubtSetup setup = BuildCrashedCluster(&cluster, opts);

  // Reopen with resolution: the decided transfer commits exactly once,
  // the undecided one presumed-aborts, the grand total is conserved.
  auto reopened = cluster.Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<ShardedHeap> heap = std::move(*reopened);

  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(heap->shard(s)->InDoubtTransactions().empty())
        << "shard " << s << " still in doubt";
  }
  const ShardedHeapStats stats = heap->stats();
  EXPECT_EQ(stats.dtx.resolved_commit, 2u);  // two branches of gtid_decided
  EXPECT_EQ(stats.dtx.resolved_abort, 2u);   // two of gtid_undecided
  EXPECT_TRUE(heap->coordinator()->Committed(setup.decided));
  EXPECT_FALSE(heap->coordinator()->Committed(setup.undecided));
  EXPECT_EQ(*GrandTotal(heap.get()), kTotal);

  // The decided transfer's effects are visible (bucket 0 of shards 0/1,
  // accounts 20..23 moved 7 each); the undecided one's are rolled back
  // (bucket 1 of shards 1/2, accounts 30..33 untouched).
  GTxnId txn = *heap->Begin();
  GRef a0 = *heap->GetRoot(txn, 0);              // bucket 0, shard 0
  GRef a1 = *heap->GetRoot(txn, 1);              // bucket 0, shard 1
  GRef b1 = *heap->GetRoot(txn, kShards + 1);    // bucket 1, shard 1
  GRef b2 = *heap->GetRoot(txn, kShards + 2);    // bucket 1, shard 2
  EXPECT_EQ(*heap->ReadScalar(txn, a0, 20), kInitialBalance - 7);
  EXPECT_EQ(*heap->ReadScalar(txn, a0, 21), kInitialBalance + 7);
  EXPECT_EQ(*heap->ReadScalar(txn, a1, 22), kInitialBalance - 7);
  EXPECT_EQ(*heap->ReadScalar(txn, a1, 23), kInitialBalance + 7);
  EXPECT_EQ(*heap->ReadScalar(txn, b1, 30), kInitialBalance);
  EXPECT_EQ(*heap->ReadScalar(txn, b1, 31), kInitialBalance);
  EXPECT_EQ(*heap->ReadScalar(txn, b2, 32), kInitialBalance);
  EXPECT_EQ(*heap->ReadScalar(txn, b2, 33), kInitialBalance);
  ASSERT_TRUE(heap->CommitSync(txn).ok());

  // Resume: the recovered cluster accepts new single- and cross-shard
  // work, survives a full collection, and conserves the total.
  ASSERT_TRUE(Transfer(heap.get(), 0, 0, 1, 1, 25).ok());
  ASSERT_TRUE(Transfer(heap.get(), 2, 2, 2, 3, 5).ok());
  ASSERT_TRUE(heap->CollectStableFully().ok());
  EXPECT_EQ(*GrandTotal(heap.get()), kTotal);
}

TEST(ShardedHeapTest, ParallelOpenCostsTheSlowestShard) {
  ShardedHeapOptions opts = BaseOptions();
  Cluster cluster;
  BuildCrashedCluster(&cluster, opts);
  opts.parallel_open = true;
  auto heap = std::move(*cluster.Open(opts));
  const ShardedHeapStats stats = heap->stats();
  EXPECT_GT(stats.open_ns_max, 0u);
  EXPECT_GE(stats.open_ns_sum, stats.open_ns_max);
  // Three shards recovered: the serial path would pay the sum. With
  // comparable per-shard work the parallel span is well under it.
  EXPECT_LT(stats.open_ns_max, stats.open_ns_sum);
  // The rolled-up view maxes time-to-open (critical path) and sums the
  // rest.
  EXPECT_EQ(stats.total.recovery.time_to_open_ns, stats.open_ns_max);
  uint64_t summed = 0;
  for (const HeapStats& s : stats.per_shard) {
    summed += s.recovery.redo_records_applied;
  }
  EXPECT_EQ(stats.total.recovery.redo_records_applied, summed);
}

}  // namespace
}  // namespace sheap
