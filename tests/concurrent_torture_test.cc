// Concurrent-mutator torture (DESIGN.md §5i): real OS threads drive
// transactions through one StableHeap with mutator_threads > 1, racing an
// in-flight incremental collection, lock conflicts on shared objects, and
// an injected crash mid-run. The concurrency contract is serializability
// plus invariants — not byte determinism — so these tests assert
// conservation, atomicity, and reachability after the dust settles:
//   * a Begin storm allocates globally unique transaction ids,
//   * randomized transfers (private + contended shared arrays) conserve
//     every balance while thread 0 steps a stable collection,
//   * a crash at a random concurrent commit recovers to a state where
//     every transfer was all-or-nothing.
// This binary also runs under ThreadSanitizer in CI (the tsan job), which
// is the real referee for the gate/queue/barrier memory orderings.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/stable_heap.h"
#include "workload/graph_gen.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

constexpr uint64_t kAccounts = 32;
constexpr uint64_t kInitBalance = 100;

StableHeapOptions ConcurrentOptions(uint32_t threads) {
  StableHeapOptions opts;
  opts.stable_space_pages = 512;
  opts.volatile_space_pages = 128;
  opts.divided_heap = false;
  opts.mutator_threads = threads;
  opts.group_commit = true;
  opts.group_commit_options.max_batch = 8;
  opts.group_commit_options.close_after_polls = 4;
  return opts;
}

/// Commit with the group-commit Busy retry protocol; returns the first
/// non-Busy status (OK, Crashed, ...).
Status CommitRetry(StableHeap* heap, TxnId txn) {
  for (;;) {
    Status st = heap->Commit(txn);
    if (!st.IsBusy()) return st;
  }
}

TEST(ConcurrentTortureTest, BeginStormAllocatesUniqueIds) {
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kBeginsPerThread = 256;
  auto env = std::make_unique<SimEnv>();
  auto heap_or = StableHeap::Open(env.get(), ConcurrentOptions(kThreads));
  ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*heap_or);

  std::vector<std::vector<TxnId>> ids(kThreads);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      ids[t].reserve(kBeginsPerThread);
      for (uint32_t i = 0; i < kBeginsPerThread; ++i) {
        auto txn = heap->Begin();
        ASSERT_TRUE(txn.ok()) << txn.status().ToString();
        ids[t].push_back(*txn);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Globally unique ids, and every one of them is a live, abortable
  // transaction (i.e. it landed in the manager, not just in a counter).
  std::set<TxnId> unique;
  for (const auto& v : ids) unique.insert(v.begin(), v.end());
  EXPECT_EQ(unique.size(), kThreads * kBeginsPerThread);
  for (const auto& v : ids) {
    for (TxnId id : v) {
      EXPECT_TRUE(heap->Abort(id).ok());
    }
  }
}

class TortureRig {
 public:
  /// Worker-side operation wrapper: Busy lock conflicts retry the op after
  /// a yield, Deadlock/Aborted abort the whole transaction (caller retries
  /// it), Crashed stops the worker.
  enum class Outcome { kOk, kRetryTxn, kStop };

  static Outcome Classify(StableHeap* heap, TxnId txn, const Status& st,
                          std::atomic<uint64_t>* deadlocks) {
    if (st.ok()) return Outcome::kOk;
    if (st.IsCrashed()) return Outcome::kStop;
    if (st.IsDeadlock() || st.IsAborted()) {
      if (st.IsDeadlock()) deadlocks->fetch_add(1, std::memory_order_relaxed);
      Status abort_st = heap->Abort(txn);
      (void)abort_st;  // Crashed/Aborted here is fine; the txn is dead
      return Outcome::kRetryTxn;
    }
    ADD_FAILURE() << "unexpected status: " << st.ToString();
    return Outcome::kStop;
  }
};

/// Retry `op` through Busy conflicts. Returns kOk/kRetryTxn/kStop.
template <typename Op>
TortureRig::Outcome RunOp(StableHeap* heap, TxnId txn, Op op,
                          std::atomic<uint64_t>* deadlocks) {
  for (;;) {
    Status st = op();
    if (st.IsBusy()) {
      std::this_thread::yield();
      continue;
    }
    return TortureRig::Classify(heap, txn, st, deadlocks);
  }
}

struct Lcg {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

TEST(ConcurrentTortureTest, TransfersVsConcurrentGcConserveEveryBalance) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kTxnsPerThread = 120;
  constexpr uint32_t kSharedArrays = 2;  // contended: roots kThreads..+1
  auto env = std::make_unique<SimEnv>();
  auto heap_or = StableHeap::Open(env.get(), ConcurrentOptions(kThreads));
  ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
  std::unique_ptr<StableHeap> heap = std::move(*heap_or);

  auto cls_or = heap->RegisterClass(std::vector<bool>(kAccounts, false));
  ASSERT_TRUE(cls_or.ok());
  const ClassId cls = *cls_or;
  auto plant_array = [&](uint64_t root) {
    auto txn = heap->Begin();
    ASSERT_TRUE(txn.ok());
    auto arr = heap->Allocate(*txn, cls, kAccounts);
    ASSERT_TRUE(arr.ok());
    for (uint64_t a = 0; a < kAccounts; ++a) {
      ASSERT_TRUE(heap->WriteScalar(*txn, *arr, a, kInitBalance).ok());
    }
    ASSERT_TRUE(heap->SetRoot(*txn, root, *arr).ok());
    ASSERT_TRUE(CommitRetry(heap.get(), *txn).ok());
  };
  for (uint32_t t = 0; t < kThreads + kSharedArrays; ++t) plant_array(t);
  // Live list data so the collection has real copy/scan work.
  auto node_cls = workload::RegisterNodeClass(heap.get(), 2);
  ASSERT_TRUE(node_cls.ok());
  for (uint32_t l = 0; l < 4; ++l) {
    auto txn = heap->Begin();
    ASSERT_TRUE(txn.ok());
    auto head = workload::BuildList(heap.get(), *txn, *node_cls, 64);
    ASSERT_TRUE(head.ok());
    ASSERT_TRUE(heap->SetRoot(*txn, 16 + l, *head).ok());
    ASSERT_TRUE(CommitRetry(heap.get(), *txn).ok());
  }
  ASSERT_TRUE(heap->StartStableCollection().ok());

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> deadlocks{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      Lcg rng{4242 + t * 7919ull};
      for (uint32_t i = 0; i < kTxnsPerThread; ++i) {
        // Every third transaction transfers between the two shared arrays
        // in random order (lock conflicts + upgrade deadlocks); the rest
        // stay on this thread's private array.
        const bool shared = i % 3 == 2;
        // Retry until the transfer commits: liveness is the scheduler's
        // business (under TSan a thread can lose dozens of deadlock races
        // in a row), conservation is ours. Victims back off so a deadlock
        // storm between the shared arrays cannot spin forever.
        bool done = false;
        for (uint32_t attempt = 0; !done; ++attempt) {
          if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(50 * std::min<uint32_t>(attempt, 8)));
          }
          auto txn_or = heap->Begin();
          if (!txn_or.ok()) return;  // crashed
          const TxnId txn = *txn_or;
          uint64_t r1 = t, r2 = t;
          if (shared) {
            r1 = kThreads + rng.Next() % kSharedArrays;
            r2 = kThreads + rng.Next() % kSharedArrays;
          }
          const uint64_t from = rng.Next() % kAccounts;
          const uint64_t to = rng.Next() % kAccounts;
          Ref a1 = kNullRef, a2 = kNullRef;
          uint64_t fbal = 0, tbal = 0;
          auto body = [&]() -> TortureRig::Outcome {
            auto step = [&](auto op) {
              return RunOp(heap.get(), txn, op, &deadlocks);
            };
            TortureRig::Outcome o;
            o = step([&]() -> Status {
              auto r = heap->GetRoot(txn, r1);
              if (r.ok()) a1 = *r;
              return r.status();
            });
            if (o != TortureRig::Outcome::kOk) return o;
            o = step([&]() -> Status {
              auto r = heap->GetRoot(txn, r2);
              if (r.ok()) a2 = *r;
              return r.status();
            });
            if (o != TortureRig::Outcome::kOk) return o;
            o = step([&]() -> Status {
              auto r = heap->ReadScalar(txn, a1, from);
              if (r.ok()) fbal = *r;
              return r.status();
            });
            if (o != TortureRig::Outcome::kOk) return o;
            o = step([&]() -> Status {
              auto r = heap->ReadScalar(txn, a2, to);
              if (r.ok()) tbal = *r;
              return r.status();
            });
            if (o != TortureRig::Outcome::kOk) return o;
            // Same underlying slot iff same root AND same index: two
            // GetRoot calls can hand back distinct handles for one object,
            // so comparing a1 == a2 would miss the aliasing.
            if (r1 == r2 && from == to) {
              return step([&]() { return heap->WriteScalar(txn, a1, from,
                                                           fbal); });
            }
            o = step([&]() {
              return heap->WriteScalar(txn, a1, from, fbal - 1);
            });
            if (o != TortureRig::Outcome::kOk) return o;
            return step([&]() {
              return heap->WriteScalar(txn, a2, to, tbal + 1);
            });
          };
          TortureRig::Outcome o = body();
          if (o == TortureRig::Outcome::kStop) return;
          if (o == TortureRig::Outcome::kRetryTxn) continue;
          Status st = CommitRetry(heap.get(), txn);
          if (st.ok()) {
            committed.fetch_add(1, std::memory_order_relaxed);
            done = true;
          } else if (st.IsCrashed()) {
            return;
          } else {
            // Commit-side abort (e.g. deadlock during promotion): retry.
            continue;
          }
        }
        if (t == 0 && i % 8 == 7) {
          ASSERT_TRUE(heap->StepStableCollection(2).ok());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(committed.load(), kThreads * kTxnsPerThread);
  EXPECT_GT(heap->gate_stats().handshakes, 0u);

  // Full-heap invariants, twice: as-left by the race, and again after the
  // collection finishes (objects moved, from-space freed).
  auto audit = [&]() {
    uint64_t total = 0;
    auto txn = heap->Begin();
    ASSERT_TRUE(txn.ok());
    for (uint32_t r = 0; r < kThreads + kSharedArrays; ++r) {
      auto arr = heap->GetRoot(*txn, r);
      ASSERT_TRUE(arr.ok()) << arr.status().ToString();
      for (uint64_t a = 0; a < kAccounts; ++a) {
        auto bal = heap->ReadScalar(*txn, *arr, a);
        ASSERT_TRUE(bal.ok()) << bal.status().ToString();
        total += *bal;
      }
    }
    // The planted lists are still fully reachable.
    for (uint32_t l = 0; l < 4; ++l) {
      auto head = heap->GetRoot(*txn, 16 + l);
      ASSERT_TRUE(head.ok());
      Ref node = *head;
      uint32_t len = 0;
      while (node != kNullRef && len <= 64) {
        auto next = heap->ReadRef(*txn, node, 1);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        node = *next;
        ++len;
      }
      EXPECT_EQ(len, 64u);
    }
    ASSERT_TRUE(CommitRetry(heap.get(), *txn).ok());
    EXPECT_EQ(total,
              (kThreads + kSharedArrays) * kAccounts * kInitBalance);
  };
  audit();
  ASSERT_TRUE(heap->CollectStableFully().ok());
  audit();
}

#if SHEAP_FAULT_INJECTION
TEST(ConcurrentTortureTest, CrashAtRandomConcurrentCommitRecoversAtomically) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kTxnsPerThread = 100;
  auto env = std::make_unique<SimEnv>();
  auto heap_or = StableHeap::Open(env.get(), ConcurrentOptions(kThreads));
  ASSERT_TRUE(heap_or.ok());
  std::unique_ptr<StableHeap> heap = std::move(*heap_or);

  auto cls_or = heap->RegisterClass(std::vector<bool>(kAccounts, false));
  ASSERT_TRUE(cls_or.ok());
  for (uint32_t t = 0; t < kThreads; ++t) {
    auto txn = heap->Begin();
    ASSERT_TRUE(txn.ok());
    auto arr = heap->Allocate(*txn, *cls_or, kAccounts);
    ASSERT_TRUE(arr.ok());
    for (uint64_t a = 0; a < kAccounts; ++a) {
      ASSERT_TRUE(heap->WriteScalar(*txn, *arr, a, kInitBalance).ok());
    }
    ASSERT_TRUE(heap->SetRoot(*txn, t, *arr).ok());
    ASSERT_TRUE(CommitRetry(heap.get(), *txn).ok());
  }

  // Crash at a "random" (fixed-seed) dynamic hit of the commit window
  // (record spooled, not forced), somewhere in the middle of the run.
  FaultSpec crash;
  crash.point = "txn.commit.logged";
  crash.kind = FaultKind::kCrash;
  crash.hit = 37;
  crash.tear_tail_bytes = 1500;
  env->faults()->Arm(crash);

  std::atomic<uint64_t> deadlocks{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      Lcg rng{1000 + t * 31ull};
      for (uint32_t i = 0; i < kTxnsPerThread; ++i) {
        auto txn_or = heap->Begin();
        if (!txn_or.ok()) return;
        const TxnId txn = *txn_or;
        const uint64_t from = rng.Next() % kAccounts;
        const uint64_t to = rng.Next() % kAccounts;
        Ref arr = kNullRef;
        uint64_t fbal = 0, tbal = 0;
        auto get = [&]() -> Status {
          auto r = heap->GetRoot(txn, t);
          if (r.ok()) arr = *r;
          return r.status();
        };
        if (RunOp(heap.get(), txn, get, &deadlocks) !=
            TortureRig::Outcome::kOk) {
          return;
        }
        auto rd1 = [&]() -> Status {
          auto r = heap->ReadScalar(txn, arr, from);
          if (r.ok()) fbal = *r;
          return r.status();
        };
        auto rd2 = [&]() -> Status {
          auto r = heap->ReadScalar(txn, arr, to);
          if (r.ok()) tbal = *r;
          return r.status();
        };
        if (RunOp(heap.get(), txn, rd1, &deadlocks) !=
                TortureRig::Outcome::kOk ||
            RunOp(heap.get(), txn, rd2, &deadlocks) !=
                TortureRig::Outcome::kOk) {
          return;
        }
        Status ws;
        if (from == to) {
          ws = heap->WriteScalar(txn, arr, from, fbal);
        } else {
          ws = heap->WriteScalar(txn, arr, from, fbal - 1);
          if (ws.ok()) ws = heap->WriteScalar(txn, arr, to, tbal + 1);
        }
        if (!ws.ok()) return;
        if (!CommitRetry(heap.get(), txn).ok()) return;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(env->faults()->crash_fired());

  // Finalize the crash (partial write-back, torn tail), reopen — still in
  // concurrent mode — and check atomicity: transfers touched only a
  // thread's own array, so every array must sum to exactly its initial
  // total, committed transfers included, torn ones rolled back whole.
  ASSERT_TRUE(heap->SimulateCrash(CrashOptions{0.5, 97, 0}).ok());
  heap.reset();
  heap_or = StableHeap::Open(env.get(), ConcurrentOptions(kThreads));
  ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
  heap = std::move(*heap_or);
  auto txn = heap->Begin();
  ASSERT_TRUE(txn.ok());
  for (uint32_t t = 0; t < kThreads; ++t) {
    auto arr = heap->GetRoot(*txn, t);
    ASSERT_TRUE(arr.ok()) << arr.status().ToString();
    uint64_t total = 0;
    for (uint64_t a = 0; a < kAccounts; ++a) {
      auto bal = heap->ReadScalar(*txn, *arr, a);
      ASSERT_TRUE(bal.ok()) << bal.status().ToString();
      total += *bal;
    }
    EXPECT_EQ(total, kAccounts * kInitBalance) << "array " << t;
  }
  ASSERT_TRUE(CommitRetry(heap.get(), *txn).ok());
}
#endif  // SHEAP_FAULT_INJECTION

}  // namespace
}  // namespace sheap
