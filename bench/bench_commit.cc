// E11 — Commit cost: forcing the log per transaction vs group commit
// (paper §2.2.1 footnote 1: "A high performance transaction system will
// use group commit instead of forcing the log for every transaction").
// Debit-credit at several batch sizes; one force amortizes over the batch.
//
// Three commit disciplines over the same debit-credit workload:
//   force     — force_on_commit, one synchronous force per transaction;
//   manual-N  — explicit ForceLog() every N transactions (the seed's
//               group-commit idiom; durability is only at the batch call);
//   group     — the real commit queue: concurrent transactions join a
//               batch, Commit returns Busy until a batch leader's single
//               force covers the wave (every Commit OK is durable).

#include "bench_util.h"
#include "storage/sim_env.h"

using namespace sheap;
using namespace sheap::bench;
using workload::Bank;

namespace {

constexpr uint64_t kAccounts = 4096;  // 64 buckets of 64 accounts
constexpr uint64_t kWave = 64;        // concurrent committers in group mode
constexpr uint64_t kTransfers = 384;  // 6 full waves

StableHeapOptions BaseOptions() {
  StableHeapOptions opts;
  opts.stable_space_pages = 8192;
  opts.volatile_space_pages = 2048;
  return opts;
}

struct RunResult {
  double us_per_txn;
  uint64_t forces;
};

// Serial driver: Bank::Transfer per transaction, optional manual batches.
RunResult RunSerial(uint64_t batch) {
  SimEnv env;
  StableHeapOptions opts = BaseOptions();
  opts.force_on_commit = (batch == 1);
  auto heap = std::move(*StableHeap::Open(&env, opts));
  Bank bank(heap.get(), 0);
  BENCH_OK(bank.Setup(kAccounts, 1000));
  BENCH_OK(heap->ForceLog());

  Rng rng(31);
  const uint64_t forces_before = env.log()->stats().forces;
  const uint64_t start = env.clock()->now_ns();
  for (uint64_t i = 0; i < kTransfers; ++i) {
    const uint64_t from = rng.Uniform(kAccounts);
    const uint64_t to = (from + 1 + rng.Uniform(kAccounts - 1)) % kAccounts;
    BENCH_OK(bank.Transfer(from, to, 1));
    if (batch > 1 && i % batch == batch - 1) {
      BENCH_OK(heap->ForceLog());  // group-commit batch boundary
    }
  }
  if (batch > 1 && kTransfers % batch != 0) BENCH_OK(heap->ForceLog());
  const uint64_t elapsed = env.clock()->now_ns() - start;
  return RunResult{static_cast<double>(elapsed) / 1000 / kTransfers,
                   env.log()->stats().forces - forces_before};
}

// Group-commit driver: waves of kWave concurrent transactions, each
// debiting/crediting inside its own bucket (disjoint write sets), commits
// retried through the Busy protocol until the batch leader's force lands.
RunResult RunGroup() {
  SimEnv env;
  StableHeapOptions opts = BaseOptions();
  opts.force_on_commit = false;
  opts.group_commit = true;
  opts.group_commit_options.max_batch = kWave;
  auto heap = std::move(*StableHeap::Open(&env, opts));
  Bank bank(heap.get(), 0);
  BENCH_OK(bank.Setup(kAccounts, 1000));
  BENCH_OK(heap->ForceLog());

  const uint64_t forces_before = env.log()->stats().forces;
  const uint64_t start = env.clock()->now_ns();
  for (uint64_t wave = 0; wave < kTransfers / kWave; ++wave) {
    std::vector<TxnId> txns(kWave);
    // Interleaved low-level actions for the whole wave (paper §2.1), then
    // everyone commits into the same batch.
    for (uint64_t i = 0; i < kWave; ++i) {
      const uint64_t from = i * 64;  // bucket i: no lock conflicts
      const uint64_t to = from + 1;
      const TxnId txn = BENCH_VAL(heap->Begin());
      txns[i] = txn;
      Ref dir = BENCH_VAL(heap->GetRoot(txn, 0));
      Ref bucket = BENCH_VAL(heap->ReadRef(txn, dir, from / 64));
      const uint64_t fbal = BENCH_VAL(heap->ReadScalar(txn, bucket, from % 64));
      const uint64_t tbal = BENCH_VAL(heap->ReadScalar(txn, bucket, to % 64));
      BENCH_OK(heap->WriteScalar(txn, bucket, from % 64, fbal - 1));
      BENCH_OK(heap->WriteScalar(txn, bucket, to % 64, tbal + 1));
    }
    std::vector<bool> done(kWave, false);
    uint64_t remaining = kWave;
    while (remaining > 0) {
      for (uint64_t i = 0; i < kWave; ++i) {
        if (done[i]) continue;
        Status st = heap->Commit(txns[i]);
        if (st.ok()) {
          done[i] = true;
          --remaining;
        } else if (!st.IsBusy()) {
          BENCH_OK(st);
        }
      }
    }
  }
  const uint64_t elapsed = env.clock()->now_ns() - start;
  const uint64_t total = BENCH_VAL(bank.TotalBalance());
  if (total != kAccounts * 1000) {
    std::fprintf(stderr, "balance invariant broken: %llu\n",
                 (unsigned long long)total);
    std::abort();
  }
  return RunResult{static_cast<double>(elapsed) / 1000 / kTransfers,
                   env.log()->stats().forces - forces_before};
}

}  // namespace

int main() {
  Header("E11  commit cost: per-transaction force vs group commit",
         "the synchronous force dominates commit; batching divides it");
  JsonBench("commit");
  Row("  %-14s %14s %12s", "mode", "us/txn(sim)", "forces");

  std::vector<double> us_per_txn;
  for (uint64_t batch : {1u, 4u, 16u, 64u}) {
    const RunResult r = RunSerial(batch);
    const std::string mode =
        batch == 1 ? "force" : "manual-" + std::to_string(batch);
    Row("  %-14s %14.1f %12llu", mode.c_str(), r.us_per_txn,
        (unsigned long long)r.forces);
    EmitMetric(batch == 1 ? "force_us_per_txn"
                          : "manual" + std::to_string(batch) + "_us_per_txn",
               r.us_per_txn, "us/txn");
    us_per_txn.push_back(r.us_per_txn);
  }
  const RunResult group = RunGroup();
  Row("  %-14s %14.1f %12llu", "group", group.us_per_txn,
      (unsigned long long)group.forces);
  EmitMetric("group_us_per_txn", group.us_per_txn, "us/txn");
  EmitMetric("group_forces", static_cast<double>(group.forces), "forces");

  const double force_us = us_per_txn.front();
  const double manual64_us = us_per_txn.back();
  EmitMetric("group_vs_force_speedup", force_us / group.us_per_txn, "x");
  EmitMetric("group_over_manual64_ratio", group.us_per_txn / manual64_us, "x");

  ShapeCheck(manual64_us * 4 < force_us,
             "manual batching (64) cuts per-transaction cost by >4x");
  bool monotone = true;
  for (size_t i = 1; i < us_per_txn.size(); ++i) {
    if (us_per_txn[i] > us_per_txn[i - 1] * 1.2) monotone = false;
  }
  ShapeCheck(monotone, "per-transaction cost falls as batches grow");
  ShapeCheck(group.us_per_txn * 4 < force_us,
             "group commit is >=4x faster than per-transaction force");
  ShapeCheck(group.us_per_txn <= manual64_us * 1.5,
             "group commit within 1.5x of the manual batch-64 baseline");
  return Finish();
}
