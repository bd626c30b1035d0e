// Unit tests for the deterministic fault-injection framework: transient
// device errors with bounded retry/backoff, retry-budget exhaustion
// surfacing typed IOErrors, CRC32C-detected bit rot reported as Corruption,
// crash points latching the machine dead, and the FaultStats counters that
// StableHeap::stats() aggregates.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "core/stable_heap.h"
#include "fault/fault_injector.h"
#include "storage/sim_env.h"
#include "workload/workloads.h"

namespace sheap {
namespace {

using workload::Bank;

StableHeapOptions SmallOptions() {
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 128;
  return opts;
}

FaultSpec TransientFault(const char* site, uint64_t hit, uint64_t count) {
  FaultSpec spec;
  spec.point = site;
  spec.kind = FaultKind::kTransientError;
  spec.hit = hit;
  spec.count = count;
  return spec;
}

FaultSpec CrashFault(const char* point, uint64_t hit = 1) {
  FaultSpec spec;
  spec.point = point;
  spec.kind = FaultKind::kCrash;
  spec.hit = hit;
  return spec;
}

// --------------------------------------------------------- device level

TEST(FaultInjectorTest, TransientReadErrorIsRetriedByBufferPool) {
  SimEnv env;
  PageImage image;
  image.data[0] = 0xAB;
  ASSERT_TRUE(env.disk()->WritePage(7, image).ok());

  // Fail the next two reads of any page; the third attempt succeeds.
  env.faults()->Arm(TransientFault("disk.read", 1, 2));

  BufferPool::Hooks hooks;
  hooks.flush_log_to = [](Lsn) { return Status::OK(); };
  BufferPool pool(env.disk(), 16, std::move(hooks));
  auto frame = pool.Pin(7);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ((*frame)->data[0], 0xAB);
  pool.Unpin(7);

  const FaultStats& fs = env.faults()->stats();
  EXPECT_EQ(fs.armed, 1u);
  EXPECT_EQ(fs.fired, 2u);      // two failing attempts
  EXPECT_EQ(fs.retried, 2u);    // two backoff retries
  EXPECT_EQ(fs.exhausted, 0u);
}

TEST(FaultInjectorTest, RetryBudgetExhaustionSurfacesIOError) {
  SimEnv env;
  // More consecutive failures than the retry budget tolerates.
  env.faults()->Arm(TransientFault("disk.read", 1, kMaxIoRetries + 5));

  BufferPool::Hooks hooks;
  hooks.flush_log_to = [](Lsn) { return Status::OK(); };
  BufferPool pool(env.disk(), 16, std::move(hooks));
  auto frame = pool.Pin(3);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsIOError()) << frame.status().ToString();

  const FaultStats& fs = env.faults()->stats();
  EXPECT_EQ(fs.retried, static_cast<uint64_t>(kMaxIoRetries));
  EXPECT_EQ(fs.exhausted, 1u);
}

TEST(FaultInjectorTest, TransientWriteErrorIsRetriedOnWriteBack) {
  SimEnv env;
  env.faults()->Arm(TransientFault("disk.write", 1, 1));
  BufferPool::Hooks hooks;
  hooks.flush_log_to = [](Lsn) { return Status::OK(); };
  BufferPool pool(env.disk(), 16, std::move(hooks));
  auto frame = pool.Pin(5);
  ASSERT_TRUE(frame.ok());
  pool.MarkDirtyUnlogged(5);
  pool.Unpin(5);
  ASSERT_TRUE(pool.WriteBack(5).ok());
  EXPECT_TRUE(env.disk()->Exists(5));
  EXPECT_EQ(env.faults()->stats().retried, 1u);
}

TEST(FaultInjectorTest, BitRotIsDetectedAsCorruption) {
  SimEnv env;
  PageImage image;
  image.data[100] = 0x5A;
  ASSERT_TRUE(env.disk()->WritePage(9, image).ok());

  FaultSpec rot;
  rot.point = "disk.read";
  rot.kind = FaultKind::kBitRot;
  rot.hit = 0;  // fire on the next read
  rot.page = 9;
  env.faults()->Arm(rot);

  PageImage out;
  Status s = env.disk()->ReadPage(9, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(env.disk()->stats().crc_failures, 1u);
}

TEST(FaultInjectorTest, CorruptPageHookFlipsOneBit) {
  SimEnv env;
  PageImage image;
  ASSERT_TRUE(env.disk()->WritePage(2, image).ok());
  env.disk()->CorruptPage(2, /*bit_index=*/13);
  PageImage out;
  Status s = env.disk()->ReadPage(2, &out);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // An untouched page still reads fine.
  PageImage other;
  ASSERT_TRUE(env.disk()->WritePage(4, other).ok());
  EXPECT_TRUE(env.disk()->ReadPage(4, &other).ok());
}

TEST(FaultInjectorTest, PageFilterRestrictsFault) {
  SimEnv env;
  FaultSpec spec = TransientFault("disk.write", 1, 100);
  spec.page = 42;  // only page 42 fails
  env.faults()->Arm(spec);
  PageImage image;
  EXPECT_TRUE(env.disk()->WritePage(41, image).ok());
  EXPECT_TRUE(env.disk()->WritePage(42, image).IsIOError());
}

TEST(FaultInjectorTest, CrashTearIsSafeAgainstAConcurrentAppend) {
  // A crash fired on one thread tears the log tail while another thread
  // is still appending to the device (a mutator's commit force). The tear
  // runs under the device's lock, not the injector's, so the two are
  // ordered; a ThreadSanitizer build reports any unordered access.
  SimEnv env;
  FaultSpec spec = CrashFault("test.tear.point");
  spec.tear_tail_bytes = 16;
  env.faults()->Arm(spec);
  std::atomic<bool> started{false};
  std::thread appender([&env, &started] {
    const uint8_t bytes[8] = {};
    for (int i = 0; i < 20000; ++i) {
      SHEAP_CHECK_OK(env.log()->Append(bytes, sizeof(bytes)));
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) {
  }
  EXPECT_TRUE(env.faults()->OnPoint("test.tear.point").IsCrashed());
  appender.join();
  EXPECT_TRUE(env.faults()->crash_fired());
  EXPECT_LE(env.log()->size(), 20000u * 8);
}

// ----------------------------------------------------------- heap level

TEST(FaultInjectorTest, LogAppendFaultIsRetriedByLogWriter) {
  auto env = std::make_unique<SimEnv>();
  auto heap = StableHeap::Open(env.get(), SmallOptions());
  ASSERT_TRUE(heap.ok());

  Bank bank(heap->get(), 0);
  ASSERT_TRUE(bank.Setup(8, 100).ok());

  // The next stable-log append fails once; the flush retry carries it out.
  uint64_t appends_so_far = 0;
  for (const auto& [site, hits] : env->faults()->IoSites()) {
    if (site == "log.append") appends_so_far = hits;
  }
  env->faults()->Arm(TransientFault("log.append", appends_so_far + 1, 1));

  ASSERT_TRUE(bank.Transfer(0, 1, 5).ok());
  ASSERT_TRUE((*heap)->ForceLog().ok());
  EXPECT_GE(env->faults()->stats().retried, 1u);
  EXPECT_EQ(*bank.BalanceOf(1), 105u);
}

TEST(FaultInjectorTest, CrashPointKillsHeapUntilReopen) {
  auto env = std::make_unique<SimEnv>();
  auto opened = StableHeap::Open(env.get(), SmallOptions());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<StableHeap> heap = std::move(*opened);

  Bank bank(heap.get(), 0);
  ASSERT_TRUE(bank.Setup(8, 100).ok());

  // Crash at the next commit-spooled point (commit record not forced).
  uint64_t hits = 0;
  for (const auto& [point, count] : env->faults()->Points()) {
    if (point == "txn.commit.logged") hits = count;
  }
  env->faults()->Arm(CrashFault("txn.commit.logged", hits + 1));

  Status s = bank.Transfer(0, 1, 30);
  ASSERT_TRUE(s.IsCrashed()) << s.ToString();
  EXPECT_TRUE(env->faults()->crash_fired());
  EXPECT_EQ(env->faults()->crash_point(), "txn.commit.logged");
  // Every subsequent operation refuses to run.
  EXPECT_TRUE(heap->Begin().status().IsCrashed());
  EXPECT_TRUE(heap->Checkpoint().IsCrashed());

  // Reopen on the same environment: the un-forced commit is rolled back.
  heap.reset();
  auto reopened = StableHeap::Open(env.get(), SmallOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(env->faults()->crash_fired());
  Bank after(reopened->get(), 0);
  ASSERT_TRUE(after.Attach().ok());
  EXPECT_EQ(*after.TotalBalance(), 8u * 100);
  EXPECT_EQ(*after.BalanceOf(0), 100u);
}

TEST(FaultInjectorTest, TracingEnumeratesPointsWithoutFiring) {
  auto env = std::make_unique<SimEnv>();
  env->faults()->set_tracing(true);
  env->faults()->Arm(CrashFault("txn.commit.logged", 1));

  auto heap = StableHeap::Open(env.get(), SmallOptions());
  ASSERT_TRUE(heap.ok());
  Bank bank(heap->get(), 0);
  ASSERT_TRUE(bank.Setup(8, 100).ok());    // commits; crash must NOT fire
  ASSERT_TRUE(bank.Transfer(0, 1, 5).ok());

  EXPECT_EQ(env->faults()->stats().fired, 0u);
  EXPECT_FALSE(env->faults()->crash_fired());
  const auto points = env->faults()->Points();
  EXPECT_FALSE(points.empty());
  bool saw_commit = false;
  for (const auto& [point, hit_count] : points) {
    if (point == "txn.commit.logged") {
      saw_commit = true;
      EXPECT_GE(hit_count, 2u);
    }
  }
  EXPECT_TRUE(saw_commit);
}

TEST(FaultInjectorTest, HeapStatsExposeFaultCounters) {
  auto env = std::make_unique<SimEnv>();
  auto heap = StableHeap::Open(env.get(), SmallOptions());
  ASSERT_TRUE(heap.ok());
  Bank bank(heap->get(), 0);
  ASSERT_TRUE(bank.Setup(8, 100).ok());

  env->faults()->Arm(TransientFault("disk.write", 1000000, 1));  // never hit
  HeapStats stats = (*heap)->stats();
  EXPECT_EQ(stats.fault.armed, 1u);
  EXPECT_EQ(stats.fault.fired, 0u);
  EXPECT_GT(stats.fault.points_hit, 0u);
  EXPECT_GT(stats.log_device.bytes_appended, 0u);
}

}  // namespace
}  // namespace sheap
