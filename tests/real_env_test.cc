// Real-backend tests (ctest -L real): the properties that only mean
// something on actual hardware.
//
//  - Durability across a *process* kill: a child opens a heap on RealEnv,
//    commits counter increments, and records each commit-OK in a synced
//    sidecar file; the parent SIGKILLs it at a randomized point, reopens
//    the same directory, and asserts recovery preserves every acknowledged
//    commit. The simulator's crash matrix proves the protocol; this proves
//    the protocol's mapping onto fdatasync.
//  - O_DIRECT alignment fallback: the page store round-trips and persists
//    whether the filesystem grants O_DIRECT or refuses it (tmpfs), and the
//    stats say which path served the I/O.
//  - SIGSEGV handler: concurrent traps from many threads, repeated
//    protect/trap cycles, and — in a death-test child — a genuine wild
//    fault still ending the process (the handler must not swallow crashes
//    that are not read-barrier traps).

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/stable_heap.h"
#include "storage/real_disk.h"
#include "storage/real_env.h"
#include "storage/real_log_device.h"
#include "storage/real_mapping.h"

#if defined(__SANITIZE_ADDRESS__)
#define SHEAP_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SHEAP_TEST_ASAN 1
#endif
#endif

namespace sheap {
namespace {

std::string TestDir(const std::string& tag) {
  std::filesystem::path p = std::filesystem::temp_directory_path() /
                            ("sheap_real_test." + std::to_string(::getpid())) /
                            tag;
  std::error_code ec;
  std::filesystem::remove_all(p, ec);
  std::filesystem::create_directories(p, ec);
  return p.string();
}

std::unique_ptr<RealEnv> MustEnv(const std::string& dir,
                                 bool hardware_barrier = false) {
  RealEnvOptions opts;
  opts.dir = dir;
  opts.hardware_barrier = hardware_barrier;
  auto env = RealEnv::Create(opts);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  return std::move(env.value());
}

StableHeapOptions SmallHeapOptions() {
  StableHeapOptions opts;
  opts.stable_space_pages = 256;
  opts.volatile_space_pages = 64;
  opts.divided_heap = false;
  return opts;
}

// ------------------------------------------------------------- RealDisk

TEST(RealDiskTest, RoundTripsAndPersistsAcrossReopen) {
  const std::string dir = TestDir("disk-roundtrip");
  SimClock clock;
  FaultInjector faults;
  auto disk = RealDisk::Open(dir + "/pages.db", /*direct_io=*/true, &clock,
                             &faults);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  PageImage img;
  img.WriteWord(5, 0xfeedface);
  img.page_lsn = 41;
  ASSERT_TRUE((*disk)->WritePage(7, img).ok());
  PageImage out;
  ASSERT_TRUE((*disk)->ReadPage(7, &out).ok());
  EXPECT_EQ(out.ReadWord(5), 0xfeedfaceu);
  EXPECT_EQ(out.page_lsn, 41u);

  // Exactly one of the two paths served the write, and the stats admit
  // which (tmpfs refuses O_DIRECT; ext4 grants it — both are correct).
  const DiskStats st = (*disk)->stats();
  EXPECT_EQ(st.page_writes, 1u);
  if ((*disk)->direct_io()) {
    EXPECT_GT(st.direct_io_writes, 0u);
    EXPECT_EQ(st.buffered_fallbacks, 0u);
  } else {
    EXPECT_EQ(st.direct_io_writes, 0u);
    EXPECT_GT(st.buffered_fallbacks, 0u);
  }

  disk->reset();  // close
  auto reopened = RealDisk::Open(dir + "/pages.db", true, &clock, &faults);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Exists(7));
  EXPECT_EQ((*reopened)->PageCount(), 1u);
  PageImage again;
  ASSERT_TRUE((*reopened)->ReadPage(7, &again).ok());
  EXPECT_EQ(again.ReadWord(5), 0xfeedfaceu);
  EXPECT_EQ(again.page_lsn, 41u);
}

TEST(RealDiskTest, BufferedModeRoundTripsToo) {
  const std::string dir = TestDir("disk-buffered");
  SimClock clock;
  FaultInjector faults;
  auto disk = RealDisk::Open(dir + "/pages.db", /*direct_io=*/false, &clock,
                             &faults);
  ASSERT_TRUE(disk.ok());
  EXPECT_FALSE((*disk)->direct_io());
  PageImage img;
  img.WriteWord(0, 123);
  ASSERT_TRUE((*disk)->WritePage(0, img).ok());
  ASSERT_TRUE((*disk)->WritePage(3, img).ok());
  (*disk)->DropPage(0);
  PageImage out;
  ASSERT_TRUE((*disk)->ReadPage(0, &out).ok());
  EXPECT_EQ(out.ReadWord(0), 0u);  // dropped pages read fresh
  EXPECT_FALSE((*disk)->Exists(0));
  EXPECT_TRUE((*disk)->Exists(3));
}

TEST(RealDiskTest, UnwrittenPagesReadZero) {
  const std::string dir = TestDir("disk-fresh");
  SimClock clock;
  FaultInjector faults;
  auto disk = RealDisk::Open(dir + "/pages.db", true, &clock, &faults);
  ASSERT_TRUE(disk.ok());
  PageImage out;
  ASSERT_TRUE((*disk)->ReadPage(99, &out).ok());
  EXPECT_EQ(out.page_lsn, kInvalidLsn);
  for (uint32_t w = 0; w < kWordsPerPage; ++w) {
    ASSERT_EQ(out.ReadWord(w), 0u);
  }
  EXPECT_EQ(disk.value()->stats().fresh_reads, 1u);
}

// -------------------------------------------------------- RealLogDevice

TEST(RealLogDeviceTest, DurableBarrierSurvivesReopenStagedBytesDoNot) {
  const std::string dir = TestDir("log-barrier");
  SimClock clock;
  FaultInjector faults;
  auto log = RealLogDevice::Open(dir + "/wal", &clock, &faults);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const uint8_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE((*log)->Append(a, 8).ok());
  (*log)->MarkDurableBarrier();
  EXPECT_EQ((*log)->durable_barrier(), 8u);
  const uint8_t b[4] = {9, 9, 9, 9};
  ASSERT_TRUE((*log)->Append(b, 4).ok());  // staged, never synced
  EXPECT_EQ((*log)->size(), 12u);
  (*log)->SetMasterLsn(42);

  // Reopen without Force: the staged suffix dies with the process image,
  // the synced prefix and the master record survive.
  log->reset();
  auto reopened = RealLogDevice::Open(dir + "/wal", &clock, &faults);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->size(), 8u);
  EXPECT_EQ((*reopened)->durable_barrier(), 8u);
  EXPECT_EQ((*reopened)->master_lsn(), 42u);
  uint8_t out[8];
  ASSERT_TRUE((*reopened)->ReadAt(0, 8, out).ok());
  EXPECT_EQ(0, std::memcmp(out, a, 8));
}

TEST(RealLogDeviceTest, TearTailClampsAtDurableBarrier) {
  const std::string dir = TestDir("log-tear");
  SimClock clock;
  FaultInjector faults;
  auto log = RealLogDevice::Open(dir + "/wal", &clock, &faults);
  ASSERT_TRUE(log.ok());
  uint8_t bytes[16] = {};
  ASSERT_TRUE((*log)->Append(bytes, 10).ok());
  (*log)->MarkDurableBarrier();
  ASSERT_TRUE((*log)->Append(bytes, 6).ok());
  (*log)->TearTail(100);  // wants everything; clamped at the barrier
  EXPECT_EQ((*log)->size(), 10u);
}

TEST(RealLogDeviceTest, ForceCountsRealSyncs) {
  const std::string dir = TestDir("log-force");
  SimClock clock;
  FaultInjector faults;
  auto log = RealLogDevice::Open(dir + "/wal", &clock, &faults);
  ASSERT_TRUE(log.ok());
  uint8_t bytes[64] = {7};
  ASSERT_TRUE((*log)->Append(bytes, 64).ok());
  (*log)->Force();
  const LogDeviceStats st = (*log)->stats();
  EXPECT_EQ(st.forces, 1u);
  EXPECT_GT(st.writev_batches, 0u);
  EXPECT_GT(st.fdatasyncs, 0u);
  // A second force with nothing staged must not sync again.
  (*log)->Force();
  EXPECT_EQ((*log)->stats().fdatasyncs, st.fdatasyncs);
}

// A sync whose second pwritev batch fails has already put the first batch
// in the file. The retry must write only what is still staged: the file
// ends up holding every appended byte exactly once.
TEST(RealLogDeviceTest, FailedBatchIsNotWrittenTwice) {
  const std::string dir = TestDir("log-partial-sync");
  constexpr size_t kChunks = 100;  // two pwritev batches of at most 64
  constexpr size_t kChunkBytes = 16;
  constexpr size_t kFirstBatchBytes = 64 * kChunkBytes;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The file-size limit is lowered in this process only; past it a write
    // fails with EFBIG instead of raising SIGXFSZ.
    ::signal(SIGXFSZ, SIG_IGN);
    SimClock clock;
    FaultInjector faults;
    auto log = RealLogDevice::Open(dir + "/wal", &clock, &faults);
    if (!log.ok()) _exit(10);
    std::vector<uint8_t> expect;
    for (size_t i = 0; i < kChunks; ++i) {
      std::vector<uint8_t> chunk(kChunkBytes, static_cast<uint8_t>(i));
      if (!(*log)->Append(chunk.data(), chunk.size()).ok()) _exit(11);
      expect.insert(expect.end(), chunk.begin(), chunk.end());
    }
    struct rlimit saved;
    if (::getrlimit(RLIMIT_FSIZE, &saved) != 0) _exit(12);
    struct rlimit low = saved;
    low.rlim_cur = kFirstBatchBytes;
    if (::setrlimit(RLIMIT_FSIZE, &low) != 0) _exit(12);
    (*log)->Force();  // the first batch lands, the second fails
    if ((*log)->size() != expect.size()) _exit(13);
    if (::setrlimit(RLIMIT_FSIZE, &saved) != 0) _exit(12);
    (*log)->MarkDurableBarrier();
    if ((*log)->durable_barrier() != (*log)->size()) _exit(14);
    struct stat st;
    if (::stat((dir + "/wal.log").c_str(), &st) != 0 ||
        static_cast<size_t>(st.st_size) != expect.size()) {
      _exit(15);
    }
    std::vector<uint8_t> got(expect.size());
    if (!(*log)->ReadAt(0, got.size(), got.data()).ok() || got != expect) {
      _exit(16);
    }
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "10 open, 11 append, 12 rlimit, 13 size() after the failed sync, "
         "14 barrier, 15 file length, 16 file contents";
}

// ------------------------------------------------------ heap on RealEnv

TEST(RealEnvHeapTest, CommitRecoverInProcess) {
  const std::string dir = TestDir("heap-basic");
  auto env = MustEnv(dir);
  auto opened = StableHeap::Open(env.get(), SmallHeapOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto heap = std::move(opened.value());

  auto cls = heap->RegisterClass({false, false});
  ASSERT_TRUE(cls.ok());
  TxnId txn = *heap->Begin();
  Ref obj = *heap->Allocate(txn, *cls, 2);
  ASSERT_TRUE(heap->WriteScalar(txn, obj, 0, 7).ok());
  ASSERT_TRUE(heap->SetRoot(txn, 0, obj).ok());
  ASSERT_TRUE(heap->Commit(txn).ok());

  TxnId loser = *heap->Begin();
  Ref lobj = *heap->GetRoot(loser, 0);
  ASSERT_TRUE(heap->WriteScalar(loser, lobj, 0, 999).ok());
  ASSERT_TRUE(heap->SimulateCrash(CrashOptions{0.5, 3, 0}).ok());
  heap.reset();

  auto recovered = StableHeap::Open(env.get(), SmallHeapOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  heap = std::move(recovered.value());
  TxnId check = *heap->Begin();
  Ref root = *heap->GetRoot(check, 0);
  EXPECT_EQ(*heap->ReadScalar(check, root, 0), 7u);  // loser undone
  ASSERT_TRUE(heap->Commit(check).ok());
}

// -------------------------------------------- fork kill-and-reopen harness

// Child protocol: increment a committed counter forever; after each
// commit-OK, record the new count in a synced sidecar file. A SIGKILL can
// land anywhere — mid-commit, between commit and sidecar write, mid-sync.
// Invariant checked by the parent: recovered counter >= last acked count.
// (The recovered counter may exceed the sidecar — a commit can be durable
// before its ack is — but it may never be behind.)

constexpr uint64_t kSidecarMagic = 0x53484b43;  // "SHKC"

uint64_t ReadSidecar(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;  // killed before the first ack
  uint64_t rec[2] = {0, 0};
  const ssize_t n = ::pread(fd, rec, sizeof rec, 0);
  ::close(fd);
  if (n != static_cast<ssize_t>(sizeof rec) || rec[0] != kSidecarMagic) {
    return 0;
  }
  return rec[1];
}

[[noreturn]] void ChildCommitLoop(const std::string& dir,
                                  const std::string& sidecar) {
  RealEnvOptions ropts;
  ropts.dir = dir;
  ropts.hardware_barrier = false;
  auto env = RealEnv::Create(ropts);
  if (!env.ok()) _exit(10);
  StableHeapOptions opts = SmallHeapOptions();
  opts.force_on_commit = true;  // every commit durable before OK
  auto heap = StableHeap::Open(env.value().get(), opts);
  if (!heap.ok()) _exit(11);

  auto cls = (*heap)->RegisterClass({false});
  if (!cls.ok()) _exit(12);
  {
    TxnId txn = *(*heap)->Begin();
    Ref obj = *(*heap)->Allocate(txn, *cls, 1);
    if (!(*heap)->WriteScalar(txn, obj, 0, 0).ok()) _exit(13);
    if (!(*heap)->SetRoot(txn, 0, obj).ok()) _exit(13);
    if (!(*heap)->Commit(txn).ok()) _exit(13);
  }
  int fd = ::open(sidecar.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd < 0) _exit(14);
  for (uint64_t count = 1;; ++count) {
    TxnId txn = *(*heap)->Begin();
    Ref obj = *(*heap)->GetRoot(txn, 0);
    uint64_t v = *(*heap)->ReadScalar(txn, obj, 0);
    if (!(*heap)->WriteScalar(txn, obj, 0, v + 1).ok()) _exit(15);
    if (!(*heap)->Commit(txn).ok()) _exit(15);
    uint64_t rec[2] = {kSidecarMagic, count};
    if (::pwrite(fd, rec, sizeof rec, 0) !=
        static_cast<ssize_t>(sizeof rec)) {
      _exit(16);
    }
    if (::fdatasync(fd) != 0) _exit(16);
  }
}

void KillAndReopenOnce(unsigned delay_us, int round) {
  const std::string dir = TestDir("fork-kill-" + std::to_string(round));
  const std::string sidecar = dir + "/acked";

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ChildCommitLoop(dir, sidecar);  // never returns
  }

  // Let the child reach steady state (first ack synced), then kill it at
  // the randomized point.
  for (int spin = 0; spin < 20000 && ReadSidecar(sidecar) == 0; ++spin) {
    ::usleep(100);
  }
  ::usleep(delay_us);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  const uint64_t acked = ReadSidecar(sidecar);
  ASSERT_GT(acked, 0u) << "child never acked a commit";

  RealEnvOptions ropts;
  ropts.dir = dir;
  ropts.hardware_barrier = false;
  auto env = RealEnv::Create(ropts);
  ASSERT_TRUE(env.ok());
  auto heap = StableHeap::Open(env.value().get(), SmallHeapOptions());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  TxnId txn = *(*heap)->Begin();
  Ref obj = *(*heap)->GetRoot(txn, 0);
  const uint64_t recovered = *(*heap)->ReadScalar(txn, obj, 0);
  ASSERT_TRUE((*heap)->Commit(txn).ok());
  EXPECT_GE(recovered, acked)
      << "round " << round << ": lost " << (acked - recovered)
      << " acknowledged commit(s) of " << acked;
}

TEST(RealEnvKillTest, AcknowledgedCommitsSurviveSigkill) {
  // Deterministically seeded pseudo-random kill points: spread from
  // "immediately after first ack" to "well into the run".
  uint64_t seed = 0x5eed5eed;
  for (int round = 0; round < 4; ++round) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const unsigned delay_us = 500 + static_cast<unsigned>(seed >> 33) % 20000;
    KillAndReopenOnce(delay_us, round);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ----------------------------------------------------- SIGSEGV handler

TEST(RealMappingTest, TrapUnprotectsAndCounts) {
  auto mapping = RealMapping::Create(16);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  auto& m = *mapping.value();
  m.Protect(0, 16);
  EXPECT_TRUE(m.Touch(3));   // protected: takes a real SIGSEGV
  EXPECT_FALSE(m.Touch(3));  // handler unprotected exactly that page
  EXPECT_TRUE(m.Touch(4));   // neighbours stay protected
  EXPECT_EQ(m.trap_count(), 2u);
}

TEST(RealMappingTest, RepeatedProtectCycles) {
  auto mapping = RealMapping::Create(4);
  ASSERT_TRUE(mapping.ok());
  auto& m = *mapping.value();
  for (int cycle = 0; cycle < 50; ++cycle) {
    m.Protect(0, 4);
    for (PageId pid = 0; pid < 4; ++pid) {
      ASSERT_TRUE(m.Touch(pid));
    }
  }
  EXPECT_EQ(m.trap_count(), 200u);
}

TEST(RealMappingTest, ConcurrentTrapsFromManyThreads) {
  constexpr uint64_t kPages = 256;
  constexpr int kThreads = 4;
  auto mapping = RealMapping::Create(kPages);
  ASSERT_TRUE(mapping.ok());
  auto& m = *mapping.value();
  m.Protect(0, kPages);

  // Disjoint ranges: every touch must trap, concurrently, with the
  // async-signal-safe handler running in several threads at once.
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const uint64_t per = kPages / kThreads;
      for (uint64_t pid = t * per; pid < (t + 1) * per; ++pid) {
        if (!m.Touch(pid)) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(m.trap_count(), kPages);

  // Same page from all threads: exactly one thread's fault unprotects it;
  // the others either trap first or read it already-open. No wedge, no
  // crash, and afterwards the page is open.
  m.Protect(7, 1);
  std::vector<std::thread> racers;
  for (int t = 0; t < kThreads; ++t) {
    racers.emplace_back([&]() { (void)m.Touch(7); });
  }
  for (auto& th : racers) th.join();
  EXPECT_FALSE(m.Touch(7));
}

TEST(RealMappingTest, TwoMappingsShareOneHandler) {
  auto a = RealMapping::Create(4);
  auto b = RealMapping::Create(4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  (*a)->Protect(0, 4);
  (*b)->Protect(0, 4);
  EXPECT_TRUE((*a)->Touch(1));
  EXPECT_TRUE((*b)->Touch(1));
  EXPECT_EQ((*a)->trap_count(), 1u);
  EXPECT_EQ((*b)->trap_count(), 1u);
}

TEST(RealMappingDeathTest, WildFaultStillCrashes) {
  // With a mapping registered (handler installed), a SIGSEGV outside any
  // mapping must still end the process: the faulting load never resumes.
  // Natively the handler falls through to the default action and the
  // child dies by SIGSEGV. Under AddressSanitizer, ASan's own SEGV handler
  // reports the wild address and exits with its error code instead.
  const auto wild_load = []() {
    auto mapping = RealMapping::Create(4);
    if (!mapping.ok()) _exit(30);
    (*mapping)->Protect(0, 4);
    if (!(*mapping)->Touch(0)) _exit(31);  // handler works in this child
    volatile uint64_t* wild = reinterpret_cast<uint64_t*>(0xdead000);
    uint64_t v = *wild;  // must crash, not resume
    _exit(static_cast<int>(v & 0x7f));
  };
#ifdef SHEAP_TEST_ASAN
  EXPECT_EXIT(wild_load(), ::testing::ExitedWithCode(1),
              "AddressSanitizer: SEGV on unknown address 0x0*dead000");
#else
  EXPECT_EXIT(wild_load(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace sheap
