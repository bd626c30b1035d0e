// Unit tests for the storage substrate: simulated disk, stable log device,
// and the buffer pool's pinning / WAL-constraint / write-back behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fault/fault_injector.h"
#include "heap/heap_memory.h"
#include "storage/buffer_pool.h"
#include "storage/sim_disk.h"
#include "storage/sim_env.h"
#include "storage/sim_log_device.h"

namespace sheap {
namespace {

TEST(SimDiskTest, UnwrittenPagesReadZero) {
  SimClock clock;
  SimDisk disk(&clock);
  PageImage img;
  ASSERT_TRUE(disk.ReadPage(42, &img).ok());
  EXPECT_EQ(img.page_lsn, kInvalidLsn);
  for (uint32_t w = 0; w < kWordsPerPage; ++w) EXPECT_EQ(img.ReadWord(w), 0u);
}

TEST(SimDiskTest, WriteThenReadRoundTrips) {
  SimClock clock;
  SimDisk disk(&clock);
  PageImage img;
  img.WriteWord(5, 0xdead);
  img.page_lsn = 77;
  ASSERT_TRUE(disk.WritePage(3, img).ok());
  PageImage out;
  ASSERT_TRUE(disk.ReadPage(3, &out).ok());
  EXPECT_EQ(out.ReadWord(5), 0xdeadu);
  EXPECT_EQ(out.page_lsn, 77u);
}

TEST(SimDiskTest, DropPageZeroes) {
  SimClock clock;
  SimDisk disk(&clock);
  PageImage img;
  img.WriteWord(0, 1);
  ASSERT_TRUE(disk.WritePage(9, img).ok());
  disk.DropPage(9);
  PageImage out;
  ASSERT_TRUE(disk.ReadPage(9, &out).ok());
  EXPECT_EQ(out.ReadWord(0), 0u);
}

TEST(SimDiskTest, ChargesSimulatedTime) {
  SimClock clock;
  SimDisk disk(&clock);
  PageImage img;
  ASSERT_TRUE(disk.WritePage(0, img).ok());
  EXPECT_GT(clock.now_ns(), 0u);
  EXPECT_EQ(disk.stats().page_writes, 1u);
}

TEST(SimDiskTest, OnePageRunChargesOneRandomIo) {
  SimClock clock;
  SimDisk disk(&clock);
  const CostModel& model = clock.model();
  const uint64_t transfer =
      model.disk_transfer_ns_per_kib * (kPageSizeBytes / 1024);
  PageImage img;
  const PageImage* one = &img;
  ASSERT_TRUE(disk.WritePageRun(4, &one, 1).ok());
  EXPECT_EQ(clock.now_ns(), model.disk_seek_ns + transfer);
  ASSERT_TRUE(disk.WritePage(5, img).ok());
  EXPECT_EQ(clock.now_ns(), 2 * (model.disk_seek_ns + transfer));
  // A longer run pays the seek once.
  const PageImage* three[] = {&img, &img, &img};
  ASSERT_TRUE(disk.WritePageRun(6, three, 3).ok());
  EXPECT_EQ(clock.now_ns(), 3 * model.disk_seek_ns + 5 * transfer);
  EXPECT_EQ(disk.stats().page_writes, 5u);
}

TEST(SimLogDeviceTest, AppendAndReadAt) {
  SimClock clock;
  SimLogDevice log(&clock);
  const uint8_t data[] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(log.Append(data, 5).ok());
  uint8_t out[5];
  ASSERT_TRUE(log.ReadAt(0, 5, out).ok());
  EXPECT_EQ(out[4], 5);
  EXPECT_TRUE(log.ReadAt(3, 5, out).IsCorruption());  // past end
}

TEST(SimLogDeviceTest, TearTailRespectsDurableBarrier) {
  SimClock clock;
  SimLogDevice log(&clock);
  uint8_t bytes[10] = {};
  ASSERT_TRUE(log.Append(bytes, 10).ok());
  log.MarkDurableBarrier();
  ASSERT_TRUE(log.Append(bytes, 6).ok());
  log.TearTail(100);  // wants everything; clamped at the barrier
  EXPECT_EQ(log.size(), 10u);
}

TEST(SimLogDeviceTest, TruncatePrefixBlocksReads) {
  SimClock clock;
  SimLogDevice log(&clock);
  uint8_t bytes[16] = {};
  ASSERT_TRUE(log.Append(bytes, 16).ok());
  log.TruncatePrefix(8);
  uint8_t out[4];
  EXPECT_TRUE(log.ReadAt(0, 4, out).IsCorruption());
  EXPECT_TRUE(log.ReadAt(8, 4, out).ok());
}

TEST(SimLogDeviceTest, MasterLsnPersists) {
  SimClock clock;
  SimLogDevice log(&clock);
  EXPECT_EQ(log.master_lsn(), kInvalidLsn);
  log.SetMasterLsn(123);
  EXPECT_EQ(log.master_lsn(), 123u);
}

// A DirtyPages() snapshot: (page, recLSN) rows in page order.
using DirtyRows = std::vector<std::pair<PageId, Lsn>>;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(&clock_) {}

  BufferPool MakePool(size_t capacity) {
    BufferPool::Hooks hooks;
    hooks.flush_log_to = [this](Lsn lsn) {
      flushed_to_ = std::max(flushed_to_, lsn);
      return Status::OK();
    };
    hooks.on_page_fetch = [this](PageId p) { fetches_.push_back(p); };
    hooks.on_end_write = [this](PageId p) { end_writes_.push_back(p); };
    return BufferPool(&disk_, capacity, hooks);
  }

  SimClock clock_;
  SimDisk disk_;
  Lsn flushed_to_ = 0;
  std::vector<PageId> fetches_;
  std::vector<PageId> end_writes_;
};

TEST_F(BufferPoolTest, PinFetchesAndNotifies) {
  BufferPool pool = MakePool(4);
  auto frame = pool.Pin(7);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(fetches_, std::vector<PageId>{7});
  EXPECT_EQ(pool.PinCount(7), 1u);
  pool.Unpin(7);
  EXPECT_EQ(pool.PinCount(7), 0u);
}

TEST_F(BufferPoolTest, PinsNest) {
  BufferPool pool = MakePool(4);
  ASSERT_TRUE(pool.Pin(1).ok());
  ASSERT_TRUE(pool.Pin(1).ok());
  EXPECT_EQ(pool.PinCount(1), 2u);
  EXPECT_EQ(fetches_.size(), 1u);  // second pin is a hit
  pool.Unpin(1);
  pool.Unpin(1);
}

TEST_F(BufferPoolTest, WriteBackEnforcesWalConstraint) {
  BufferPool pool = MakePool(4);
  auto frame = pool.Pin(2);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 99);
  pool.MarkDirty(2, /*lsn=*/500);
  pool.Unpin(2);
  ASSERT_TRUE(pool.WriteBack(2).ok());
  // The WAL hook must have been asked to flush through the page LSN
  // before the page reached disk (Invariant I2).
  EXPECT_GE(flushed_to_, 500u);
  EXPECT_EQ(end_writes_, std::vector<PageId>{2});
  PageImage img;
  ASSERT_TRUE(disk_.ReadPage(2, &img).ok());
  EXPECT_EQ(img.ReadWord(0), 99u);
  EXPECT_EQ(img.page_lsn, 500u);
}

TEST_F(BufferPoolTest, WriteBackRefusesPinnedPages) {
  BufferPool pool = MakePool(4);
  auto frame = pool.Pin(3);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 1);
  pool.MarkDirty(3, 1);
  EXPECT_TRUE(pool.WriteBack(3).IsBusy());
  pool.Unpin(3);
  EXPECT_TRUE(pool.WriteBack(3).ok());
}

TEST_F(BufferPoolTest, EvictionWritesDirtyVictims) {
  BufferPool pool = MakePool(2);
  for (PageId p = 0; p < 2; ++p) {
    auto frame = pool.Pin(p);
    ASSERT_TRUE(frame.ok());
    (*frame)->WriteWord(0, p + 100);
    pool.MarkDirty(p, p + 1);
    pool.Unpin(p);
  }
  // Third page forces an eviction of the LRU (page 0), which is dirty.
  ASSERT_TRUE(pool.Pin(5).ok());
  pool.Unpin(5);
  EXPECT_FALSE(pool.IsResident(0));
  PageImage img;
  ASSERT_TRUE(disk_.ReadPage(0, &img).ok());
  EXPECT_EQ(img.ReadWord(0), 100u);
}

TEST_F(BufferPoolTest, DirtyPagesSnapshotHasRecLsns) {
  BufferPool pool = MakePool(8);
  for (PageId p = 0; p < 3; ++p) {
    auto frame = pool.Pin(p);
    ASSERT_TRUE(frame.ok());
    pool.MarkDirty(p, 10 * (p + 1));
    pool.MarkDirty(p, 10 * (p + 1) + 5);  // recLSN stays at first dirty
    pool.Unpin(p);
  }
  auto dirty = pool.DirtyPages();
  ASSERT_EQ(dirty.size(), 3u);
  EXPECT_EQ(dirty[0], (std::pair<PageId, Lsn>{0, 10}));
  EXPECT_EQ(dirty[2], (std::pair<PageId, Lsn>{2, 30}));
}

TEST_F(BufferPoolTest, DropAllLosesUnwrittenData) {
  BufferPool pool = MakePool(4);
  auto frame = pool.Pin(1);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 123);
  pool.MarkDirty(1, 1);
  pool.Unpin(1);
  pool.DropAll();  // crash: memory lost
  PageImage img;
  ASSERT_TRUE(disk_.ReadPage(1, &img).ok());
  EXPECT_EQ(img.ReadWord(0), 0u);  // never reached disk
}

TEST_F(BufferPoolTest, WriteBackRandomSubsetIsDeterministic) {
  BufferPool pool = MakePool(32);
  for (PageId p = 0; p < 16; ++p) {
    auto frame = pool.Pin(p);
    ASSERT_TRUE(frame.ok());
    pool.MarkDirty(p, p + 1);
    pool.Unpin(p);
  }
  Rng rng(42);
  ASSERT_TRUE(pool.WriteBackRandomSubset(&rng, 0.5).ok());
  const uint64_t written = disk_.stats().page_writes;
  EXPECT_GT(written, 0u);
  EXPECT_LT(written, 16u);
}

TEST_F(BufferPoolTest, UnloggedDirtyPagesSkipWalFlush) {
  BufferPool pool = MakePool(4);
  auto frame = pool.Pin(6);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 1);
  pool.MarkDirtyUnlogged(6);
  pool.Unpin(6);
  ASSERT_TRUE(pool.WriteBack(6).ok());
  EXPECT_EQ(flushed_to_, 0u);  // no WAL dependency for volatile pages
}

TEST_F(BufferPoolTest, AllPinnedEvictionGrowsPastCapacity) {
  BufferPool pool = MakePool(2);
  ASSERT_TRUE(pool.Pin(0).ok());
  ASSERT_TRUE(pool.Pin(1).ok());
  // Every frame pinned: the pool must grow rather than evict or fail.
  ASSERT_TRUE(pool.Pin(2).ok());
  EXPECT_EQ(pool.ResidentCount(), 3u);
  EXPECT_TRUE(pool.IsResident(0));
  EXPECT_TRUE(pool.IsResident(1));
  EXPECT_EQ(pool.stats().evictions, 0u);
  // Once pins release, the next fault evicts normally (LRU = first
  // unpinned) and the pool shrinks back toward capacity.
  pool.Unpin(0);
  pool.Unpin(1);
  pool.Unpin(2);
  ASSERT_TRUE(pool.Pin(3).ok());
  pool.Unpin(3);
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_FALSE(pool.IsResident(0));
}

TEST_F(BufferPoolTest, RecLsnResetAcrossCleanDirtyCleanCycle) {
  BufferPool pool = MakePool(4);
  auto frame = pool.Pin(5);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 1);
  pool.MarkDirty(5, 100);
  pool.Unpin(5);
  EXPECT_EQ(pool.DirtyPages(), (DirtyRows{{5, 100}}));
  ASSERT_TRUE(pool.WriteBack(5).ok());
  EXPECT_FALSE(pool.IsDirty(5));
  EXPECT_TRUE(pool.DirtyPages().empty());
  // Re-dirty: the recLSN must be the NEW first-dirtying record, not the
  // stale one from the previous cycle.
  frame = pool.Pin(5);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 2);
  pool.MarkDirty(5, 900);
  pool.Unpin(5);
  EXPECT_EQ(pool.DirtyPages(), (DirtyRows{{5, 900}}));
}

TEST_F(BufferPoolTest, DirtyPagesTracksDirtySet) {
  BufferPool pool = MakePool(8);
  for (const auto& [pid, lsn] :
       std::vector<std::pair<PageId, Lsn>>{{1, 50}, {2, 20}, {3, 70}}) {
    auto frame = pool.Pin(pid);
    ASSERT_TRUE(frame.ok());
    pool.MarkDirty(pid, lsn);
    pool.Unpin(pid);
  }
  // Unlogged dirty pages are rows without a recLSN.
  auto frame = pool.Pin(4);
  ASSERT_TRUE(frame.ok());
  pool.MarkDirtyUnlogged(4);
  pool.Unpin(4);
  EXPECT_EQ(pool.DirtyPages(),
            (DirtyRows{{1, 50}, {2, 20}, {3, 70}, {4, kInvalidLsn}}));
  ASSERT_TRUE(pool.WriteBack(2).ok());
  EXPECT_EQ(pool.DirtyPages(),
            (DirtyRows{{1, 50}, {3, 70}, {4, kInvalidLsn}}));
  ASSERT_TRUE(pool.WriteBack(1).ok());
  ASSERT_TRUE(pool.WriteBack(3).ok());
  EXPECT_EQ(pool.DirtyPages(), (DirtyRows{{4, kInvalidLsn}}));
  EXPECT_TRUE(pool.IsDirty(4));
}

TEST_F(BufferPoolTest, WriteBackRandomSubsetHonorsWalFailure) {
  BufferPool pool = MakePool(4);
  auto frame = pool.Pin(9);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 77);
  pool.MarkDirty(9, 300);
  pool.Unpin(9);
  // Injected WAL failure: the log cannot reach the page LSN, so the page
  // must NOT go to disk and must stay dirty for a later retry.
  BufferPool::Hooks failing;
  failing.flush_log_to = [](Lsn) {
    return Status::IOError("injected flush_log_to failure");
  };
  pool.SetHooks(failing);
  Rng rng(7);
  EXPECT_TRUE(pool.WriteBackRandomSubset(&rng, 1.0).IsIOError());
  EXPECT_TRUE(pool.IsDirty(9));
  PageImage img;
  ASSERT_TRUE(disk_.ReadPage(9, &img).ok());
  EXPECT_EQ(img.ReadWord(0), 0u);  // never reached disk
  // With the WAL healthy again the same call succeeds.
  BufferPool::Hooks healthy;
  healthy.flush_log_to = [](Lsn) { return Status::OK(); };
  pool.SetHooks(healthy);
  Rng rng2(7);
  ASSERT_TRUE(pool.WriteBackRandomSubset(&rng2, 1.0).ok());
  EXPECT_FALSE(pool.IsDirty(9));
  ASSERT_TRUE(disk_.ReadPage(9, &img).ok());
  EXPECT_EQ(img.ReadWord(0), 77u);
}

TEST_F(BufferPoolTest, ScanCountersBoundedByDirtyNotResidency) {
  BufferPool pool = MakePool(64);
  // 32 resident pages, only 4 dirty.
  for (PageId p = 0; p < 32; ++p) {
    auto frame = pool.Pin(p);
    ASSERT_TRUE(frame.ok());
    if (p < 4) pool.MarkDirty(p, p + 1);
    pool.Unpin(p);
  }
  pool.ResetStats();
  (void)pool.DirtyPages();
  EXPECT_EQ(pool.stats().dirty_scan_steps, 4u);  // O(dirty), not O(frames)
  Rng rng(3);
  ASSERT_TRUE(pool.WriteBackRandomSubset(&rng, 0.0).ok());
  EXPECT_EQ(pool.stats().dirty_scan_steps, 8u);  // +4 candidates examined
}

TEST_F(BufferPoolTest, EvictionProbesExactlyOneFrame) {
  BufferPool pool = MakePool(8);
  for (PageId p = 0; p < 8; ++p) {
    auto frame = pool.Pin(p);
    ASSERT_TRUE(frame.ok());
    pool.Unpin(p);
  }
  pool.ResetStats();
  // 16 faults at capacity: each eviction examines exactly the LRU head.
  for (PageId p = 100; p < 116; ++p) {
    auto frame = pool.Pin(p);
    ASSERT_TRUE(frame.ok());
    pool.Unpin(p);
  }
  EXPECT_EQ(pool.stats().evictions, 16u);
  EXPECT_EQ(pool.stats().evict_probe_steps, pool.stats().evictions);
}

TEST_F(BufferPoolTest, EvictedFramesAreReused) {
  BufferPool pool = MakePool(2);
  for (PageId p = 0; p < 6; ++p) {
    auto frame = pool.Pin(p);
    ASSERT_TRUE(frame.ok());
    pool.Unpin(p);
  }
  // Evictions recycle frames through the free list; the store never grows
  // beyond the high-water mark of capacity (+ transient all-pinned case).
  EXPECT_EQ(pool.ResidentCount(), 2u);
  EXPECT_EQ(pool.stats().evictions, 4u);
  EXPECT_LE(pool.FreeFrameCount(), 1u);
}

// Two page-adjacent runs and two isolated pages.
constexpr PageId kDirtySet[] = {2, 3, 4, 7, 11, 12};
constexpr size_t kDirtyCount = std::size(kDirtySet);

// Every entry point into the pool's write-back pipeline.
enum class Entry { kFlushAll, kRandomSubset, kWriteBack, kEviction };

// A pool whose frames hold kDirtySet dirty and unpinned, made dirty (and
// so LRU-ordered) in ascending page order. Capacity is exactly the dirty
// set, so each fault on a new page evicts the oldest dirty page.
struct DirtyPool {
  DirtyPool() : pool(env.disk(), kDirtyCount, Hooks(&end_writes)) {
    pool.set_flush_writers(4);
    for (PageId p : kDirtySet) {
      auto frame = pool.Pin(p);
      SHEAP_CHECK(frame.ok());
      (*frame)->WriteWord(0, 7 * p + 1);
      (*frame)->WriteWord(kWordsPerPage - 1, p);
      pool.MarkDirty(p, 10 + p);
      pool.Unpin(p);
    }
  }

  static BufferPool::Hooks Hooks(std::vector<PageId>* end_writes) {
    BufferPool::Hooks hooks;
    hooks.flush_log_to = [](Lsn) { return Status::OK(); };
    hooks.on_end_write = [end_writes](PageId p) { end_writes->push_back(p); };
    return hooks;
  }

  SimEnv env;
  std::vector<PageId> end_writes;
  BufferPool pool;
};

// Write the whole dirty set back through `entry`.
Status WriteBackThrough(BufferPool* pool, Entry entry) {
  switch (entry) {
    case Entry::kFlushAll:
      return pool->FlushAll();
    case Entry::kRandomSubset: {
      Rng rng(1);
      return pool->WriteBackRandomSubset(&rng, 1.0);
    }
    case Entry::kWriteBack:
      for (PageId p : kDirtySet) SHEAP_RETURN_IF_ERROR(pool->WriteBack(p));
      return Status::OK();
    case Entry::kEviction:
      for (PageId p = 100; p < 100 + kDirtyCount; ++p) {
        auto frame = pool->Pin(p);
        if (!frame.ok()) return frame.status();
        pool->Unpin(p);
      }
      return Status::OK();
  }
  return Status::OK();
}

std::map<PageId, PageImage> DiskImages(SimEnv* env) {
  std::map<PageId, PageImage> images;
  for (PageId p : kDirtySet) {
    SHEAP_CHECK(env->disk()->ReadPage(p, &images[p]).ok());
  }
  return images;
}

TEST(WriteBackPipelineTest, EveryEntryPointWritesTheSameImages) {
  DirtyPool reference;
  ASSERT_TRUE(WriteBackThrough(&reference.pool, Entry::kFlushAll).ok());
  const std::map<PageId, PageImage> expected = DiskImages(&reference.env);
  const std::vector<PageId> ascending(std::begin(kDirtySet),
                                      std::end(kDirtySet));
  // FlushAll and the background writer coalesce the set into three runs;
  // eviction writes its victims one page at a time.
  for (const auto& [entry, runs] :
       std::vector<std::pair<Entry, uint64_t>>{{Entry::kFlushAll, 3},
                                               {Entry::kRandomSubset, 3},
                                               {Entry::kEviction, 6}}) {
    SCOPED_TRACE(static_cast<int>(entry));
    DirtyPool rig;
    SimEnv& env = rig.env;
    BufferPool& pool = rig.pool;
    ASSERT_TRUE(WriteBackThrough(&pool, entry).ok());
    EXPECT_TRUE(pool.DirtyPages().empty());
    EXPECT_EQ(rig.end_writes, ascending);
    EXPECT_EQ(pool.stats().write_backs, kDirtyCount);
    EXPECT_EQ(pool.stats().flush_runs, runs);
    EXPECT_EQ(env.disk()->PageCount(), kDirtyCount);
    const std::map<PageId, PageImage> images = DiskImages(&env);
    for (PageId p : kDirtySet) {
      EXPECT_EQ(images.at(p).data, expected.at(p).data) << "page " << p;
      EXPECT_EQ(images.at(p).page_lsn, 10 + p) << "page " << p;
    }
  }
}

TEST(WriteBackPipelineTest, TransientFaultMidRunRetriesTheWholeRun) {
  for (Entry entry : {Entry::kFlushAll, Entry::kRandomSubset,
                      Entry::kWriteBack, Entry::kEviction}) {
    SCOPED_TRACE(static_cast<int>(entry));
    DirtyPool rig;
    SimEnv& env = rig.env;
    BufferPool& pool = rig.pool;
    // The first write of page 3, in the middle of the run {2, 3, 4}, fails.
    // I/O hits are counted per site across lanes, so one lane keeps the
    // hit that page 3's first write lands on fixed.
    pool.set_flush_writers(1);
    FaultSpec spec;
    spec.point = "disk.write";
    spec.kind = FaultKind::kTransientError;
    spec.hit = 1;
    spec.count = 2;
    spec.page = 3;
    env.faults()->Arm(spec);
    ASSERT_TRUE(WriteBackThrough(&pool, entry).ok());
    EXPECT_TRUE(pool.DirtyPages().empty());
    EXPECT_EQ(env.faults()->stats().retried, 1u);
    EXPECT_EQ(env.faults()->stats().exhausted, 0u);
    // A multi-page run is rewritten from its first page: page 2 reaches
    // disk twice. A one-page run retries only page 3.
    const bool coalesced =
        entry == Entry::kFlushAll || entry == Entry::kRandomSubset;
    EXPECT_EQ(env.disk()->stats().page_writes,
              kDirtyCount + (coalesced ? 1 : 0));
  }
}

TEST(WriteBackPipelineTest, ExhaustedRetriesLeaveTheRunDirty) {
  // (entry point, FlushAll lanes): one lane stops at the failed run and
  // never reaches the two after it.
  for (const auto& [entry, lanes] : std::vector<std::pair<Entry, uint32_t>>{
           {Entry::kFlushAll, 1},
           {Entry::kFlushAll, 4},
           {Entry::kRandomSubset, 4},
           {Entry::kWriteBack, 4},
           {Entry::kEviction, 4}}) {
    SCOPED_TRACE(std::to_string(static_cast<int>(entry)) + " lanes " +
                 std::to_string(lanes));
    DirtyPool rig;
    SimEnv& env = rig.env;
    BufferPool& pool = rig.pool;
    pool.set_flush_writers(lanes);
    // Every write of page 3 fails.
    FaultSpec spec;
    spec.point = "disk.write";
    spec.kind = FaultKind::kTransientError;
    spec.hit = 1;
    spec.count = 1000;
    spec.page = 3;
    env.faults()->Arm(spec);
    EXPECT_TRUE(WriteBackThrough(&pool, entry).IsIOError());
    EXPECT_EQ(env.faults()->stats().retried, kMaxIoRetries);
    EXPECT_EQ(env.faults()->stats().exhausted, 1u);
    // Page 3 never reached disk and stays dirty; so does the rest of its
    // run when the run is coalesced (page-at-a-time entry points stop
    // before page 4). No end-write names a dirty page.
    const bool coalesced =
        entry == Entry::kFlushAll || entry == Entry::kRandomSubset;
    EXPECT_TRUE(pool.IsDirty(3));
    EXPECT_EQ(pool.IsDirty(2), coalesced);
    EXPECT_TRUE(pool.IsDirty(4));
    for (PageId p : rig.end_writes) EXPECT_FALSE(pool.IsDirty(p)) << p;
    PageImage img;
    ASSERT_TRUE(env.disk()->ReadPage(3, &img).ok());
    EXPECT_EQ(img.ReadWord(0), 0u);
  }
}

// ---- HeapMemory's short accesses (BufferPool::Access) ----

// One step of a scripted mix of HeapMemory accesses.
struct AccessOp {
  enum Kind {
    kReadWord, kWriteLogged, kWriteUnlogged,
    kReadBytes, kWriteBytesLogged, kWriteBytesUnlogged,
    kPin, kUnpin,  // hold a pin across later accesses, as ScanPage does
  };
  Kind kind;
  HeapAddr addr;
  uint64_t n_bytes = 0;  // byte ops; may cross a page boundary
  uint64_t value = 0;
  Lsn lsn = kInvalidLsn;
};

constexpr PageId kScriptPages = 12;  // three times the pool below
constexpr size_t kScriptPool = 4;

std::vector<AccessOp> AccessScript() {
  Rng rng(42);
  std::vector<AccessOp> ops;
  Lsn lsn = 100;
  for (int i = 0; i < 600; ++i) {
    AccessOp op{};
    op.kind = static_cast<AccessOp::Kind>(rng.Uniform(6));
    // Skewed toward low pages, so both hits and evictions happen.
    const PageId pid = rng.Bernoulli(0.6) ? rng.Uniform(3)
                                          : rng.Uniform(kScriptPages - 1);
    op.addr = pid * kPageSizeBytes + rng.Uniform(kWordsPerPage) *
                                         kWordSizeBytes;
    op.n_bytes = (1 + rng.Uniform(kWordsPerPage)) * kWordSizeBytes;
    op.value = rng.Next();
    op.lsn = lsn += 1 + rng.Uniform(3);
    if (i == 150) ops.push_back({AccessOp::kPin, 5 * kPageSizeBytes});
    if (i == 400) ops.push_back({AccessOp::kUnpin, 5 * kPageSizeBytes});
    ops.push_back(op);
  }
  return ops;
}

// A pool over its own simulated disk, with every hook recording.
struct ScriptPool {
  explicit ScriptPool(size_t capacity)
      : pool(env.disk(), capacity, Hooks()) {}

  BufferPool::Hooks Hooks() {
    BufferPool::Hooks hooks;
    hooks.flush_log_to = [this](Lsn lsn) {
      flushes.push_back(lsn);
      return Status::OK();
    };
    hooks.on_page_fetch = [this](PageId p) { fetches.push_back(p); };
    hooks.on_end_write = [this](PageId p) { end_writes.push_back(p); };
    hooks.before_pin = [this](PageId) {
      ++before_pins;
      return Status::OK();
    };
    return hooks;
  }

  std::vector<PageId> Resident() const {
    std::vector<PageId> out;
    for (PageId p = 0; p < kScriptPages; ++p) {
      if (pool.IsResident(p)) out.push_back(p);
    }
    return out;
  }

  SimEnv env;
  BufferPool pool;
  std::vector<Lsn> flushes;
  std::vector<PageId> fetches;
  std::vector<PageId> end_writes;
  uint64_t before_pins = 0;
};

// The explicit per-page discipline — Pin, touch the image,
// MarkDirty(Unlogged), Unpin, one page chunk at a time: the reference
// the Access path must match.
Status PinnedAccess(BufferPool* pool, const AccessOp& op,
                    std::vector<uint8_t>* bytes, uint64_t* word) {
  const bool logged = op.kind == AccessOp::kWriteLogged ||
                      op.kind == AccessOp::kWriteBytesLogged;
  const bool unlogged = op.kind == AccessOp::kWriteUnlogged ||
                        op.kind == AccessOp::kWriteBytesUnlogged;
  const bool word_op = op.kind <= AccessOp::kWriteUnlogged;
  const uint64_t n = word_op ? kWordSizeBytes : op.n_bytes;
  for (uint64_t done = 0; done < n;) {
    const PageId pid = PageOf(op.addr + done);
    const uint32_t off = OffsetInPage(op.addr + done);
    const uint64_t chunk = std::min<uint64_t>(n - done, kPageSizeBytes - off);
    SHEAP_ASSIGN_OR_RETURN(PageImage * image, pool->Pin(pid));
    if (word_op) {
      if (op.kind == AccessOp::kReadWord) {
        *word = image->ReadWord(off / kWordSizeBytes);
      } else {
        image->WriteWord(off / kWordSizeBytes, op.value);
      }
    } else if (op.kind == AccessOp::kReadBytes) {
      std::memcpy(bytes->data() + done, image->data.data() + off, chunk);
    } else {
      std::memcpy(image->data.data() + off, bytes->data() + done, chunk);
    }
    if (logged) pool->MarkDirty(pid, op.lsn);
    if (unlogged) pool->MarkDirtyUnlogged(pid);
    pool->Unpin(pid);
    done += chunk;
  }
  return Status::OK();
}

Status HeapAccess(HeapMemory* mem, const AccessOp& op,
                  std::vector<uint8_t>* bytes, uint64_t* word) {
  switch (op.kind) {
    case AccessOp::kReadWord: {
      SHEAP_ASSIGN_OR_RETURN(*word, mem->ReadWord(op.addr));
      return Status::OK();
    }
    case AccessOp::kWriteLogged:
      return mem->WriteWordLogged(op.addr, op.value, op.lsn);
    case AccessOp::kWriteUnlogged:
      return mem->WriteWordUnlogged(op.addr, op.value);
    case AccessOp::kReadBytes:
      return mem->ReadBytes(op.addr, op.n_bytes, bytes->data());
    case AccessOp::kWriteBytesLogged:
      return mem->WriteBytesLogged(op.addr, bytes->data(), op.n_bytes,
                                   op.lsn);
    case AccessOp::kWriteBytesUnlogged:
      return mem->WriteBytesUnlogged(op.addr, bytes->data(), op.n_bytes);
    case AccessOp::kPin:
    case AccessOp::kUnpin:
      break;
  }
  return Status::Internal("not an access");
}

TEST(HeapMemoryAccessTest, MatchesPinUnpinMarkDirtyExactly) {
  ScriptPool heap_side(kScriptPool);
  ScriptPool pin_side(kScriptPool);
  HeapMemory mem(&heap_side.pool);
  uint64_t accesses = 0;
  std::vector<std::vector<PageId>> heap_victims, pin_victims;
  auto step = [](ScriptPool* side, std::vector<std::vector<PageId>>* victims,
                 auto&& run) {
    const std::vector<PageId> before = side->Resident();
    run();
    const std::vector<PageId> after = side->Resident();
    std::vector<PageId> gone;
    std::set_difference(before.begin(), before.end(), after.begin(),
                        after.end(), std::back_inserter(gone));
    victims->push_back(gone);
  };
  for (const AccessOp& op : AccessScript()) {
    if (op.kind == AccessOp::kPin || op.kind == AccessOp::kUnpin) {
      for (ScriptPool* side : {&heap_side, &pin_side}) {
        if (op.kind == AccessOp::kPin) {
          ASSERT_TRUE(side->pool.Pin(PageOf(op.addr)).ok());
        } else {
          side->pool.Unpin(PageOf(op.addr));
        }
      }
      continue;
    }
    const bool bytes_op = op.kind >= AccessOp::kReadBytes;
    accesses += bytes_op && PageOf(op.addr) != PageOf(op.addr + op.n_bytes - 1)
                    ? 2
                    : 1;
    std::vector<uint8_t> heap_bytes(op.n_bytes), pin_bytes(op.n_bytes);
    for (size_t i = 0; i < op.n_bytes; ++i) {
      heap_bytes[i] = pin_bytes[i] = static_cast<uint8_t>(op.value >> (i % 8));
    }
    uint64_t heap_word = 0, pin_word = 0;
    step(&heap_side, &heap_victims, [&] {
      ASSERT_TRUE(HeapAccess(&mem, op, &heap_bytes, &heap_word).ok());
    });
    step(&pin_side, &pin_victims, [&] {
      ASSERT_TRUE(
          PinnedAccess(&pin_side.pool, op, &pin_bytes, &pin_word).ok());
    });
    ASSERT_EQ(heap_word, pin_word);
    ASSERT_EQ(heap_bytes, pin_bytes);
  }

  // Same victims in the same order, same notifications and WAL forces.
  EXPECT_EQ(heap_victims, pin_victims);
  EXPECT_EQ(heap_side.fetches, pin_side.fetches);
  EXPECT_EQ(heap_side.end_writes, pin_side.end_writes);
  EXPECT_EQ(heap_side.flushes, pin_side.flushes);
  EXPECT_EQ(heap_side.before_pins, pin_side.before_pins);
  EXPECT_EQ(heap_side.before_pins, accesses + 1);  // + the script's Pin

  const BufferPoolStats hs = heap_side.pool.stats();
  const BufferPoolStats ps = pin_side.pool.stats();
  EXPECT_EQ(hs.hits, ps.hits);
  EXPECT_EQ(hs.misses, ps.misses);
  EXPECT_EQ(hs.evictions, ps.evictions);
  EXPECT_EQ(hs.evict_probe_steps, ps.evict_probe_steps);
  EXPECT_EQ(hs.write_backs, ps.write_backs);
  EXPECT_EQ(hs.hits + hs.misses, accesses + 1);
  EXPECT_GT(hs.hits, 0u);
  EXPECT_GT(hs.evictions, 0u);
  EXPECT_EQ(heap_side.pool.DirtyPages(), pin_side.pool.DirtyPages());
  EXPECT_FALSE(heap_side.pool.DirtyPages().empty());

  // Same page images and page LSNs, resident or evicted.
  ASSERT_TRUE(heap_side.pool.FlushAll().ok());
  ASSERT_TRUE(pin_side.pool.FlushAll().ok());
  for (PageId p = 0; p < kScriptPages; ++p) {
    PageImage heap_img, pin_img;
    ASSERT_TRUE(heap_side.env.disk()->ReadPage(p, &heap_img).ok());
    ASSERT_TRUE(pin_side.env.disk()->ReadPage(p, &pin_img).ok());
    EXPECT_EQ(heap_img.page_lsn, pin_img.page_lsn) << p;
    EXPECT_TRUE(heap_img.data == pin_img.data) << p;
  }
}

TEST(HeapMemoryAccessTest, BeforePinFiresOncePerAccess) {
  ScriptPool side(/*capacity=*/2);
  std::vector<PageId> gated;
  bool in_gate = false;
  BufferPool::Hooks hooks = side.Hooks();
  hooks.before_pin = [&](PageId p) {
    if (in_gate) return Status::OK();  // its own Pin re-enters the gate
    gated.push_back(p);
    // The gate may pin the page itself (instant redo does).
    in_gate = true;
    auto frame = side.pool.Pin(p);
    in_gate = false;
    if (!frame.ok()) return frame.status();
    side.pool.Unpin(p);
    return Status::OK();
  };
  side.pool.SetHooks(hooks);
  HeapMemory mem(&side.pool);
  const HeapAddr page1 = 1 * kPageSizeBytes;
  const HeapAddr page2 = 2 * kPageSizeBytes;

  ASSERT_TRUE(mem.WriteWordLogged(page1, 7, 10).ok());  // gate's pin missed
  ASSERT_TRUE(mem.ReadWord(page1).ok());                // hit
  ASSERT_TRUE(mem.WriteWordUnlogged(page2, 8).ok());    // gate's pin missed
  EXPECT_EQ(gated, (std::vector<PageId>{1, 1, 2}));
  // A byte range over pages 2..3 is one access per page: page 3 is a miss
  // inside the access itself (the gate no longer pins after this point).
  hooks.before_pin = [&](PageId p) {
    gated.push_back(p);
    return p == 9 ? Status::IOError("gate refuses page 9") : Status::OK();
  };
  side.pool.SetHooks(hooks);
  std::vector<uint8_t> buf(2 * kWordSizeBytes, 0xab);
  ASSERT_TRUE(mem.WriteBytesLogged(4 * kPageSizeBytes - kWordSizeBytes,
                                   buf.data(), buf.size(), 11)
                  .ok());
  ASSERT_TRUE(mem.ReadBytes(page2, kWordSizeBytes, buf.data()).ok());
  EXPECT_EQ(gated, (std::vector<PageId>{1, 1, 2, 3, 4, 2}));
  // A failing gate fails the access before the page is looked up.
  const uint64_t misses = side.pool.stats().misses;
  EXPECT_TRUE(mem.ReadWord(9 * kPageSizeBytes).status().IsIOError());
  EXPECT_FALSE(side.pool.IsResident(9));
  EXPECT_EQ(side.pool.stats().misses, misses);
}

TEST(HeapMemoryAccessTest, ConcurrentAccessesCountAndPersist) {
  SimEnv env;
  BufferPool::Hooks hooks;
  hooks.flush_log_to = [](Lsn) { return Status::OK(); };
  BufferPool pool(env.disk(), /*capacity_frames=*/8, hooks);
  HeapMemory mem(&pool);
  constexpr int kThreads = 4;
  constexpr int kRounds = 400;
  constexpr PageId kShared = 3;  // pages 0..2, every thread
  // Thread t owns words [t * 64, t * 64 + 64) of each shared page and all
  // of pages kShared + 2t and kShared + 2t + 1.
  auto shared_addr = [](int t, int i) {
    return (i % kShared) * kPageSizeBytes +
           (t * 64 + i % 64) * kWordSizeBytes;
  };
  auto own_addr = [](int t, int i) {
    return (kShared + 2 * t + i % 2) * kPageSizeBytes +
           (i % kWordsPerPage) * kWordSizeBytes;
  };
  auto value = [](int t, int i) { return uint64_t(t) << 32 | uint64_t(i); };

  pool.BeginConcurrent();
  pool.ResetStats();
  std::atomic<uint64_t> accesses{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t n = 0;
      for (int i = 0; i < kRounds; ++i) {
        const Lsn lsn = 1 + i;
        if (!mem.WriteWordLogged(shared_addr(t, i), value(t, i), lsn).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        if (!mem.WriteWordUnlogged(own_addr(t, i), value(t, i)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        auto shared = mem.ReadWord(shared_addr(t, i));
        auto own = mem.ReadWord(own_addr(t, i));
        if (!shared.ok() || *shared != value(t, i) || !own.ok() ||
            *own != value(t, i)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        n += 4;
      }
      accesses.fetch_add(n, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) th.join();
  pool.EndConcurrent();

  EXPECT_EQ(failures.load(), 0);
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, accesses.load());
  // At least one miss per page (two threads may race on a shared page's
  // miss), and no eviction while concurrent.
  EXPECT_GE(s.misses, kShared + 2 * kThreads);
  EXPECT_EQ(s.evictions, 0u);
  // Every thread's last write to each of its words reads back.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = kRounds - 128; i < kRounds; ++i) {
      EXPECT_EQ(*mem.ReadWord(shared_addr(t, i)), value(t, i));
    }
    for (int i = 0; i < kRounds; ++i) {  // kRounds < kWordsPerPage
      EXPECT_EQ(*mem.ReadWord(own_addr(t, i)), value(t, i));
    }
  }
  for (PageId p = 0; p < kShared; ++p) {
    EXPECT_TRUE(pool.IsDirty(p));
  }
  EXPECT_EQ(pool.DirtyPages().front().second, 1u);  // recLSN: first write
}

}  // namespace
}  // namespace sheap
