// Unit tests for the storage substrate: simulated disk, stable log device,
// and the buffer pool's pinning / WAL-constraint / write-back behaviour.

#include <gtest/gtest.h>

#include "common/rng.h"
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
  EXPECT_EQ(pool.MinRecLsn(), 100u);
  ASSERT_TRUE(pool.WriteBack(5).ok());
  EXPECT_FALSE(pool.IsDirty(5));
  EXPECT_EQ(pool.MinRecLsn(), kInvalidLsn);
  // Re-dirty: the recLSN must be the NEW first-dirtying record, not the
  // stale one from the previous cycle.
  frame = pool.Pin(5);
  ASSERT_TRUE(frame.ok());
  (*frame)->WriteWord(0, 2);
  pool.MarkDirty(5, 900);
  pool.Unpin(5);
  auto dirty = pool.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], (std::pair<PageId, Lsn>{5, 900}));
  EXPECT_EQ(pool.MinRecLsn(), 900u);
}

TEST_F(BufferPoolTest, MinRecLsnTracksDirtySet) {
  BufferPool pool = MakePool(8);
  for (const auto& [pid, lsn] :
       std::vector<std::pair<PageId, Lsn>>{{1, 50}, {2, 20}, {3, 70}}) {
    auto frame = pool.Pin(pid);
    ASSERT_TRUE(frame.ok());
    pool.MarkDirty(pid, lsn);
    pool.Unpin(pid);
  }
  // Unlogged dirty pages carry no recLSN and must not affect the floor.
  auto frame = pool.Pin(4);
  ASSERT_TRUE(frame.ok());
  pool.MarkDirtyUnlogged(4);
  pool.Unpin(4);
  EXPECT_EQ(pool.MinRecLsn(), 20u);
  ASSERT_TRUE(pool.WriteBack(2).ok());
  EXPECT_EQ(pool.MinRecLsn(), 50u);
  ASSERT_TRUE(pool.WriteBack(1).ok());
  ASSERT_TRUE(pool.WriteBack(3).ok());
  EXPECT_EQ(pool.MinRecLsn(), kInvalidLsn);  // only the unlogged page left
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

}  // namespace
}  // namespace sheap
