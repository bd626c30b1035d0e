// Unit tests for the heap layer: object headers, type registry, spaces,
// handle table, word/byte memory access.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "heap/handle_table.h"
#include "heap/heap_memory.h"
#include "heap/object.h"
#include "heap/space_manager.h"
#include "heap/type_registry.h"
#include "wal/log_reader.h"
#include "storage/sim_env.h"
#include "wal/log_writer.h"

namespace sheap {
namespace {

/// Pool hooks with only the WAL constraint wired.
BufferPool::Hooks WalOnlyHooks(LogWriter* writer) {
  BufferPool::Hooks hooks;
  hooks.flush_log_to = [writer](Lsn lsn) { return writer->FlushTo(lsn); };
  return hooks;
}

TEST(ObjectHeaderTest, EncodeDecodeRoundTrip) {
  uint64_t w = EncodeHeader(/*class_id=*/12, /*nslots=*/345);
  ASSERT_TRUE(IsHeaderWord(w));
  EXPECT_FALSE(IsForwardWord(w));
  ObjectHeader hdr = DecodeHeader(w);
  EXPECT_EQ(hdr.class_id, 12u);
  EXPECT_EQ(hdr.nslots, 345u);
  EXPECT_EQ(hdr.TotalWords(), 346u);
}

TEST(ObjectHeaderTest, ForwardWordRoundTrip) {
  const HeapAddr to = 0x123456789 * 8;
  uint64_t w = MakeForwardWord(to);
  ASSERT_TRUE(IsForwardWord(w));
  EXPECT_FALSE(IsHeaderWord(w));
  EXPECT_EQ(ForwardTarget(w), to);
}

TEST(ObjectHeaderTest, ZeroIsNeitherHeaderNorForward) {
  EXPECT_FALSE(IsHeaderWord(0));
  EXPECT_FALSE(IsForwardWord(0));
}

TEST(ObjectHeaderTest, SlotAddressing) {
  const HeapAddr base = 4096;
  EXPECT_EQ(SlotAddr(base, 0), base + 8);
  EXPECT_EQ(SlotAddr(base, 3), base + 32);
  EXPECT_EQ(SlotIndex(base, SlotAddr(base, 5)), 5u);
}

TEST(TypeRegistryTest, BuiltInArrays) {
  TypeRegistry reg;
  EXPECT_TRUE(reg.IsRegistered(kClassDataArray));
  EXPECT_TRUE(reg.IsRegistered(kClassPtrArray));
  EXPECT_FALSE(reg.IsPointerSlot(kClassDataArray, 0));
  EXPECT_TRUE(reg.IsPointerSlot(kClassPtrArray, 99));
  EXPECT_EQ(reg.FixedSlots(kClassPtrArray), 0u);
}

TEST(TypeRegistryTest, UserClassPointerMap) {
  TypeRegistry reg;
  auto id = reg.Register({false, true, false, true});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, kFirstUserClass);
  EXPECT_FALSE(reg.IsPointerSlot(*id, 0));
  EXPECT_TRUE(reg.IsPointerSlot(*id, 1));
  EXPECT_TRUE(reg.IsPointerSlot(*id, 3));
  EXPECT_EQ(reg.FixedSlots(*id), 4u);
}

TEST(TypeRegistryTest, MapEncodeDecodeRoundTrip) {
  TypeRegistry reg;
  std::vector<bool> map = {true, false, false, true, true, false, true,
                           false, true};
  auto id = reg.Register(map);
  ASSERT_TRUE(id.ok());
  auto bytes = reg.EncodeMap(*id);
  EXPECT_EQ(TypeRegistry::DecodeMap(bytes, map.size()), map);
}

TEST(TypeRegistryTest, InstallAtMatchesOrConflicts) {
  TypeRegistry reg;
  ASSERT_TRUE(reg.InstallAt(kFirstUserClass, {true, false}).ok());
  // Identical re-install is fine (re-registration after recovery).
  EXPECT_TRUE(reg.InstallAt(kFirstUserClass, {true, false}).ok());
  // Conflicting definition is rejected.
  EXPECT_TRUE(
      reg.InstallAt(kFirstUserClass, {false, false}).IsInvalidArgument());
  // Out-of-order install is rejected.
  EXPECT_TRUE(reg.InstallAt(kFirstUserClass + 5, {true}).IsInvalidArgument());
}

TEST(TypeRegistryTest, FullTableRoundTrip) {
  TypeRegistry reg;
  ASSERT_TRUE(reg.Register({true, false}).ok());
  ASSERT_TRUE(reg.Register({false, false, true}).ok());
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  reg.EncodeAllTo(&enc);
  TypeRegistry reg2;
  Decoder dec(buf);
  ASSERT_TRUE(reg2.DecodeAllFrom(&dec).ok());
  EXPECT_TRUE(reg2.IsPointerSlot(kFirstUserClass, 0));
  EXPECT_TRUE(reg2.IsPointerSlot(kFirstUserClass + 1, 2));
  EXPECT_FALSE(reg2.IsPointerSlot(kFirstUserClass + 1, 0));
}

class SpaceTest : public ::testing::Test {
 protected:
  SpaceTest()
      : writer_(env_.log()),
        pool_(env_.disk(), 64,
              WalOnlyHooks(&writer_)),
        spaces_(&writer_, env_.disk(), &pool_) {}

  SimEnv env_;
  LogWriter writer_;
  BufferPool pool_;
  SpaceManager spaces_;
};

TEST_F(SpaceTest, AllocateAssignsFreshPages) {
  auto a = spaces_.Allocate(10, Area::kStable);
  auto b = spaces_.Allocate(5, Area::kVolatile);
  ASSERT_TRUE(a.ok() && b.ok());
  const Space* sa = spaces_.Find(*a);
  const Space* sb = spaces_.Find(*b);
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sa->base_page + sa->npages, sb->base_page);  // no overlap
  EXPECT_EQ(sa->area, Area::kStable);
  EXPECT_EQ(sb->area, Area::kVolatile);
}

TEST_F(SpaceTest, ContainingFindsLiveSpaceOnly) {
  auto a = spaces_.Allocate(4, Area::kStable);
  ASSERT_TRUE(a.ok());
  const Space* sp = spaces_.Find(*a);
  EXPECT_EQ(spaces_.Containing(sp->base()), sp);
  EXPECT_EQ(spaces_.Containing(sp->end() - 8), sp);
  ASSERT_TRUE(spaces_.Free(*a).ok());
  EXPECT_EQ(spaces_.Containing(sp->base()), nullptr);
}

TEST_F(SpaceTest, FreeDropsDiskPages) {
  auto a = spaces_.Allocate(2, Area::kStable);
  ASSERT_TRUE(a.ok());
  const Space* sp = spaces_.Find(*a);
  PageImage img;
  img.WriteWord(0, 42);
  ASSERT_TRUE(env_.disk()->WritePage(sp->base_page, img).ok());
  ASSERT_TRUE(spaces_.Free(*a).ok());
  PageImage out;
  ASSERT_TRUE(env_.disk()->ReadPage(sp->base_page, &out).ok());
  EXPECT_EQ(out.ReadWord(0), 0u);
}

TEST_F(SpaceTest, RecoveryReplayRebuildsTable) {
  auto a = spaces_.Allocate(3, Area::kStable);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(writer_.Flush().ok());

  // Rebuild from the log on a fresh manager.
  LogWriter writer2(env_.log());
  SpaceManager rebuilt(&writer2, env_.disk(), &pool_);
  LogReader reader(env_.log());
  LogRecord rec;
  while (true) {
    auto more = reader.Next(&rec);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    if (rec.type == RecordType::kSpaceAlloc) rebuilt.ApplyAllocRecord(rec);
    if (rec.type == RecordType::kSpaceFree) rebuilt.ApplyFreeRecord(rec);
  }
  const Space* sp = rebuilt.Find(*a);
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->npages, 3u);
  const PageId end_page = sp->base_page + sp->npages;
  // The rebuilt manager continues page allocation past existing spaces.
  // (Allocate may grow the space vector, so don't hold `sp` across it.)
  auto b = rebuilt.Allocate(1, Area::kStable);
  ASSERT_TRUE(b.ok());
  EXPECT_GE(rebuilt.Find(*b)->base_page, end_page);
}

TEST_F(SpaceTest, EncodeDecodeRoundTrip) {
  ASSERT_TRUE(spaces_.Allocate(3, Area::kStable).ok());
  auto b = spaces_.Allocate(2, Area::kVolatile);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(spaces_.Free(*b).ok());
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  spaces_.EncodeTo(&enc);
  LogWriter writer2(env_.log());
  SpaceManager copy(&writer2, env_.disk(), &pool_);
  Decoder dec(buf);
  ASSERT_TRUE(copy.DecodeFrom(&dec).ok());
  // Only the live space round-trips; the freed one is forgotten.
  ASSERT_EQ(copy.spaces().size(), 1u);
  EXPECT_EQ(copy.spaces()[0].npages, 3u);
  EXPECT_EQ(copy.Find(*b), nullptr);
  // Page allocation still continues past the freed space.
  auto c = copy.Allocate(1, Area::kStable);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(copy.Find(*c)->base_page, 5u);
}

TEST(HandleTableTest, CreateGetSetRelease) {
  HandleTable table;
  Ref r = table.Create(1, 4096);
  auto addr = table.Get(r);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(*addr, 4096u);
  ASSERT_TRUE(table.Set(r, 8192).ok());
  EXPECT_EQ(*table.Get(r), 8192u);
  ASSERT_TRUE(table.Release(r, 1).ok());
  EXPECT_TRUE(table.Get(r).status().IsInvalidArgument());
}

TEST(HandleTableTest, StaleGenerationsDetected) {
  HandleTable table;
  Ref r1 = table.Create(1, 100);
  table.ReleaseTxn(1, {r1});
  Ref r2 = table.Create(2, 200);  // reuses the slot, bumps generation
  EXPECT_TRUE(table.Get(r1).status().IsInvalidArgument());
  EXPECT_EQ(*table.Get(r2), 200u);
}

TEST(HandleTableTest, ReleaseTxnOnlyDropsOwned) {
  HandleTable table;
  Ref a = table.Create(1, 10);
  Ref b = table.Create(2, 20);
  Ref global = table.Create(kNoTxn, 30);
  table.ReleaseTxn(1, {a, b, global});
  EXPECT_FALSE(table.Get(a).ok());
  EXPECT_TRUE(table.Get(b).ok());
  EXPECT_TRUE(table.Get(global).ok());
  EXPECT_EQ(table.LiveCount(), 2u);
}

TEST(HandleTableTest, ForEachLiveAllowsRewriting) {
  HandleTable table;
  table.Create(1, 100);
  table.Create(1, 200);
  table.ForEachLive([](HeapAddr* a) { *a += 1; });
  size_t seen = 0;
  table.ForEachLive([&](HeapAddr* a) {
    ++seen;
    EXPECT_TRUE(*a == 101 || *a == 201);
  });
  EXPECT_EQ(seen, 2u);
}

TEST(HandleTableTest, ResolveChecksTheOwner) {
  HandleTable table;
  Ref mine = table.Create(1, 10);
  Ref global = table.Create(kNoTxn, 20);
  EXPECT_EQ(*table.Resolve(mine, 1), 10u);
  EXPECT_TRUE(table.Resolve(mine, 2).status().IsInvalidArgument());
  EXPECT_EQ(*table.Resolve(global, 2), 20u);
  EXPECT_TRUE(table.Resolve(kNullRef, 1).status().IsInvalidArgument());
  // Only the owner may drop a handle.
  EXPECT_TRUE(table.Release(mine, 2).IsInvalidArgument());
  EXPECT_EQ(*table.Get(mine), 10u);
  ASSERT_TRUE(table.Release(mine, 1).ok());
  EXPECT_TRUE(table.Resolve(mine, 1).status().IsInvalidArgument());
}

TEST(HandleTableTest, TagsRoundTripAndLeaveTheLocalRefIntact) {
  HandleTable table;
  const Ref r = table.Create(1, 4096);
  // A Ref the table hands out is untagged, and resolves as it always did.
  EXPECT_EQ(HandleTable::TagOf(r), 0u);
  EXPECT_EQ(HandleTable::Untag(r), r);
  EXPECT_EQ(*table.Resolve(r, 1), 4096u);
  for (uint32_t tag : {0u, HandleTable::kMaxTags - 1}) {
    const Ref tagged = HandleTable::Tag(r, tag);
    EXPECT_EQ(HandleTable::TagOf(tagged), tag);
    EXPECT_EQ(HandleTable::Untag(tagged), r);
    // The tag sits between the index and the generation; neither moves.
    EXPECT_EQ(tagged >> 48, r >> 48);
    EXPECT_EQ(tagged & ((1ULL << 40) - 1), r & ((1ULL << 40) - 1));
    EXPECT_EQ(*table.Resolve(HandleTable::Untag(tagged), 1), 4096u);
  }
  EXPECT_EQ(HandleTable::Tag(r, 0), r);
  // A tagged Ref is not a Ref of this table until the tag is stripped.
  EXPECT_TRUE(table.Get(HandleTable::Tag(r, 255)).status().IsInvalidArgument());
  // The null Ref is never tagged.
  EXPECT_EQ(HandleTable::Tag(kNullRef, 255), kNullRef);
  EXPECT_EQ(HandleTable::TagOf(kNullRef), 0u);
}

// The tests below create handles in multiples of 16 (the shard count):
// round-robin assignment then comes back to shard 0 at each multiple, so
// the next Create there reuses shard 0's most recently freed slot.
constexpr int kRoundRobin = 16;

TEST(HandleTableTest, ReleaseTxnSkipsARefAlreadyReleased) {
  HandleTable table;
  std::vector<Ref> refs;
  for (int i = 0; i < kRoundRobin; ++i) refs.push_back(table.Create(1, 8 * i));
  ASSERT_TRUE(table.Release(refs[0], 1).ok());
  table.ReleaseTxn(1, refs);
  EXPECT_EQ(table.LiveCount(), 0u);
  // Slot 0 of shard 0 went on its free list once: each new handle holds an
  // entry of its own.
  std::vector<Ref> next;
  for (int i = 0; i < 2 * kRoundRobin; ++i) {
    next.push_back(table.Create(2, 1000 + i));
  }
  for (int i = 0; i < 2 * kRoundRobin; ++i) {
    EXPECT_EQ(*table.Get(next[i]), 1000u + i) << i;
  }
  EXPECT_EQ(table.LiveCount(), 2u * kRoundRobin);
}

TEST(HandleTableTest, SlotReusedByAnotherTransactionStaysLive) {
  HandleTable table;
  std::vector<Ref> first;
  for (int i = 0; i < kRoundRobin; ++i) first.push_back(table.Create(1, i));
  ASSERT_TRUE(table.Release(first[0], 1).ok());
  std::vector<Ref> second;
  for (int i = 0; i < kRoundRobin; ++i) {
    second.push_back(table.Create(2, 100 + i));
  }
  // The first one reuses transaction 1's released slot (generation 2).
  ASSERT_EQ(second.front() >> 48, 2u);
  table.ReleaseTxn(1, first);
  for (int i = 0; i < kRoundRobin; ++i) {
    EXPECT_EQ(*table.Resolve(second[i], 2), 100u + i) << i;
  }
  EXPECT_EQ(table.LiveCount(), static_cast<size_t>(kRoundRobin));
}

TEST(HandleTableTest, SlotReusedByTheSameTransactionIsFreedOnce) {
  HandleTable table;
  std::vector<Ref> refs;
  for (int i = 0; i < kRoundRobin; ++i) refs.push_back(table.Create(1, i));
  ASSERT_TRUE(table.Release(refs[0], 1).ok());
  for (int i = 0; i < kRoundRobin; ++i) refs.push_back(table.Create(1, i));
  ASSERT_EQ(refs[kRoundRobin] >> 48, 2u);  // reuses the released slot
  EXPECT_TRUE(table.Get(refs[0]).status().IsInvalidArgument());
  table.ReleaseTxn(1, refs);
  EXPECT_EQ(table.LiveCount(), 0u);
  for (Ref r : refs) EXPECT_FALSE(table.Get(r).ok());
  std::vector<Ref> next;
  for (int i = 0; i < 2 * kRoundRobin; ++i) {
    next.push_back(table.Create(2, 1000 + i));
  }
  for (int i = 0; i < 2 * kRoundRobin; ++i) {
    EXPECT_EQ(*table.Get(next[i]), 1000u + i) << i;
  }
}

TEST(HandleTableTest, TransactionWithoutHandlesReleasesNothing) {
  HandleTable table;
  Ref other = table.Create(2, 10);
  Ref global = table.Create(kNoTxn, 20);
  table.ReleaseTxn(1, {});
  EXPECT_EQ(table.LiveCount(), 2u);
  EXPECT_TRUE(table.Get(other).ok());
  EXPECT_TRUE(table.Get(global).ok());
}

TEST(HandleTableTest, ReleasedSlotsAreReusedInScanOrder) {
  // Three handles per shard: global indices 0..47, slot = index / 16.
  HandleTable table;
  std::vector<Ref> refs;
  for (int i = 0; i < 3 * kRoundRobin; ++i) refs.push_back(table.Create(1, i));
  // Handed over newest first: the release sorts them itself.
  table.ReleaseTxn(1, std::vector<Ref>(refs.rbegin(), refs.rend()));
  // Each shard's free list holds slots 0, 1, 2 pushed in ascending order,
  // so its next three Creates pop 2, 1, 0, each at generation 2.
  for (int k = 0; k < 3 * kRoundRobin; ++k) {
    const uint64_t shard = k % kRoundRobin;
    const uint64_t slot = 2 - k / kRoundRobin;
    const Ref expected = (2ULL << 48) | (slot * kRoundRobin + shard + 1);
    EXPECT_EQ(table.Create(2, k), expected) << k;
  }
}

TEST(HandleTableTest, ConcurrentTransactionsReleaseOnlyTheirOwn) {
  HandleTable table;
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  constexpr int kPerRound = 40;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const TxnId txn = 1 + t + kThreads * round;  // one id per round
        std::vector<Ref> refs;
        for (int i = 0; i < kPerRound; ++i) {
          const HeapAddr addr = 8 * (txn * kPerRound + i);
          refs.push_back(table.Create(txn, addr));
          auto got = table.Resolve(refs.back(), txn);
          if (!got.ok() || *got != addr) ++errors;
          if (i % 3 == 0 && !table.Release(refs.back(), txn).ok()) ++errors;
        }
        for (int i = 0; i < kPerRound; ++i) {
          if (table.Get(refs[i]).ok() != (i % 3 != 0)) ++errors;
        }
        table.ReleaseTxn(txn, refs);
        for (Ref r : refs) {
          if (table.Get(r).ok()) ++errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(table.LiveCount(), 0u);
}

class HeapMemoryTest : public ::testing::Test {
 protected:
  HeapMemoryTest()
      : writer_(env_.log()),
        pool_(env_.disk(), 64,
              WalOnlyHooks(&writer_)),
        mem_(&pool_) {}

  SimEnv env_;
  LogWriter writer_;
  BufferPool pool_;
  HeapMemory mem_;
};

TEST_F(HeapMemoryTest, WordRoundTrip) {
  ASSERT_TRUE(mem_.WriteWordLogged(4096, 77, 1).ok());
  auto v = mem_.ReadWord(4096);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 77u);
}

TEST_F(HeapMemoryTest, BytesSpanPages) {
  std::vector<uint8_t> data(3 * kPageSizeBytes);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  const HeapAddr addr = kPageSizeBytes - 64;  // crosses two boundaries
  ASSERT_TRUE(mem_.WriteBytesLogged(addr, data.data(), data.size(), 9).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(mem_.ReadBytes(addr, out.size(), out.data()).ok());
  EXPECT_EQ(out, data);
  // All touched pages carry the record's LSN.
  for (PageId p = PageOf(addr); p <= PageOf(addr + data.size() - 1); ++p) {
    auto frame = pool_.Pin(p);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)->page_lsn, 9u);
    pool_.Unpin(p);
  }
}

TEST_F(HeapMemoryTest, ReadHeaderValidates) {
  ASSERT_TRUE(mem_.WriteWordLogged(8192, EncodeHeader(2, 10), 1).ok());
  auto hdr = mem_.ReadHeader(8192);
  ASSERT_TRUE(hdr.ok());
  EXPECT_EQ(hdr->nslots, 10u);
  ASSERT_TRUE(mem_.WriteWordLogged(8192, MakeForwardWord(16384), 2).ok());
  EXPECT_TRUE(mem_.ReadHeader(8192).status().IsCorruption());
}

}  // namespace
}  // namespace sheap
