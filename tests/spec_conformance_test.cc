// Specification-conformance test (paper Chapter 6 / Appendix A, as an
// executable check): drive an identical random operation stream through
// the abstract SpecHeap and the real StableHeap and demand identical
// observable behaviour — every read, every null-ness, and after every
// crash the full reachable object graph (classes, scalars, topology,
// sharing). Collections, checkpoints, background write-backs, and crashes
// are interleaved everywhere; none of them may be observable.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/stable_heap.h"
#include "recovery/redo_executor.h"
#include "wal/log_reader.h"
#include "workload/spec_heap.h"
#include "storage/sim_env.h"

namespace sheap {
namespace {

using spec::Oid;
using spec::SpecHeap;
using spec::SpecObject;

struct ConformanceConfig {
  uint64_t seed;
  bool divided;
  PromotionMethod promotion = PromotionMethod::kAtCommit;
};

class SpecConformanceTest
    : public ::testing::TestWithParam<ConformanceConfig> {};

struct Var {
  Oid oid = spec::kNullOid;
  Ref ref = kNullRef;
};

class Driver {
 public:
  explicit Driver(const ConformanceConfig& cfg) : rng_(cfg.seed) {
    opts_.stable_space_pages = 512;
    opts_.volatile_space_pages = 256;
    opts_.root_slots = 16;
    opts_.divided_heap = cfg.divided;
    opts_.promotion_method = cfg.promotion;
    env_ = std::make_unique<SimEnv>();
    heap_ = std::move(*StableHeap::Open(env_.get(), opts_));
    spec_ = std::make_unique<SpecHeap>(opts_.root_slots);
    // Class 1: slot 0 scalar, slots 1-2 pointers. Registered identically
    // on both sides.
    node_cls_ = *heap_->RegisterClass({false, true, true});
    SHEAP_CHECK_OK(types_.InstallAt(node_cls_, {false, true, true}));
  }

  void Step() {
    if (txn_open_) {
      switch (rng_.Uniform(12)) {
        case 0:
        case 1:
          DoAllocate();
          break;
        case 2:
        case 3:
          DoWriteScalar();
          break;
        case 4:
        case 5:
          DoWriteRef();
          break;
        case 6:
          DoSetRoot();
          break;
        case 7:
          DoGetRoot();
          break;
        case 8:
        case 9:
          DoReadAndCompare();
          break;
        case 10:
          DoCommit();
          break;
        default:
          DoAbort();
          break;
      }
    } else {
      switch (rng_.Uniform(10)) {
        case 0:
          DoCrashRecoverCompare();
          break;
        case 1:
          ASSERT_TRUE(heap_->CollectStableFully().ok());
          break;
        case 2:
          if (opts_.divided_heap) {
            ASSERT_TRUE(heap_->CollectVolatile().ok());
          }
          break;
        case 3:
          ASSERT_TRUE(heap_->Checkpoint().ok());
          break;
        case 4:
          ASSERT_TRUE(heap_->WriteBackPages(rng_.NextDouble(), rng_.Next())
                          .ok());
          break;
        case 5:
          if (!heap_->stable_gc()->collecting()) {
            ASSERT_TRUE(heap_->StartStableCollection().ok());
          } else {
            ASSERT_TRUE(heap_->StepStableCollection(2).ok());
          }
          break;
        default:
          DoBegin();
          break;
      }
    }
  }

  /// Full-graph comparison from the stable roots (run after crashes and at
  /// the end). Checks classes, slot counts, scalar values, topology and
  /// sharing via an oid<->address bijection.
  void CompareReachable() {
    auto txn_or = heap_->Begin();
    ASSERT_TRUE(txn_or.ok()) << txn_or.status().ToString();
    TxnId txn = *txn_or;
    const TxnId stxn = spec_->Begin();
    std::map<Oid, HeapAddr> oid_to_addr;
    std::map<HeapAddr, Oid> addr_to_oid;
    struct Item {
      Oid oid;
      Ref ref;
      HeapAddr parent_slot = kNullAddr;  // diagnostics
    };
    std::vector<Item> work;
    for (uint64_t i = 0; i < opts_.root_slots; ++i) {
      Oid so = *spec_->GetRoot(stxn, i);
      auto ir_or = heap_->GetRoot(txn, i);
      ASSERT_TRUE(ir_or.ok()) << "root " << i << ": "
                              << ir_or.status().ToString();
      Ref ir = *ir_or;
      ASSERT_EQ(so == spec::kNullOid, ir == kNullRef) << "root " << i;
      if (so != spec::kNullOid) {
        work.push_back(
            {so, ir, SlotAddr(heap_->stable_gc()->root_object(), i)});
      }
    }
    while (!work.empty()) {
      Item item = work.back();
      work.pop_back();
      auto addr_or = heap_->DebugAddrOf(item.ref);
      ASSERT_TRUE(addr_or.ok()) << addr_or.status().ToString();
      HeapAddr addr = *addr_or;
      auto [it, fresh] = oid_to_addr.emplace(item.oid, addr);
      ASSERT_EQ(it->second, addr) << "sharing broken for oid " << item.oid;
      auto [jt, fresh2] = addr_to_oid.emplace(addr, item.oid);
      ASSERT_EQ(jt->second, item.oid) << "aliasing broken at addr " << addr;
      if (!fresh) continue;

      const SpecObject* sobj = spec_->Committed(item.oid);
      ASSERT_NE(sobj, nullptr);
      auto header_or = heap_->DebugReadWord(addr);
      ASSERT_TRUE(header_or.ok()) << header_or.status().ToString();
      if (!IsHeaderWord(*header_or)) {
        fprintf(stderr, "parent slot addr: %llu\n",
                (unsigned long long)item.parent_slot);
        DumpValueWriters(addr);
        if (item.parent_slot != kNullAddr) DumpRecordsFor(item.parent_slot);
      }
      ASSERT_TRUE(IsHeaderWord(*header_or))
          << "oid " << item.oid << " addr " << addr << " word " << std::hex
          << *header_or << std::dec << " fwd " << IsForwardWord(*header_or)
          << " pending " << heap_->pending_materializations()->size();
      const ObjectHeader hdr = DecodeHeader(*header_or);
      ASSERT_EQ(hdr.class_id, sobj->cls) << "oid " << item.oid;
      ASSERT_EQ(hdr.nslots, sobj->slots.size());
      for (uint64_t s = 0; s < hdr.nslots; ++s) {
        if (types_.IsPointerSlot(sobj->cls, s)) {
          auto child_or = heap_->ReadRef(txn, item.ref, s);
          ASSERT_TRUE(child_or.ok())
              << "oid " << item.oid << " slot " << s << ": "
              << child_or.status().ToString();
          Oid child_oid = sobj->slots[s];
          ASSERT_EQ(child_oid == spec::kNullOid, *child_or == kNullRef)
              << "oid " << item.oid << " slot " << s;
          if (*child_or != kNullRef) {
            work.push_back({child_oid, *child_or, SlotAddr(addr, s)});
          }
        } else {
          auto value_or = heap_->ReadScalar(txn, item.ref, s);
          ASSERT_TRUE(value_or.ok())
              << "oid " << item.oid << " slot " << s << ": "
              << value_or.status().ToString();
          ASSERT_EQ(*value_or, sobj->slots[s])
              << "oid " << item.oid << " slot " << s;
        }
      }
    }
    ASSERT_TRUE(heap_->Commit(txn).ok());
    ASSERT_TRUE(spec_->Commit(stxn).ok());
  }

  /// Close any open transaction (committing on both sides), then compare.
  void FinalCompare() {
    if (txn_open_) DoCommit();
    if (::testing::Test::HasFatalFailure()) return;
    CompareReachable();
  }

  uint64_t steps_run() const { return steps_; }

  void DumpValueWriters(uint64_t value) {
    LogReader reader(env_->log());
    SHEAP_CHECK_OK(reader.Seek(env_->log()->truncated_prefix() + 1));
    LogRecord rec;
    fprintf(stderr, "--- records writing value %llu ---\n",
            (unsigned long long)value);
    while (true) {
      auto more = reader.Next(&rec);
      if (!more.ok() || !*more) break;
      bool hit = (rec.type == RecordType::kUpdate ||
                  rec.type == RecordType::kClr) &&
                 rec.new_word == value;
      if (rec.type == RecordType::kGcScan) {
        for (auto& [w, v] : rec.slot_updates) hit = hit || v == value;
      }
      if (hit) {
        fprintf(stderr,
                "lsn %llu %-8s txn=%llu addr=%llu new=%llu old=%llu aux=%llu page=%llu\n",
                (unsigned long long)rec.lsn, LogRecord::TypeName(rec.type),
                (unsigned long long)rec.txn_id, (unsigned long long)rec.addr,
                (unsigned long long)rec.new_word,
                (unsigned long long)rec.old_word, (unsigned long long)rec.aux,
                (unsigned long long)rec.page);
      }
    }
  }

  void DumpTxn(TxnId id) {
    LogReader reader(env_->log());
    SHEAP_CHECK_OK(reader.Seek(env_->log()->truncated_prefix() + 1));
    LogRecord rec;
    fprintf(stderr, "--- records of txn %llu ---\n", (unsigned long long)id);
    while (true) {
      auto more = reader.Next(&rec);
      if (!more.ok() || !*more) break;
      if (rec.IsTransactional() && rec.txn_id == id) {
        fprintf(stderr,
                "lsn %llu %-12s prev=%llu unext=%llu addr=%llu addr2=%llu "
                "new=%llu old=%llu aux=%llu\n",
                (unsigned long long)rec.lsn, LogRecord::TypeName(rec.type),
                (unsigned long long)rec.prev_lsn,
                (unsigned long long)rec.undo_next_lsn,
                (unsigned long long)rec.addr, (unsigned long long)rec.addr2,
                (unsigned long long)rec.new_word,
                (unsigned long long)rec.old_word,
                (unsigned long long)rec.aux);
      }
    }
  }

  void DumpRecordsFor(HeapAddr target) {
    LogReader reader(env_->log());
    SHEAP_CHECK_OK(reader.Seek(env_->log()->truncated_prefix() + 1));
    LogRecord rec;
    fprintf(stderr, "--- records covering addr %llu (page %llu) ---\n",
            (unsigned long long)target, (unsigned long long)PageOf(target));
    std::vector<PageId> pages;
    while (true) {
      auto more = reader.Next(&rec);
      if (!more.ok() || !*more) break;
      // A record covers the target if its redo writes the target's page;
      // space and collection boundaries are shown for context.
      RedoExecutor::AffectedPages(rec, &pages);
      const bool hit =
          std::binary_search(pages.begin(), pages.end(), PageOf(target)) ||
          rec.type == RecordType::kSpaceAlloc ||
          rec.type == RecordType::kSpaceFree ||
          rec.type == RecordType::kGcFlip ||
          rec.type == RecordType::kGcComplete;
      if (hit) {
        fprintf(stderr,
                "lsn %llu %-12s txn=%llu prev=%llu unext=%llu addr=%llu "
                "addr2=%llu new=%llu old=%llu count=%llu aux=%llu page=%llu\n",
                (unsigned long long)rec.lsn, LogRecord::TypeName(rec.type),
                (unsigned long long)rec.txn_id,
                (unsigned long long)rec.prev_lsn,
                (unsigned long long)rec.undo_next_lsn,
                (unsigned long long)rec.addr, (unsigned long long)rec.addr2,
                (unsigned long long)rec.new_word,
                (unsigned long long)rec.old_word,
                (unsigned long long)rec.count, (unsigned long long)rec.aux,
                (unsigned long long)rec.page);
      }
    }
  }

 private:
  Var* RandomVar() {
    if (vars_.empty()) return nullptr;
    auto it = vars_.begin();
    std::advance(it, rng_.Uniform(vars_.size()));
    return &it->second;
  }

  void DoBegin() {
    itxn_ = *heap_->Begin();
    stxn_ = spec_->Begin();
    txn_open_ = true;
    vars_.clear();
    ++steps_;
  }

  void DoAllocate() {
    const bool array = rng_.Bernoulli(0.3);
    ClassId cls = array ? (rng_.Bernoulli(0.5) ? kClassPtrArray
                                               : kClassDataArray)
                        : node_cls_;
    uint64_t nslots = array ? 1 + rng_.Uniform(6) : 3;
    auto ir = heap_->Allocate(itxn_, cls, nslots);
    auto so = spec_->Allocate(stxn_, cls, nslots);
    ASSERT_TRUE(ir.ok() && so.ok()) << ir.status().ToString();
    vars_[next_var_++] = Var{*so, *ir};
    ++steps_;
  }

  void DoWriteScalar() {
    Var* v = RandomVar();
    if (v == nullptr) return;
    // Pick a slot; only proceed if it's a scalar slot on the spec side.
    const SpecObject* view = nullptr;
    {
      auto read0 = spec_->ReadSlot(stxn_, v->oid, 0);
      if (!read0.ok()) return;
      view = spec_->Committed(v->oid);  // may be null for fresh: fine
    }
    (void)view;
    const uint64_t value = rng_.Next();
    // Find the slot count via spec reads (slot 0 exists for all classes).
    uint64_t slot = rng_.Uniform(6);
    auto sres = spec_->ReadSlot(stxn_, v->oid, slot);
    if (!sres.ok()) return;  // out of range: skip
    // Scalar or pointer? mirror the registry.
    // (arrays: data=scalar everywhere, ptr=pointer everywhere)
    // We need the class; read it from the impl header via Debug.
    auto addr_or = heap_->DebugAddrOf(v->ref);
    ASSERT_TRUE(addr_or.ok()) << addr_or.status().ToString();
    const ObjectHeader hdr = DecodeHeader(*heap_->DebugReadWord(*addr_or));
    if (types_.IsPointerSlot(hdr.class_id, slot)) return;
    ASSERT_TRUE(heap_->WriteScalar(itxn_, v->ref, slot, value).ok());
    ASSERT_TRUE(spec_->WriteSlot(stxn_, v->oid, slot, value).ok());
    ++steps_;
  }

  void DoWriteRef() {
    Var* dst = RandomVar();
    Var* src = rng_.Bernoulli(0.15) ? nullptr : RandomVar();
    if (dst == nullptr) return;
    uint64_t slot = rng_.Uniform(6);
    auto sres = spec_->ReadSlot(stxn_, dst->oid, slot);
    if (!sres.ok()) return;
    auto addr_or = heap_->DebugAddrOf(dst->ref);
    ASSERT_TRUE(addr_or.ok()) << addr_or.status().ToString();
    const ObjectHeader hdr = DecodeHeader(*heap_->DebugReadWord(*addr_or));
    if (!types_.IsPointerSlot(hdr.class_id, slot)) return;
    ASSERT_TRUE(heap_->WriteRef(itxn_, dst->ref, slot,
                                src == nullptr ? kNullRef : src->ref)
                    .ok());
    ASSERT_TRUE(spec_->WriteSlot(stxn_, dst->oid, slot,
                                 src == nullptr ? spec::kNullOid : src->oid)
                    .ok());
    ++steps_;
  }

  void DoSetRoot() {
    Var* v = rng_.Bernoulli(0.2) ? nullptr : RandomVar();
    const uint64_t index = rng_.Uniform(opts_.root_slots);
    ASSERT_TRUE(
        heap_->SetRoot(itxn_, index, v == nullptr ? kNullRef : v->ref).ok());
    ASSERT_TRUE(spec_->SetRoot(stxn_, index,
                               v == nullptr ? spec::kNullOid : v->oid)
                    .ok());
    ++steps_;
  }

  void DoGetRoot() {
    const uint64_t index = rng_.Uniform(opts_.root_slots);
    auto ir = heap_->GetRoot(itxn_, index);
    auto so = spec_->GetRoot(stxn_, index);
    ASSERT_TRUE(ir.ok() && so.ok());
    ASSERT_EQ(*so == spec::kNullOid, *ir == kNullRef) << "root " << index;
    if (*ir != kNullRef) vars_[next_var_++] = Var{*so, *ir};
    ++steps_;
  }

  void DoReadAndCompare() {
    Var* v = RandomVar();
    if (v == nullptr) return;
    uint64_t slot = rng_.Uniform(6);
    auto sres = spec_->ReadSlot(stxn_, v->oid, slot);
    auto addr_or = heap_->DebugAddrOf(v->ref);
    ASSERT_TRUE(addr_or.ok()) << addr_or.status().ToString();
    const ObjectHeader hdr = DecodeHeader(*heap_->DebugReadWord(*addr_or));
    if (!sres.ok()) {
      // Out of range on the spec side must be out of range on ours too.
      ASSERT_GE(slot, hdr.nslots);
      return;
    }
    if (types_.IsPointerSlot(hdr.class_id, slot)) {
      auto child = heap_->ReadRef(itxn_, v->ref, slot);
      ASSERT_TRUE(child.ok());
      ASSERT_EQ(*sres == spec::kNullOid, *child == kNullRef);
      if (*child != kNullRef) vars_[next_var_++] = Var{*sres, *child};
    } else {
      auto value = heap_->ReadScalar(itxn_, v->ref, slot);
      ASSERT_TRUE(value.ok());
      ASSERT_EQ(*value, *sres) << "oid " << v->oid << " slot " << slot;
    }
    ++steps_;
  }

  void DoCommit() {
    ASSERT_TRUE(heap_->Commit(itxn_).ok());
    ASSERT_TRUE(spec_->Commit(stxn_).ok());
    txn_open_ = false;
    vars_.clear();
    ++steps_;
  }

  void DoAbort() {
    ASSERT_TRUE(heap_->Abort(itxn_).ok());
    ASSERT_TRUE(spec_->Abort(stxn_).ok());
    txn_open_ = false;
    vars_.clear();
    ++steps_;
  }

  void DoCrashRecoverCompare() {
    CrashOptions crash;
    crash.writeback_fraction = rng_.NextDouble();
    crash.seed = rng_.Next();
    crash.tear_tail_bytes = rng_.Bernoulli(0.5) ? rng_.Uniform(4000) : 0;
    ASSERT_TRUE(heap_->SimulateCrash(crash).ok());
    heap_.reset();
    auto reopened = StableHeap::Open(env_.get(), opts_);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    heap_ = std::move(*reopened);
    spec_->Crash(types_);
    CompareReachable();
    ++steps_;
  }

  StableHeapOptions opts_;
  Rng rng_;
  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<StableHeap> heap_;
  std::unique_ptr<SpecHeap> spec_;
  TypeRegistry types_;
  ClassId node_cls_ = 0;

  bool txn_open_ = false;
  TxnId itxn_ = 0;
  TxnId stxn_ = 0;
  std::map<uint64_t, Var> vars_;
  uint64_t next_var_ = 0;
  uint64_t steps_ = 0;
};

TEST_P(SpecConformanceTest, ImplementationRefinesSpecification) {
  Driver driver(GetParam());
  for (int i = 0; i < 900 && !::testing::Test::HasFatalFailure(); ++i) {
    driver.Step();
  }
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  driver.FinalCompare();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SpecConformanceTest,
    ::testing::Values(
        ConformanceConfig{1, true}, ConformanceConfig{2, true},
        ConformanceConfig{3, true}, ConformanceConfig{4, false},
        ConformanceConfig{5, false}, ConformanceConfig{1ull << 40, true},
        ConformanceConfig{11, true, PromotionMethod::kAtNextVolatileGc},
        ConformanceConfig{12, true, PromotionMethod::kAtNextVolatileGc},
        ConformanceConfig{13, true, PromotionMethod::kAtNextVolatileGc}),
    [](const ::testing::TestParamInfo<ConformanceConfig>& param_info) {
      return std::string(param_info.param.divided ? "Div" : "All") +
             (param_info.param.promotion == PromotionMethod::kAtNextVolatileGc
                  ? "M2"
                  : "") +
             "Seed" + std::to_string(param_info.param.seed & 0xffff);
    });

}  // namespace
}  // namespace sheap
