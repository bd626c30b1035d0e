#include "workload/workloads.h"

#include "common/check.h"

namespace sheap::workload {

// ----------------------------------------------------------------- Bank
//
// Layout: root[root_index] -> directory (ptr array) -> buckets
// (data arrays of kBucketSize balances).

Status Bank::Setup(uint64_t n, uint64_t initial_balance) {
  accounts_ = n;
  const uint64_t nbuckets = (n + kBucketSize - 1) / kBucketSize;
  SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap_->Begin());
  SHEAP_ASSIGN_OR_RETURN(Ref dir,
                         heap_->Allocate(txn, kClassPtrArray, nbuckets));
  for (uint64_t b = 0; b < nbuckets; ++b) {
    SHEAP_ASSIGN_OR_RETURN(
        Ref bucket, heap_->Allocate(txn, kClassDataArray, kBucketSize));
    for (uint64_t i = 0; i < kBucketSize; ++i) {
      const uint64_t account = b * kBucketSize + i;
      if (account >= n) break;
      SHEAP_RETURN_IF_ERROR(
          heap_->WriteScalar(txn, bucket, i, initial_balance));
    }
    SHEAP_RETURN_IF_ERROR(heap_->WriteRef(txn, dir, b, bucket));
  }
  SHEAP_RETURN_IF_ERROR(heap_->SetRoot(txn, root_index_, dir));
  return heap_->CommitSync(txn);
}

Status Bank::Attach() {
  SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap_->Begin());
  SHEAP_ASSIGN_OR_RETURN(Ref dir, heap_->GetRoot(txn, root_index_));
  if (dir == kNullRef) {
    SHEAP_RETURN_IF_ERROR(heap_->Abort(txn));
    return Status::NotFound("no bank under this root");
  }
  SHEAP_ASSIGN_OR_RETURN(HeapAddr dir_addr, heap_->DebugAddrOf(dir));
  SHEAP_ASSIGN_OR_RETURN(uint64_t header, heap_->DebugReadWord(dir_addr));
  accounts_ = DecodeHeader(header).nslots * kBucketSize;
  return heap_->CommitSync(txn);
}

StatusOr<Ref> Bank::Bucket(TxnId txn, uint64_t account) {
  SHEAP_ASSIGN_OR_RETURN(Ref dir, heap_->GetRoot(txn, root_index_));
  if (dir == kNullRef) return Status::NotFound("bank not set up");
  return heap_->ReadRef(txn, dir, account / kBucketSize);
}

Status Bank::Transfer(uint64_t from, uint64_t to, uint64_t amount,
                      bool abort_instead) {
  SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap_->Begin());
  auto body = [&]() -> Status {
    SHEAP_ASSIGN_OR_RETURN(Ref fb, Bucket(txn, from));
    SHEAP_ASSIGN_OR_RETURN(Ref tb, Bucket(txn, to));
    SHEAP_ASSIGN_OR_RETURN(
        uint64_t fbal, heap_->ReadScalar(txn, fb, from % kBucketSize));
    SHEAP_ASSIGN_OR_RETURN(uint64_t tbal,
                           heap_->ReadScalar(txn, tb, to % kBucketSize));
    if (fbal < amount) return Status::InvalidArgument("insufficient funds");
    SHEAP_RETURN_IF_ERROR(
        heap_->WriteScalar(txn, fb, from % kBucketSize, fbal - amount));
    // A self-transfer credits the balance it just debited, not the stale
    // read, so it leaves the account unchanged.
    if (from == to) tbal = fbal - amount;
    SHEAP_RETURN_IF_ERROR(
        heap_->WriteScalar(txn, tb, to % kBucketSize, tbal + amount));
    return Status::OK();
  };
  Status st = body();
  if (!st.ok()) {
    // Best-effort rollback: the body's error is what the caller needs;
    // a failed abort leaves the txn for recovery (audited discard).
    (void)heap_->Abort(txn);
    return st;
  }
  if (abort_instead) return heap_->Abort(txn);
  return heap_->CommitSync(txn);
}

StatusOr<uint64_t> Bank::TotalBalance() {
  SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap_->Begin());
  uint64_t total = 0;
  auto body = [&]() -> Status {
    for (uint64_t a = 0; a < accounts_; ++a) {
      SHEAP_ASSIGN_OR_RETURN(Ref bucket, Bucket(txn, a));
      SHEAP_ASSIGN_OR_RETURN(uint64_t bal,
                             heap_->ReadScalar(txn, bucket,
                                               a % kBucketSize));
      total += bal;
    }
    return Status::OK();
  };
  Status st = body();
  if (!st.ok()) {
    // Best-effort rollback: the body's error is what the caller needs;
    // a failed abort leaves the txn for recovery (audited discard).
    (void)heap_->Abort(txn);
    return st;
  }
  SHEAP_RETURN_IF_ERROR(heap_->CommitSync(txn));
  return total;
}

StatusOr<uint64_t> Bank::BalanceOf(uint64_t account) {
  SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap_->Begin());
  auto result = [&]() -> StatusOr<uint64_t> {
    SHEAP_ASSIGN_OR_RETURN(Ref bucket, Bucket(txn, account));
    return heap_->ReadScalar(txn, bucket, account % kBucketSize);
  }();
  if (!result.ok()) {
    // Best-effort rollback, as above (audited discard).
    (void)heap_->Abort(txn);
    return result;
  }
  SHEAP_RETURN_IF_ERROR(heap_->CommitSync(txn));
  return result;
}

// ------------------------------------------------------------ CAD design

namespace {

StatusOr<Ref> BuildAssembly(StableHeap* heap, TxnId txn,
                            const NodeClass& cls, uint64_t depth,
                            uint64_t fanout,
                            const std::vector<Ref>& composites, Rng* rng,
                            uint64_t* assemblies) {
  SHEAP_ASSIGN_OR_RETURN(Ref node, heap->Allocate(txn, cls.id, cls.nslots));
  SHEAP_RETURN_IF_ERROR(heap->WriteScalar(txn, node, 0, (*assemblies)++));
  const uint64_t children = std::min<uint64_t>(fanout, cls.fanout);
  for (uint64_t i = 0; i < children; ++i) {
    if (depth == 0) {
      // Leaf assembly: reference shared composite parts.
      Ref part = composites[rng->Uniform(composites.size())];
      SHEAP_RETURN_IF_ERROR(heap->WriteRef(txn, node, 1 + i, part));
    } else {
      SHEAP_ASSIGN_OR_RETURN(
          Ref child, BuildAssembly(heap, txn, cls, depth - 1, fanout,
                                   composites, rng, assemblies));
      SHEAP_RETURN_IF_ERROR(heap->WriteRef(txn, node, 1 + i, child));
    }
  }
  return node;
}

}  // namespace

StatusOr<CadDesign> BuildCadDesign(StableHeap* heap, const NodeClass& cls,
                                   uint64_t root_index, uint64_t depth,
                                   uint64_t fanout, uint64_t ncomposites,
                                   Rng* rng) {
  SHEAP_CHECK(ncomposites > 0);
  CadDesign design;
  SHEAP_ASSIGN_OR_RETURN(TxnId txn, heap->Begin());
  // Composite parts: small graphs of their own (a part + attached atoms).
  std::vector<Ref> composites;
  for (uint64_t i = 0; i < ncomposites; ++i) {
    SHEAP_ASSIGN_OR_RETURN(Ref part, heap->Allocate(txn, cls.id, cls.nslots));
    SHEAP_RETURN_IF_ERROR(heap->WriteScalar(txn, part, 0, 7'000'000 + i));
    for (uint64_t s = 0; s < cls.fanout && s < 2; ++s) {
      SHEAP_ASSIGN_OR_RETURN(Ref atom,
                             heap->Allocate(txn, cls.id, cls.nslots));
      SHEAP_RETURN_IF_ERROR(heap->WriteScalar(txn, atom, 0, rng->Next()));
      SHEAP_RETURN_IF_ERROR(heap->WriteRef(txn, part, 1 + s, atom));
    }
    composites.push_back(part);
  }
  SHEAP_ASSIGN_OR_RETURN(
      Ref root, BuildAssembly(heap, txn, cls, depth, fanout, composites, rng,
                              &design.assemblies));
  SHEAP_RETURN_IF_ERROR(heap->SetRoot(txn, root_index, root));
  SHEAP_RETURN_IF_ERROR(heap->CommitSync(txn));
  design.root = root;  // note: handle released by commit; informational
  design.composites = ncomposites;
  return design;
}

}  // namespace sheap::workload
