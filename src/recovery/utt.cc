#include "recovery/utt.h"

#include <algorithm>

#include "common/check.h"

namespace sheap {

void UndoTranslationTable::AddBatch(const std::vector<UtrEntry>& entries,
                                    const std::vector<TxnId>& active) {
  // With no transaction active at the flip, no undo information names the
  // moved objects: the batch is prunable at birth. Keeping it would leave
  // it in every checkpoint until some other batch happened to be pruned.
  if (entries.empty() || active.empty()) return;
  batches_.push_back(Batch{entries, active});
  index_stale_ = true;
}

void UndoTranslationTable::OnTxnEnd(TxnId txn) {
  bool pruned = false;
  for (auto& batch : batches_) {
    auto it = std::find(batch.pending.begin(), batch.pending.end(), txn);
    if (it != batch.pending.end()) {
      batch.pending.erase(it);
      if (batch.pending.empty()) pruned = true;
    }
  }
  if (pruned) {
    batches_.erase(std::remove_if(batches_.begin(), batches_.end(),
                                  [](const Batch& b) {
                                    return b.pending.empty();
                                  }),
                   batches_.end());
    index_stale_ = true;
  }
}

const std::vector<UtrEntry>& UndoTranslationTable::Index() const {
  if (!index_stale_) return index_;
  index_.clear();
  for (const auto& batch : batches_) {
    index_.insert(index_.end(), batch.entries.begin(), batch.entries.end());
  }
  // Stable, so each run of equal `from`s keeps insertion order and its last
  // entry is the latest one added: the one lookups must see.
  std::stable_sort(index_.begin(), index_.end(),
                   [](const UtrEntry& x, const UtrEntry& y) {
                     return x.from < y.from;
                   });
  auto out = index_.begin();
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    if (it + 1 != index_.end() && (it + 1)->from == it->from) continue;
    *out++ = *it;
  }
  index_.erase(out, index_.end());
  index_stale_ = false;
  return index_;
}

const UtrEntry* UndoTranslationTable::FindCovering(HeapAddr a) const {
  const std::vector<UtrEntry>& index = Index();
  auto it = std::upper_bound(
      index.begin(), index.end(), a,
      [](HeapAddr addr, const UtrEntry& e) { return addr < e.from; });
  if (it == index.begin()) return nullptr;
  --it;
  if (a >= it->from && a < it->from + it->nwords * kWordSizeBytes) {
    return &*it;
  }
  return nullptr;
}

HeapAddr UndoTranslationTable::Translate(HeapAddr a) const {
  // Chains strictly increase (page ids are never reused and new spaces have
  // higher page numbers), so this terminates.
  const UtrEntry* e;
  while ((e = FindCovering(a)) != nullptr) {
    HeapAddr next = e->to + (a - e->from);
    SHEAP_CHECK(next != a);
    a = next;
  }
  return a;
}

bool UndoTranslationTable::Covers(HeapAddr a) const {
  return FindCovering(a) != nullptr;
}

void UndoTranslationTable::Clear() {
  batches_.clear();
  index_stale_ = true;
}

void UndoTranslationTable::EncodeTo(Encoder* enc) const {
  enc->PutVarint(batches_.size());
  for (const auto& batch : batches_) {
    enc->PutVarint(batch.entries.size());
    for (const auto& e : batch.entries) {
      enc->PutVarint(e.from);
      enc->PutVarint(e.to);
      enc->PutVarint(e.nwords);
    }
    enc->PutVarint(batch.pending.size());
    for (TxnId t : batch.pending) enc->PutVarint(t);
  }
}

Status UndoTranslationTable::DecodeFrom(Decoder* dec) {
  Clear();
  uint64_t nbatches;
  if (!dec->GetVarint(&nbatches)) return Status::Corruption("bad utt");
  for (uint64_t i = 0; i < nbatches; ++i) {
    Batch batch;
    uint64_t nentries;
    if (!dec->GetVarint(&nentries)) return Status::Corruption("bad utt");
    for (uint64_t j = 0; j < nentries; ++j) {
      UtrEntry e;
      if (!dec->GetVarint(&e.from) || !dec->GetVarint(&e.to) ||
          !dec->GetVarint(&e.nwords)) {
        return Status::Corruption("bad utt entry");
      }
      batch.entries.push_back(e);
    }
    uint64_t npending;
    if (!dec->GetVarint(&npending)) return Status::Corruption("bad utt");
    for (uint64_t j = 0; j < npending; ++j) {
      uint64_t t;
      if (!dec->GetVarint(&t)) return Status::Corruption("bad utt txn");
      batch.pending.push_back(t);
    }
    batches_.push_back(std::move(batch));
  }
  return Status::OK();
}

}  // namespace sheap
