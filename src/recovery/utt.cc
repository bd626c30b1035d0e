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
  Batch batch;
  batch.entries = entries;
  batch.pending = active;
  batches_.push_back(std::move(batch));
  for (const auto& e : entries) by_from_[e.from] = e;
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
    RebuildIndex();
  }
}

const UtrEntry* UndoTranslationTable::FindCovering(HeapAddr a) const {
  auto it = by_from_.upper_bound(a);
  if (it == by_from_.begin()) return nullptr;
  --it;
  const UtrEntry& e = it->second;
  if (a >= e.from && a < e.from + e.nwords * kWordSizeBytes) return &e;
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
  by_from_.clear();
}

void UndoTranslationTable::RebuildIndex() {
  by_from_.clear();
  for (const auto& batch : batches_) {
    for (const auto& e : batch.entries) by_from_[e.from] = e;
  }
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
  RebuildIndex();
  return Status::OK();
}

}  // namespace sheap
