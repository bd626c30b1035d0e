#include "heap/space_manager.h"

#include <algorithm>

#include "common/check.h"

namespace sheap {

StatusOr<SpaceId> SpaceManager::Allocate(uint64_t npages, Area area) {
  if (npages == 0) return Status::InvalidArgument("empty space");
  Space sp;
  sp.id = next_space_id_++;
  sp.base_page = next_page_;
  sp.npages = npages;
  sp.area = area;
  next_page_ += npages;
  spaces_.push_back(sp);

  LogRecord rec;
  rec.type = RecordType::kSpaceAlloc;
  rec.aux = sp.id;
  rec.page = sp.base_page;
  rec.count = sp.npages;
  rec.new_word = static_cast<uint64_t>(area);
  log_->Append(&rec);
  return sp.id;
}

std::deque<Space>::iterator SpaceManager::Lookup(SpaceId id) {
  return std::find_if(spaces_.begin(), spaces_.end(),
                      [id](const Space& sp) { return sp.id == id; });
}

Status SpaceManager::Free(SpaceId id) {
  auto it = Lookup(id);
  if (it == spaces_.end()) return Status::NotFound("unknown space");
  const Space sp = *it;
  spaces_.erase(it);
  LogRecord rec;
  rec.type = RecordType::kSpaceFree;
  rec.aux = id;
  const Lsn lsn = log_->Append(&rec);
  // The WAL rule applies to deallocation too: dropping the pages destroys
  // state that repeating history may still need if the free record were
  // lost with the log suffix. One buffered flush per space free.
  SHEAP_RETURN_IF_ERROR(log_->FlushTo(lsn));
  pool_->DropRange(sp.base_page, sp.npages);
  for (PageId p = sp.base_page; p < sp.base_page + sp.npages; ++p) {
    disk_->DropPage(p);
  }
  return Status::OK();
}

const Space* SpaceManager::Find(SpaceId id) const {
  for (const auto& sp : spaces_) {
    if (sp.id == id) return &sp;
  }
  return nullptr;
}

const Space* SpaceManager::Containing(HeapAddr a) const {
  for (const auto& sp : spaces_) {
    if (sp.Contains(a)) return &sp;
  }
  return nullptr;
}

void SpaceManager::ApplyAllocRecord(const LogRecord& rec) {
  SHEAP_CHECK(rec.type == RecordType::kSpaceAlloc);
  // Idempotent: the space may already be known from the checkpoint.
  if (Find(static_cast<SpaceId>(rec.aux)) != nullptr) return;
  Space sp;
  sp.id = static_cast<SpaceId>(rec.aux);
  sp.base_page = rec.page;
  sp.npages = rec.count;
  sp.area = static_cast<Area>(rec.new_word);
  spaces_.push_back(sp);
  next_space_id_ = std::max(next_space_id_, sp.id + 1);
  next_page_ = std::max(next_page_, sp.base_page + sp.npages);
}

void SpaceManager::ApplyFreeRecord(const LogRecord& rec) {
  SHEAP_CHECK(rec.type == RecordType::kSpaceFree);
  auto it = Lookup(static_cast<SpaceId>(rec.aux));
  // Free of a space allocated before the truncation point and absent from
  // the checkpoint cannot happen (checkpoints carry every live space).
  SHEAP_CHECK(it != spaces_.end() && "kSpaceFree for unknown space");
  replayed_frees_.push_back(*it);
  spaces_.erase(it);
}

void SpaceManager::DropFreedFromDisk() {
  for (const Space& sp : replayed_frees_) {
    for (PageId p = sp.base_page; p < sp.base_page + sp.npages; ++p) {
      disk_->DropPage(p);
    }
  }
  replayed_frees_.clear();
}

void SpaceManager::EncodeTo(Encoder* enc) const {
  enc->PutVarint(next_space_id_);
  enc->PutVarint(next_page_);
  enc->PutVarint(spaces_.size());
  for (const auto& sp : spaces_) {
    enc->PutVarint(sp.id);
    enc->PutVarint(sp.base_page);
    enc->PutVarint(sp.npages);
    enc->PutU8(static_cast<uint8_t>(sp.area));
  }
}

Status SpaceManager::DecodeFrom(Decoder* dec) {
  spaces_.clear();
  uint64_t next_id, next_page, n;
  if (!dec->GetVarint(&next_id) || !dec->GetVarint(&next_page) ||
      !dec->GetVarint(&n)) {
    return Status::Corruption("bad space table");
  }
  next_space_id_ = static_cast<SpaceId>(next_id);
  next_page_ = next_page;
  for (uint64_t i = 0; i < n; ++i) {
    Space sp;
    uint64_t id, base, npages;
    uint8_t area;
    if (!dec->GetVarint(&id) || !dec->GetVarint(&base) ||
        !dec->GetVarint(&npages) || !dec->GetU8(&area)) {
      return Status::Corruption("bad space entry");
    }
    sp.id = static_cast<SpaceId>(id);
    sp.base_page = base;
    sp.npages = npages;
    sp.area = static_cast<Area>(area);
    spaces_.push_back(sp);
  }
  return Status::OK();
}

}  // namespace sheap
