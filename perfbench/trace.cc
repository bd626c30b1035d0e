#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "storage/page.h"

namespace perfbench {

using sheap::Lsn;
using sheap::PageId;
using sheap::PageImage;
using sheap::Status;

Totals& Totals::operator+=(const Totals& o) {
  for (size_t r = 0; r < kNumKinds; ++r) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      by[r][k].count += o.by[r][k].count;
      by[r][k].total_ns += o.by[r][k].total_ns;
      by[r][k].self_ns += o.by[r][k].self_ns;
    }
  }
  txn_wall_ns += o.txn_wall_ns;
  txn_heap_ns += o.txn_heap_ns;
  return *this;
}

Totals Totals::operator-(const Totals& o) const {
  Totals d = *this;
  for (size_t r = 0; r < kNumKinds; ++r) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      d.by[r][k].count -= o.by[r][k].count;
      d.by[r][k].total_ns -= o.by[r][k].total_ns;
      d.by[r][k].self_ns -= o.by[r][k].self_ns;
    }
  }
  d.txn_wall_ns -= o.txn_wall_ns;
  d.txn_heap_ns -= o.txn_heap_ns;
  return d;
}

// ------------------------------------------------------------- recorder

struct Tracer::Thread {
  struct Frame {
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    int32_t idx = -1;
    Kind kind = kBegin;
  };
  static constexpr int kMaxDepth = 16;

  uint16_t id = 0;
  std::array<Frame, kMaxDepth> stack{};
  int depth = 0;
  bool in_txn = false;
  uint32_t txn = 0;
  Totals totals;
  std::vector<Span> spans;
  uint64_t dropped = 0;
  std::vector<uint64_t> commit_ns;
  std::vector<uint64_t> alloc_ns;
};

namespace {

std::atomic<size_t> g_kept{0};

/// Returns the calling thread's record to the tracer when the thread ends.
struct Holder {
  Tracer::Thread* thread = nullptr;
  ~Holder() {
    if (thread != nullptr) Tracer::Get()->Release(thread);
  }
};
thread_local Holder tl_holder;

}  // namespace

Tracer* Tracer::Get() {
  static Tracer tracer;
  return &tracer;
}

Tracer::Thread* Tracer::Current() {
  if (tl_holder.thread == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      tl_holder.thread = free_.back();
      free_.pop_back();
    } else {
      threads_.push_back(std::make_unique<Thread>());
      threads_.back()->id = static_cast<uint16_t>(threads_.size() - 1);
      tl_holder.thread = threads_.back().get();
    }
  }
  return tl_holder.thread;
}

void Tracer::Release(Thread* t) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(t);
}

void Tracer::Enter(Kind kind) {
  Thread* t = Current();
  if (t->depth == Thread::kMaxDepth) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  const int32_t parent = t->depth > 0 ? t->stack[t->depth - 1].idx : -1;
  Thread::Frame& f = t->stack[t->depth++];
  f.kind = kind;
  f.child_ns = 0;
  f.idx = -1;
  f.start_ns = NowNs();
  if (g_kept.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
    f.idx = static_cast<int32_t>(t->spans.size());
    t->spans.push_back(Span{f.start_ns, 0, parent, t->txn, t->id, kind});
  } else {
    ++t->dropped;
  }
}

void Tracer::Exit() {
  const uint64_t end = NowNs();
  Thread* t = Current();
  const Thread::Frame f = t->stack[--t->depth];
  const uint64_t dur = end - f.start_ns;
  const Kind root = t->depth == 0 ? f.kind : t->stack[0].kind;
  Agg& a = t->totals.by[root][f.kind];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - std::min(dur, f.child_ns);
  if (t->depth > 0) {
    t->stack[t->depth - 1].child_ns += dur;
  } else if (t->in_txn && IsHeapCall(f.kind)) {
    t->totals.txn_heap_ns += dur;
  }
  if (f.kind == kCommit) t->commit_ns.push_back(dur);
  if (f.kind == kAlloc) t->alloc_ns.push_back(dur);
  if (f.idx >= 0 && static_cast<size_t>(f.idx) < t->spans.size()) {
    t->spans[f.idx].end_ns = end;
  }
}

void Tracer::TxnBegin(uint64_t txn) {
  Thread* t = Current();
  t->in_txn = true;
  t->txn = static_cast<uint32_t>(txn);
}

void Tracer::TxnEnd(uint64_t wall_ns) {
  Thread* t = Current();
  t->in_txn = false;
  t->txn = 0;
  t->totals.txn_wall_ns += wall_ns;
}

Totals Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  Totals sum;
  for (const auto& t : threads_) sum += t->totals;
  return sum;
}

void Tracer::ResetSamples() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    t->spans.clear();
    t->dropped = 0;
    t->commit_ns.clear();
    t->alloc_ns.clear();
  }
  g_kept.store(0, std::memory_order_relaxed);
}

std::vector<uint64_t> Tracer::Samples(Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  for (const auto& t : threads_) {
    const auto& src = kind == kCommit ? t->commit_ns : t->alloc_ns;
    out.insert(out.end(), src.begin(), src.end());
  }
  return out;
}

uint64_t Tracer::spans_dropped() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) n += t->dropped;
  return n;
}

bool Tracer::Dump(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "thread\tspan\tparent\ttxn\tname\tstart_ns\tend_ns\n");
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      std::fprintf(f, "%u\t%zu\t%d\t%u\t%s\t%llu\t%llu\n", s.thread, i,
                   s.parent, s.txn, KindName(s.kind),
                   static_cast<unsigned long long>(s.start_ns - origin),
                   static_cast<unsigned long long>(
                       s.end_ns >= s.start_ns ? s.end_ns - origin : 0));
    }
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ decorator

class TimedEnv::Disk final : public sheap::Disk {
 public:
  Disk(sheap::Disk* inner, Tracer* t) : in_(inner), t_(t) {}

  Status ReadPage(PageId pid, PageImage* out) override {
    Scope s(t_, kDiskRead);
    return in_->ReadPage(pid, out);
  }
  Status WritePage(PageId pid, const PageImage& image) override {
    Scope s(t_, kDiskWrite);
    return in_->WritePage(pid, image);
  }
  Status WritePageRun(PageId first, const PageImage* const* images,
                      size_t n) override {
    Scope s(t_, kDiskWrite);
    return in_->WritePageRun(first, images, n);
  }
  void DropPage(PageId pid) override {
    Scope s(t_, kDiskOther);
    in_->DropPage(pid);
  }
  bool Exists(PageId pid) const override {
    Scope s(t_, kDiskOther);
    return in_->Exists(pid);
  }
  size_t PageCount() const override {
    Scope s(t_, kDiskOther);
    return in_->PageCount();
  }
  sheap::DiskStats stats() const override { return in_->stats(); }
  void ResetStats() override { in_->ResetStats(); }
  sheap::FaultInjector* faults() const override { return in_->faults(); }
  sheap::SimClock* clock() const override { return in_->clock(); }

 private:
  sheap::Disk* const in_;
  Tracer* const t_;
};

class TimedEnv::Log final : public sheap::LogDevice {
 public:
  Log(sheap::LogDevice* inner, Tracer* t) : in_(inner), t_(t) {}

  Status Append(const uint8_t* data, size_t n) override {
    Scope s(t_, kLogAppend);
    return in_->Append(data, n);
  }
  Status AppendAsync(const uint8_t* data, size_t n) override {
    Scope s(t_, kLogAppend);
    return in_->AppendAsync(data, n);
  }
  void Force() override {
    Scope s(t_, kLogForce);
    in_->Force();
  }
  uint64_t size() const override { return in_->size(); }
  Status ReadAt(uint64_t offset, size_t n, uint8_t* out) const override {
    Scope s(t_, kLogRead);
    return in_->ReadAt(offset, n, out);
  }
  void SetMasterLsn(Lsn lsn) override {
    Scope s(t_, kLogOther);
    in_->SetMasterLsn(lsn);
  }
  Lsn master_lsn() const override { return in_->master_lsn(); }
  void TruncatePrefix(uint64_t offset) override {
    Scope s(t_, kLogOther);
    in_->TruncatePrefix(offset);
  }
  uint64_t truncated_prefix() const override {
    return in_->truncated_prefix();
  }
  void MarkDurableBarrier() override {
    Scope s(t_, kLogForce);
    in_->MarkDurableBarrier();
  }
  uint64_t durable_barrier() const override { return in_->durable_barrier(); }
  void TearTail(size_t n) override {
    Scope s(t_, kLogOther);
    in_->TearTail(n);
  }
  sheap::FaultInjector* faults() const override { return in_->faults(); }
  sheap::LogDeviceStats stats() const override { return in_->stats(); }
  void ResetStats() override { in_->ResetStats(); }

 private:
  sheap::LogDevice* const in_;
  Tracer* const t_;
};

TimedEnv::TimedEnv(sheap::Env* inner, Tracer* tracer)
    : inner_(inner),
      disk_(std::make_unique<Disk>(inner->disk(), tracer)),
      log_(std::make_unique<Log>(inner->log(), tracer)) {}

TimedEnv::~TimedEnv() = default;

sheap::Disk* TimedEnv::disk() { return disk_.get(); }
sheap::LogDevice* TimedEnv::log() { return log_.get(); }

}  // namespace perfbench
