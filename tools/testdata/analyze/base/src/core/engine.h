#ifndef FIX_CORE_ENGINE_H_
#define FIX_CORE_ENGINE_H_

#include <atomic>

#include "common/thread_annotations.h"
#include "txn/table.h"
#include "wal/log.h"

namespace fix {

struct EngineStats {
  long commits = 0;
};

/// The fixture's gate class: every public entry point must open a
/// MutatorGate section (or be exempted in lock_rank.json).
class Engine {
 public:
  void Begin();
  void Commit();
  void Checkpoint();
  long Published() const;
  EngineStats stats() const;

 private:
  void CommitLocked() SHEAP_REQUIRES(mu_);

  MutatorGate gate_;
  mutable Mutex mu_;
  EngineStats stats_ SHEAP_GUARDED_BY(mu_);
  Table table_;
  Log log_;
  /// Structural epoch counter: only exclusive sections may advance it.
  long ckpt_epoch_ SHEAP_GATE_EXCLUSIVE = 0;
  mutable std::atomic<long> published_{0};
};

}  // namespace fix

#endif  // FIX_CORE_ENGINE_H_
