// Minimal stand-ins for the analyzer fixture tree. sheap_analyze keys off
// the repo's textual idioms (Mutex members, RAII MutexLock, MutatorGate
// sections, SHEAP_* annotations); nothing here is ever compiled, so the
// stubs only need to look like the real thing. As in the real tree, this
// is the one file allowed to name std::mutex.
#ifndef FIX_COMMON_THREAD_ANNOTATIONS_H_
#define FIX_COMMON_THREAD_ANNOTATIONS_H_

#define SHEAP_GUARDED_BY(x)
#define SHEAP_REQUIRES(x)
#define SHEAP_GATE_EXCLUSIVE

namespace fix {

class Mutex {
 public:
  void lock();
  void unlock();

 private:
  std::mutex mu_;
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};

class MutatorGate {
 public:
  class SharedSection {
   public:
    explicit SharedSection(MutatorGate* gate);
  };
  class ExclusiveSection {
   public:
    explicit ExclusiveSection(MutatorGate* gate);
  };
};

}  // namespace fix

#endif  // FIX_COMMON_THREAD_ANNOTATIONS_H_
