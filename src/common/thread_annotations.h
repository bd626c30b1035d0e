// Clang thread-safety annotations (a.k.a. capability analysis) for sheap.
//
// The concurrency added in PRs 2-3 (sharded buffer pool, parallel redo,
// flush writer pools) is guarded by locking and ownership disciplines that
// were previously enforced only by review and TSan sampling. These macros
// make the disciplines machine-checked: every mutex is a *capability*,
// every protected field names the capability that guards it, and every
// function that needs a lock held (or forbids one) declares it. Clang's
// -Wthread-safety then rejects, at compile time, any access that violates
// the declared protocol. See DESIGN.md §5e for the lock-rank table and how
// to read the diagnostics.
//
// Build with clang and -DSHEAP_WERROR_THREAD_SAFETY=ON (CMake) to turn the
// analysis into hard errors; under GCC every macro expands to nothing.
//
// Usage is enforced by tools/sheap_analyze (check raw-mutex): raw
// std::mutex / std::lock_guard must not appear outside this header —
// declare `sheap::Mutex` members and take them with `sheap::MutexLock`, so
// every lock in the tree participates in the analysis.

#ifndef SHEAP_COMMON_THREAD_ANNOTATIONS_H_
#define SHEAP_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define SHEAP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define SHEAP_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

/// Declares a type to be a capability (lockable). Argument is the name the
/// diagnostics use, e.g. SHEAP_CAPABILITY("mutex").
#define SHEAP_CAPABILITY(x) SHEAP_THREAD_ANNOTATION_(capability(x))

/// RAII types that acquire a capability at construction and release it at
/// destruction (our MutexLock below).
#define SHEAP_SCOPED_CAPABILITY SHEAP_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated field may only be read or written while holding `x`.
#define SHEAP_GUARDED_BY(x) SHEAP_THREAD_ANNOTATION_(guarded_by(x))

/// The pointee of the annotated pointer is guarded by `x` (the pointer
/// itself is not).
#define SHEAP_PT_GUARDED_BY(x) SHEAP_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Callers must hold the capability (exclusively) when calling.
#define SHEAP_REQUIRES(...) \
  SHEAP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Callers must hold the capability at least shared when calling.
#define SHEAP_REQUIRES_SHARED(...) \
  SHEAP_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define SHEAP_ACQUIRE(...) \
  SHEAP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases the capability (held on entry).
#define SHEAP_RELEASE(...) \
  SHEAP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `ret`.
#define SHEAP_TRY_ACQUIRE(ret, ...) \
  SHEAP_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// Callers must NOT hold the capability (the function takes it itself;
/// documents non-reentrancy and prevents self-deadlock).
#define SHEAP_EXCLUDES(...) \
  SHEAP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The annotated mutex may only be acquired after mutexes it is declared
/// to follow (static lock-ordering; pairs with the DESIGN.md rank table).
#define SHEAP_ACQUIRED_AFTER(...) \
  SHEAP_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define SHEAP_ACQUIRED_BEFORE(...) \
  SHEAP_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/// The function returns a reference to a `x`-guarded field.
#define SHEAP_RETURN_CAPABILITY(x) \
  SHEAP_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function intentionally bypasses the analysis. Always
/// pair with a comment justifying why (e.g. constructor-time publication).
#define SHEAP_NO_THREAD_SAFETY_ANALYSIS \
  SHEAP_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// The member may only be touched from a MutatorGate ExclusiveSection (or
/// outside any gate section, e.g. during Open/recovery before mutators
/// start). Not a clang attribute — tools/sheap_analyze enforces it by
/// proving no SharedSection reaches the field, directly or through calls.
#define SHEAP_GATE_EXCLUSIVE

namespace sheap {

/// The project mutex: std::mutex wrapped as a clang capability. Same cost,
/// same semantics; the wrapper exists so lock()/unlock() carry acquire/
/// release annotations the analysis can follow. All sheap code declares
/// Mutex members and takes them via MutexLock — tools/sheap_analyze flags
/// raw std::mutex declarations anywhere else.
class SHEAP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SHEAP_ACQUIRE() { mu_.lock(); }
  void unlock() SHEAP_RELEASE() { mu_.unlock(); }
  bool try_lock() SHEAP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for CondVar::Wait only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII guard over Mutex (the annotated std::lock_guard). Scoped to one
/// block; never stored.
class SHEAP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SHEAP_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() SHEAP_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with sheap::Mutex. Like Mutex, this is the one
/// sanctioned wrapper: raw std::condition_variable is lint-banned outside
/// this header so every wait site goes through an annotated mutex. Wait()
/// takes the Mutex directly (it must be held, per the REQUIRES annotation)
/// and re-holds it on return; the predicate loop stays at the call site,
/// where the analysis can see which guarded fields it reads.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release *mu, block, and re-acquire before returning.
  /// Spurious wakeups happen; callers loop on their predicate.
  void Wait(Mutex* mu) SHEAP_REQUIRES(mu) SHEAP_NO_THREAD_SAFETY_ANALYSIS {
    // std::condition_variable_any would accept Mutex directly but costs an
    // extra internal mutex; instead we rely on Mutex being layout-identical
    // to its wrapped std::mutex and wait on that. The annotation escape is
    // confined to this one line; callers still need the capability held.
    std::unique_lock<std::mutex> lk(mu->native(), std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // ownership returns to the caller's MutexLock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sheap

#endif  // SHEAP_COMMON_THREAD_ANNOTATIONS_H_
