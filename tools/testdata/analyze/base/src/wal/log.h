#ifndef FIX_WAL_LOG_H_
#define FIX_WAL_LOG_H_

#include "common/thread_annotations.h"

namespace fix {

/// Append-only log; every record append serializes on mu_.
class Log {
 public:
  void Append(int rec);
  long durable() const;

 private:
  Mutex mu_;
  long bytes_ SHEAP_GUARDED_BY(mu_) = 0;
};

}  // namespace fix

#endif  // FIX_WAL_LOG_H_
