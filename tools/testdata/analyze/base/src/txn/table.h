#ifndef FIX_TXN_TABLE_H_
#define FIX_TXN_TABLE_H_

#include "common/thread_annotations.h"

namespace fix {

/// Sharded map: each entry hashes to exactly one shard.
class Table {
 public:
  long Get(long key);

 private:
  struct Shard {
    Mutex mu;
    long entries SHEAP_GUARDED_BY(mu) = 0;
    // unguarded: written once at construction, read-only afterwards.
    long capacity = 0;
  };
  Shard shards_[4];
};

}  // namespace fix

#endif  // FIX_TXN_TABLE_H_
