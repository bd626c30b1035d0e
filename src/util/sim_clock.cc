#include "util/sim_clock.h"

namespace sheap {

constinit thread_local SimClock* SimClock::tls_sink_clock_ = nullptr;
constinit thread_local uint64_t* SimClock::tls_sink_ns_ = nullptr;

}  // namespace sheap
