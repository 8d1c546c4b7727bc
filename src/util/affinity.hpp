// Thread-affinity helper. On multi-core hosts pinning benchmark threads
// round-robin to cores reduces run-to-run variance; on single-core hosts it
// is a no-op. Failures are ignored on purpose (containers often forbid
// sched_setaffinity).
#pragma once

#include <cstdint>

namespace wstm {

/// Pin the calling thread to cpu `index` modulo the CPUs visible to this
/// process.
/// Returns true on success; false is non-fatal.
bool pin_current_thread(unsigned index) noexcept;

}  // namespace wstm
