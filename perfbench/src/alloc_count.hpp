// Allocator-call counting through a replaced global operator new.
#pragma once

#include <cstdint>

namespace pb {

/// Global-allocator calls made so far by every thread except the caller
/// (the controlling thread, whose bookkeeping would otherwise pollute the
/// per-commit ratio).
std::uint64_t alloc_calls_except_this_thread() noexcept;

}  // namespace pb
