#include "util/affinity.hpp"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace wstm {

bool pin_current_thread(unsigned index) noexcept {
#if defined(__linux__)
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus <= 1) return true;  // nothing to choose between
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cpus, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)index;
  return false;
#endif
}

}  // namespace wstm
