#include "stm/metrics.hpp"

#include <cstdio>

namespace wstm::stm {

std::string MetricsSummary::to_string(const ThreadMetrics& totals) const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "throughput=%.0f tx/s  aborts/commit=%.3f  wasted=%.1f%%  response=%.1fus",
                throughput_per_s, aborts_per_commit, wasted_fraction * 100.0, mean_response_us);
  std::string out = buf;
  totals.visit([&](const char* name, auto value) {
    if (value != 0) out += std::string("  ") + name + "=" + std::to_string(value);
  });
  return out;
}

MetricsSummary summarize(const ThreadMetrics& totals, std::int64_t elapsed_ns) {
  MetricsSummary s;
  s.commits = totals.commits;
  s.aborts = totals.aborts;
  if (elapsed_ns > 0) {
    s.throughput_per_s = static_cast<double>(totals.commits) /
                         (static_cast<double>(elapsed_ns) / 1e9);
  }
  if (totals.commits > 0) {
    s.aborts_per_commit = static_cast<double>(totals.aborts) / static_cast<double>(totals.commits);
    s.repeat_conflicts_per_commit =
        static_cast<double>(totals.repeat_conflicts) / static_cast<double>(totals.commits);
  }
  if (totals.timed_commits > 0) {
    s.mean_response_us =
        static_cast<double>(totals.response_ns) / static_cast<double>(totals.timed_commits) / 1e3;
  }
  const std::int64_t busy = totals.wasted_ns + totals.committed_ns;
  if (busy > 0) {
    s.wasted_fraction = static_cast<double>(totals.wasted_ns) / static_cast<double>(busy);
  }
  return s;
}

}  // namespace wstm::stm
