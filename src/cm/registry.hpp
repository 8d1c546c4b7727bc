// Name-based contention-manager factory used by the harness, benches, and
// examples, so every experiment selects managers with plain strings
// ("--cms=Online-Dynamic,Polka,Greedy").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cm/manager.hpp"

namespace wstm::cm {

/// Knobs shared by all managers; the window options subset is forwarded to
/// WindowCM (see window/window_cm.hpp for semantics).
struct Params {
  std::uint32_t threads = 1;  // M
  std::uint32_t window_n = 50;
  double frame_factor = 1.0;
  double frame_log_exponent = 1.0;
  double initial_c = 0.0;  // 0 = variant default
  double ci_alpha = 0.75;
  /// Requester-waits arbitration for the window family (DESIGN.md §13);
  /// mirrors RuntimeConfig::arbitration == kWait. Classic managers take the
  /// mode from their attached WaitHooks instead.
  bool requester_waits = false;
};

/// Creates a manager by name. Throws std::invalid_argument for unknown
/// names; see manager_names() for the accepted set.
ManagerPtr make_manager(const std::string& name, const Params& params);

/// All managers, the window family, and the classic baselines.
std::vector<std::string> manager_names();
std::vector<std::string> window_manager_names();
std::vector<std::string> classic_manager_names();

bool is_window_manager(const std::string& name);

/// True when the manager reads the attempt timestamps (TxDesc::begin_ns /
/// first_begin_ns): Greedy, Priority and the window family.
/// Unknown names count as timed, so a new manager keeps its clock until it
/// is listed as clock-free here. The Runtime stamps attempts only when this
/// (or the liveness layer, or a trace recorder) needs the value.
bool is_timed_manager(const std::string& name);

}  // namespace wstm::cm
