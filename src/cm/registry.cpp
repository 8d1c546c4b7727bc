#include "cm/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "cm/classic.hpp"
#include "window/window_cm.hpp"

namespace wstm::cm {

namespace {

const std::vector<std::string> kWindowNames = {
    "Online",           "Online-Dynamic",    "Adaptive",
    "Adaptive-Dynamic", "Adaptive-Improved", "Adaptive-Improved-Dynamic",
};

const std::vector<std::string> kClassicNames = {
    "Polka", "Greedy", "Priority", "Aggressive", "RandomizedRounds",
};

/// Classic managers whose decisions never read the attempt timestamps.
const std::vector<std::string> kUntimedNames = {"Polka", "Aggressive", "RandomizedRounds"};

}  // namespace

ManagerPtr make_manager(const std::string& name, const Params& params) {
  if (is_window_manager(name)) {
    window::WindowOptions opt;
    opt.threads = params.threads;
    opt.window_n = params.window_n;
    opt.frame_factor = params.frame_factor;
    opt.frame_log_exponent = params.frame_log_exponent;
    opt.initial_c = params.initial_c;
    opt.ci_alpha = params.ci_alpha;
    opt.requester_waits = params.requester_waits;
    return window::make_window_manager(name, opt);
  }
  if (name == "Polka") return std::make_unique<Polka>();
  if (name == "Greedy") return std::make_unique<Greedy>();
  if (name == "Priority") return std::make_unique<Priority>();
  if (name == "Aggressive") return std::make_unique<Aggressive>();
  if (name == "RandomizedRounds") return std::make_unique<RandomizedRounds>(params.threads);
  throw std::invalid_argument("unknown contention manager: " + name);
}

std::vector<std::string> manager_names() {
  std::vector<std::string> all = kWindowNames;
  all.insert(all.end(), kClassicNames.begin(), kClassicNames.end());
  return all;
}

std::vector<std::string> window_manager_names() { return kWindowNames; }

std::vector<std::string> classic_manager_names() { return kClassicNames; }

bool is_window_manager(const std::string& name) {
  return std::find(kWindowNames.begin(), kWindowNames.end(), name) != kWindowNames.end();
}

bool is_timed_manager(const std::string& name) {
  return std::find(kUntimedNames.begin(), kUntimedNames.end(), name) == kUntimedNames.end();
}

}  // namespace wstm::cm
