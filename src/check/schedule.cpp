#include "check/schedule.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace wstm::check {
namespace {

constexpr char kMagic[] = "wstm-schedule v1";

// One letter per Point keeps decision lines at ~8 bytes.
constexpr char kPointLetters[kNumPoints] = {'S', 'B', 'R', 'W', 'C', 'M',
                                            'A', 'V', 'L', 'D', 'P', 'U'};

char point_letter(Point p) { return kPointLetters[static_cast<unsigned>(p)]; }

Point point_from_letter(char c) {
  for (unsigned i = 0; i < kNumPoints; ++i) {
    if (kPointLetters[i] == c) return static_cast<Point>(i);
  }
  throw std::runtime_error(std::string("schedule: unknown point letter '") + c + "'");
}

char action_letter(Action a) {
  switch (a) {
    case Action::kProceed: return 'p';
    case Action::kInjectAbort: return 'a';
    case Action::kFailCas: return 'f';
  }
  return '?';
}

Action action_from_letter(char c) {
  switch (c) {
    case 'p': return Action::kProceed;
    case 'a': return Action::kInjectAbort;
    case 'f': return Action::kFailCas;
    default:
      throw std::runtime_error(std::string("schedule: unknown action letter '") + c + "'");
  }
}

[[noreturn]] void bad_line(std::size_t lineno, const std::string& line) {
  throw std::runtime_error("schedule: malformed line " + std::to_string(lineno) + ": \"" + line +
                           "\"");
}

}  // namespace

const char* point_name(Point p) noexcept {
  switch (p) {
    case Point::kThreadStart: return "thread-start";
    case Point::kBegin: return "begin";
    case Point::kRead: return "read";
    case Point::kWrite: return "write";
    case Point::kCas: return "cas";
    case Point::kCommit: return "commit";
    case Point::kAbort: return "abort";
    case Point::kReaderResolve: return "reader-resolve";
    case Point::kOrecLock: return "orec-lock";
    case Point::kOrecValidate: return "orec-validate";
    case Point::kPark: return "park";
    case Point::kUnpark: return "unpark";
  }
  return "?";
}

std::size_t Schedule::context_switches() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 1; i < decisions.size(); ++i) {
    if (decisions[i].vid != decisions[i - 1].vid) ++n;
  }
  return n;
}

std::size_t Schedule::injected_faults() const noexcept {
  std::size_t n = 0;
  for (const Decision& d : decisions) {
    if (d.action != Action::kProceed) ++n;
  }
  return n;
}

std::string to_text(const Schedule& schedule) {
  const CheckConfig& c = schedule.config;
  std::ostringstream out;
  out << kMagic << '\n';
  out << "structure " << c.structure << '\n';
  out << "cm " << c.cm << '\n';
  out << "threads " << c.threads << '\n';
  out << "ops_per_thread " << c.ops_per_thread << '\n';
  out << "key_range " << c.key_range << '\n';
  out << "visible_reads " << (c.visible_reads ? 1 : 0) << '\n';
  out << "prefill " << (c.prefill ? 1 : 0) << '\n';
  out << "op_mix " << c.op_mix << '\n';
  out << "update_percent " << c.update_percent << '\n';
  out << "pair_percent " << c.pair_percent << '\n';
  out << "seed " << c.seed << '\n';
  out << "strategy " << c.strategy << '\n';
  out << "pct_depth " << c.pct_depth << '\n';
  out << "max_steps " << c.max_steps << '\n';
  out << "tick_ns " << c.tick_ns << '\n';
  out << "window_n " << c.window_n << '\n';
  out << "backend " << c.backend << '\n';
  out << "arbitration " << c.arbitration << '\n';
  out << "p_abort " << c.faults.p_abort << '\n';
  out << "p_fail_cas " << c.faults.p_fail_cas << '\n';
  out << "p_stall " << c.faults.p_stall << '\n';
  out << "p_stall_any " << c.faults.p_stall_any << '\n';
  out << "stall_steps " << c.faults.stall_steps << '\n';
  out << "liveness " << (c.liveness ? 1 : 0) << '\n';
  out << "bug " << c.bug << '\n';
  for (const Decision& d : schedule.decisions) {
    out << "g " << d.vid << ' ' << point_letter(d.point) << ' ' << action_letter(d.action) << '\n';
  }
  return out.str();
}

Schedule schedule_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("schedule: missing \"" + std::string(kMagic) + "\" header");
  }
  Schedule s;
  CheckConfig& c = s.config;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "g") {
      unsigned vid = 0;
      char pt = 0, act = 0;
      if (!(ls >> vid >> pt >> act)) bad_line(lineno, line);
      s.decisions.push_back(Decision{static_cast<std::uint16_t>(vid), point_from_letter(pt),
                                     action_from_letter(act)});
      continue;
    }
    std::string sval;
    if (!(ls >> sval)) bad_line(lineno, line);
    auto as_u64 = [&]() -> std::uint64_t { return std::stoull(sval); };
    auto as_u32 = [&]() -> std::uint32_t { return static_cast<std::uint32_t>(std::stoul(sval)); };
    auto as_f = [&]() -> double { return std::stod(sval); };
    try {
      if (key == "structure") c.structure = sval;
      else if (key == "cm") c.cm = sval;
      else if (key == "threads") c.threads = as_u32();
      else if (key == "ops_per_thread") c.ops_per_thread = as_u32();
      else if (key == "key_range") c.key_range = std::stol(sval);
      else if (key == "visible_reads") c.visible_reads = sval != "0";
      // Keys of the removed validation modes, still written by older files.
      // The runtime now always runs snapshot extension under the deferred
      // clock; a file recorded under another mode replays with divergences.
      else if (key == "snapshot_ext" || key == "deferred_clock") continue;
      else if (key == "prefill") c.prefill = sval != "0";
      else if (key == "op_mix") c.op_mix = sval;
      else if (key == "update_percent") c.update_percent = as_u32();
      else if (key == "pair_percent") c.pair_percent = as_u32();
      else if (key == "seed") c.seed = as_u64();
      else if (key == "strategy") c.strategy = sval;
      else if (key == "pct_depth") c.pct_depth = as_u32();
      else if (key == "max_steps") c.max_steps = as_u64();
      else if (key == "tick_ns") c.tick_ns = std::stoll(sval);
      else if (key == "window_n") c.window_n = as_u32();
      // Absent in pre-backend files ⇒ the DSTM engine those runs used.
      else if (key == "backend") c.backend = sval;
      // Absent in pre-parking files ⇒ the abort-only arbitration they used
      // (the CheckConfig default; no preset needed before the parse).
      else if (key == "arbitration") c.arbitration = sval;
      else if (key == "p_abort") c.faults.p_abort = as_f();
      else if (key == "p_fail_cas") c.faults.p_fail_cas = as_f();
      else if (key == "p_stall") c.faults.p_stall = as_f();
      else if (key == "p_stall_any") c.faults.p_stall_any = as_f();
      else if (key == "stall_steps") c.faults.stall_steps = as_u32();
      else if (key == "liveness") c.liveness = sval != "0";
      else if (key == "bug") c.bug = sval;
      else throw std::runtime_error("schedule: unknown key \"" + key + "\" at line " +
                                    std::to_string(lineno));
    } catch (const std::invalid_argument&) {
      bad_line(lineno, line);
    } catch (const std::out_of_range&) {
      bad_line(lineno, line);
    }
  }
  return s;
}

bool save_schedule(const std::string& path, const Schedule& schedule) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_text(schedule);
  return static_cast<bool>(out);
}

Schedule load_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("schedule: cannot open \"" + path + "\"");
  std::ostringstream buf;
  buf << in.rdbuf();
  return schedule_from_text(buf.str());
}

}  // namespace wstm::check
