#include "trace/sink.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "stm/fwd.hpp"

namespace wstm::trace {

namespace {

constexpr char kMagic[8] = {'W', 'S', 'T', 'M', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kVersion = 1;

struct BinaryHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t event_size;
  std::uint64_t count;
};
static_assert(sizeof(BinaryHeader) == 24);

/// Microseconds relative to `base`, as Chrome's "ts" expects.
double rel_us(std::int64_t t_ns, std::int64_t base) {
  return static_cast<double>(t_ns - base) / 1000.0;
}

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin() { out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"; }
  void end() { out_ << "\n]}\n"; }

  /// Starts one trace-event object with the common fields.
  void open(const char* ph, unsigned tid, double ts, const char* name) {
    if (!first_) out_ << ",\n";
    first_ = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"%s\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,\"name\":\"%s\"",
                  ph, tid, ts, name);
    out_ << buf;
  }

  void field_num(const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.6g", key, v);
    out_ << buf;
  }
  void field_u64(const char* key, std::uint64_t v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%" PRIu64, key, v);
    out_ << buf;
  }
  void field_str(const char* key, const char* v) {
    out_ << ",\"" << key << "\":\"" << v << "\"";
  }
  void raw(const char* text) { out_ << text; }
  void close() { out_ << "}"; }

 private:
  std::ostream& out_;
  bool first_ = true;
};

}  // namespace

void write_chrome_json(const std::vector<Event>& events, std::ostream& out) {
  const std::int64_t base = events.empty() ? 0 : events.front().t_ns;

  JsonWriter w(out);
  w.begin();
  w.open("M", 0, 0.0, "process_name");
  w.raw(",\"args\":{\"name\":\"wstm\"}");
  w.close();

  // One pending begin per thread slot: paired with the next commit/abort on
  // the same slot into a complete ("X") duration event.
  struct Pending {
    bool open = false;
    std::int64_t t_ns = 0;
    std::uint64_t serial = 0;
    bool is_retry = false;
  };
  Pending pending[stm::kMaxThreads] = {};
  bool named[stm::kMaxThreads] = {};

  for (const Event& e : events) {
    const unsigned tid = e.thread;
    if (tid < stm::kMaxThreads && !named[tid]) {
      named[tid] = true;
      w.open("M", tid, 0.0, "thread_name");
      char buf[64];
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"name\":\"worker %u\"}", tid);
      w.raw(buf);
      w.close();
    }
    switch (e.kind) {
      case EventKind::kBegin:
        if (tid < stm::kMaxThreads) {
          pending[tid] = {true, e.t_ns, e.serial, (e.detail & 1) != 0};
        }
        break;
      case EventKind::kCommit:
      case EventKind::kAbort: {
        const bool committed = e.kind == EventKind::kCommit;
        if (tid < stm::kMaxThreads && pending[tid].open && pending[tid].serial == e.serial) {
          w.open("X", tid, rel_us(pending[tid].t_ns, base), committed ? "tx" : "tx(abort)");
          w.field_num("dur", static_cast<double>(e.t_ns - pending[tid].t_ns) / 1000.0);
          w.field_str("cat", committed ? "commit" : "abort");
          w.raw(",\"args\":{");
          char buf[128];
          std::snprintf(buf, sizeof(buf), "\"serial\":%" PRIu64 ",\"retry\":%d",
                        e.serial, pending[tid].is_retry ? 1 : 0);
          w.raw(buf);
          w.raw("}");
          w.close();
          pending[tid].open = false;
        }
        break;
      }
      case EventKind::kCiUpdate:
        w.open("C", tid, rel_us(e.t_ns, base), "contention");
        w.raw(",\"args\":{");
        {
          char buf[96];
          std::snprintf(buf, sizeof(buf), "\"c_est\":%.6g,\"ci\":%.6g",
                        unpack_double(e.a0), unpack_double(e.a1));
          w.raw(buf);
        }
        w.raw("}");
        w.close();
        break;
      default:
        w.open("i", tid, rel_us(e.t_ns, base), kind_name(e.kind));
        w.raw(",\"s\":\"t\",\"args\":{");
        {
          char buf[224];
          if (e.enemy != kNoEnemy) {
            std::snprintf(buf, sizeof(buf),
                          "\"serial\":%" PRIu64 ",\"enemy\":%u,\"a0\":%" PRIu64 ",\"a1\":%" PRIu64
                          ",\"detail\":%u", e.serial, e.enemy, e.a0, e.a1, e.detail);
          } else {
            std::snprintf(buf, sizeof(buf),
                          "\"serial\":%" PRIu64 ",\"a0\":%" PRIu64 ",\"a1\":%" PRIu64
                          ",\"detail\":%u", e.serial, e.a0, e.a1, e.detail);
          }
          w.raw(buf);
        }
        w.raw("}");
        w.close();
        break;
    }
  }
  w.end();
}

void write_binary(const std::vector<Event>& events, std::ostream& out) {
  BinaryHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.event_size = sizeof(Event);
  h.count = events.size();
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  if (!events.empty()) {
    out.write(reinterpret_cast<const char*>(events.data()),
              static_cast<std::streamsize>(events.size() * sizeof(Event)));
  }
}

std::vector<Event> read_binary(std::istream& in) {
  BinaryHeader h{};
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in || std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("trace: not a wstm binary trace (bad magic)");
  }
  if (h.version != kVersion || h.event_size != sizeof(Event)) {
    throw std::runtime_error("trace: unsupported trace version/layout");
  }
  std::vector<Event> events(h.count);
  if (h.count != 0) {
    in.read(reinterpret_cast<char*>(events.data()),
            static_cast<std::streamsize>(h.count * sizeof(Event)));
    if (!in) throw std::runtime_error("trace: truncated trace file");
  }
  return events;
}

bool write_trace_file(const std::string& path, const std::vector<Event>& events) {
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream out(path, json ? std::ios::out : std::ios::out | std::ios::binary);
  if (!out) return false;
  if (json) {
    write_chrome_json(events, out);
  } else {
    write_binary(events, out);
  }
  out.flush();
  return static_cast<bool>(out);
}

std::string path_with_suffix(const std::string& path, const std::string& suffix) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

}  // namespace wstm::trace
