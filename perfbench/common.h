#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Small helpers shared by gir_perfbench's subcommands: a monotonic clock,
// the span record of the traced run, and a minimal JSON emitter.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced call at a layer boundary. `op` ties the spans of one
/// operation together across layers; `parent` is the id of the span of
/// the layer above on the same op (0 = none). A layer's self time is its
/// span's duration minus its child's on the same op (benchlib.py).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Appends `key: value` pairs to a flat JSON object being built in a
/// string. Numbers print with full precision.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t value) {
    Raw(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, Quote(value));
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += Quote(key) + ":" + json;
  }
  std::string Close() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

inline std::string JsonNumArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Spans as JSON lines (one object per line).
inline bool WriteSpans(const std::string& path,
                       const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"op\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 "}\n",
                 s.id, s.parent, s.op, s.name.c_str(), s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

inline bool WriteText(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
