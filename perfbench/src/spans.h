// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each layer; they stay in
// memory and are written once, at exit, as a Chrome trace-event file
// (loadable in Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    int id = 0;
    int parent = -1;  // -1: a root span
    std::string name;
    std::string cat;  // "pass", "cell", "call", "json", "layer", "setup"
    double start_us = 0;
    double end_us = 0;
  };

  Spans() : origin_(std::chrono::steady_clock::now()) {}

  /// Open a span; returns its id for close() and for children.
  int open(std::string name, std::string cat, int parent = -1) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close(int id) { spans_[id].end_us = now_us(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as a complete ("X") trace event. Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %d, \"parent\": %d}}%s\n",
                   s.name.c_str(), s.cat.c_str(), s.start_us,
                   s.end_us - s.start_us, s.id, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
