// Tracer: spans recorded by the benchmark around its calls into each layer.
//
// Spans are kept in memory (single client thread) and written once, at the
// end of the run, as Chrome trace-event JSON with the trace/span/parent ids
// bench/validate_trace.py checks. A span of a disabled tracer still measures
// its duration but records nothing, so the same code times untraced runs.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Starts a new trace id for the next root span. A no-op while a span is
  /// open, so nested work stays in its parent's trace.
  void NewTrace() {
    if (open_.empty()) trace_id_ = ++next_id_;
  }

  class Span {
   public:
    Span(Tracer* tracer, std::string name);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }
    /// Closes the span (idempotent); returns its duration in nanoseconds.
    uint64_t End();
    void SetDetail(std::string detail) { detail_ = std::move(detail); }

   private:
    Tracer* tracer_;
    std::string name_;
    std::string detail_;
    uint64_t start_ns_;
    uint64_t duration_ns_ = 0;
    uint64_t trace_id_ = 0;
    uint64_t span_id_ = 0;
    uint64_t parent_id_ = 0;
    bool done_ = false;
  };

  size_t span_count() const { return spans_.size(); }

  /// Writes the recorded spans to `path` as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::string detail;
    uint64_t start_ns;
    uint64_t duration_ns;
    uint64_t trace_id;
    uint64_t span_id;
    uint64_t parent_id;
  };

  bool enabled_;
  uint64_t next_id_ = 0;
  uint64_t trace_id_ = 0;
  std::vector<uint64_t> open_;  // ids of the currently open spans
  std::vector<Record> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
