#include "tracer.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)), start_ns_(NowNs()) {
  if (!tracer_->enabled_) return;
  if (tracer_->trace_id_ == 0) tracer_->NewTrace();
  trace_id_ = tracer_->trace_id_;
  parent_id_ = tracer_->open_.empty() ? 0 : tracer_->open_.back();
  span_id_ = ++tracer_->next_id_;
  tracer_->open_.push_back(span_id_);
}

uint64_t Tracer::Span::End() {
  if (done_) return duration_ns_;
  done_ = true;
  duration_ns_ = NowNs() - start_ns_;
  if (!tracer_->enabled_) return duration_ns_;
  // Spans close in LIFO order in this single-threaded harness.
  if (!tracer_->open_.empty() && tracer_->open_.back() == span_id_) {
    tracer_->open_.pop_back();
  }
  tracer_->spans_.push_back({std::move(name_), std::move(detail_), start_ns_,
                             duration_ns_, trace_id_, span_id_,
                             parent_id_});
  return duration_ns_;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  uint64_t base = UINT64_MAX;
  for (const Record& r : spans_) base = std::min(base, r.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(r.start_ns - base) / 1e3,
                  static_cast<double>(r.duration_ns) / 1e3);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << JsonEscape(r.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
        << ",\"args\":{\"trace_id\":" << r.trace_id
        << ",\"span_id\":" << r.span_id
        << ",\"parent_span_id\":" << r.parent_id;
    if (!r.detail.empty()) {
      out << ",\"detail\":\"" << JsonEscape(r.detail) << "\"";
    }
    out << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
