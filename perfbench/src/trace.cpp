#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "perfbench.h"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

void Tracer::record(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Tracer::Span::Span(Tracer& tracer, const char* category, std::string name, int tid,
                   long step, std::uint64_t bytes)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  record_.name = std::move(name);
  record_.category = category;
  record_.tid = tid;
  record_.step = step;
  record_.bytes = bytes;
  record_.begin_ns = tracer_.now_ns();
}

Tracer::Span::~Span() {
  if (!tracer_.enabled()) return;
  record_.end_ns = tracer_.now_ns();
  tracer_.record(std::move(record_));
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  // Per tid, sort by (begin asc, end desc) so every span precedes the spans
  // nested inside it; a stack of open spans then finds each span's parent.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SpanRecord& x = spans[a];
    const SpanRecord& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.begin_ns != y.begin_ns) return x.begin_ns < y.begin_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_ns - spans[i].begin_ns;
  std::vector<std::size_t> open;
  for (std::size_t index : order) {
    const SpanRecord& span = spans[index];
    if (!open.empty() && spans[open.back()].tid != span.tid) open.clear();
    while (!open.empty() && spans[open.back()].end_ns <= span.begin_ns) open.pop_back();
    if (!open.empty() && span.end_ns <= spans[open.back()].end_ns) {
      // Direct child: its whole interval leaves the parent's self time. Its
      // own children are subtracted from it, not again from the parent.
      self[open.back()] -= span.end_ns - span.begin_ns;
    }
    open.push_back(index);
  }
  return self;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& span = all[i];
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"step\":%ld,\"bytes\":%llu,\"self_us\":%.3f}}",
                  span.tid, static_cast<double>(span.begin_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.begin_ns) / 1e3, span.step,
                  static_cast<unsigned long long>(span.bytes),
                  static_cast<double>(self[i]) / 1e3);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(span.name)
        << "\",\"cat\":\"" << json_escape(span.category) << buffer;
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("trace: write failed for " + path);
}

}  // namespace perfbench
