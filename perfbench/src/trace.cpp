#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* Tracer::intern(const std::string& name) {
  for (const std::string& n : names_) {
    if (n == name) return n.c_str();
  }
  return names_.emplace_back(name).c_str();
}

int Tracer::begin(const char* name, std::uint64_t run) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.run = run;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  // Spans close innermost-first; anything above `index` on the stack was
  // left open by an exception and closes with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
    spans_[static_cast<std::size_t>(top)].end_us = spans_[static_cast<std::size_t>(index)].end_us;
  }
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long run = s.run == kNoRun ? -1 : static_cast<long long>(s.run);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.start_us, s.duration_us(), i, s.parent, run);
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.start_us;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_us);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = s.duration_us() - covered;
  }
  return self;
}

}  // namespace perfbench
