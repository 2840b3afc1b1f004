#include "spans.hpp"

#include <cstdio>

namespace perfbench {

void Tracer::add(std::vector<Span> spans) {
  const std::lock_guard<std::mutex> lock(mu_);
  jobs_.push_back(std::move(spans));
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  jobs_.clear();
}

SpanSummary Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  SpanSummary out;
  for (const std::vector<Span>& spans : jobs_) {
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) covered[s.parent] += s.end_s - s.start_s;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::string name = s.name;
      const double dur = s.end_s - s.start_s;
      out.self_s[name.substr(0, name.find('.'))] += dur - covered[i];
      out.total_s[name] += dur;
      ++out.calls[name];
    }
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  bool first = true;
  for (const std::vector<Span>& spans : jobs_) {
    for (const Span& s : spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"job\":%llu,\"parent\":%d,"
                   "\"start_s\":%.9f,\"end_s\":%.9f}",
                   first ? "" : ",\n", s.name,
                   static_cast<unsigned long long>(s.job), s.parent, s.start_s,
                   s.end_s);
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

int JobSpans::begin(const char* name) {
  Span s;
  s.name = name;
  s.job = job_;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = tracer_->now_s();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void JobSpans::end(int index) {
  spans_[index].end_s = tracer_->now_s();
  open_.pop_back();
}

}  // namespace perfbench
