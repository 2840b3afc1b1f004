// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files, around calls into the
// simulator's public functions: a span names the call ("layer.what"), holds
// its start and end on one steady clock, its parent span and the job that
// made it. Each job collects its spans on the worker that runs it, without
// locking, and hands them to the Tracer when it ends; the Tracer keeps them
// all in memory until the run writes them out.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";  ///< "layer.what"; the layer is the first segment.
  double start_s = 0;     ///< Since the tracer's epoch.
  double end_s = 0;
  int parent = -1;  ///< Index of the enclosing span of the same job.
  ulp::u64 job = 0;
};

/// Per-layer roll-up of a set of spans.
struct SpanSummary {
  /// Span duration minus the part covered by its direct children, summed
  /// per layer (the name's first segment).
  std::map<std::string, double> self_s;
  /// Whole duration summed per span name.
  std::map<std::string, double> total_s;
  std::map<std::string, ulp::u64> calls;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] double now_s() const {
    return seconds_between(epoch_, Clock::now());
  }

  /// Appends one finished job's spans (thread-safe).
  void add(std::vector<Span> spans);

  /// Drops every span recorded so far.
  void clear();

  [[nodiscard]] SpanSummary summarize() const;

  /// Writes every span as one JSON array; false when the file can't be
  /// written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::vector<Span>> jobs_;  // Guarded by mu_.
};

/// The spans of one job. Not thread-safe: a job runs on one worker.
class JobSpans {
 public:
  JobSpans(Tracer* tracer, ulp::u64 job) : tracer_(tracer), job_(job) {}
  ~JobSpans() {
    if (!spans_.empty()) tracer_->add(std::move(spans_));
  }
  JobSpans(const JobSpans&) = delete;
  JobSpans& operator=(const JobSpans&) = delete;

  /// Open for the lifetime of the returned object.
  class Scope {
   public:
    Scope(JobSpans* owner, int index) : owner_(owner), index_(index) {}
    ~Scope() { owner_->end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    JobSpans* owner_;
    int index_;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(this, begin(name)); }

 private:
  int begin(const char* name);
  void end(int index);

  Tracer* tracer_;
  ulp::u64 job_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
