// The benchmark's three workloads.
//
//   dse-analytic  batch::run_campaign, analytic engine: the paper's sweep
//   cosim-node    batch::run_campaign, co-simulation engine: host ISS, SPI
//                 wire and HeteroSystem schedulers
//   fuzz-diff     verif::run_campaign: differential programs and stress
//                 schedules with the snapshot column
//
// Every workload runs its whole job set in one of three ways, and all
// three must produce the same deterministic aggregate byte for byte:
//   campaign()  the public campaign entry point, timed as a whole;
//   replay()    the same jobs issued one by one through the calls the entry
//               point makes, each job timed (no spans);
//   traced()    like replay(), with a span around every call into a layer
//               and the layers' counters read after each job.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// One pass over a workload's whole job set.
struct Round {
  double wall_s = 0;
  ulp::u64 jobs = 0;
  /// Jobs whose output mismatched the golden reference or that threw.
  ulp::u64 failed = 0;
  /// Simulated instructions retired (deterministic); 0 where the pass
  /// cannot see them.
  ulp::u64 sim_instrs = 0;
  /// Deterministic aggregate bytes: batch::to_json, or the fuzz failure
  /// list plus coverage report.
  std::string aggregate;
  std::vector<double> job_ms;  ///< replay() only, job-index order.
  /// Steady-clock time (since the clock's epoch) when the first job was
  /// issued; replay() only.
  double first_issue_s = 0;
  /// Violated self-checks, human-readable; empty when all hold.
  std::vector<std::string> errors;
};

/// Per-layer values keyed by metric name.
using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads the campaign runs on (0 = inline on the caller).
  [[nodiscard]] virtual ulp::u32 workers() const = 0;

  [[nodiscard]] virtual Round campaign() = 0;

  /// With `probe`, returns right after stamping the first issue.
  [[nodiscard]] virtual Round replay(bool probe) = 0;

  /// `counts` receives the layers' exact counters, identical on every
  /// traced pass.
  [[nodiscard]] virtual Round traced(Tracer& tracer, Metrics* counts) = 0;

  /// Labelled extra calls over a sample of the jobs, kept out of the
  /// traced wall (fuzz-diff only): `times` receives seconds summed per
  /// call ("cluster.run_s.<mode>", "snapshot.column_s").
  virtual void breakdown(Metrics* counts, Metrics* times) {
    (void)counts;
    (void)times;
  }
};

enum class Scale { kFull, kTiny };

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      ulp::u64 seed,
                                                      Scale scale,
                                                      std::string out_dir);

}  // namespace perfbench
