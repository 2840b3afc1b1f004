// perfbench_harness: runs one workload of the simulator benchmark and
// prints one JSON object with its measurements on stdout.
//
//   perfbench_harness --workload dse-analytic --seed 1 --seconds 20
//                     --trace 0 --out-dir DIR [--tiny]
//   perfbench_harness --workload fuzz-diff --seed 1 --probe
//   perfbench_harness --build-info
//
// --trace 0 measures the end-to-end metrics: it alternates passes through
// the public campaign entry point with job-by-job timed replays of the same
// jobs until --seconds have passed. --trace 1 alternates untraced replays
// with traced passes instead and reports the per-layer metrics. --probe
// stops right after the first job is issued, so the caller can time set-up.
// perfbench/run.py drives this binary; see perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/block_cache.hpp"
#include "workloads.hpp"

#ifndef ULP_BUILD_TYPE
#define ULP_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Clock;
using perfbench::Metrics;
using perfbench::Round;
using ulp::u64;

/// Each of these selects a different simulator path when set, so numbers
/// taken under any of them describe another program.
constexpr const char* kLatchedEnv[] = {
    "ULP_REFERENCE_STEPPING", "ULP_BLOCK_CACHE", "ULP_MC_WINDOWS",
    "ULP_INJECT_HWLOOP_BUG", "ULP_INJECT_SNAPSHOT_BUG"};

/// Runtime counters, which only the batch workloads read; zero elsewhere.
constexpr const char* kRuntimeCounts[] = {
    "runtime.retransmissions", "runtime.crc_errors", "runtime.fallbacks",
    "runtime.fault_jobs"};

#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

std::string provenance_json() {
  const bool bc = ulp::config::block_cache_default() &&
                  !ulp::config::reference_stepping_default();
  const bool mc = bc && ulp::config::multicore_windows_default();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"build_type\":\"%s\",\"asserts\":\"%s\",\"block_cache\":"
                "\"%s\",\"mc_windows\":\"%s\",\"dispatch\":\"%s\","
                "\"nproc\":%ld}",
                ULP_BUILD_TYPE, kAsserts ? "on" : "off", bc ? "on" : "off",
                mc ? "on" : "off", ulp::core::block_dispatch_backend(),
                sysconf(_SC_NPROCESSORS_ONLN));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// This process's resident-set high-water mark (VmHWM). getrusage's
/// ru_maxrss is not used: it keeps the parent's peak across exec.
double peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb;
}

double get(const Metrics& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

/// Per-layer timings of one traced pass, from its spans.
Metrics layer_times(const perfbench::SpanSummary& s, const Round& round,
                    ulp::u32 workers) {
  auto total = [&](const char* name) { return get(s.total_s, name); };
  auto mean_ms = [&](const char* name) {
    const auto it = s.calls.find(name);
    return it == s.calls.end() ? 0.0 : 1e3 * total(name) / it->second;
  };
  Metrics m;
  const double busy = total("batch.job");
  m["batch.busy_s"] = busy;
  m["batch.idle_share"] =
      1 - ratio(busy, std::max(workers, 1u) * round.wall_s);
  m["batch.fold_ms"] = mean_ms("batch.fold");
  m["kernels.build_ms"] = mean_ms("kernels.build");
  m["runtime.offload_s"] = total("runtime.offload");
  m["system.build_ms"] = mean_ms("system.build");
  m["system.package_ms"] = mean_ms("system.package");
  m["system.run_s.c1"] = total("system.run.c1");
  m["system.run_s.c2"] = total("system.run.c2");
  m["verif.generate_ms"] = mean_ms("verif.generate");
  m["verif.check_ms"] = mean_ms("verif.check");
  m["trace.wall_s"] = round.wall_s;
  double self_sum = 0;
  for (const char* layer :
       {"batch", "kernels", "runtime", "system", "verif"}) {
    m[std::string("self_s.") + layer] = get(s.self_s, layer);
  }
  for (const auto& [layer, v] : s.self_s) self_sum += v;
  m["trace.self_sum_s"] = self_sum;
  // The span that wraps the cluster simulation of each job.
  m["trace.sim_s"] = total("runtime.offload") + total("system.run.c1") +
                     total("system.run.c2");
  return m;
}

/// The --trace 1 metrics: timings are medians over the traced passes,
/// ratios come from the exact counters, and the fuzz breakdown's per-call
/// timings replace the span-based cluster time where it ran.
Metrics layer_metrics(const std::vector<Metrics>& times, const Metrics& exact,
                      const Metrics& breakdown_times, ulp::u32 workers) {
  Metrics m;
  for (const auto& [name, v] : times.front()) {
    std::vector<double> vals;
    for (const Metrics& t : times) vals.push_back(get(t, name));
    m[name] = median(vals);
  }
  m["trace.accounted_share"] = ratio(
      m["trace.self_sum_s"], std::max(workers, 1u) * m["trace.wall_s"]);
  double sim_s = m["trace.sim_s"];
  if (!breakdown_times.empty()) sim_s = 0;
  for (const char* mode : {"ref", "ff", "bc", "mc"}) {
    const double s = get(breakdown_times, std::string("cluster.run_s.") + mode);
    sim_s += s;
    m[std::string("cluster.run_ms.") + mode] =
        1e3 * ratio(s, get(exact, std::string("cluster.runs.") + mode));
  }
  m["snapshot.column_ms"] =
      1e3 * ratio(get(breakdown_times, "snapshot.column_s"),
                  get(exact, "snapshot.programs"));
  m["cluster.ns_per_sim_cycle"] =
      1e9 * ratio(sim_s, get(exact, "cluster.sim_cycles"));
  m["system.ns_per_host_cycle"] =
      1e9 * ratio(m["system.run_s.c1"] + m["system.run_s.c2"],
                  get(exact, "system.host_cycles"));
  const double hits = get(exact, "core.bc_hits");
  m["core.bc_hit_ratio"] = ratio(hits, hits + get(exact, "core.bc_decodes"));
  m["runtime.fallback_ratio"] = ratio(get(exact, "runtime.fallbacks"),
                                      get(exact, "runtime.fault_jobs"));
  m["link.wire_busy_share"] = ratio(get(exact, "link.wire_busy_host_cycles"),
                                    get(exact, "system.host_cycles"));
  for (const auto& [name, v] : exact) m.emplace(name, v);
  return m;
}

/// `s` as a JSON string literal body.
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  bool probe = false;
  bool tiny = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--probe") {
      a->probe = true;
    } else if (arg == "--tiny") {
      a->tiny = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      a->workload = argv[++i];
    } else if (arg == "--seed") {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      a->trace = std::atoi(argv[++i]);
    } else if (arg == "--out-dir") {
      a->out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && (a->trace == 0 || a->trace == 1);
}

void print_metrics(const char* key, const Metrics& m) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--build-info") == 0) {
    std::printf("%s\n", provenance_json().c_str());
    return 0;
  }
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR] [--tiny] "
                 "[--probe] | --build-info\n");
    return 2;
  }
  for (const char* var : kLatchedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to measure with %s set\n",
                   var);
      return 1;
    }
  }
  if (kAsserts || std::strcmp(ULP_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build with asserts "
                 "%s\n",
                 ULP_BUILD_TYPE, kAsserts ? "on" : "off");
    return 1;
  }
  std::unique_ptr<perfbench::Workload> wl = perfbench::make_workload(
      args.workload, args.seed,
      args.tiny ? perfbench::Scale::kTiny : perfbench::Scale::kFull,
      args.out_dir);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.probe) {
    const Round r = wl->replay(/*probe=*/true);
    std::printf("{\"first_issue_s\":%.9f}\n", r.first_issue_s);
    return 0;
  }

  std::vector<std::string> errors;
  std::vector<Round> rounds;     // Untraced passes.
  std::vector<Round> traced;     // Traced passes (--trace 1).
  std::vector<Metrics> times;    // Per traced pass.
  Metrics counts;                // Exact counters, first traced pass.
  perfbench::Tracer tracer;
  const Clock::time_point start = Clock::now();

  // Every pass must reproduce the first one's deterministic aggregate; only
  // its digest is kept, so memory does not grow with the number of passes.
  std::string aggregate;
  auto keep = [&](Round r) {
    if (aggregate.empty()) {
      aggregate = std::move(r.aggregate);
    } else if (r.aggregate != aggregate) {
      errors.push_back("deterministic aggregate differs between passes");
    }
    r.aggregate.clear();
    r.aggregate.shrink_to_fit();
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    return r;
  };
  auto run_traced = [&] {
    tracer.clear();
    Metrics c;
    traced.push_back(keep(wl->traced(tracer, &c)));
    const Round& r = traced.back();
    times.push_back(
        layer_times(tracer.summarize(), r, wl->workers()));
    if (traced.size() == 1) {
      counts = c;
    } else if (c != counts) {
      errors.push_back("exact counters differ between traced passes");
    }
  };

  // Interleave the kinds of pass, so drift on the host hits them alike:
  // campaign, replay, replay, replay, campaign, ... with --trace 0 (three
  // replays in four, for per-job medians; the first, cold pass is a
  // campaign), replay, traced, replay, ... with --trace 1. At least one of
  // each; no pass starts that would end past --seconds.
  for (size_t k = 0;; ++k) {
    const double elapsed = perfbench::seconds_between(start, Clock::now());
    if (k >= 2 && elapsed * (k + 1) / k > args.seconds) break;
    if (args.trace == 1) {
      if (k % 2 == 0) {
        rounds.push_back(keep(wl->replay(/*probe=*/false)));
      } else {
        run_traced();
      }
    } else if (k % 4 == 0) {
      rounds.push_back(keep(wl->campaign()));
    } else {
      rounds.push_back(keep(wl->replay(/*probe=*/false)));
    }
  }
  const double peak_rss_mb = peak_rss_kb() / 1024.0;

  // Co-simulated jobs leave their instruction counts out of the campaign
  // result, so a pass that reads them from the layers supplies sim_mips.
  u64 sim_instrs = rounds.front().sim_instrs;
  if (sim_instrs == 0) {
    if (traced.empty()) run_traced();
    sim_instrs = traced.front().sim_instrs;
  }

  u64 attempted = 0;
  u64 failed = 0;
  std::vector<double> rates;
  std::vector<double> mips;
  std::vector<std::vector<double>> replays;  // Per job, one per replay.
  std::vector<double> untraced_wall;
  for (const Round& r : rounds) {
    attempted += r.jobs;
    failed += r.failed;
    rates.push_back(r.jobs / r.wall_s);
    mips.push_back(sim_instrs / r.wall_s / 1e6);
    if (r.job_ms.empty()) continue;
    untraced_wall.push_back(r.wall_s);
    replays.resize(r.job_ms.size());
    for (size_t j = 0; j < r.job_ms.size(); ++j) {
      replays[j].push_back(r.job_ms[j]);
    }
  }
  // A job's latency is the median of its timed replays, so a burst of load
  // on the host during one pass does not move the percentiles.
  std::vector<double> job_ms;
  for (const std::vector<double>& times_of_job : replays) {
    job_ms.push_back(median(times_of_job));
  }
  for (const Round& r : traced) {
    attempted += r.jobs;
    failed += r.failed;
  }

  Metrics metrics;
  Metrics exact = counts;
  exact["sim_instrs"] = static_cast<double>(sim_instrs);
  if (args.trace == 0) {
    metrics["jobs_per_s"] = median(rates);
    metrics["sim_mips"] = median(mips);
    metrics["job_ms_p50"] = percentile(job_ms, 50);
    metrics["job_ms_p95"] = percentile(job_ms, 95);
    metrics["peak_rss_mb"] = peak_rss_mb;
  } else {
    std::vector<double> traced_wall;
    for (const Round& r : traced) traced_wall.push_back(r.wall_s);
    for (const Metrics& t : times) {
      if (get(t, "trace.self_sum_s") >
          std::max(wl->workers(), 1u) * get(t, "trace.wall_s") * 1.000001) {
        errors.push_back("per-layer self times exceed workers x traced wall");
      }
    }
    if (!tracer.write_json(args.out_dir + "/spans-" + args.workload +
                           ".json")) {
      errors.push_back("cannot write the span file");
    }
    Metrics breakdown_times;
    wl->breakdown(&exact, &breakdown_times);
    if (get(exact, "breakdown.failures") != 0 ||
        get(exact, "breakdown.cycle_mismatches") != 0 ||
        get(exact, "breakdown.lookup_mismatches") != 0) {
      errors.push_back("breakdown pass disagrees with the campaign");
    }
    for (const char* name : kRuntimeCounts) exact.emplace(name, 0);
    metrics = layer_metrics(times, exact, breakdown_times, wl->workers());
    metrics["trace_overhead"] =
        median(traced_wall) / median(untraced_wall) - 1;
  }
  metrics["fail_ratio"] = ratio(failed, attempted);
  // The aggregate names every failed job; keep it for diagnosis.
  const std::string aggregate_path =
      args.out_dir + "/aggregate-" + args.workload + ".txt";
  if (std::FILE* f = std::fopen(aggregate_path.c_str(), "w")) {
    std::fwrite(aggregate.data(), 1, aggregate.size(), f);
    std::fclose(f);
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"provenance\":%s,\"passes\":%zu,"
              "\"attempted\":%llu,\"failed\":%llu,\"job_samples\":%zu,"
              "\"digest\":\"%016llx\"",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, provenance_json().c_str(),
              rounds.size() + traced.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), job_ms.size(),
              static_cast<unsigned long long>(fnv1a(aggregate)));
  print_metrics("metrics", metrics);
  print_metrics("counts", exact);
  std::printf(",\"errors\":[");
  for (size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",",
                json_escape(errors[i]).c_str());
  }
  std::printf("]}\n");
  return 0;
}
