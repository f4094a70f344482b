// Shared plumbing of the perfbench harness: arguments, clocks, quantiles,
// the metric table every workload fills, and the result line.
//
// Output contract (README.md): human-readable report lines first, then as
// the LAST stdout line one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1), each {"value": v, "unit": u}.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/partitioner.h"
#include "loopnest/stencil_program.h"
#include "sim/address_map.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizing: every leg runs on a tiny input for a fraction of a
  /// second, so the metric names and units can be checked quickly.
  bool tiny = false;
  /// Source identity passed in by run.py (git commit or source digest).
  std::string commit = "unknown";
  /// Directory (relative to the working directory) for the daemon's socket
  /// and telemetry files.
  std::string workdir = ".";
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t now_ns();

/// Seconds elapsed since `start`.
[[nodiscard]] double seconds_since(Clock::time_point start);

/// Nanoseconds elapsed since `start`.
[[nodiscard]] std::int64_t elapsed_ns(Clock::time_point start);

/// Nearest-rank quantile of `values` (q in [0, 1]); sorts in place.
/// 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// CPU time the hypervisor took from this machine (the `steal` column of
/// /proc/stat), in seconds summed over all CPUs; 0 where not reported.
[[nodiscard]] double steal_seconds();

/// Measures the share of CPU time stolen by the host while a measurement
/// runs: on a shared VM it is the direct sign that a timing measured the
/// neighbours, not the program.
class StealMeter {
 public:
  StealMeter() : steal_(steal_seconds()), start_(Clock::now()) {}
  /// Stolen share of all CPUs' time since construction, in [0, 1].
  [[nodiscard]] double share() const;

 private:
  double steal_;
  Clock::time_point start_;
};

/// Median of `values` over the half of them measured with the least host
/// steal (`steal[i]` belongs to `values[i]`): a pass or leg that ran while
/// the host took CPU time away measures the host, so it is set aside.
[[nodiscard]] double clean_median(const std::vector<double>& values,
                                  const std::vector<double>& steal);

/// Peak resident set (VmHWM) of `pid` in MiB; pid 0 = this process.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// One declared metric: name, unit, and which run reports it.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  bool per_layer;
};

/// Every metric the harness reports, end-to-end first. BENCHMARK.json
/// declares the same names and units; smoke.py checks they agree.
[[nodiscard]] const std::vector<MetricSpec>& metric_specs();

/// What one workload run produced.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable diagnostics for failed checks (printed, then the run
  /// exits non-zero).
  std::vector<std::string> errors;

  void set(std::string_view name, double value) {
    metrics[std::string(name)] = value;
  }
  /// Records a failed output check: counts it and keeps the first few
  /// messages.
  void fail(const std::string& message, std::int64_t count = 1);
};

/// Prints the fingerprint line (nproc, SIMD tier, build type, compiler,
/// commit) every result carries.
void print_fingerprint(const Args& args);

/// Prints the closing JSON line for `args.trace`'s metric set; a metric
/// the workload did not report is a harness bug and throws.
void print_result(const Args& args, Result& result);

// Per-layer replays. Each traced run measures every layer on its own
// workload's inputs through the layer's public calls, so no layer reports a
// placeholder: a layer the workload's end-to-end path bypasses still shows
// what it would cost on these inputs.

/// `request` as one serve request line (the batch schema plus an id).
[[nodiscard]] std::string request_line(const mempart::PartitionRequest& request,
                                       std::int64_t id);

/// p50 times of the serve layer's public calls over `lines` (NDJSON request
/// lines without their newline): parse_request, a warm solve_into on a
/// cache holding every class, ok_response.
struct ServeLayerTimes {
  double parse_ns = 0.0;
  double solve_hit_ns = 0.0;
  double serialize_ns = 0.0;
};
[[nodiscard]] ServeLayerTimes replay_serve_layer(
    const std::vector<std::string>& lines, Result& result);

/// The solver's public stages (Canonicalizer::run, minimize_banks,
/// constrain_*, BankMapping) and the cache (find/insert) called one by one
/// on `requests`, each timed from outside; `direct` holds their
/// Partitioner::solve results and `solve_seconds` the summed solve time.
/// Sets the pattern.*, core.* and cache.find_miss/insert metrics and prints
/// the solver waterfall.
void replay_solver_layers(const std::vector<mempart::PartitionRequest>& requests,
                          const std::vector<mempart::PartitionSolution>& direct,
                          double solve_seconds, Result& result);

/// Plan compile and simulate_fast timed per program on its map. Sets the
/// sim.* metrics and prints the simulator waterfall.
void replay_sim_layers(
    const std::vector<const mempart::loopnest::StencilProgram*>& programs,
    const std::vector<const mempart::sim::AddressMap*>& maps, Result& result);

int run_serve_hot(const Args& args, Result& result);
int run_batch_cold(const Args& args, Result& result);
int run_sim_1080p(const Args& args, Result& result);

}  // namespace perfbench
