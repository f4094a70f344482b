#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/config.h"
#include "common/simd.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t elapsed_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  double ticks[8] = {};
  in >> label;
  for (double& t : ticks) in >> t;
  if (!in || label != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double StealMeter::share() const {
  const double wall = seconds_since(start_) *
                      std::max(1u, std::thread::hardware_concurrency());
  return wall > 0 ? std::clamp((steal_seconds() - steal_) / wall, 0.0, 1.0)
                  : 0.0;
}

double clean_median(const std::vector<double>& values,
                    const std::vector<double>& steal) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<double> clean;
  for (size_t i = 0; i < (order.size() + 1) / 2; ++i) {
    clean.push_back(values[order[i]]);
  }
  return median(clean);
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("cannot read VmHWM from " + path);
}

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = {
      // End-to-end (--trace 0). Each workload gives each a meaning of its
      // own; README.md has the table.
      {"setup_s", "s", false},
      {"peak_rss_mb", "MiB", false},
      {"p50_us", "us", false},
      {"throughput_per_s", "1/s", false},
      {"banks", "count", false},
      {"overhead_elems", "count", false},
      {"cycles", "count", false},
      // Per-layer (--trace 1). The tail of the p50_us quantity first: on
      // the VM the benchmark was built on it is bimodal run to run (host
      // stalls), so it is reported here, unbounded, rather than gated.
      {"e2e.p90_us", "us", true},
      {"e2e.p99_us", "us", true},
      {"serve.parse_ns.p50", "ns", true},
      {"serve.solve_hit_ns.p50", "ns", true},
      {"serve.serialize_ns.p50", "ns", true},
      {"cache.hit_ratio", "ratio", true},
      {"cache.find_miss_ns.p50", "ns", true},
      {"cache.insert_ns.p50", "ns", true},
      {"cache.evictions", "count", true},
      {"pattern.canonicalize_ns.p50", "ns", true},
      {"core.bank_search_ns.p50", "ns", true},
      {"core.bank_search_ns.p99", "ns", true},
      {"core.bank_search.rejected", "count", true},
      {"core.ops.arithmetic", "count", true},
      {"core.constraint_ns.p50", "ns", true},
      {"core.mapping_ns.p50", "ns", true},
      {"core.unattributed_pct", "%", true},
      {"core.solve_many.dedup_ratio", "ratio", true},
      {"core.solve_many.scaling", "ratio", true},
      {"sim.plan_compile_us", "us", true},
      {"sim.walk_ns_per_read", "ns", true},
      {"sim.compiled_share", "ratio", true},
      {"sim.conflict_cycles", "count", true},
      {"obs.trace_overhead_pct", "%", true},
      {"host.steal_pct", "%", true},
  };
  return specs;
}

std::string request_line(const mempart::PartitionRequest& request,
                         std::int64_t id) {
  mempart::check::CheckConfig config;
  config.offsets = request.pattern->offsets();
  if (request.array_shape) config.shape = request.array_shape->extents();
  config.max_banks = request.max_banks;
  config.bank_bandwidth = request.bank_bandwidth;
  config.strategy = request.strategy;
  config.tail = request.tail;
  std::string json = config.to_json();
  std::replace(json.begin(), json.end(), '\n', ' ');
  return "{\"id\": \"" + std::to_string(id) + "\"," + json.substr(1);
}

void Result::fail(const std::string& message, std::int64_t count) {
  correct = false;
  failed += count;
  if (errors.size() < 8) errors.push_back(message);
}

void print_fingerprint(const Args& args) {
  std::cout << "fingerprint: nproc=" << std::thread::hardware_concurrency()
            << " simd=" << mempart::simd::tier_name(mempart::simd::active_tier())
            << " build=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " commit=" << args.commit << '\n';
}

namespace {

std::string render_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void print_result(const Args& args, Result& result) {
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.per_layer != args.trace) continue;
    const auto it = result.metrics.find(std::string(spec.name));
    if (it == result.metrics.end()) {
      throw std::runtime_error("workload did not report metric " +
                               std::string(spec.name));
    }
    json << (first ? "" : ", ") << '"' << spec.name << "\": {\"value\": "
         << render_number(it->second) << ", \"unit\": \"" << spec.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  for (const std::string& error : result.errors) {
    std::cout << "CHECK FAILED: " << error << '\n';
  }
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench
