// batch-cold: a seeded stream of valid configs through the cold solver.
//
// The stream comes from check::generate_config with degenerate and
// overflow classes off. About 10% of it repeats an earlier config under a
// translation (canonically equal, so solve_many dedups it); the rest is
// structurally distinct, and the stream is longer than the default
// 4096-entry cache, so the cache evicts. About a third of the configs are
// capped by N_max with the same-size strategy, a few percent have a spread
// past the bank search's dense-table limit (its sorted-difference
// fallback), and every config carries an array shape.
//
// For half the run the stream goes config by config through the static
// Partitioner::solve; for the other half through
// Partitioner::solve_many_collect at nproc - 1 threads on a fresh cache per
// pass.
// The cold solver (pattern + core) does nearly all the work; serve does
// none.
//
// Correctness: the batch results equal the direct solves structurally, and
// every solution's delta_P agrees with the brute-force check oracle
// enumerated over the config's array (exact, or a bound for folded
// mappings, as in the differential harness).
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "check/generator.h"
#include "check/oracle.h"
#include "common.h"
#include "common/random.h"
#include "core/bank_constraint.h"
#include "core/bank_mapping.h"
#include "core/bank_search.h"
#include "core/partitioner.h"
#include "core/solve_cache.h"
#include "loopnest/stencil_program.h"
#include "sim/address_map.h"
#include "obs/trace.h"
#include "pattern/canonical.h"

namespace perfbench {

using namespace mempart;

namespace {

/// Extent range of the wide configs' ~4200x4200 bounding box: their
/// transformed spread passes 2^24, where the bank search leaves its dense
/// existence table (bank_search.cpp's kMaxTableDiff).
constexpr Count kWideExtentLo = 4100;
constexpr Count kWideExtentHi = 4400;

PartitionRequest make_request(std::vector<NdIndex> offsets,
                              std::vector<Count> shape, Count max_banks,
                              Count bandwidth, ConstraintStrategy strategy,
                              TailPolicy tail) {
  PartitionRequest request;
  request.pattern = Pattern(std::move(offsets));
  request.array_shape = NdShape(std::move(shape));
  request.max_banks = max_banks;
  request.bank_bandwidth = bandwidth;
  request.strategy = strategy;
  request.tail = tail;
  return request;
}

/// Sparse rank-2 pattern spanning a ~4200x4200 box: alpha . Delta spreads
/// past 2^24, so Algorithm 1 runs on its sorted-difference fallback.
PartitionRequest wide_request(Rng& rng) {
  const Count e0 = rng.uniform(kWideExtentLo, kWideExtentHi);
  const Count e1 = rng.uniform(kWideExtentLo, kWideExtentHi);
  std::set<NdIndex> taps = {{0, 0}, {e0 - 1, e1 - 1}};
  const Count m = rng.uniform(3, 6);
  while (std::ssize(taps) < m) {
    taps.insert({rng.uniform(0, e0 - 1), rng.uniform(0, e1 - 1)});
  }
  return make_request({taps.begin(), taps.end()},
                      {e0 + rng.uniform(0, 2), e1 + rng.uniform(0, 2)}, 0, 1,
                      ConstraintStrategy::kFastFold, TailPolicy::kPadded);
}

PartitionRequest generated_request(Rng& rng) {
  check::GeneratorOptions options;
  // Rank <= 3 keeps array volumes (and so the storage-overhead total) free
  // of the rank-4 heavy tail, where one config's padding outweighs
  // thousands of others; slack 4 keeps the oracle's anchor sweep small.
  options.max_rank = 3;
  options.max_extent_slack = 4;
  options.degenerate_rate = 0.0;
  options.overflow_rate = 0.0;
  check::CheckConfig config = check::generate_config(rng, options);
  if (config.shape.empty()) {  // the generator drops shapes 10% of the time
    const size_t rank = config.offsets.front().size();
    for (size_t d = 0; d < rank; ++d) {
      Coord lo = config.offsets[0][d];
      Coord hi = lo;
      for (const NdIndex& o : config.offsets) {
        lo = std::min(lo, o[d]);
        hi = std::max(hi, o[d]);
      }
      config.shape.push_back(hi - lo + 1 + rng.uniform(0, 4));
    }
  }
  const Count m = static_cast<Count>(config.offsets.size());
  if (m >= 2 && rng.chance(1.0 / 3.0)) {
    // N_f >= m, so a cap below m always binds.
    config.strategy = ConstraintStrategy::kSameSize;
    config.max_banks = rng.uniform(1, m - 1);
  }
  if (config.strategy == ConstraintStrategy::kFastFold &&
      (config.max_banks > 0 || config.bank_bandwidth > 1)) {
    config.tail = TailPolicy::kPadded;  // folded banks need padding
  }
  return make_request(std::move(config.offsets), std::move(config.shape),
                      config.max_banks, config.bank_bandwidth, config.strategy,
                      config.tail);
}

/// Same request under a seeded translation: canonically equal.
PartitionRequest translated(const PartitionRequest& base, Rng& rng) {
  std::vector<NdIndex> offsets = base.pattern->offsets();
  const Coord shift = rng.uniform(-5, 5);
  for (NdIndex& o : offsets) {
    for (Coord& c : o) c += shift;
  }
  PartitionRequest copy = base;
  copy.pattern = Pattern(std::move(offsets));
  return copy;
}

std::vector<PartitionRequest> make_stream(const Args& args) {
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 11);
  const size_t n = args.tiny ? 600 : 24576;
  std::vector<PartitionRequest> stream;
  stream.reserve(n);
  while (stream.size() < n) {
    if (stream.size() > 16 && rng.chance(0.10)) {
      const size_t j = static_cast<size_t>(
          rng.uniform(0, static_cast<Count>(stream.size()) - 1));
      stream.push_back(translated(stream[j], rng));
    } else if (rng.chance(0.04)) {
      stream.push_back(wide_request(rng));
    } else {
      stream.push_back(generated_request(rng));
    }
  }
  return stream;
}

/// Cache key in the layout partitioner.cpp documents for build_key, so the
/// replay probes the cache with keys of the real size and spread.
void cache_key(const PartitionRequest& request,
               const Canonicalizer::View& view, std::vector<std::int64_t>& key) {
  key.assign({request.max_banks, request.bank_bandwidth,
              static_cast<std::int64_t>(request.strategy), 1,
              static_cast<std::int64_t>(view.extents.size()),
              static_cast<std::int64_t>(view.values.size())});
  key.insert(key.end(), view.extents.begin(), view.extents.end());
  key.insert(key.end(), view.sorted_values.begin(), view.sorted_values.end());
}

/// Workers of the batch passes: nproc - 1 (at least 1). With every vCPU
/// busy, a host stall on any one of them holds the whole fork-join pass; on
/// the 4-vCPU VM this was tuned on, 4 threads read 147k-198k solves/s
/// against 153k-179k for 3.
Count batch_threads() {
  return static_cast<Count>(std::max(2u, std::thread::hardware_concurrency()) -
                            1);
}

std::string mismatch(const PartitionSolution& a, const PartitionSolution& b) {
  if (a.num_banks() != b.num_banks()) return "num_banks";
  if (a.delta_ii() != b.delta_ii()) return "delta_ii";
  if (a.constraint.fold_factor != b.constraint.fold_factor) return "fold_factor";
  if (a.search.num_banks != b.search.num_banks) return "N_f";
  if (a.transform.alpha() != b.transform.alpha()) return "alpha";
  if (a.pattern_banks != b.pattern_banks) return "pattern_banks";
  if (a.mapping.has_value() != b.mapping.has_value()) return "mapping";
  if (a.mapping && a.storage_overhead_elements() != b.storage_overhead_elements()) {
    return "storage_overhead";
  }
  return {};
}

struct SeqPass {
  double seconds = 0.0;
  std::vector<double> solve_us;
};

/// The sequential pass; keeps the solutions when `keep` is given.
SeqPass sequential_pass(const std::vector<PartitionRequest>& stream,
                        std::vector<PartitionSolution>* keep, Result& result) {
  SeqPass pass;
  pass.solve_us.reserve(stream.size());
  for (const PartitionRequest& request : stream) {
    try {
      const auto start = Clock::now();
      PartitionSolution solution = Partitioner::solve(request);
      const double us = static_cast<double>(elapsed_ns(start)) / 1e3;
      pass.solve_us.push_back(us);
      pass.seconds += us / 1e6;
      if (keep != nullptr) keep->push_back(std::move(solution));
    } catch (const std::exception& e) {
      result.fail(std::string("direct solve rejected a stream config: ") +
                  e.what());
      if (keep != nullptr) keep->emplace_back();
    }
    ++result.attempted;
  }
  return pass;
}

}  // namespace

void replay_solver_layers(const std::vector<PartitionRequest>& stream,
                          const std::vector<PartitionSolution>& direct,
                          double solve_seconds, Result& result) {
  Canonicalizer canon;
  BankSearchScratch scratch;
  SolveCache cache(4096);
  std::vector<std::int64_t> key;
  std::unordered_set<std::string> classes;
  std::vector<double> canon_ns, search_ns, constraint_ns, mapping_ns,
      miss_ns, insert_ns;
  double attributed_ns = 0.0;
  std::int64_t rejected = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const PartitionRequest& request = stream[i];
    auto t = Clock::now();
    const Canonicalizer::View view = canon.run(*request.pattern);
    canon_ns.push_back(static_cast<double>(elapsed_ns(t)));

    cache_key(request, view, key);
    classes.emplace(reinterpret_cast<const char*>(key.data()),
                    key.size() * sizeof(std::int64_t));
    t = Clock::now();
    std::shared_ptr<const CachedSolve> hit = cache.find(key);
    const double find_ns = static_cast<double>(elapsed_ns(t));
    if (hit == nullptr) miss_ns.push_back(find_ns);

    t = Clock::now();
    const BankSearchResult search =
        minimize_banks(view.sorted_values, /*collect_diagnostics=*/false,
                       &scratch);
    search_ns.push_back(static_cast<double>(elapsed_ns(t)));
    rejected += search.rejected_candidates;

    // The constraint stage as Partitioner runs it: bandwidth tightens the
    // cap, and only a binding cap calls into constrain_*.
    Count cap = request.max_banks;
    if (request.bank_bandwidth > 1) {
      const Count bw_cap = (search.num_banks + request.bank_bandwidth - 1) /
                           request.bank_bandwidth;
      cap = cap == 0 ? bw_cap : std::min(cap, bw_cap);
    }
    auto core = std::make_shared<CachedSolve>();
    core->search = search;
    double c_ns = 0.0;
    if (cap != 0 && search.num_banks > cap) {
      t = Clock::now();
      core->constraint =
          request.strategy == ConstraintStrategy::kFastFold
              ? constrain_fast(search.num_banks, cap)
              : constrain_same_size(view.sorted_values, cap);
      c_ns = static_cast<double>(elapsed_ns(t));
      constraint_ns.push_back(c_ns);
    }
    if (hit == nullptr) {
      t = Clock::now();
      cache.insert(key, std::move(core));
      insert_ns.push_back(static_cast<double>(elapsed_ns(t)));
    }

    const PartitionSolution& solution = direct[i];
    BankMapping::Options options;
    options.num_banks = solution.num_banks();
    options.fold_modulus =
        solution.constraint.fold_factor > 1 ? solution.search.num_banks : 0;
    options.tail = request.tail;
    t = Clock::now();
    const BankMapping mapping(*request.array_shape, solution.transform,
                              options);
    const double m_ns = static_cast<double>(elapsed_ns(t));
    mapping_ns.push_back(m_ns);
    attributed_ns += canon_ns.back() + search_ns.back() + c_ns + m_ns;
  }
  const double unattributed_pct =
      100.0 * (1.0 - attributed_ns / (solve_seconds * 1e9));
  result.set("pattern.canonicalize_ns.p50", quantile(canon_ns, 0.5));
  result.set("core.bank_search_ns.p50", quantile(search_ns, 0.5));
  result.set("core.bank_search_ns.p99", quantile(search_ns, 0.99));
  result.set("core.bank_search.rejected", static_cast<double>(rejected));
  result.set("core.constraint_ns.p50", quantile(constraint_ns, 0.5));
  result.set("core.mapping_ns.p50", quantile(mapping_ns, 0.5));
  result.set("core.unattributed_pct", unattributed_pct);
  result.set("cache.find_miss_ns.p50", quantile(miss_ns, 0.5));
  result.set("cache.insert_ns.p50", quantile(insert_ns, 0.5));
  const SolveCache::Stats stats = cache.stats();
  result.set("cache.hit_ratio",
             static_cast<double>(stats.hits) /
                 static_cast<double>(std::max<std::int64_t>(
                     stats.hits + stats.misses, 1)));
  result.set("cache.evictions", static_cast<double>(stats.evictions));
  result.set("core.solve_many.dedup_ratio",
             static_cast<double>(stream.size()) /
                 static_cast<double>(classes.size()));
  std::int64_t ops = 0;
  for (const PartitionSolution& solution : direct) {
    ops += solution.ops.arithmetic();
  }
  result.set("core.ops.arithmetic", static_cast<double>(ops));
  {
    // The same requests through the batch API, on a fresh cache, against
    // their summed sequential solve time.
    SolveCache batch_cache(4096);
    Partitioner partitioner(&batch_cache);
    BatchOptions options;
    options.threads = batch_threads();
    const auto t0 = Clock::now();
    (void)partitioner.solve_many_collect(stream, options);
    result.set("core.solve_many.scaling", solve_seconds / seconds_since(t0));
  }

  const double n = static_cast<double>(stream.size());
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double solve_ns = solve_seconds * 1e9 / n;
  const double canonicalize = mean(canon_ns);
  const double search = mean(search_ns);
  double constraint = 0.0;
  for (const double x : constraint_ns) constraint += x;
  constraint /= n;
  const double mapping = mean(mapping_ns);
  const double rest = solve_ns - canonicalize - search - constraint - mapping;
  std::cout << "waterfall solver (mean ns per Partitioner::solve over "
            << stream.size() << " requests, blocking order):\n";
  const auto row = [&](const char* name, double ns) {
    std::cout << "  " << name << ' ' << ns << " ns ("
              << 100.0 * ns / solve_ns << "%)\n";
  };
  row("pattern.canonicalize", canonicalize);
  row("core.bank_search    ", search);
  row("core.constraint     ", constraint);
  row("core.mapping        ", mapping);
  row("unattributed        ", rest);
  std::cout << "  total solve          " << solve_ns << " ns\n";
}

int run_batch_cold(const Args& args, Result& result) {
  std::vector<double> setups;
  std::vector<PartitionRequest> stream;
  for (int rep = 0; rep < 9; ++rep) {
    const auto start = Clock::now();
    stream = make_stream(args);
    setups.push_back(seconds_since(start));
  }
  result.set("setup_s", median(setups));
  const double n = static_cast<double>(stream.size());
  BatchOptions options;
  options.threads = batch_threads();

  std::vector<BatchResult> batch;
  std::vector<PartitionSolution> direct;
  direct.reserve(stream.size());
  std::vector<double> batch_rate, batch_steal, seq_p50, seq_p90, seq_p99,
      seq_seconds, seq_steal;
  SolveCache::Stats cache_stats;
  // The sequential passes run first and the batch passes after them, not
  // interleaved: right after a multi-threaded burst the sequential p50 read
  // ~8% slower and twice as noisy on the 4-vCPU VM this was tuned on.
  const double budget = (args.trace ? args.seconds / 2 : args.seconds) / 2;
  auto start = Clock::now();
  do {
    const StealMeter meter;
    SeqPass pass =
        sequential_pass(stream, direct.empty() ? &direct : nullptr, result);
    seq_steal.push_back(meter.share());
    seq_p50.push_back(quantile(pass.solve_us, 0.5));
    seq_p90.push_back(quantile(pass.solve_us, 0.9));
    seq_p99.push_back(quantile(pass.solve_us, 0.99));
    seq_seconds.push_back(pass.seconds);
  } while (seconds_since(start) < budget);
  start = Clock::now();
  do {
    SolveCache cache(4096);
    Partitioner partitioner(&cache);
    const StealMeter meter;
    const auto t0 = Clock::now();
    std::vector<BatchResult> results =
        partitioner.solve_many_collect(stream, options);
    batch_rate.push_back(n / seconds_since(t0));
    batch_steal.push_back(meter.share());
    result.attempted += static_cast<std::int64_t>(stream.size());
    if (batch.empty()) {
      batch = std::move(results);
      cache_stats = cache.stats();
    }
  } while (seconds_since(start) < budget);
  result.set("peak_rss_mb", peak_rss_mb());

  Count banks = 0, overhead = 0, cycles = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchResult& slot = batch[i];
    if (!slot.ok()) {
      result.fail("solve_many_collect rejected config " + std::to_string(i) +
                  ": " + slot.error);
      continue;
    }
    banks += slot.solution->num_banks();
    overhead += slot.solution->storage_overhead_elements();
    cycles += slot.solution->access_cycles();
  }
  const double solves_per_s = clean_median(batch_rate, batch_steal);
  const double solve_p50 = clean_median(seq_p50, seq_steal);
  const double seq_pass_seconds = clean_median(seq_seconds, seq_steal);
  result.set("p50_us", solve_p50);
  result.set("throughput_per_s", solves_per_s);
  result.set("banks", static_cast<double>(banks));
  result.set("overhead_elems", static_cast<double>(overhead));
  result.set("cycles", static_cast<double>(cycles));
  const double lookups =
      static_cast<double>(cache_stats.hits + cache_stats.misses);
  std::cout << "batch-cold: " << stream.size() << " configs, "
            << batch_rate.size() << " passes, " << options.threads
            << " threads\n"
            << "  batch.solves_per_s " << solves_per_s
            << " 1/s; cold.solve_p50_us " << solve_p50 << " us, p90 "
            << clean_median(seq_p90, seq_steal) << " us, p99 "
            << clean_median(seq_p99, seq_steal) << " us ("
            << stream.size() / 100 << " samples beyond)\n"
            << "  host steal " << 100.0 * median(seq_steal) << "% (sequential), "
            << 100.0 * median(batch_steal)
            << "% (batch) of CPU time; the cleaner half of the passes is "
               "reported\n"
            << "  batch.banks " << banks << ", batch.overhead_elems "
            << overhead << ", access cycles " << cycles << "\n"
            << "  cache (first batch pass): " << cache_stats.hits
            << " hits / " << cache_stats.misses << " misses / "
            << cache_stats.evictions << " evictions\n";

  if (args.trace) {
    result.set("e2e.p90_us", clean_median(seq_p90, seq_steal));
    result.set("e2e.p99_us", clean_median(seq_p99, seq_steal));
    result.set("host.steal_pct", 100.0 * median(seq_steal));
    replay_solver_layers(stream, direct, seq_pass_seconds, result);
    // The batch API and cache as the measured passes used them, not as the
    // replay probed them.
    result.set("core.solve_many.scaling",
               solves_per_s / (n / seq_pass_seconds));
    result.set("cache.hit_ratio",
               lookups > 0 ? static_cast<double>(cache_stats.hits) / lookups
                           : 0.0);
    result.set("cache.evictions", static_cast<double>(cache_stats.evictions));

    // The serve layer on the same requests, rendered as request lines: what
    // the daemon's parse, warm solve and serialize would cost for them.
    std::vector<std::string> lines;
    for (size_t i = 0; i < stream.size(); ++i) {
      lines.push_back(request_line(stream[i], static_cast<std::int64_t>(i)));
    }
    const ServeLayerTimes serve_layer = replay_serve_layer(lines, result);
    result.set("serve.parse_ns.p50", serve_layer.parse_ns);
    result.set("serve.solve_hit_ns.p50", serve_layer.solve_hit_ns);
    result.set("serve.serialize_ns.p50", serve_layer.serialize_ns);
    std::cout << "  serve layer on these requests (p50): parse_request "
              << serve_layer.parse_ns << " ns, warm solve_into "
              << serve_layer.solve_hit_ns << " ns, ok_response "
              << serve_layer.serialize_ns << " ns\n";

    // The simulator on the first designs of the stream, over their arrays.
    std::vector<std::optional<loopnest::StencilProgram>> programs(
        std::min<size_t>(stream.size(), 256));
    std::vector<std::optional<sim::CoreAddressMap>> maps(programs.size());
    std::vector<const loopnest::StencilProgram*> program_ptrs;
    std::vector<const sim::AddressMap*> map_ptrs;
    for (size_t i = 0; i < programs.size(); ++i) {
      if (!direct[i].mapping) continue;
      programs[i].emplace(*stream[i].array_shape, *stream[i].pattern);
      maps[i].emplace(*direct[i].mapping);
      program_ptrs.push_back(&*programs[i]);
      map_ptrs.push_back(&*maps[i]);
    }
    replay_sim_layers(program_ptrs, map_ptrs, result);

    // Tracing overhead on the sequential cold-solve p50.
    std::vector<double> traced_p50, traced_steal;
    obs::enable(true);
    const auto t0 = Clock::now();
    do {
      const StealMeter meter;
      SeqPass pass = sequential_pass(stream, nullptr, result);
      traced_steal.push_back(meter.share());
      traced_p50.push_back(quantile(pass.solve_us, 0.5));
      obs::TraceLog::instance().clear();
    } while (seconds_since(t0) < budget);
    obs::enable(false);
    const double overhead_pct =
        (clean_median(traced_p50, traced_steal) / solve_p50 - 1.0) * 100.0;
    result.set("obs.trace_overhead_pct", overhead_pct);
    std::cout << "  obs.trace_overhead_pct " << overhead_pct << "%\n";
  }

  // Output checks, outside the timed region.
  Count bounded = 0;
  for (size_t i = 0; i < stream.size() && i < batch.size(); ++i) {
    if (!batch[i].ok() || !direct[i].mapping.has_value()) continue;
    const std::string diff = mismatch(*batch[i].solution, direct[i]);
    if (!diff.empty()) {
      result.fail("config " + std::to_string(i) +
                  ": solve_many_collect differs from Partitioner::solve in " +
                  diff);
      continue;
    }
    const PartitionSolution& s = direct[i];
    const BankMapping& mapping = *s.mapping;
    const std::vector<std::vector<Coord>> offsets(
        stream[i].pattern->offsets().begin(), stream[i].pattern->offsets().end());
    const check::ConflictReport report = check::enumerate_conflicts(
        offsets, stream[i].array_shape->extents(),
        [&](const std::vector<Coord>& x) { return mapping.bank_of(x); });
    const bool folded = s.constraint.fold_factor > 1;
    if (report.positions == 0) continue;
    if (folded ? report.delta_p > s.delta_ii() : report.delta_p != s.delta_ii()) {
      std::ostringstream os;
      os << "config " << i << ": oracle delta_P " << report.delta_p
         << " vs solver " << s.delta_ii();
      result.fail(os.str());
    }
    bounded += folded && report.delta_p < s.delta_ii() ? 1 : 0;
  }
  std::cout << "  oracle: " << stream.size() << " solutions checked ("
            << bounded << " folded ones below their delta_P bound)\n";
  return 0;
}

}  // namespace perfbench
