// sim-1080p: loopnest::simulate_fast on one thread.
//
// The six 2-D Table-1 stencils replayed over a 1920x1080 frame with their
// unconstrained mappings, the same six with N_max = 8 fast-fold (delta_P > 0
// wherever the stencil needs more than 8 banks, so conflict scoring does
// work), and Sobel3D over a volume. Only the sim and loopnest layers work
// here; the solver runs once per frame in set-up and serve not at all.
//
// Correctness: every frame's statistics must repeat exactly across passes,
// fit the mapping's delta_P, and — on a reduced frame of the same stencil
// and solver options — equal the reference loopnest::simulate.
#include <algorithm>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>

#include "common.h"
#include "core/partitioner.h"
#include "loopnest/schedule.h"
#include "obs/trace.h"
#include "pattern/pattern_library.h"
#include "sim/access_plan.h"
#include "sim/address_map.h"

namespace perfbench {

using namespace mempart;

namespace {

struct FrameSpec {
  Pattern pattern;
  std::vector<Count> shape;
  std::vector<Count> reduced_shape;
  Count max_banks = 0;
};

/// One frame ready to simulate: program, solved mapping and its claims.
struct Frame {
  std::string label;
  std::optional<loopnest::StencilProgram> program;
  std::optional<sim::CoreAddressMap> map;
  Count num_banks = 0;
  Count delta_ii = 0;
  Count overhead = 0;
  Count taps = 0;
};

/// Translates every offset by a seeded shift: same stencil, new loop bounds.
Pattern translated(const Pattern& pattern, std::mt19937_64& rng) {
  std::vector<NdIndex> offsets = pattern.offsets();
  std::uniform_int_distribution<Coord> shift(-3, 3);
  NdIndex delta(static_cast<size_t>(pattern.rank()));
  for (Coord& c : delta) c = shift(rng);
  for (NdIndex& offset : offsets) {
    for (size_t d = 0; d < offset.size(); ++d) offset[d] += delta[d];
  }
  return Pattern(std::move(offsets), pattern.name());
}

std::vector<FrameSpec> make_specs(const Args& args) {
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ULL + 3);
  const std::vector<Count> frame =
      args.tiny ? std::vector<Count>{192, 108} : std::vector<Count>{1920, 1080};
  const std::vector<Count> volume =
      args.tiny ? std::vector<Count>{24, 24, 12} : std::vector<Count>{96, 96, 64};
  std::vector<FrameSpec> specs;
  for (const Count cap : {Count{0}, Count{8}}) {
    for (const Pattern& base : patterns::table1_patterns()) {
      if (base.rank() != 2) continue;
      specs.push_back({translated(base, rng), frame, {96, 72}, cap});
    }
  }
  for (const Pattern& base : patterns::table1_patterns()) {
    if (base.rank() == 3) {
      specs.push_back({translated(base, rng), volume, {16, 16, 8}, 0});
    }
  }
  std::shuffle(specs.begin(), specs.end(), rng);
  return specs;
}

PartitionRequest request_for(const FrameSpec& spec,
                             const std::vector<Count>& shape) {
  PartitionRequest request;
  request.pattern = spec.pattern;
  request.array_shape = NdShape(shape);
  request.max_banks = spec.max_banks;
  request.strategy = ConstraintStrategy::kFastFold;
  return request;
}

std::vector<Frame> build_frames(const std::vector<FrameSpec>& specs) {
  std::vector<Frame> frames(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const FrameSpec& spec = specs[i];
    PartitionSolution solution =
        Partitioner::solve(request_for(spec, spec.shape));
    Frame& frame = frames[i];
    frame.label = spec.pattern.name() +
                  (spec.max_banks > 0 ? "@Nmax" + std::to_string(spec.max_banks)
                                      : std::string());
    frame.num_banks = solution.num_banks();
    frame.delta_ii = solution.delta_ii();
    frame.overhead = solution.storage_overhead_elements();
    frame.taps = spec.pattern.size();
    frame.program.emplace(NdShape(spec.shape), spec.pattern, frame.label);
    frame.map.emplace(std::move(*solution.mapping));
  }
  return frames;
}

bool same_stats(const sim::AccessStats& a, const sim::AccessStats& b) {
  return a.iterations == b.iterations && a.accesses == b.accesses &&
         a.cycles == b.cycles && a.conflict_cycles == b.conflict_cycles &&
         a.worst_group_cycles == b.worst_group_cycles &&
         a.bank_load == b.bank_load;
}

/// One timed pass over every frame.
struct Pass {
  double seconds = 0.0;
  Count reads = 0;
  Count cycles = 0;
  Count conflict_cycles = 0;
  std::vector<double> frame_us;
};

Pass run_pass(const std::vector<Frame>& frames,
              std::vector<sim::AccessStats>& first_stats, Result& result) {
  Pass pass;
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame& frame = frames[i];
    const auto start = Clock::now();
    sim::AccessStats stats = loopnest::simulate_fast(*frame.program, *frame.map);
    const double elapsed = seconds_since(start);
    pass.frame_us.push_back(elapsed * 1e6);
    pass.seconds += elapsed;
    pass.reads += stats.accesses;
    pass.cycles += stats.cycles;
    pass.conflict_cycles += stats.conflict_cycles;
    ++result.attempted;
    if (first_stats.size() <= i) {
      first_stats.push_back(std::move(stats));
    } else if (!same_stats(stats, first_stats[i])) {
      result.fail(frame.label + ": statistics changed between passes");
    }
  }
  return pass;
}

/// Output checks, outside every timed region.
void verify(const std::vector<FrameSpec>& specs,
            const std::vector<Frame>& frames,
            const std::vector<sim::AccessStats>& stats, Result& result) {
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame& frame = frames[i];
    const sim::AccessStats& s = stats[i];
    if (s.accesses != s.iterations * frame.taps) {
      result.fail(frame.label + ": accesses != iterations * m");
    }
    if (s.cycles < s.iterations ||
        s.cycles > s.iterations * (frame.delta_ii + 1) ||
        (frame.delta_ii == 0 && s.conflict_cycles != 0)) {
      std::ostringstream os;
      os << frame.label << ": " << s.cycles << " cycles over " << s.iterations
         << " iterations contradicts delta_P = " << frame.delta_ii;
      result.fail(os.str());
    }
    // Reference simulator on a reduced frame of the same stencil+options.
    const FrameSpec& spec = specs[i];
    PartitionSolution small =
        Partitioner::solve(request_for(spec, spec.reduced_shape));
    const loopnest::StencilProgram program(NdShape(spec.reduced_shape),
                                           spec.pattern, frame.label);
    const sim::CoreAddressMap map(std::move(*small.mapping));
    if (!same_stats(loopnest::simulate_fast(program, map),
                    loopnest::simulate(program, map))) {
      result.fail(frame.label +
                  ": simulate_fast differs from the reference simulate on "
                  "the reduced frame");
    }
  }
}

}  // namespace

void replay_sim_layers(const std::vector<const loopnest::StencilProgram*>& programs,
                       const std::vector<const sim::AddressMap*>& maps,
                       Result& result) {
  // AccessPlan compile timed on its own, then the whole simulate_fast; the
  // walk (address generation + conflict scoring) is the difference.
  std::vector<double> compile_us;
  double simulate_s = 0.0;
  double compile_s = 0.0;
  Count reads = 0;
  Count compiled = 0;
  Count conflict_cycles = 0;
  for (size_t i = 0; i < programs.size(); ++i) {
    const auto c0 = Clock::now();
    const sim::AccessPlan plan(*maps[i], programs[i]->extract_pattern(),
                               loopnest::plan_domain(programs[i]->loop_nest()));
    const double c = seconds_since(c0);
    compile_us.push_back(c * 1e6);
    compile_s += c;
    compiled += plan.compiled() ? 1 : 0;
    const auto s0 = Clock::now();
    const sim::AccessStats stats = loopnest::simulate_fast(*programs[i], *maps[i]);
    simulate_s += seconds_since(s0);
    reads += stats.accesses;
    conflict_cycles += stats.conflict_cycles;
  }
  const double walk_ns = (simulate_s - compile_s) * 1e9 /
                         static_cast<double>(std::max<Count>(reads, 1));
  result.set("sim.plan_compile_us", median(compile_us));
  result.set("sim.walk_ns_per_read", walk_ns);
  result.set("sim.compiled_share",
             static_cast<double>(compiled) /
                 static_cast<double>(std::max<size_t>(programs.size(), 1)));
  result.set("sim.conflict_cycles", static_cast<double>(conflict_cycles));
  std::cout << "waterfall simulator (" << programs.size()
            << " programs, blocking order):\n"
            << "  sim.plan_compile    " << compile_s * 1e6 << " us ("
            << 100.0 * compile_s / simulate_s << "%)\n"
            << "  sim.walk            " << (simulate_s - compile_s) * 1e6
            << " us (" << 100.0 * (simulate_s - compile_s) / simulate_s
            << "%) = " << walk_ns << " ns/read\n"
            << "  total simulate_fast " << simulate_s * 1e6 << " us; "
            << compiled << "/" << programs.size() << " compiled\n";
}

int run_sim_1080p(const Args& args, Result& result) {
  // Set-up: inputs, the 13 solved mappings and compiled programs. It takes
  // about 0.1 ms, so it is repeated 51 times and reported as the median.
  std::vector<double> setups;
  std::vector<FrameSpec> specs;
  std::vector<Frame> frames;
  for (int rep = 0; rep < 51; ++rep) {
    const auto start = Clock::now();
    specs = make_specs(args);
    frames = build_frames(specs);
    setups.push_back(seconds_since(start));
  }
  result.set("setup_s", median(setups));

  Count banks = 0;
  Count overhead = 0;
  for (const Frame& frame : frames) {
    banks += frame.num_banks;
    overhead += frame.overhead;
  }

  std::vector<sim::AccessStats> first_stats;
  std::vector<double> frame_p50, frame_p90, frame_max, reads_per_s,
      pass_seconds, steal;
  Pass last;
  // The traced run splits its time between untraced passes (the layer
  // timings) and traced passes (the tracing overhead).
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const auto start = Clock::now();
  do {
    const StealMeter meter;
    last = run_pass(frames, first_stats, result);
    steal.push_back(meter.share());
    frame_p50.push_back(quantile(last.frame_us, 0.5));
    frame_p90.push_back(quantile(last.frame_us, 0.9));
    frame_max.push_back(quantile(last.frame_us, 1.0));
    reads_per_s.push_back(static_cast<double>(last.reads) / last.seconds);
    pass_seconds.push_back(last.seconds);
  } while (seconds_since(start) < budget);
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("p50_us", clean_median(frame_p50, steal));
  result.set("throughput_per_s", clean_median(reads_per_s, steal));
  result.set("banks", static_cast<double>(banks));
  result.set("overhead_elems", static_cast<double>(overhead));
  result.set("cycles", static_cast<double>(last.cycles));

  std::cout << "sim-1080p: " << frames.size() << " frames, "
            << pass_seconds.size() << " passes; per pass "
            << last.reads << " reads, " << last.cycles << " cycles ("
            << last.conflict_cycles << " conflict)\n"
            << "  sim.reads_per_s " << clean_median(reads_per_s, steal)
            << " 1/s, frame p50 " << clean_median(frame_p50, steal)
            << " us, p90 " << clean_median(frame_p90, steal) << " us, banks "
            << banks << ", overhead " << overhead << " elems\n"
            << "  host steal " << 100.0 * median(steal)
            << "% of CPU time (median pass; the cleaner half of "
            << steal.size() << " passes is reported)\n";

  if (args.trace) {
    std::vector<const loopnest::StencilProgram*> programs;
    std::vector<const sim::AddressMap*> maps;
    std::vector<PartitionRequest> requests;
    std::vector<PartitionSolution> solutions;
    double solve_seconds = 0.0;
    for (size_t i = 0; i < frames.size(); ++i) {
      programs.push_back(&*frames[i].program);
      maps.push_back(&*frames[i].map);
      requests.push_back(request_for(specs[i], specs[i].shape));
      const auto t0 = Clock::now();
      solutions.push_back(Partitioner::solve(requests.back()));
      solve_seconds += seconds_since(t0);
    }
    replay_sim_layers(programs, maps, result);
    // The solver and serve layers on this workload's 13 requests.
    replay_solver_layers(requests, solutions, solve_seconds, result);
    std::vector<std::string> lines;
    for (size_t i = 0; i < requests.size(); ++i) {
      lines.push_back(request_line(requests[i], static_cast<std::int64_t>(i)));
    }
    const ServeLayerTimes serve_layer = replay_serve_layer(lines, result);
    result.set("serve.parse_ns.p50", serve_layer.parse_ns);
    result.set("serve.solve_hit_ns.p50", serve_layer.solve_hit_ns);
    result.set("serve.serialize_ns.p50", serve_layer.serialize_ns);
    result.set("e2e.p90_us", clean_median(frame_p90, steal));
    result.set("e2e.p99_us", clean_median(frame_max, steal));
    result.set("host.steal_pct", 100.0 * median(steal));

    // Tracing overhead: the same passes with obs spans and metrics on.
    std::vector<double> traced_seconds, traced_steal;
    obs::enable(true);
    const auto t0 = Clock::now();
    do {
      const StealMeter meter;
      traced_seconds.push_back(run_pass(frames, first_stats, result).seconds);
      traced_steal.push_back(meter.share());
      obs::TraceLog::instance().clear();
    } while (seconds_since(t0) < budget);
    obs::enable(false);
    const double overhead_pct =
        (clean_median(traced_seconds, traced_steal) /
             clean_median(pass_seconds, steal) -
         1.0) *
        100.0;
    result.set("obs.trace_overhead_pct", overhead_pct);

    std::cout
              << "  obs.trace_overhead_pct " << overhead_pct << "%\n";
  }

  verify(specs, frames, first_stats, result);
  return 0;
}

}  // namespace perfbench
