// End-to-end hot-path throughput: exchanges/sec/core through the full
// Testbed → ClockSession/MultiEstimatorSession → estimator → sink pipeline,
// timed with a plain std::chrono loop (no Google Benchmark dependency — this
// target must always build). Representative configurations:
//
//   generate_only             — Testbed SoA stream generation alone
//                               (generate_batch; the floor every pipeline
//                               number sits on);
//   single_robust_exact       — one robust lane into the exact ReducerSink,
//                               scalar (a per-record step() loop) and batched
//                               (the chunked run()) drives (the batched/scalar
//                               ratio is the headline of the batch lane);
//   single_robust_estimate    — one robust lane, batched, NO sink attached:
//                               isolates estimator cost for the stage
//                               breakdown (generate / estimate / reduce);
//   single_robust_streaming   — one robust lane into the O(1)-memory
//                               StreamingReducerSink, batched (the sweep's
//                               default cell configuration);
//   multi3_streaming          — robust + swntp + naive lanes head-to-head on
//                               one stream, batched (the comparison sweep);
//   fleet_16_streaming        — a 16-client FleetTestbed's merged stream
//                               demultiplexed into 16 batched robust lanes
//                               with streaming reduction (the fleet sweep's
//                               default cell; exchanges counts all clients).
//
// Each result section carries a `pairs_with` key naming the baseline section
// it compares against (baselines predate the scalar/batched split, so the
// pairing cannot be positional). The report also carries a `stage_breakdown`
// object decomposing the single-lane batched exact pipeline's wall time into
// generate / estimate / reduce.
//
// The emitted JSON (schema: src/common/bench_report.hpp) is committed at the
// repo root as BENCH_throughput.json so the throughput trajectory is visible
// across PRs; its `baseline` block pins the pre-campaign scalar-pipeline
// numbers so the before/after comparison travels with the file. Regenerate
// with `bench_throughput --out BENCH_throughput.json` from the build
// directory whenever the schema version bumps.
//
//   bench_throughput [--quick] [--out PATH] [--check PATH]
//
//   --quick      2 simulated days instead of 30 (CI smoke; numbers are
//                noisier but the schema and counts are identical in kind)
//   --out PATH   write the JSON report to PATH (default: stdout)
//   --check PATH validate an existing report instead of measuring: parse,
//                require the current schema version (stale committed reports
//                fail here), require non-empty results with positive counts,
//                require the stage_breakdown object with finite non-negative
//                stages, and diff the section plan (names, drives,
//                reductions, pairs_with keys and the pinned baseline block)
//                against what this binary would emit — a committed report
//                that predates a section change fails as stale even when the
//                schema version did not bump. Exit 0 valid / 1 invalid.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/bench_report.hpp"
#include "harness/estimator.hpp"
#include "harness/fleet_session.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "sim/fleet.hpp"
#include "sim/scenario.hpp"
#include "support.hpp"

using namespace tscclock;

namespace {

/// The measured scenario: the sweep's default cell (ServerInt, machine
/// room, 16 s polls, observable warm-up cut) over a month-scale trace.
sim::ScenarioConfig scenario_for(double days) {
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.environment = sim::Environment::kMachineRoom;
  scenario.poll_period = 16.0;
  scenario.seed = 42;
  scenario.duration = days * duration::kDay;
  return scenario;
}

harness::SessionConfig session_config_for(const sim::ScenarioConfig& s) {
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(s.poll_period);
  config.discard_warmup = duration::kHour;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  return config;
}

/// Time one drain; the Testbed construction (attachment/RNG setup) stays
/// outside the timed region, the exchange loop is what's measured.
template <typename Drain>
BenchSection timed(const std::string& name, const std::string& drive,
                   const std::string& reduction, double days, Drain&& drain) {
  sim::Testbed testbed(scenario_for(days));
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t exchanges = drain(testbed);
  const auto stop = std::chrono::steady_clock::now();
  BenchSection s;
  s.name = name;
  s.drive = drive;
  s.reduction = reduction;
  s.exchanges = exchanges;
  s.seconds = std::chrono::duration<double>(stop - start).count();
  s.exchanges_per_sec =
      s.seconds > 0 ? static_cast<double>(exchanges) / s.seconds : 0;
  std::fprintf(stderr, "%-32s %9llu exchanges  %8.3f s  %10.0f /s\n",
               name.c_str(), static_cast<unsigned long long>(exchanges),
               s.seconds, s.exchanges_per_sec);
  return s;
}

std::uint64_t drain_generate(sim::Testbed& testbed) {
  // The SoA stream the batched sessions consume — no per-exchange Exchange
  // struct is ever materialized, so this is the true generation floor.
  constexpr std::size_t kChunk = 1024;
  sim::ExchangeBatch batch;
  std::uint64_t produced = 0;
  while (true) {
    const std::size_t n = testbed.generate_batch(batch, kChunk);
    produced += n;
    if (n < kChunk) return produced;
  }
}

/// The fleet drive: a 16-client FleetTestbed's merged stream demultiplexed
/// into 16 batched robust lanes with streaming reduction. Construction
/// (17 attachment walks, RNG forks) stays outside the timed region like in
/// timed(); `exchanges` counts every client's, so exchanges/sec is directly
/// comparable with the single-client sections (same per-exchange work, plus
/// the merge/demux overhead this section exists to measure).
BenchSection timed_fleet(double days) {
  const sim::ScenarioConfig base = scenario_for(days);
  sim::FleetConfig topology;
  topology.n_clients = 16;
  sim::FleetTestbed fleet(base, topology);
  const harness::SessionConfig config = session_config_for(base);
  harness::FleetSession session;
  std::vector<harness::StreamingReducerSink> reducers;
  reducers.reserve(topology.n_clients);
  for (std::size_t k = 0; k < fleet.client_count(); ++k) {
    session.add_client(config, std::make_unique<harness::TscNtpEstimator>(
                                   config.params,
                                   fleet.client(k).nominal_period()));
    reducers.emplace_back(base.poll_period);
    session.add_sink(k, reducers.back());
  }
  const auto start = std::chrono::steady_clock::now();
  session.run_batched(fleet);
  const auto stop = std::chrono::steady_clock::now();
  BenchSection s;
  s.name = "fleet_16_streaming";
  s.drive = "batched";
  s.reduction = "streaming";
  s.exchanges = session.combined_summary().exchanges;
  s.seconds = std::chrono::duration<double>(stop - start).count();
  s.exchanges_per_sec =
      s.seconds > 0 ? static_cast<double>(s.exchanges) / s.seconds : 0;
  std::fprintf(stderr, "%-32s %9llu exchanges  %8.3f s  %10.0f /s\n",
               s.name.c_str(), static_cast<unsigned long long>(s.exchanges),
               s.seconds, s.exchanges_per_sec);
  return s;
}

/// Pre-campaign scalar-pipeline numbers, measured on the seed of this
/// campaign (same scenario, 30 simulated days, same machine class as the CI
/// runners). Pinned so the committed report carries the before/after
/// comparison; these are historical records, not remeasured. The
/// fleet_16_streaming pin is its section's own first measurement (the fleet
/// drive was born batched — there is no scalar predecessor), so future PRs
/// diff against the landing number.
std::vector<BenchSection> baseline_sections() {
  const auto pin = [](const char* name, const char* drive,
                      const char* reduction, double per_sec,
                      std::uint64_t exchanges = 162000) {
    BenchSection s;
    s.name = name;
    s.drive = drive;
    s.reduction = reduction;
    s.exchanges = exchanges;  // 30 days / 16 s polls, steady schedule
    s.exchanges_per_sec = per_sec;
    s.seconds = static_cast<double>(s.exchanges) / per_sec;
    return s;
  };
  return {
      pin("generate_only", "generate", "none", 458155),
      pin("single_robust_exact", "scalar", "exact", 159600),
      pin("single_robust_streaming", "scalar", "streaming", 174129),
      pin("multi3_exact", "scalar", "exact", 168095),
      // 16 clients × 162000 exchanges each.
      pin("fleet_16_streaming", "batched", "streaming", 338928, 2592000),
  };
}

/// The section plan this binary emits: result section identity (name, drive,
/// reduction) plus the baseline section each one compares against. --check
/// diffs a committed report against this table, so editing the sections in
/// measure() without updating it fails CI until the report is regenerated.
struct PlanEntry {
  const char* name;
  const char* drive;
  const char* reduction;
  const char* pairs_with;  ///< "" = no pre-campaign baseline exists
};

constexpr PlanEntry kResultPlan[] = {
    {"generate_only", "generate", "none", "generate_only"},
    {"single_robust_exact_scalar", "scalar", "exact", "single_robust_exact"},
    {"single_robust_exact_batched", "batched", "exact", "single_robust_exact"},
    {"single_robust_estimate_only", "batched", "none", ""},
    {"single_robust_streaming_batched", "batched", "streaming",
     "single_robust_streaming"},
    {"multi3_streaming_batched", "batched", "streaming", "multi3_exact"},
    {"fleet_16_streaming", "batched", "streaming", "fleet_16_streaming"},
};

BenchReport measure(double days, const std::string& mode) {
  BenchReport report;
  report.tool = "bench_throughput";
  report.mode = mode;
  report.simulated_days = days;
  report.baseline_commit = "cdbde7e";
  report.baseline = baseline_sections();

  report.results.push_back(
      timed("generate_only", "generate", "none", days, drain_generate));

  report.results.push_back(timed(
      "single_robust_exact_scalar", "scalar", "exact", days,
      [](sim::Testbed& testbed) {
        harness::ClockSession session(
            session_config_for(testbed.config()), testbed.nominal_period());
        harness::ReducerSink reducer(testbed.config().poll_period);
        session.add_sink(reducer);
        // The per-record drive: one step() per exchange.
        while (session.step(testbed)) {
        }
        session.set_polls_enumerated(testbed.polls_enumerated());
        return session.summary().exchanges;
      }));

  report.results.push_back(timed(
      "single_robust_exact_batched", "batched", "exact", days,
      [](sim::Testbed& testbed) {
        harness::ClockSession session(
            session_config_for(testbed.config()), testbed.nominal_period());
        harness::ReducerSink reducer(testbed.config().poll_period);
        session.add_sink(reducer);
        return session.run(testbed).exchanges;
      }));

  report.results.push_back(timed(
      "single_robust_estimate_only", "batched", "none", days,
      [](sim::Testbed& testbed) {
        harness::ClockSession session(
            session_config_for(testbed.config()), testbed.nominal_period());
        return session.run(testbed).exchanges;
      }));

  report.results.push_back(timed(
      "single_robust_streaming_batched", "batched", "streaming", days,
      [](sim::Testbed& testbed) {
        harness::ClockSession session(
            session_config_for(testbed.config()), testbed.nominal_period());
        harness::StreamingReducerSink reducer(testbed.config().poll_period);
        session.add_sink(reducer);
        return session.run(testbed).exchanges;
      }));

  report.results.push_back(timed(
      "multi3_streaming_batched", "batched", "streaming", days,
      [](sim::Testbed& testbed) {
        const harness::SessionConfig config =
            session_config_for(testbed.config());
        harness::MultiEstimatorSession session;
        const std::size_t robust = session.add_lane(
            config, std::make_unique<harness::TscNtpEstimator>(
                        config.params, testbed.nominal_period()));
        const std::size_t swntp = session.add_lane(
            config, std::make_unique<harness::SwNtpEstimator>(
                        baseline::PllConfig{}, testbed.nominal_period()));
        const std::size_t naive = session.add_lane(
            config, std::make_unique<harness::NaiveEstimator>(
                        testbed.nominal_period()));
        std::vector<harness::StreamingReducerSink> reducers;
        reducers.reserve(3);
        for (std::size_t k = 0; k < 3; ++k)
          reducers.emplace_back(testbed.config().poll_period);
        session.add_sink(robust, reducers[0]);
        session.add_sink(swntp, reducers[1]);
        session.add_sink(naive, reducers[2]);
        session.run(testbed);
        return session.lane(robust).summary().exchanges;
      }));

  report.results.push_back(timed_fleet(days));

  for (std::size_t i = 0; i < report.results.size(); ++i)
    report.results[i].pairs_with = kResultPlan[i].pairs_with;

  // Where the time goes in the single-lane batched exact pipeline: the three
  // sections nest (generate ⊂ generate+estimate ⊂ generate+estimate+reduce),
  // so stage costs are successive differences, clamped against timing noise.
  const auto seconds_of = [&](const char* name) {
    for (const auto& s : report.results)
      if (s.name == std::string_view(name)) return s.seconds;
    return 0.0;
  };
  const double generate = seconds_of("generate_only");
  const double estimate_total = seconds_of("single_robust_estimate_only");
  const double full = seconds_of("single_robust_exact_batched");
  report.stage_breakdown.present = true;
  report.stage_breakdown.generate_seconds = generate;
  report.stage_breakdown.estimate_seconds =
      std::max(0.0, estimate_total - generate);
  report.stage_breakdown.reduce_seconds = std::max(0.0, full - estimate_total);
  return report;
}

int check_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  BenchReport report;
  try {
    report = parse_bench_report(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  if (report.schema_version != kBenchReportSchemaVersion) {
    std::fprintf(stderr,
                 "%s: schema_version %d is stale (current %d) — regenerate "
                 "with bench_throughput --out\n",
                 path.c_str(), report.schema_version,
                 kBenchReportSchemaVersion);
    return 1;
  }
  if (report.results.empty()) {
    std::fprintf(stderr, "%s: empty results\n", path.c_str());
    return 1;
  }
  for (const auto& s : report.results) {
    // Counts must be positive; absolute rates are machine-dependent and are
    // deliberately NOT asserted on.
    if (s.name.empty() || s.exchanges == 0 || s.seconds <= 0 ||
        s.exchanges_per_sec <= 0) {
      std::fprintf(stderr, "%s: section '%s' has empty/non-positive fields\n",
                   path.c_str(), s.name.c_str());
      return 1;
    }
  }

  // Section-plan staleness: the report must describe exactly the sections
  // this binary measures, paired to exactly the baselines it pins. A report
  // committed before a section was added/renamed/repaired fails here even
  // though schema_version did not change.
  const std::size_t plan_size = std::size(kResultPlan);
  if (report.results.size() != plan_size) {
    std::fprintf(stderr,
                 "%s: stale section plan (%zu result sections, current "
                 "binary emits %zu) — regenerate with bench_throughput "
                 "--out\n",
                 path.c_str(), report.results.size(), plan_size);
    return 1;
  }
  for (std::size_t i = 0; i < plan_size; ++i) {
    const BenchSection& s = report.results[i];
    const PlanEntry& p = kResultPlan[i];
    if (s.name != p.name || s.drive != p.drive || s.reduction != p.reduction ||
        s.pairs_with != p.pairs_with) {
      std::fprintf(stderr,
                   "%s: stale result section %zu: have "
                   "(%s, %s, %s, pairs_with=%s), current binary emits "
                   "(%s, %s, %s, pairs_with=%s) — regenerate\n",
                   path.c_str(), i, s.name.c_str(), s.drive.c_str(),
                   s.reduction.c_str(), s.pairs_with.c_str(), p.name, p.drive,
                   p.reduction, p.pairs_with);
      return 1;
    }
  }
  const std::vector<BenchSection> pinned = baseline_sections();
  if (report.baseline.size() != pinned.size()) {
    std::fprintf(stderr, "%s: stale baseline block (%zu sections, pinned "
                 "%zu) — regenerate\n",
                 path.c_str(), report.baseline.size(), pinned.size());
    return 1;
  }
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const BenchSection& have = report.baseline[i];
    const BenchSection& want = pinned[i];
    if (have.name != want.name || have.drive != want.drive ||
        have.reduction != want.reduction ||
        have.exchanges != want.exchanges ||
        have.exchanges_per_sec != want.exchanges_per_sec) {
      std::fprintf(stderr,
                   "%s: stale baseline section '%s' (pinned values differ) — "
                   "regenerate\n",
                   path.c_str(), have.name.c_str());
      return 1;
    }
  }
  // Every pairs_with key must resolve to a pinned baseline section.
  for (const auto& s : report.results) {
    if (s.pairs_with.empty()) continue;
    const bool found =
        std::any_of(pinned.begin(), pinned.end(),
                    [&](const BenchSection& b) { return b.name == s.pairs_with; });
    if (!found) {
      std::fprintf(stderr,
                   "%s: section '%s' pairs_with unknown baseline '%s'\n",
                   path.c_str(), s.name.c_str(), s.pairs_with.c_str());
      return 1;
    }
  }

  // The stage breakdown is part of the current report shape: required, with
  // finite non-negative stages summing (by construction) to the full
  // single-lane batched pipeline.
  if (!report.stage_breakdown.present) {
    std::fprintf(stderr, "%s: missing stage_breakdown — regenerate\n",
                 path.c_str());
    return 1;
  }
  const double stages[] = {report.stage_breakdown.generate_seconds,
                           report.stage_breakdown.estimate_seconds,
                           report.stage_breakdown.reduce_seconds};
  for (const double v : stages) {
    if (!std::isfinite(v) || v < 0) {
      std::fprintf(stderr, "%s: stage_breakdown has a non-finite or negative "
                   "stage\n",
                   path.c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "%s: valid (schema %d, %zu sections)\n", path.c_str(),
               report.schema_version, report.results.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--check") {
      check_path = value();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_throughput [--quick] [--out PATH] [--check PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  if (!check_path.empty()) return check_report(check_path);

  const double days = quick ? 2.0 : 30.0;
  const BenchReport report = measure(days, quick ? "quick" : "full");
  const std::string json = to_json(report);
  if (out_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    out << json;
    out.flush();
    if (!out) {
      std::fprintf(stderr, "writing %s failed\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}
