// Tests for the replay lane (harness/replay.hpp): trace recording,
// ReplaySession scoring, the OfflineSmootherEstimator adapter and the
// replay side of the estimator registry.
//
// The load-bearing guarantees:
//   * golden equivalence — replaying the recorded trace through
//     OfflineSmootherEstimator scores bit-identically to the legacy
//     hand-rolled collection loop (bench/ablation_offline.cpp before the
//     migration: build the RawExchange list by hand, call
//     core::smooth_offsets directly, subtract the reference by hand);
//   * the recorded trace is the estimator-independent view of exactly what
//     the online session saw — same quadruples, ground truth and flags;
//   * replay records carry the same `evaluated` semantics as online lanes
//     (warm-up cut + reference availability), so a ReducerSink attached to
//     a ReplaySession reduces a directly comparable stream;
//   * degenerate traces (fewer than two arrived packets) yield zero
//     evaluated records instead of throwing.
#include "harness/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "common/contracts.hpp"
#include "core/offline.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"

namespace tscclock::harness {
namespace {

sim::ScenarioConfig replay_scenario(std::uint64_t seed = 20040917) {
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = 3 * duration::kHour;
  scenario.seed = seed;
  // An outage plus a server switch: gaps and identity changes must survive
  // the recording round trip.
  scenario.events.add_outage(4000.0, 4900.0);
  scenario.server_switches = {{7200.0, sim::ServerKind::kLoc}};
  return scenario;
}

SessionConfig replay_config(const sim::ScenarioConfig& scenario) {
  SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.poll_period);
  config.discard_warmup = 30 * duration::kMinute;
  config.warmup_policy = WarmupPolicy::kObservable;
  config.record_trace = true;
  return config;
}

// -- Golden equivalence: the legacy hand-rolled collection loop ------------

/// The pre-migration offline pass of bench/ablation_offline.cpp, verbatim:
/// collect the raw quadruples and ground truth by hand, run
/// core::smooth_offsets directly, and score against the smoother's own
/// timescale.
struct LegacyOffline {
  std::vector<double> errors;  ///< θ̂_k − (C(Tf_k) − Tg_k) per scored packet
  std::size_t poor_windows = 0;
  std::size_t packets = 0;
};

LegacyOffline legacy_handrolled_offline(const sim::ScenarioConfig& scenario,
                                        Seconds discard_warmup) {
  sim::Testbed testbed(scenario);
  std::vector<core::RawExchange> raws;
  std::vector<double> tg;
  std::vector<bool> warm;
  for (const auto& ex : testbed.generate_all()) {
    if (ex.lost || !ex.ref_available) continue;
    raws.push_back({ex.ta_counts, ex.tb_stamp, ex.te_stamp, ex.tf_counts});
    tg.push_back(ex.tg);
    warm.push_back(ex.tb_stamp < discard_warmup);
  }
  const auto params = core::Params::for_poll_period(scenario.poll_period);
  const auto offline =
      core::smooth_offsets(raws, params, testbed.nominal_period());
  LegacyOffline legacy;
  legacy.poor_windows = offline.poor_windows;
  legacy.packets = raws.size();
  for (std::size_t k = 0; k < raws.size(); ++k) {
    if (warm[k]) continue;  // the post-warm-up set the sweep reduces
    legacy.errors.push_back(
        offline.offsets[k] -
        (offline.timescale.read(raws[k].tf) - tg[k]));
  }
  return legacy;
}

TEST(ReplayGolden, OfflineLaneBitIdenticalToLegacyHandrolledLoop) {
  const auto scenario = replay_scenario();
  const auto config = replay_config(scenario);
  const auto legacy =
      legacy_handrolled_offline(scenario, config.discard_warmup);
  ASSERT_FALSE(legacy.errors.empty());

  sim::Testbed testbed(scenario);
  ClockSession online(config, testbed.nominal_period());
  online.run(testbed);

  auto smoother = std::make_unique<OfflineSmootherEstimator>(
      config.params, testbed.nominal_period());
  const OfflineSmootherEstimator& offline = *smoother;
  ReplaySession replay(config, std::move(smoother));
  CollectorSink records;
  replay.add_sink(records);
  replay.run(online.trace());

  // Note the legacy loop dropped reference-less packets before smoothing
  // while the recorder keeps them; on this testbed every arrived packet has
  // a reference, so the input sets coincide (asserted via the counts).
  ASSERT_EQ(online.trace().arrived(), legacy.packets);
  ASSERT_EQ(records.records().size(), legacy.errors.size());
  for (std::size_t i = 0; i < legacy.errors.size(); ++i) {
    // Bit-level double equality: the lane must score the smoother exactly
    // as the hand-rolled loop did — same packets, same reference, same
    // arithmetic.
    EXPECT_EQ(records.records()[i].offset_error, legacy.errors[i]) << i;
  }
  EXPECT_EQ(offline.result().poor_windows, legacy.poor_windows);
  EXPECT_EQ(replay.summary().evaluated, legacy.errors.size());
}

// -- Trace recording -------------------------------------------------------

TEST(TraceRecorder, RecordsExactlyWhatTheSessionSaw) {
  const auto scenario = replay_scenario(555);
  auto config = replay_config(scenario);
  config.emit_unevaluated = true;  // records for every poll, lost included

  sim::Testbed testbed(scenario);
  ClockSession session(config, testbed.nominal_period());
  CollectorSink records;
  session.add_sink(records);
  session.run(testbed);

  const ReplayTrace& trace = session.trace();
  EXPECT_EQ(trace.exchanges, session.summary().exchanges);
  EXPECT_EQ(trace.lost, session.summary().lost);
  EXPECT_EQ(trace.polls_enumerated, session.summary().polls_enumerated);
  ASSERT_EQ(trace.samples.size(), records.records().size());
  bool saw_lost = false;
  bool saw_server_change = false;
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    const auto& s = trace.samples[i];
    const auto& r = records.records()[i];
    EXPECT_EQ(s.index, r.index);
    EXPECT_EQ(s.lost, r.lost);
    EXPECT_EQ(s.in_warmup, r.in_warmup);
    EXPECT_EQ(s.truth_ta, r.truth_ta);
    EXPECT_EQ(s.truth_tb, r.truth_tb);
    saw_lost = saw_lost || s.lost;
    if (s.lost) continue;
    EXPECT_EQ(s.raw.ta, r.raw.ta);
    EXPECT_EQ(s.raw.tb, r.raw.tb);
    EXPECT_EQ(s.raw.te, r.raw.te);
    EXPECT_EQ(s.raw.tf, r.raw.tf);
    EXPECT_EQ(s.tf_counts_corrected, r.tf_counts_corrected);
    EXPECT_EQ(s.ref_available, r.ref_available);
    EXPECT_EQ(s.tg, r.tg);
    EXPECT_EQ(s.t_day, r.t_day);
    EXPECT_EQ(s.server_changed, r.server_changed);
    saw_server_change = saw_server_change || s.server_changed;
  }
  EXPECT_TRUE(saw_server_change) << "the switch must survive recording";
}

TEST(TraceRecorder, SessionWithoutRecordingRefusesTraceAccess) {
  sim::ScenarioConfig scenario;
  scenario.seed = 7;
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.poll_period);
  ClockSession session(config, testbed.nominal_period());
  EXPECT_THROW((void)session.trace(), ContractViolation);
  MultiEstimatorSession multi;
  EXPECT_THROW((void)multi.trace(), ContractViolation);
}

TEST(TraceRecorder, MultiSessionRecordsOnceForAllLanes) {
  const auto scenario = replay_scenario(901);
  const auto config = replay_config(scenario);

  // Reference: a single recording session.
  sim::Testbed solo_testbed(scenario);
  ClockSession solo(config, solo_testbed.nominal_period());
  solo.run(solo_testbed);

  // The multi-session records at the fan-out level (estimator-independent,
  // so one canonical recording regardless of lane count).
  sim::Testbed testbed(scenario);
  MultiEstimatorSession session;
  session.enable_trace_recording(config);
  const auto& registry = estimator_registry();
  session.add_lane(config,
                   registry.make_online(EstimatorSpec{"robust", {}},
                                        config.params,
                                        testbed.nominal_period()));
  session.add_lane(config,
                   registry.make_online(EstimatorSpec{"naive", {}},
                                        config.params,
                                        testbed.nominal_period()));
  session.run(testbed);

  const ReplayTrace& a = solo.trace();
  const ReplayTrace& b = session.trace();
  ASSERT_EQ(a.samples.size(), b.samples.size());
  EXPECT_EQ(a.polls_enumerated, b.polls_enumerated);
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].lost, b.samples[i].lost);
    EXPECT_EQ(a.samples[i].raw.tf, b.samples[i].raw.tf);
    EXPECT_EQ(a.samples[i].tg, b.samples[i].tg);
    EXPECT_EQ(a.samples[i].in_warmup, b.samples[i].in_warmup);
  }
}

// -- ReplaySession scoring semantics ---------------------------------------

TEST(ReplaySession, EvaluatedSetMatchesOnlineLanes) {
  const auto scenario = replay_scenario(333);
  const auto config = replay_config(scenario);
  sim::Testbed testbed(scenario);
  ClockSession online(config, testbed.nominal_period());
  CollectorSink online_records;
  online.add_sink(online_records);
  online.run(testbed);

  ReplaySession replay(config, std::make_unique<OfflineSmootherEstimator>(
                                   config.params, testbed.nominal_period()));
  CollectorSink replay_records;
  replay.add_sink(replay_records);
  replay.run(online.trace());

  // Same evaluated records, same order, same indices: the reduction of a
  // replay lane covers exactly the packets every online lane scored.
  ASSERT_EQ(replay_records.records().size(), online_records.records().size());
  ASSERT_GT(replay_records.records().size(), 0u);
  for (std::size_t i = 0; i < replay_records.records().size(); ++i) {
    const auto& r = replay_records.records()[i];
    const auto& o = online_records.records()[i];
    EXPECT_EQ(r.index, o.index);
    EXPECT_TRUE(r.evaluated);
    EXPECT_EQ(r.raw.tb, o.raw.tb);
    // Replay absolute clock error is the negated tracking error by
    // construction (Ca = C − θ̂ at the same packet).
    EXPECT_EQ(r.abs_clock_error, -r.offset_error);
    EXPECT_TRUE(std::isfinite(r.offset_error));
    EXPECT_GT(r.period, 0.0);
  }
  EXPECT_EQ(replay.summary().exchanges, online.summary().exchanges);
  EXPECT_EQ(replay.summary().lost, online.summary().lost);
  EXPECT_EQ(replay.summary().evaluated, online.summary().evaluated);
  EXPECT_EQ(replay.summary().polls_enumerated,
            online.summary().polls_enumerated);
  EXPECT_EQ(replay.summary().final_status.offset_fallbacks,
            dynamic_cast<const OfflineSmootherEstimator&>(replay.estimator())
                .result()
                .poor_windows);
}

TEST(ReplaySession, TinyTracesYieldNoEvaluatedRecordsInsteadOfThrowing) {
  for (const std::size_t arrived : {std::size_t{0}, std::size_t{1}}) {
    ReplayTrace trace;
    if (arrived == 1) {
      ReplaySample sample;
      sample.index = 0;
      sample.raw = core::RawExchange{1000, 0.5001, 0.5002, 2000};
      sample.ref_available = true;
      sample.tg = 0.5;
      trace.samples.push_back(sample);
    }
    trace.exchanges = trace.samples.size();
    trace.polls_enumerated = trace.samples.size();

    SessionConfig config;
    config.params = core::Params::for_poll_period(16.0);
    ReplaySession replay(config, std::make_unique<OfflineSmootherEstimator>(
                                     config.params, 2e-9));
    CollectorSink records;
    replay.add_sink(records);
    EXPECT_NO_THROW(replay.run(trace)) << arrived;
    EXPECT_EQ(replay.summary().evaluated, 0u) << arrived;
    EXPECT_TRUE(records.records().empty()) << arrived;
  }
}

// -- Split-at-shifts variant (offline(split=shifts)) -----------------------

TEST(OfflineSplit, NoDetectedShiftDelegatesToWholeTraceSmoothing) {
  // A steady trace has no level shift; the split variant must produce the
  // whole-trace result bit-for-bit (cuts empty → identical code path).
  sim::ScenarioConfig scenario;
  scenario.poll_period = 16.0;
  scenario.duration = 3 * duration::kHour;
  scenario.seed = 606;
  const auto config = replay_config(scenario);

  sim::Testbed testbed(scenario);
  ClockSession online(config, testbed.nominal_period());
  online.run(testbed);

  const auto score = [&](OfflineSmootherEstimator::Split split) {
    auto estimator = std::make_unique<OfflineSmootherEstimator>(
        config.params, testbed.nominal_period(), split);
    OfflineSmootherEstimator& smoother = *estimator;
    ReplaySession replay(config, std::move(estimator));
    CollectorSink records;
    replay.add_sink(records);
    replay.run(online.trace());
    std::vector<double> errors;
    for (const auto& r : records.records()) errors.push_back(r.offset_error);
    return std::pair<std::vector<double>, std::size_t>(errors,
                                                       smoother.segments());
  };
  const auto [plain, plain_segments] =
      score(OfflineSmootherEstimator::Split::kNone);
  const auto [split, split_segments] =
      score(OfflineSmootherEstimator::Split::kShifts);
  EXPECT_EQ(plain_segments, 1u);
  EXPECT_EQ(split_segments, 1u);
  ASSERT_EQ(plain.size(), split.size());
  ASSERT_FALSE(plain.empty());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i], split[i]) << i;
}

TEST(OfflineSplit, LevelShiftTraceIsCutAndRebasesTheMinimum) {
  // A permanent upward delay shift mid-trace: the split variant must detect
  // it and smooth the two halves with their own minima. The whole-trace
  // smoother keeps the pre-shift r-hat, so every post-shift window reads as
  // congested (poor-window fallback); re-basing the minimum per segment
  // eliminates that wholesale. (The Δ/2 path-asymmetry bias of the shift
  // itself is unknowable for either variant, so the comparison is on the
  // poor-window accounting, not on the DAG-aligned error.)
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = 8 * duration::kHour;
  scenario.seed = 707;
  scenario.events.add_level_shift(
      {4 * duration::kHour, sim::kForever, 0.8e-3, 0.0});
  const auto config = replay_config(scenario);

  sim::Testbed testbed(scenario);
  ClockSession online(config, testbed.nominal_period());
  online.run(testbed);

  struct Scored {
    double worst = 0;
    std::size_t segments = 0;
    std::size_t poor_windows = 0;
    std::vector<double> offsets;
  };
  const auto score = [&](OfflineSmootherEstimator::Split split) {
    auto estimator = std::make_unique<OfflineSmootherEstimator>(
        config.params, testbed.nominal_period(), split);
    OfflineSmootherEstimator& smoother = *estimator;
    ReplaySession replay(config, std::move(estimator));
    CollectorSink records;
    replay.add_sink(records);
    replay.run(online.trace());
    Scored out;
    for (const auto& r : records.records()) {
      out.worst = std::max(out.worst, std::fabs(r.offset_error));
      out.offsets.push_back(r.report.offset_estimate);
      EXPECT_TRUE(std::isfinite(r.offset_error));
    }
    out.segments = smoother.segments();
    out.poor_windows = smoother.result().poor_windows;
    return out;
  };
  const Scored plain = score(OfflineSmootherEstimator::Split::kNone);
  const Scored split = score(OfflineSmootherEstimator::Split::kShifts);
  EXPECT_EQ(plain.segments, 1u);
  EXPECT_GE(split.segments, 2u) << "the 0.8 ms shift must be detected";
  // Whole-trace smoothing misreads the entire post-shift half as congestion;
  // per-segment minima remove (nearly) all of those poor windows.
  EXPECT_GT(plain.poor_windows, 100u);
  EXPECT_LT(split.poor_windows, plain.poor_windows / 10);
  // The variants genuinely differ on this trace.
  ASSERT_EQ(plain.offsets.size(), split.offsets.size());
  EXPECT_NE(plain.offsets, split.offsets);
  EXPECT_TRUE(std::isfinite(split.worst));
}

/// shift_cut_points as first written: both window minima rescanned with
/// std::min_element for every candidate index. The oracle for the
/// linear-time sliding minimum.
std::vector<std::size_t> brute_force_shift_cuts(
    const std::vector<core::RawExchange>& raws, const core::Params& params,
    double nominal_period) {
  const std::size_t window =
      std::max<std::size_t>(params.packets(params.shift_window), 2);
  if (raws.size() < 2 * window) return {};
  const double threshold_counts =
      params.shift_detect_factor * params.offset_quality / nominal_period;
  std::vector<TscDelta> rtts(raws.size());
  for (std::size_t i = 0; i < raws.size(); ++i) rtts[i] = raws[i].rtt_counts();
  const auto window_min = [&](std::size_t begin, std::size_t end) {
    return *std::min_element(rtts.begin() + static_cast<std::ptrdiff_t>(begin),
                             rtts.begin() + static_cast<std::ptrdiff_t>(end));
  };
  std::vector<std::size_t> cuts;
  std::size_t i = window;
  while (i + window <= raws.size()) {
    const TscDelta left = window_min(i - window, i);
    const TscDelta right = window_min(i, i + window);
    const double separation = static_cast<double>(right - left);
    if (std::abs(separation) <= threshold_counts) {
      ++i;
      continue;
    }
    std::size_t cut = i;
    if (separation < 0) {
      for (std::size_t j = i; j < i + window; ++j) {
        if (static_cast<double>(rtts[j] - left) < -threshold_counts) {
          cut = j;
          break;
        }
      }
    }
    if (cut >= window && cut + window <= raws.size() &&
        (cuts.empty() || cut - cuts.back() >= window)) {
      cuts.push_back(cut);
    }
    i = cut + window;
  }
  return cuts;
}

TEST(OfflineSplit, LinearShiftCutsEqualBruteForce) {
  // Seeded RTT series on a 1 ns counter (threshold 240k counts at the
  // default E): a few levels far apart, plateaus of one repeated value,
  // noise drawn from a handful of values (so window minima tie), and steps
  // up and down both longer and shorter than a window. Windows from the
  // smallest allowed (2) to the default (156 at a 16 s poll), over lengths
  // that are not multiples of the window.
  const double period = 1e-9;
  std::mt19937_64 gen(20261021);
  std::size_t total_cuts = 0;
  for (const Seconds shift_window : {16.0, 48.0, 112.0, 1000.0, 2500.0}) {
    core::Params params = core::Params::for_poll_period(16.0);
    params.shift_window = shift_window;
    for (int round = 0; round < 40; ++round) {
      const std::size_t n = 50 + gen() % 3000;
      std::vector<core::RawExchange> raws(n);
      TscDelta level = 1'000'000;
      TscCount ta = 1ull << 40;
      std::size_t plateau = 0;
      TscDelta plateau_rtt = 0;
      for (auto& raw : raws) {
        if (gen() % 200 == 0)
          level = 1'000'000 + static_cast<TscDelta>(gen() % 4) * 300'000;
        TscDelta rtt = level + static_cast<TscDelta>(gen() % 5) * 50'000;
        if (plateau == 0 && gen() % 100 == 0) {
          plateau = 1 + gen() % 400;
          plateau_rtt = rtt;
        }
        if (plateau > 0) {
          rtt = plateau_rtt;
          --plateau;
        }
        raw.ta = ta;
        raw.tf = ta + static_cast<TscCount>(rtt);
        ta += 16'000'000'000ull;
      }
      const auto want = brute_force_shift_cuts(raws, params, period);
      ASSERT_EQ(shift_cut_points(raws, params, period), want)
          << "window " << shift_window << " round " << round;
      total_cuts += want.size();
    }
  }
  EXPECT_GT(total_cuts, 100u) << "the series must exercise real cuts";
}

// -- Registry (replay side) ------------------------------------------------

TEST(ReplayRegistry, OfflineFamilyRoundTripsAndBuilds) {
  const auto& registry = estimator_registry();
  const auto spec = registry.parse("offline");
  EXPECT_EQ(spec.label(), "offline");
  EXPECT_TRUE(registry.is_replay(spec));
  for (const char* family : {"robust", "swntp", "naive"})
    EXPECT_FALSE(registry.is_replay(registry.parse(family)));

  const auto params = core::Params::for_poll_period(16.0);
  const auto estimator = registry.make_replay(spec, params, 2e-9);
  ASSERT_NE(estimator, nullptr);
  EXPECT_EQ(estimator->name(), "offline");
  // The split=shifts variant builds through the same factory.
  const auto variant = registry.parse("offline(split=shifts)");
  EXPECT_EQ(variant.label(), "offline(split=shifts)");
  EXPECT_NE(registry.make_replay(variant, params, 2e-9), nullptr);
  // The online factory must reject replay families, and vice versa.
  EXPECT_THROW(registry.make_online(spec, params, 2e-9), ContractViolation);
  EXPECT_THROW(
      registry.make_replay(EstimatorSpec{"robust", {}}, params, 2e-9),
      ContractViolation);
}

}  // namespace
}  // namespace tscclock::harness
