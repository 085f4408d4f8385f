// Tests for the estimator abstraction layer (harness::ClockEstimator, the
// three adapters, and MultiEstimatorSession).
//
// The load-bearing guarantees:
//   * golden equivalence — an SwNtpEstimator lane of a MultiEstimatorSession
//     scores bit-identically to the legacy pattern of co-driving an
//     SwNtpClock from a CallbackSink attached to the robust session (the
//     pre-refactor duel loop of bench/ablation_baseline.cpp is preserved
//     below as the reference implementation);
//   * the default ClockSession constructor and an explicit TscNtpEstimator
//     are the same thing, bit for bit;
//   * every lane of a MultiEstimatorSession sees the identical exchange
//     stream with its own independent scoring state;
//   * the registry round-trips names and builds working estimators (the
//     spec/parsing layer itself is covered in test_estimator_spec.cpp).
#include "harness/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "baseline/swntp.hpp"
#include "common/contracts.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"

namespace tscclock::harness {
namespace {

sim::ScenarioConfig duel_scenario(std::uint64_t seed = 777) {
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = 2 * duration::kHour;
  scenario.seed = seed;
  // A server fault long enough to make the SW clock's discipline work and a
  // loss burst, so the co-driven equivalence covers the interesting paths.
  scenario.events.add_server_fault(4000.0, 5500.0, 0.150);
  scenario.events.add_outage(2000.0, 2300.0);
  return scenario;
}

core::Params params_for(const sim::ScenarioConfig& scenario) {
  return core::Params::for_poll_period(scenario.poll_period);
}

SessionConfig duel_config(const sim::ScenarioConfig& scenario) {
  SessionConfig config;
  config.params = params_for(scenario);
  config.discard_warmup = 20 * duration::kMinute;
  config.warmup_policy = WarmupPolicy::kGroundTruth;
  return config;
}

// -- Golden equivalence: the legacy co-driven duel loop --------------------

/// The pre-refactor head-to-head pattern (bench/ablation_baseline.cpp before
/// the estimator layer), verbatim: the robust clock runs in the harness with
/// emit_unevaluated on, and the SW clock is co-driven from the record stream
/// inside a CallbackSink.
struct LegacyDuel {
  std::vector<double> sw_errors;   ///< sw.time(Tf) − Tg per evaluated record
  std::vector<double> sw_rates;    ///< effective_rate() per evaluated record
  std::uint64_t sw_steps = 0;
  std::uint64_t sw_samples = 0;
};

LegacyDuel legacy_codriven_duel(const sim::ScenarioConfig& scenario) {
  sim::Testbed testbed(scenario);
  auto config = duel_config(scenario);
  config.emit_unevaluated = true;  // the SW clock must also eat warm-up
  ClockSession session(config, testbed.nominal_period());
  baseline::SwNtpClock sw(baseline::PllConfig{}, testbed.nominal_period());

  LegacyDuel duel;
  CallbackSink duel_sink([&](const SampleRecord& rec) {
    if (rec.lost) return;
    sw.process_exchange(rec.raw);
    if (!rec.evaluated) return;
    duel.sw_errors.push_back(sw.time(rec.raw.tf) - rec.tg);
    duel.sw_rates.push_back(sw.effective_rate());
  });
  session.add_sink(duel_sink);
  session.run(testbed);
  duel.sw_steps = sw.status().steps;
  duel.sw_samples = sw.status().samples;
  return duel;
}

TEST(MultiEstimatorGolden, SwNtpLaneBitIdenticalToLegacyCodrivenLoop) {
  const auto scenario = duel_scenario();
  const auto legacy = legacy_codriven_duel(scenario);
  ASSERT_FALSE(legacy.sw_errors.empty());

  sim::Testbed testbed(scenario);
  const auto config = duel_config(scenario);
  MultiEstimatorSession session;
  const std::size_t tsc_lane = session.add_lane(
      config, std::make_unique<TscNtpEstimator>(config.params,
                                                testbed.nominal_period()));
  auto sw_estimator = std::make_unique<SwNtpEstimator>(
      baseline::PllConfig{}, testbed.nominal_period());
  const baseline::SwNtpClock& sw = sw_estimator->sw_clock();
  const std::size_t sw_lane =
      session.add_lane(config, std::move(sw_estimator));

  std::vector<double> sw_errors;
  std::vector<double> sw_rates;
  CallbackSink sw_sink([&](const SampleRecord& rec) {
    sw_errors.push_back(rec.abs_clock_error);
    sw_rates.push_back(sw.effective_rate());
  });
  session.add_sink(sw_lane, sw_sink);
  session.run(testbed);

  ASSERT_EQ(sw_errors.size(), legacy.sw_errors.size());
  for (std::size_t i = 0; i < sw_errors.size(); ++i) {
    // Bit-level double equality: the lane must score the SW clock exactly
    // as the hand-rolled loop did — same exchanges, same order, same reads.
    EXPECT_EQ(sw_errors[i], legacy.sw_errors[i]) << i;
    EXPECT_EQ(sw_rates[i], legacy.sw_rates[i]) << i;
  }
  EXPECT_EQ(sw.status().steps, legacy.sw_steps);
  EXPECT_EQ(sw.status().samples, legacy.sw_samples);
  EXPECT_EQ(session.lane(sw_lane).estimator().steps(), legacy.sw_steps);
  // Both lanes saw every exchange.
  EXPECT_EQ(session.lane(tsc_lane).summary().exchanges,
            session.lane(sw_lane).summary().exchanges);
}

TEST(MultiEstimatorGolden, DefaultSessionEqualsExplicitTscNtpEstimator) {
  const auto scenario = duel_scenario(888);
  const auto config = duel_config(scenario);

  sim::Testbed default_testbed(scenario);
  ClockSession default_session(config, default_testbed.nominal_period());
  CollectorSink default_records;
  default_session.add_sink(default_records);
  default_session.run(default_testbed);

  sim::Testbed explicit_testbed(scenario);
  ClockSession explicit_session(
      config, std::make_unique<TscNtpEstimator>(
                  config.params, explicit_testbed.nominal_period()));
  CollectorSink explicit_records;
  explicit_session.add_sink(explicit_records);
  explicit_session.run(explicit_testbed);

  ASSERT_EQ(default_records.records().size(),
            explicit_records.records().size());
  ASSERT_GT(default_records.records().size(), 0u);
  for (std::size_t i = 0; i < default_records.records().size(); ++i) {
    const auto& a = default_records.records()[i];
    const auto& b = explicit_records.records()[i];
    EXPECT_EQ(a.offset_error, b.offset_error) << i;
    EXPECT_EQ(a.abs_clock_error, b.abs_clock_error) << i;
    EXPECT_EQ(a.period, b.period) << i;
  }
  EXPECT_EQ(default_session.summary().final_status.offset,
            explicit_session.summary().final_status.offset);
}

// -- Adapter behaviours ----------------------------------------------------

TEST(Estimators, AllKindsTrackACleanTraceToPlausibleAccuracy) {
  sim::ScenarioConfig scenario;
  scenario.poll_period = 16.0;
  scenario.duration = 2 * duration::kHour;
  scenario.seed = 31415;
  sim::Testbed testbed(scenario);

  SessionConfig config;
  config.params = params_for(scenario);
  config.discard_warmup = 30 * duration::kMinute;
  config.warmup_policy = WarmupPolicy::kObservable;

  MultiEstimatorSession session;
  std::vector<std::unique_ptr<CollectorSink>> sinks;
  const auto& registry = estimator_registry();
  for (const auto* family : registry.families()) {
    if (family->replay) continue;  // scored post-hoc, not online
    const std::size_t lane = session.add_lane(
        config, registry.make_online(EstimatorSpec{family->name, {}},
                                     config.params,
                                     testbed.nominal_period()));
    sinks.push_back(std::make_unique<CollectorSink>());
    session.add_sink(lane, *sinks.back());
  }
  session.run(testbed);

  ASSERT_EQ(sinks.size(), 3u);
  std::vector<double> worst(3, 0.0);
  for (std::size_t e = 0; e < sinks.size(); ++e) {
    ASSERT_FALSE(sinks[e]->records().empty());
    // Identical evaluated set on every lane: the stream and the warm-up cut
    // are estimator-independent.
    ASSERT_EQ(sinks[e]->records().size(), sinks[0]->records().size());
    for (const auto& rec : sinks[e]->records())
      worst[e] = std::max(worst[e], std::fabs(rec.abs_clock_error));
  }
  // Robust and SW-NTP both track a clean machine-room trace to sub-ms;
  // the naive estimator is sane but visibly worse than the robust clock.
  EXPECT_LT(worst[0], 1e-3);
  EXPECT_LT(worst[1], 5e-3);
  EXPECT_LT(worst[2], 50e-3);
  EXPECT_GT(worst[2], worst[0]);
}

TEST(Estimators, NaiveEstimatorWarmsUpAfterTwoPackets) {
  sim::ScenarioConfig scenario;
  scenario.poll_period = 16.0;
  scenario.duration = 10 * duration::kMinute;
  scenario.seed = 99;
  sim::Testbed testbed(scenario);
  NaiveEstimator naive(testbed.nominal_period());
  EXPECT_FALSE(naive.warmed_up());
  std::size_t processed = 0;
  while (auto ex = testbed.next()) {
    if (ex->lost) continue;
    naive.process_exchange(
        core::RawExchange{ex->ta_counts, ex->tb_stamp, ex->te_stamp,
                          ex->tf_counts});
    ++processed;
    if (processed == 1) {
      EXPECT_FALSE(naive.warmed_up());
    }
    if (processed >= 2) break;
  }
  ASSERT_GE(processed, 2u);
  EXPECT_TRUE(naive.warmed_up());
  EXPECT_EQ(naive.steps(), 0u);
  // The widening-baseline rate converges toward the true period.
  EXPECT_NEAR(naive.period() / testbed.true_period(), 1.0, 1e-3);
}

TEST(Estimators, ClockAccessorRequiresRobustEstimator) {
  sim::ScenarioConfig scenario;
  scenario.seed = 5;
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  ClockSession robust_session(config, testbed.nominal_period());
  EXPECT_NO_THROW((void)robust_session.clock());
  ClockSession sw_session(
      config, std::make_unique<SwNtpEstimator>(baseline::PllConfig{},
                                               testbed.nominal_period()));
  EXPECT_THROW((void)sw_session.clock(), ContractViolation);
  EXPECT_EQ(sw_session.estimator().name(), "swntp");
}

// -- Registry --------------------------------------------------------------

TEST(EstimatorRegistry, FamilyNamesRoundTripThroughSpecParsing) {
  const auto& registry = estimator_registry();
  for (const auto* family : registry.families()) {
    const auto spec = registry.parse(family->name);
    EXPECT_EQ(spec.family, family->name);
    EXPECT_EQ(spec.label(), family->name);
    EXPECT_FALSE(family->description.empty());
  }
  EXPECT_THROW(registry.parse("ntpd"), EstimatorSpecError);
  EXPECT_THROW(registry.parse(""), EstimatorSpecError);
}

TEST(EstimatorRegistry, FactoryBuildsMatchingAdapters) {
  const core::Params params = core::Params::for_poll_period(16.0);
  const double nominal = 1.8e-9;
  const auto& registry = estimator_registry();
  for (const auto* family : registry.families()) {
    const EstimatorSpec spec{family->name, {}};
    if (family->replay) {
      // Replay families are built by the replay factory; the online factory
      // must reject them loudly (see test_replay.cpp for the replay side).
      EXPECT_THROW(registry.make_online(spec, params, nominal),
                   ContractViolation);
      continue;
    }
    const auto estimator = registry.make_online(spec, params, nominal);
    ASSERT_NE(estimator, nullptr);
    EXPECT_EQ(estimator->name(), family->name);
    EXPECT_EQ(estimator->steps(), 0u);
  }
}

}  // namespace
}  // namespace tscclock::harness
