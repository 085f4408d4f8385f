// Tests for the robust offset estimator θ̂(t) (paper §5.3 / §6.1).
#include "core/offset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

#include "common/ring_buffer.hpp"
#include "core/naive.hpp"
#include "core/point_error.hpp"
#include "synthetic_link.hpp"

namespace tscclock::core {
namespace {

using testing::SyntheticLink;

Params test_params() {
  Params p;
  p.poll_period = 16.0;
  p.offset_window = 320.0;  // 20-packet window: tight and fast
  p.gap_threshold = 800.0;
  return p;
}

struct Harness {
  explicit Harness(const Params& params, const SyntheticLink& link)
      : params(params),
        filter(params),
        offset(params),
        clock(link.config().counter_base, 0.0, link.config().period) {}

  OffsetEvaluation feed(const RawExchange& ex, double gamma_local = 0.0,
                        bool gap = false, bool warmup = false) {
    filter.add(ex.rtt_counts());
    PacketRecord rec;
    rec.seq = seq++;
    rec.stamps = ex;
    rec.rtt = ex.rtt_counts();
    rec.error_counts = rec.rtt - filter.rhat();
    return offset.process(rec, clock, gamma_local, gap, warmup);
  }

  Params params;
  RttFilter filter;
  OffsetEstimator offset;
  CounterTimescale clock;  // perfectly aligned to true time
  std::uint64_t seq = 0;
};

TEST(Offset, FirstEstimateIsNaive) {
  SyntheticLink link;
  Harness h(test_params(), link);
  const auto eval = h.feed(link.next());
  // Aligned clock, clean link: θ̂_1 = −Δ/2.
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 1e-9);
  EXPECT_TRUE(h.offset.has_estimate());
}

TEST(Offset, CleanStreamStaysAtAsymmetryAmbiguity) {
  SyntheticLink link;
  Harness h(test_params(), link);
  Seconds last = 0;
  for (int i = 0; i < 100; ++i) last = h.feed(link.next()).estimate;
  EXPECT_NEAR(last, -link.asymmetry() / 2, 1e-7);
}

TEST(Offset, WeightingSuppressesCongestedPackets) {
  // Alternate clean and heavily congested packets: the weighted estimate
  // must stay close to the clean level, unlike the naive per-packet values.
  SyntheticLink link;
  Harness h(test_params(), link);
  Seconds last = 0;
  for (int i = 0; i < 200; ++i) {
    const bool congested = i % 2 == 1;
    last = h.feed(link.next(congested ? 5e-3 : 0.0, 0.0)).estimate;
  }
  // Naive congested estimates sit at −Δ/2 − 2.5 ms; θ̂ must stay within µs.
  EXPECT_NEAR(last, -link.asymmetry() / 2, 5e-6);
}

TEST(Offset, FallbackWhenWholeWindowPoor) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  // Every packet in the window far beyond E** = 6E = 360 µs: fall back.
  OffsetEvaluation eval;
  for (int i = 0; i < 30; ++i) eval = h.feed(link.next(4e-3, 4e-3));
  EXPECT_TRUE(eval.fallback);
  // Held at the last measured value (γ_l = 0 here); the last measurement
  // happened a few packets after `before` was read, so allow µs slack.
  EXPECT_NEAR(eval.estimate, before, 2e-6);
  EXPECT_GT(h.offset.fallback_count(), 0u);
}

TEST(Offset, FallbackUsesLocalRateSlope) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  const double gamma = ppm(0.05);
  OffsetEvaluation eval;
  for (int i = 0; i < 30; ++i) eval = h.feed(link.next(4e-3, 4e-3), gamma);
  EXPECT_TRUE(eval.fallback);
  // eq. (23): estimate drifts at −γ̂_l per second of age.
  EXPECT_LT(eval.estimate, before);
  EXPECT_NEAR(eval.estimate, before - gamma * 30 * 16.0, gamma * 16.0 * 35);
}

TEST(Offset, SanityCheckStopsServerFaultJump) {
  // A 150 ms server stamp error leaves the RTT (and so point errors)
  // untouched; only the sanity check can contain it (paper Fig. 11b).
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  OffsetEvaluation eval;
  for (int i = 0; i < 10; ++i) eval = h.feed(link.next(0, 0, 0.150));
  EXPECT_TRUE(eval.sanity_triggered);
  EXPECT_NEAR(eval.estimate, before, 2e-3);  // damage ≤ ~ms (paper: ≤ 1 ms)
  EXPECT_GT(h.offset.sanity_count(), 0u);
}

TEST(Offset, RecoversAfterServerFaultEnds) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  for (int i = 0; i < 10; ++i) h.feed(link.next(0, 0, 0.150));
  // Fault over: once faulty packets age out of the window the estimate
  // returns to the clean level without a step.
  Seconds last = 0;
  for (int i = 0; i < 40; ++i) last = h.feed(link.next()).estimate;
  EXPECT_NEAR(last, -link.asymmetry() / 2, 1e-5);
}

TEST(Offset, SanityDisabledFollowsTheFault) {
  auto params = test_params();
  params.enable_offset_sanity = false;
  SyntheticLink link;
  Harness h(params, link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  OffsetEvaluation eval;
  for (int i = 0; i < 40; ++i) eval = h.feed(link.next(0, 0, 0.150));
  // Without the sanity stage the estimate is dragged to the faulty level —
  // the ablation shows exactly why stage (iv) exists.
  EXPECT_LT(eval.estimate, -0.1);
  EXPECT_EQ(h.offset.sanity_count(), 0u);
}

TEST(Offset, GapRecoveryViaWeightedPathWhenFreshPacketGood) {
  // A *good* fresh packet after a gap needs no special handling: its own
  // weight dominates the aged window and the weighted path recovers alone.
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  link.advance(3 * duration::kDay);
  const auto eval = h.feed(link.next(), 0.0, /*gap=*/true);
  EXPECT_TRUE(eval.weighted);
  EXPECT_FALSE(eval.gap_blend);
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 1e-5);
}

TEST(Offset, GapBlendRecoversImmediately) {
  // A *mediocre* fresh packet (error > E** but offset roughly unbiased)
  // after a long gap: the whole window fails the quality cutoff, and the
  // §6.1 blend fires, siding with the fresh packet over the multi-day-old
  // estimate (whose age-inflated error is far larger).
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  link.advance(3 * duration::kDay);
  const auto eval = h.feed(link.next(250e-6, 250e-6), 0.0, /*gap=*/true);
  EXPECT_TRUE(eval.gap_blend);
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 1e-5);
  EXPECT_GT(h.offset.gap_blend_count(), 0u);
}

TEST(Offset, GapBlendPrefersOldValueWhenFreshPacketPoor) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  link.advance(30000.0);  // ~8 h: aging degrades the window beyond E**
  // Fresh packet is heavily congested (40 ms point error): the blend's
  // tie-break sides with the aged estimate, whose error is far smaller.
  const auto eval = h.feed(link.next(20e-3, 20e-3), 0.0, /*gap=*/true);
  EXPECT_TRUE(eval.gap_blend);
  EXPECT_NEAR(eval.estimate, before, 1e-4);
}

TEST(Offset, AgingPenalizesStalePackets) {
  // With aging enabled, an old perfect packet loses to a fresh mediocre
  // one; with aging disabled it dominates forever.
  auto params = test_params();
  params.offset_window = 320.0;
  SyntheticLink link;
  Harness h(params, link);
  const auto eval0 = h.feed(link.next());  // perfect first packet
  (void)eval0;
  OffsetEvaluation eval;
  for (int i = 0; i < 19; ++i) eval = h.feed(link.next(100e-6, 100e-6));
  // E^T of the first packet at age 304 s = 0 + 0.02PPM·304 ≈ 6 µs: still
  // excellent, so the estimate stays near the clean level.
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 40e-6);
  EXPECT_LT(eval.min_total_error, 10e-6);
}

TEST(Offset, ReassessErrorsAfterUpwardShift) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 30; ++i) h.feed(link.next());
  // Upward RTT shift of 0.9 ms: errors look like congestion...
  for (int i = 0; i < 10; ++i) h.feed(link.next(0.45e-3, 0.45e-3));
  // ...until the detector raises r̂; re-assess marks them good again.
  const auto new_rhat = static_cast<TscDelta>(
      (link.min_rtt() + 0.9e-3) / link.config().period);
  h.offset.reassess_errors(new_rhat, 30);
  const auto eval = h.feed(link.next(0.45e-3, 0.45e-3));
  // Weighted path resumes (errors now near zero for post-shift packets).
  EXPECT_TRUE(eval.weighted);
  EXPECT_LT(eval.min_total_error, test_params().extreme_quality());
}

TEST(Offset, EstimateThrowsBeforeFirstPacket) {
  OffsetEstimator offset(test_params());
  EXPECT_THROW((void)offset.estimate(), ContractViolation);
  EXPECT_FALSE(offset.has_estimate());
}

TEST(Offset, WeightingDisabledUsesFallbackPath) {
  auto params = test_params();
  params.enable_weighting = false;
  SyntheticLink link;
  Harness h(params, link);
  h.feed(link.next());
  const auto eval = h.feed(link.next());
  EXPECT_FALSE(eval.weighted);
  EXPECT_TRUE(eval.fallback);
}

// The estimator as it was with one std::exp per entry inside a single loop:
// the oracle for the three-pass evaluation with its batched exp.
class SingleLoopOffsetEstimator {
 public:
  explicit SingleLoopOffsetEstimator(const Params& params)
      : params_(params), window_(params.packets(params.offset_window)) {}

  void reassess_errors(TscDelta new_rhat_counts, std::uint64_t from_seq) {
    for (std::size_t k = 0; k < window_.size(); ++k) {
      auto& rec = window_[k];
      if (rec.seq >= from_seq) {
        rec.error_counts = rec.rtt - new_rhat_counts;
        if (rec.error_counts < 0) rec.error_counts = 0;
      }
    }
  }

  void degrade_window(double period) {
    const auto poor = static_cast<TscDelta>(
        2.0 * params_.extreme_quality() / period);
    for (std::size_t k = 0; k < window_.size(); ++k)
      window_[k].error_counts = std::max(window_[k].error_counts, poor);
  }

  OffsetEvaluation process(const PacketRecord& packet,
                           const CounterTimescale& clock, double gamma_local,
                           bool gap_detected, bool in_warmup) {
    OffsetEvaluation eval;
    window_.push_back(packet);
    const double period = clock.period();
    const Seconds quality_scale =
        params_.offset_quality *
        (in_warmup ? params_.warmup_quality_inflation : 1.0);
    double weight_sum = 0;
    double weighted_offset = 0;
    for (std::size_t k = 0; k < window_.size(); ++k) {
      const auto& rec = window_[k];
      const Seconds age = clock.between(rec.stamps.tf, packet.stamps.tf);
      const Seconds point_error = delta_to_seconds(rec.error_counts, period);
      const Seconds total_error =
          point_error +
          (params_.enable_aging ? params_.aging_rate * age : 0.0);
      if (total_error < eval.min_total_error)
        eval.min_total_error = total_error;
      const double z = total_error / quality_scale;
      const double w = std::exp(-z * z);
      const Seconds theta_i = naive_offset(rec.stamps, clock);
      weight_sum += w;
      weighted_offset += w * (theta_i - gamma_local * age);
    }
    eval.weight_sum = weight_sum;
    const bool quality_ok =
        eval.min_total_error <= params_.extreme_quality() && weight_sum > 0.0;
    const Seconds theta_new = naive_offset(packet.stamps, clock);
    if (!has_measured_) {
      eval.candidate = theta_new;
      eval.weighted = true;
      measured_value_ = eval.candidate;
      measured_tf_ = packet.stamps.tf;
      measured_quality_ = delta_to_seconds(packet.error_counts, period);
      has_measured_ = true;
      reported_value_ = eval.candidate;
      eval.estimate = eval.candidate;
      return eval;
    }
    const Seconds age_since_measured =
        clock.between(measured_tf_, packet.stamps.tf);
    const Seconds predicted =
        measured_value_ - gamma_local * age_since_measured;
    if (params_.enable_weighting && quality_ok) {
      eval.candidate = weighted_offset / weight_sum;
      eval.weighted = true;
    } else if (gap_detected) {
      const Seconds e_new = delta_to_seconds(packet.error_counts, period);
      const Seconds e_old =
          measured_quality_ + params_.aging_rate * age_since_measured;
      const double zn = e_new / quality_scale;
      const double zo = e_old / quality_scale;
      const double wn = std::exp(-zn * zn);
      const double wo = std::exp(-zo * zo);
      eval.candidate = (wn + wo > 0.0)
                           ? (wn * theta_new + wo * predicted) / (wn + wo)
                           : (e_new < e_old ? theta_new : predicted);
      eval.gap_blend = true;
    } else {
      eval.candidate = predicted;
      eval.fallback = true;
    }
    Seconds result = eval.candidate;
    if (params_.enable_offset_sanity && !eval.gap_blend && !gap_detected &&
        !in_warmup &&
        std::fabs(eval.candidate - reported_value_) > params_.offset_sanity) {
      const bool stable = std::fabs(eval.candidate - last_blocked_candidate_) <=
                          params_.offset_sanity;
      last_blocked_candidate_ = eval.candidate;
      consecutive_sanity_ = stable ? consecutive_sanity_ + 1 : 0;
      if (consecutive_sanity_ < params_.offset_sanity_release()) {
        result = reported_value_;
        eval.sanity_triggered = true;
      } else {
        eval.sanity_released = true;
        consecutive_sanity_ = 0;
      }
    } else {
      consecutive_sanity_ = 0;
    }
    if (!eval.sanity_triggered && (eval.weighted || eval.gap_blend)) {
      measured_value_ = result;
      measured_tf_ = packet.stamps.tf;
      measured_quality_ = eval.min_total_error;
    }
    reported_value_ = result;
    eval.estimate = result;
    return eval;
  }

 private:
  Params params_;
  RingBuffer<PacketRecord> window_;
  bool has_measured_ = false;
  Seconds measured_value_ = 0;
  TscCount measured_tf_ = 0;
  Seconds measured_quality_ = 0;
  Seconds reported_value_ = 0;
  std::size_t consecutive_sanity_ = 0;
  Seconds last_blocked_candidate_ = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Feeds one long stream to both estimators: congestion (some far beyond
/// the weight's underflow), server faults, gaps, warm-up, a moving local
/// rate, period updates, level-shift re-assessments and server changes.
/// Counts, per outcome, the packets whose every evaluation field matched;
/// stops at the first mismatch.
struct OracleRun {
  int matched = 0;
  int weighted = 0;
  int fallback = 0;
  int gap_blend = 0;
  int sanity = 0;
  int released = 0;
};

OracleRun compare_with_oracle(const Params& params, std::uint64_t seed,
                              int packets) {
  SyntheticLink link;
  OffsetEstimator batched(params);
  SingleLoopOffsetEstimator oracle(params);
  CounterTimescale clock(link.config().counter_base, 0.0,
                         link.config().period);
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::exponential_distribution<double> queue(1.0 / 150e-6);
  TscDelta rhat = std::numeric_limits<TscDelta>::max();
  double gamma_local = 0;
  Seconds prev_now = 0;
  OracleRun run;
  for (int i = 0; i < packets; ++i) {
    // Gaps; after a long one the window has aged past E** and, when the
    // fresh packet is congested too, only the §6.1 blend is left.
    bool congested = unit(gen) < 0.05;
    if (unit(gen) < 0.002) {
      const bool long_gap = unit(gen) < 0.5;
      link.advance(long_gap ? 20000.0 + 20000.0 * unit(gen)
                            : 100.0 + 3000.0 * unit(gen));
      congested = congested || (long_gap && unit(gen) < 0.5);
    }
    const Seconds qf = queue(gen) + (congested ? 4e-3 * unit(gen) : 0.0);
    const Seconds qb = queue(gen);
    const Seconds fault = (i % 5000) >= 4900 ? 5e-3 : 0.0;
    const Seconds now = link.now();
    const RawExchange ex = link.next(qf, qb, fault);
    const bool gap = now - prev_now > params.gap_threshold;
    prev_now = now;

    PacketRecord rec;
    rec.seq = static_cast<std::uint64_t>(i);
    rec.stamps = ex;
    rec.rtt = ex.rtt_counts();
    rhat = std::min(rhat, rec.rtt);
    rec.error_counts = std::max<TscDelta>(0, rec.rtt - rhat);

    if (unit(gen) < 0.01)
      gamma_local = unit(gen) < 0.3 ? 0.0 : 2e-7 * (unit(gen) - 0.5);
    if (unit(gen) < 0.01)
      clock.set_period_preserving_reading(
          ex.tf, link.config().period * (1.0 + 1e-7 * (unit(gen) - 0.5)));
    if (unit(gen) < 0.002) {
      const TscDelta raised = rhat + static_cast<TscDelta>(unit(gen) * 4e5);
      const auto back = static_cast<std::uint64_t>(unit(gen) * 80);
      const std::uint64_t from = rec.seq > back ? rec.seq - back : 0;
      batched.reassess_errors(raised, from);
      oracle.reassess_errors(raised, from);
    }
    if (unit(gen) < 0.0005) {
      batched.degrade_window(clock.period());
      oracle.degrade_window(clock.period());
    }

    const bool warmup = i < 300;
    const auto a = batched.process(rec, clock, gamma_local, gap, warmup);
    const auto b = oracle.process(rec, clock, gamma_local, gap, warmup);
    const bool same =
        same_bits(a.estimate, b.estimate) &&
        same_bits(a.candidate, b.candidate) && a.weighted == b.weighted &&
        a.fallback == b.fallback && a.gap_blend == b.gap_blend &&
        a.sanity_triggered == b.sanity_triggered &&
        a.sanity_released == b.sanity_released &&
        same_bits(a.min_total_error, b.min_total_error) &&
        same_bits(a.weight_sum, b.weight_sum);
    EXPECT_TRUE(same) << "packet " << i << ": estimate " << a.estimate
                      << " vs " << b.estimate << ", weight_sum "
                      << a.weight_sum << " vs " << b.weight_sum;
    if (!same) return run;
    ++run.matched;
    run.weighted += a.weighted;
    run.fallback += a.fallback;
    run.gap_blend += a.gap_blend;
    run.sanity += a.sanity_triggered;
    run.released += a.sanity_released;
  }
  return run;
}

TEST(Offset, BatchedWeightsMatchSingleLoopOracle) {
  const int packets = 40000;
  Params poll16;  // defaults: a 62-entry window
  const OracleRun run = compare_with_oracle(poll16, 1, packets);
  EXPECT_EQ(run.matched, packets);
  // The stream reaches every outcome of the evaluation.
  EXPECT_GT(run.weighted, 0);
  EXPECT_GT(run.fallback, 0);
  EXPECT_GT(run.gap_blend, 0);
  EXPECT_GT(run.sanity, 0);
  EXPECT_GT(run.released, 0);
  Params poll64 = Params::for_poll_period(64.0);  // 15 entries
  EXPECT_EQ(compare_with_oracle(poll64, 2, packets).matched, packets);
  Params single = poll16;
  single.offset_window = 16.0;  // one entry
  EXPECT_EQ(compare_with_oracle(single, 3, packets).matched, packets);
  Params no_aging = poll16;
  no_aging.enable_aging = false;
  EXPECT_EQ(compare_with_oracle(no_aging, 4, packets).matched, packets);
}

}  // namespace
}  // namespace tscclock::core
