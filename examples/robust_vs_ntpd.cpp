// Robustness comparison: TSC-NTP vs an ntpd-style SW-NTP clock on the same
// exchange stream through a rough day — congestion episodes, packet loss, a
// half-hour server fault and a route change. This is the paper's §1
// motivation made runnable: the SW-NTP clock steps (resets) and swings its
// rate by tens of PPM; the TSC-NTP clock never steps and its difference
// clock stays within the hardware bound.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "baseline/swntp.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/estimator.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"

using namespace tscclock;

int main() {
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.duration = duration::kDay;
  scenario.seed = 1968;
  // A rough day. The 20-minute fault exceeds the SW-NTP stepout (15 min),
  // so the baseline steps; the TSC-NTP sanity check rides it out.
  scenario.events.add_server_fault(
      10 * duration::kHour, 10 * duration::kHour + 20 * duration::kMinute,
      0.150);
  scenario.events.add_level_shift(
      {16 * duration::kHour, sim::kForever, 0.6e-3, 0.0});
  auto path = sim::ScenarioConfig::path_preset(scenario.server);
  path.loss_prob = 0.01;
  path.forward.spike_prob = 0.10;
  scenario.path_override = path;
  sim::Testbed testbed(scenario);

  // Both clocks run as estimator lanes of one MultiEstimatorSession — the
  // same drive layer every other comparison in this repo uses — so they see
  // the identical exchange sequence, each scored by its own lane.
  harness::SessionConfig config;
  config.params.poll_period = scenario.poll_period;
  config.discard_warmup = duration::kHour;
  config.warmup_policy = harness::WarmupPolicy::kGroundTruth;

  harness::MultiEstimatorSession session;
  const std::size_t tsc_lane = session.add_lane(
      config, std::make_unique<harness::TscNtpEstimator>(
                  config.params, testbed.nominal_period()));
  // The SW lane also emits warm-up records: its rate swing is tracked from
  // the first packet, like the original hand-rolled duel did.
  harness::SessionConfig sw_config = config;
  sw_config.emit_unevaluated = true;
  auto sw_estimator = std::make_unique<harness::SwNtpEstimator>(
      baseline::PllConfig{}, testbed.nominal_period());
  const baseline::SwNtpClock& sw = sw_estimator->sw_clock();
  const std::size_t sw_lane =
      session.add_lane(sw_config, std::move(sw_estimator));

  std::vector<double> tsc_abs;
  std::vector<double> sw_abs;
  double sw_rate_lo = 10;
  double sw_rate_hi = 0;
  std::printf("%8s %14s %14s %10s\n", "hour", "TSC-NTP err", "SW-NTP err",
              "SW steps");
  int next_report = 2;
  // Lanes consume each chunk in the order they were added, so by the time
  // the SW lane's sink fires the TSC lane has already scored the same packet
  // — the progress printout looks its error up by poll index.
  std::unordered_map<std::uint64_t, double> tsc_error_at;
  harness::CallbackSink tsc_sink([&](const harness::SampleRecord& rec) {
    tsc_error_at[rec.index] = rec.abs_clock_error;
    tsc_abs.push_back(std::fabs(rec.abs_clock_error));
  });
  harness::CallbackSink sw_sink([&](const harness::SampleRecord& rec) {
    if (rec.lost) return;
    sw_rate_lo = std::min(sw_rate_lo, sw.effective_rate());
    sw_rate_hi = std::max(sw_rate_hi, sw.effective_rate());
    if (!rec.evaluated) return;
    const double e_sw = rec.abs_clock_error;
    sw_abs.push_back(std::fabs(e_sw));
    const double hour = rec.truth_tb / duration::kHour;
    if (hour >= next_report) {
      std::printf("%8.1f %12.1fus %12.1fus %10s\n", hour,
                  tsc_error_at.at(rec.index) * 1e6, e_sw * 1e6,
                  format_count(sw.status().steps).c_str());
      next_report += 2;
    }
  });
  session.add_sink(tsc_lane, tsc_sink);
  session.add_sink(sw_lane, sw_sink);
  session.run(testbed);
  const auto& tsc = session.lane(tsc_lane).clock();

  const auto st = percentile_summary(tsc_abs);
  const auto ss = percentile_summary(sw_abs);
  std::printf("\nsummary of |error| vs GPS reference (the 20-minute fault\n"
              "dominates both tails: SW-NTP follows the full 150 ms and\n"
              "steps; TSC-NTP's transient stays ~10x smaller, with no\n"
              "reset and full recovery):\n");
  std::printf("  TSC-NTP: median %6.1f us, p99 %8.1f us, sanity holds, "
              "0 steps\n",
              st.p50 * 1e6, st.p99 * 1e6);
  std::printf("  SW-NTP : median %6.1f us, p99 %8.1f us, %s step(s), "
              "rate swung %.1f PPM\n",
              ss.p50 * 1e6, ss.p99 * 1e6,
              format_count(sw.status().steps).c_str(),
              (sw_rate_hi - sw_rate_lo) * 1e6);
  const auto status = tsc.status();
  std::printf("  TSC-NTP events: %s offset sanity, %s rate sanity, "
              "%s upshift(s) detected\n",
              format_count(status.offset_sanity_triggers).c_str(),
              format_count(status.rate_sanity_blocks).c_str(),
              format_count(status.upshifts).c_str());
  return 0;
}
