#include "harness/replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "core/naive.hpp"
#include "harness/estimator_spec.hpp"

namespace tscclock::harness {

// -- TraceRecorder ---------------------------------------------------------

TraceRecorder::TraceRecorder(const SessionConfig& config) : config_(config) {}

void TraceRecorder::observe(const sim::Exchange& ex) {
  ++trace_.exchanges;
  ReplaySample sample;
  sample.index = ex.index;
  sample.client_id = config_.client_id;
  sample.truth_ta = ex.truth.ta;
  sample.truth_tb = ex.truth.tb;
  sample.in_warmup = exchange_in_warmup(config_, ex);
  if (ex.lost) {
    ++trace_.lost;
    sample.lost = true;
    trace_.samples.push_back(sample);
    return;
  }
  sample.raw = core::RawExchange{ex.ta_counts, ex.tb_stamp, ex.te_stamp,
                                 ex.tf_counts};
  sample.tf_counts_corrected = ex.tf_counts_corrected;
  sample.t_day = ex.tb_stamp / duration::kDay;
  sample.ref_available = ex.ref_available;
  sample.tg = ex.tg;
  if (config_.track_server_changes &&
      server_changes_.observe(
          core::ServerIdentity{ex.server_id, ex.server_stratum}, ex.index)) {
    sample.server_changed = true;
  }
  trace_.samples.push_back(sample);
}

// -- OfflineSmootherEstimator ----------------------------------------------

OfflineSmootherEstimator::OfflineSmootherEstimator(const core::Params& params,
                                                   double nominal_period,
                                                   Split split)
    : params_(params), nominal_period_(nominal_period), split_(split) {
  TSC_EXPECTS(nominal_period > 0.0);
}

std::vector<std::size_t> shift_cut_points(
    std::span<const core::RawExchange> raws, const core::Params& params,
    double nominal_period) {
  const std::size_t window =
      std::max<std::size_t>(params.packets(params.shift_window), 2);
  const std::size_t n = raws.size();
  if (n < 2 * window) return {};
  const double threshold_counts =
      params.shift_detect_factor * params.offset_quality / nominal_period;

  std::vector<TscDelta> rtts(n);
  for (std::size_t i = 0; i < n; ++i) rtts[i] = raws[i].rtt_counts();
  // window_min[j] = min(rtts[j, j + window)) for every j ≤ n − window, in
  // O(n) (van Herk/Gil-Werman): with the trace cut into blocks of `window`
  // packets, each window is a suffix of one block and a prefix of the next.
  // The block suffix minima go into the array first; one forward pass then
  // folds in the running prefix minimum of the block holding the window's
  // last packet.
  std::vector<TscDelta> window_min(n);
  for (std::size_t j = n; j-- > 0;) {
    const bool block_end = (j + 1) % window == 0 || j + 1 == n;
    window_min[j] = block_end ? rtts[j] : std::min(rtts[j], window_min[j + 1]);
  }
  TscDelta prefix = 0;
  for (std::size_t last = 0; last < n; ++last) {
    prefix = last % window == 0 ? rtts[last] : std::min(prefix, rtts[last]);
    if (last + 1 >= window) {
      TscDelta& m = window_min[last + 1 - window];
      m = std::min(m, prefix);
    }
  }

  std::vector<std::size_t> cuts;
  std::size_t i = window;
  while (i + window <= n) {
    const TscDelta left = window_min[i - window];
    const TscDelta right = window_min[i];
    const double separation = static_cast<double>(right - left);
    if (std::abs(separation) <= threshold_counts) {
      ++i;
      continue;
    }
    // Place the cut on the first clear post-shift packet. Upward shifts
    // (delays rise) trigger only once the right window holds no pre-shift
    // packet, i.e. right at the boundary; downward shifts trigger as soon as
    // one post-shift packet enters the right window, so scan forward for it.
    std::size_t cut = i;
    if (separation < 0) {
      for (std::size_t j = i; j < i + window; ++j) {
        if (static_cast<double>(rtts[j] - left) < -threshold_counts) {
          cut = j;
          break;
        }
      }
    }
    if (cut >= window && cut + window <= n &&
        (cuts.empty() || cut - cuts.back() >= window)) {
      cuts.push_back(cut);
    }
    i = cut + window;
  }
  return cuts;
}

ReplayOutput OfflineSmootherEstimator::process_trace(
    std::span<const ReplaySample> samples) {
  std::vector<core::RawExchange> raws;
  raws.reserve(samples.size());
  for (const auto& sample : samples) {
    if (!sample.lost) raws.push_back(sample.raw);
  }
  TSC_EXPECTS(raws.size() >= 2);

  const std::vector<std::size_t> cuts =
      split_ == Split::kShifts
          ? shift_cut_points(raws, params_, nominal_period_)
          : std::vector<std::size_t>{};
  segments_ = cuts.size() + 1;

  std::vector<Seconds> point_errors;
  point_errors.reserve(raws.size());
  if (cuts.empty()) {
    result_ = core::smooth_offsets(raws, params_, nominal_period_);
    for (const auto& raw : raws) {
      point_errors.push_back(delta_to_seconds(
          raw.rtt_counts() - result_.rhat_counts, result_.period));
    }
  } else {
    // Smooth each segment independently (own whole-segment rate and minimum
    // RTT), then translate every segment's offsets onto the first segment's
    // timescale: θ̂ is C(t) − Ca(t), so the translation is the pointwise
    // difference of the two uncorrected clocks at the packet's Tf —
    // tracking-error semantics are preserved exactly. Point errors use the
    // segment's own r̂/p̄ (re-basing the minimum is the point of the split).
    core::OfflineResult merged;
    std::size_t begin = 0;
    for (std::size_t s = 0; s <= cuts.size(); ++s) {
      const std::size_t end = s < cuts.size() ? cuts[s] : raws.size();
      const auto segment = core::smooth_offsets(
          std::span<const core::RawExchange>(raws).subspan(begin, end - begin),
          params_, nominal_period_);
      if (s == 0) {
        merged.timescale = segment.timescale;
        merged.period = segment.period;
        merged.rhat_counts = segment.rhat_counts;
      }
      for (std::size_t k = 0; k < segment.offsets.size(); ++k) {
        const TscCount tf = raws[begin + k].tf;
        merged.offsets.push_back(segment.offsets[k] +
                                 (merged.timescale.read(tf) -
                                  segment.timescale.read(tf)));
        point_errors.push_back(delta_to_seconds(
            raws[begin + k].rtt_counts() - segment.rhat_counts,
            segment.period));
      }
      merged.poor_windows += segment.poor_windows;
      begin = end;
    }
    result_ = std::move(merged);
  }

  ReplayOutput output;
  output.offsets = result_.offsets;
  output.timescale = result_.timescale;
  output.period = result_.period;
  output.point_errors = std::move(point_errors);
  output.status.packets_processed = raws.size();
  output.status.warmed_up = true;  // no warm-up: the rate is whole-trace
  output.status.period = result_.period;
  output.status.offset = result_.offsets.back();
  output.status.min_rtt =
      delta_to_seconds(result_.rhat_counts, result_.period);
  // The §5.3 poor-window fallback is the offline analogue of the online
  // estimator's best-packet fallback — report it on the same counter; the
  // split cuts ride the shift counter so the status surfaces show how often
  // the variant actually split.
  output.status.offset_fallbacks = result_.poor_windows;
  output.status.upshifts = cuts.size();
  return output;
}

// -- ReplaySession ---------------------------------------------------------

ReplaySession::ReplaySession(const SessionConfig& config,
                             std::unique_ptr<ReplayEstimator> estimator)
    : config_(config), estimator_(std::move(estimator)) {
  TSC_EXPECTS(estimator_ != nullptr);
}

void ReplaySession::add_sink(SampleSink& sink) { sinks_.push_back(&sink); }

void ReplaySession::emit(const SampleRecord& record) {
  for (auto* sink : sinks_) sink->on_sample(record);
}

const SessionSummary& ReplaySession::run(const ReplayTrace& trace) {
  summary_ = SessionSummary{};
  summary_.exchanges = trace.exchanges;
  summary_.lost = trace.lost;
  summary_.polls_enumerated = trace.polls_enumerated;

  // A ReplaySession replays exactly one client's clock: a trace that
  // interleaves several fleet clients would hand the estimator a stream
  // mixing unrelated oscillators. Demand a homogeneous trace up front.
  for (const auto& sample : trace.samples) {
    if (sample.client_id != trace.samples.front().client_id)
      throw std::invalid_argument(
          "ReplaySession: trace mixes client_id " +
          std::to_string(trace.samples.front().client_id) + " and " +
          std::to_string(sample.client_id) +
          " — replay one client's trace at a time (demultiplex the fleet "
          "trace by client before replaying)");
  }

  // Too few packets for any whole-trace estimate: emit at most the lost/
  // unevaluated skeleton so the cell reads "n/a", never FAILED.
  const bool scorable = trace.arrived() >= 2;
  const bool relative = trace.ground_truth == GroundTruthMode::kRelativeOnly;
  ReplayOutput output;
  if (scorable) {
    output = estimator_->process_trace(trace.samples);
    TSC_EXPECTS(output.offsets.size() == trace.arrived());
    TSC_EXPECTS(output.point_errors.empty() ||
                output.point_errors.size() == trace.arrived());
    summary_.final_status = output.status;
  }

  std::size_t k = 0;  // running index over non-lost samples
  for (const auto& sample : trace.samples) {
    SampleRecord record;
    record.index = sample.index;
    record.client_id = sample.client_id;
    record.truth_ta = sample.truth_ta;
    record.truth_tb = sample.truth_tb;
    record.in_warmup = sample.in_warmup;
    if (sample.lost) {
      record.lost = true;
      if (config_.emit_unevaluated) emit(record);
      continue;
    }
    record.raw = sample.raw;
    record.tf_counts_corrected = sample.tf_counts_corrected;
    record.t_day = sample.t_day;
    record.ref_available = sample.ref_available;
    record.tg = sample.tg;
    record.server_changed = sample.server_changed;
    if (scorable) {
      record.report.offset_estimate = output.offsets[k];
      record.report.naive_offset =
          core::naive_offset(sample.raw, output.timescale);
      if (!output.point_errors.empty())
        record.report.point_error = output.point_errors[k];
      record.warmed_up = true;
      record.period = output.period;
      if (relative) {
        // No reference exists, so the absolute columns stay 0 and must not
        // be read (the mode-aware ReducerSink never collects them). The
        // tracking residual grades the estimate against the only clock a
        // real-internet trace can see: the server's, through the path.
        record.offset_error =
            record.report.offset_estimate - record.report.naive_offset;
        record.evaluated = !sample.in_warmup;
      } else if (sample.ref_available) {
        // Identical alignment arithmetic to ClockSession::process: θg from
        // the estimator's own C, errors as estimate − θg. The replay's
        // absolute clock is Ca(T) = C(T) − θ̂(t_k) (the smoothed correction
        // at packet k), so its clock error is the negated tracking error by
        // construction.
        record.reference_offset =
            output.timescale.read(sample.raw.tf) - sample.tg;
        record.offset_error =
            record.report.offset_estimate - record.reference_offset;
        record.naive_error =
            record.report.naive_offset - record.reference_offset;
        // Ca(Tf) − Tg = (C(Tf) − θ̂(t_k)) − Tg: with the correction applied
        // at the very packet being scored, the clock error IS the negated
        // tracking error — computed as such so the identity is bit-exact.
        record.abs_clock_error = -record.offset_error;
      }
      if (!relative)
        record.evaluated = sample.ref_available && !sample.in_warmup;
    }
    ++k;
    if (record.evaluated) ++summary_.evaluated;
    if (record.evaluated || config_.emit_unevaluated) emit(record);
  }
  return summary_;
}

// -- Registry entries (replay families) ------------------------------------

void detail::register_builtin_replay_estimators(EstimatorRegistry& registry) {
  EstimatorRegistry::Family offline;
  offline.name = "offline";
  offline.order = 40;
  offline.replay = true;
  offline.description =
      "offline two-sided smoother (§5.3, NON-CAUSAL replay: scored post-hoc "
      "over the recorded trace using future packets)";
  offline.tunables = {
      TunableSpec::choice(
          "split", "none",
          "cut the trace at detected level shifts and smooth each segment "
          "with its own whole-segment rate/minimum",
          {"none", "shifts"}),
  };
  offline.make_replay = [](const ResolvedSpec& spec,
                           const core::Params& params,
                           double nominal_period) {
    const auto split = spec.get_choice("split") == "shifts"
                           ? OfflineSmootherEstimator::Split::kShifts
                           : OfflineSmootherEstimator::Split::kNone;
    return std::make_unique<OfflineSmootherEstimator>(params, nominal_period,
                                                      split);
  };
  registry.register_family(std::move(offline));
}

}  // namespace tscclock::harness
