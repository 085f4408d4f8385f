#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace tscclock {

double percentile(std::span<const double> values, double q) {
  TSC_EXPECTS(!values.empty());
  TSC_EXPECTS(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

PercentileSummary percentile_summary(std::span<const double> values) {
  TSC_EXPECTS(!values.empty());
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  PercentileSummary s;
  s.p01 = at(0.01);
  s.p25 = at(0.25);
  s.p50 = at(0.50);
  s.p75 = at(0.75);
  s.p99 = at(0.99);
  return s;
}

SeriesSummary summarize(std::span<const double> values) {
  TSC_EXPECTS(!values.empty());
  SeriesSummary s;
  s.count = values.size();
  s.percentiles = percentile_summary(values);
  RunningMoments moments;
  double mn = values.front();
  double mx = values.front();
  for (double v : values) {
    moments.update(v);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  s.min = mn;
  s.max = mx;
  s.mean = moments.mean();
  s.stddev = moments.stddev();
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  TSC_EXPECTS(hi > lo);
  TSC_EXPECTS(bins > 0);
}

void Histogram::add(double value) {
  // NaN has no bin (floor(NaN) is NaN, and casting it to an integer is
  // undefined behaviour) — count it separately so callers can surface
  // corrupt inputs instead of crediting them to an arbitrary bin.
  if (std::isnan(value)) {
    ++nan_;
    return;
  }
  // Clamp in floating point BEFORE the integer cast: casting a double
  // outside the target's range (±inf, or a huge finite value) is undefined
  // behaviour too. ±inf and out-of-range values land in the terminal bins,
  // conserving mass as documented.
  const double pos = std::floor((value - lo_) / width_);
  const double last = static_cast<double>(counts_.size() - 1);
  const auto bin = static_cast<std::size_t>(std::clamp(pos, 0.0, last));
  ++counts_[bin];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t bin) const {
  TSC_EXPECTS(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  TSC_EXPECTS(bin < counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(bin_count(bin)) / static_cast<double>(total_);
}

void RunningMoments::update(double value) {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

P2Quantile::P2Quantile(double q) : q_(q) {
  TSC_EXPECTS(q > 0.0 && q < 1.0);
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q;
  desired_[2] = 1.0 + 4.0 * q;
  desired_[3] = 3.0 + 2.0 * q;
  desired_[4] = 5.0;
  desired_increment_[0] = 0.0;
  desired_increment_[1] = q / 2.0;
  desired_increment_[2] = q;
  desired_increment_[3] = (1.0 + q) / 2.0;
  desired_increment_[4] = 1.0;
}

void P2Quantile::add(double value) {
  if (count_ < 5) {
    heights_[count_++] = value;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }

  // Locate the marker cell and clamp the extremes.
  std::size_t cell;
  if (value < heights_[0]) {
    heights_[0] = value;
    cell = 0;
  } else if (value >= heights_[4]) {
    heights_[4] = value;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && value >= heights_[cell + 1]) ++cell;
  }

  for (std::size_t i = cell + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += desired_increment_[i];
  ++count_;

  // Nudge interior markers toward their desired positions; parabolic (P²)
  // height update when it stays monotone, linear otherwise.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      const double span = positions_[i + 1] - positions_[i - 1];
      const double parabolic =
          heights_[i] +
          sign / span *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else if (sign > 0.0) {
        heights_[i] += (heights_[i + 1] - heights_[i]) / above;
      } else {
        heights_[i] -= (heights_[i] - heights_[i - 1]) / below;
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  TSC_EXPECTS(count_ > 0);
  if (count_ <= 5) {
    // Exact interpolated percentile of the few stored samples (they are only
    // sorted once the fifth arrives).
    double sorted[5];
    std::copy(heights_, heights_ + count_, sorted);
    // Straight insertion sort, as std::sort does for so few elements.
    for (std::size_t i = 1; i < count_; ++i)
      for (std::size_t j = i; j > 0 && sorted[j] < sorted[j - 1]; --j)
        std::swap(sorted[j], sorted[j - 1]);
    return percentile(std::span<const double>(sorted, count_), q_);
  }
  return heights_[2];
}

StreamingSeriesSummary::StreamingSeriesSummary()
    : p01_(0.01), p25_(0.25), p50_(0.50), p75_(0.75), p99_(0.99) {}

void StreamingSeriesSummary::add(double value) {
  if (moments_.count() == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  moments_.update(value);
  p01_.add(value);
  p25_.add(value);
  p50_.add(value);
  p75_.add(value);
  p99_.add(value);
}

SeriesSummary StreamingSeriesSummary::summary() const {
  SeriesSummary s;
  if (moments_.count() == 0) return s;
  s.count = moments_.count();
  s.min = min_;
  s.max = max_;
  s.mean = moments_.mean();
  s.stddev = moments_.stddev();
  s.percentiles.p01 = p01_.value();
  s.percentiles.p25 = p25_.value();
  s.percentiles.p50 = p50_.value();
  s.percentiles.p75 = p75_.value();
  s.percentiles.p99 = p99_.value();
  return s;
}

}  // namespace tscclock
