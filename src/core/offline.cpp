#include "core/offline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/contracts.hpp"
#include "common/libm_exp.hpp"
#include "core/naive.hpp"

namespace tscclock::core {

namespace {

/// Whole-trace robust rate: the §5.2 estimator collapsed to its essence —
/// pair the best-quality packet of the first quarter with the best of the
/// last quarter, restricted to point errors below E*.
double whole_trace_period(std::span<const RawExchange> trace,
                          TscDelta rhat_counts, const Params& params,
                          double nominal_period) {
  const auto best_in = [&](std::size_t begin, std::size_t end) {
    std::size_t best = begin;
    for (std::size_t k = begin; k < end; ++k)
      if (trace[k].rtt_counts() < trace[best].rtt_counts()) best = k;
    return best;
  };
  const std::size_t n = trace.size();
  const std::size_t quarter = std::max<std::size_t>(1, n / 4);
  const std::size_t j = best_in(0, quarter);
  const std::size_t i = best_in(n - quarter, n);
  if (i == j || counter_delta(trace[i].ta, trace[j].ta) <= 0)
    return nominal_period;

  // Degenerate pair: with the two best packets sharing the same Tf the
  // baseline is empty (and the naive backward rate divides by zero), so
  // there is no rate information — keep the configured nominal. Guarding
  // span > 0 also rejects the quality ratio below ever becoming inf/NaN,
  // which would *pass* the > comparison by failing it and silently accept
  // a garbage candidate rate.
  const Seconds span = delta_to_seconds(
      counter_delta(trace[i].tf, trace[j].tf), nominal_period);
  if (!(span > 0.0)) return nominal_period;

  // Accept the pair only if its quality is meaningful; otherwise keep the
  // configured nominal (the caller's trace is then too short/noisy).
  const double candidate = naive_rate(trace[j], trace[i]).combined;
  const Seconds ei = delta_to_seconds(
      trace[i].rtt_counts() - rhat_counts, nominal_period);
  const Seconds ej = delta_to_seconds(
      trace[j].rtt_counts() - rhat_counts, nominal_period);
  const Seconds total = ei + ej;
  if (!std::isfinite(total) || !std::isfinite(candidate) ||
      total / span > params.rate_error_bound) {
    return nominal_period;
  }
  return candidate;
}

/// One packet's smoothing window: for k, the entries i = lo, lo + 1, …
/// up to the first i > k more than half a window away (or the trace end).
/// Each entry's Gaussian exponent −z² goes to `exponent`, and the first
/// entry with the least total error is the fallback packet.
struct WindowScan {
  const TscCount* tf;
  const Seconds* point_error;
  std::size_t n;
  double period;
  Seconds half_window;
  double aging_rate;
  bool aging;
  Seconds quality;
  double* exponent;  ///< room for n entries

  std::size_t count = 0;  ///< entries written to `exponent`
  Seconds best_total = 0;
  std::size_t best_idx = 0;

  /// Packet k's window from `lo`, four entries at a time when `vector`.
  void run(std::size_t k, std::size_t lo, bool vector) {
    count = 0;
    best_total = std::numeric_limits<double>::infinity();
    best_idx = k;
#if defined(__x86_64__)
    if (vector) {
      run_avx2(k, lo);
      return;
    }
#endif
    for (std::size_t i = lo; i < n && entry(k, i); ++i) {
    }
  }

  /// Entry i of packet k's window in the plain order of operations; false
  /// (and nothing written) when i is past the window's end.
  bool entry(std::size_t k, std::size_t i) {
    const Seconds distance =
        std::fabs(delta_to_seconds(counter_delta(tf[k], tf[i]), period));
    if (i > k && distance > half_window) return false;
    const Seconds total =
        point_error[i] + (aging ? aging_rate * distance : 0.0);
    if (total < best_total) {
      best_total = total;
      best_idx = i;
    }
    const double z = total / quality;
    exponent[count++] = -z * z;
    return true;
  }

#if defined(__x86_64__)
  /// The same window, four entries at a time. A block goes to entry()
  /// when it holds the window's end or a counter difference of 2^51 or
  /// more (beyond the exact int64 → double conversion below); either way
  /// every written exponent and the fallback choice are those of the
  /// plain loop.
  __attribute__((target("avx2"))) void run_avx2(std::size_t k,
                                                std::size_t lo) {
    const __m256i tf_k = _mm256_set1_epi64x(static_cast<long long>(tf[k]));
    const __m256i k_lane = _mm256_set1_epi64x(static_cast<long long>(k));
    const __m256i limit_lo = _mm256_set1_epi64x(-(1ll << 51));
    const __m256i limit_hi = _mm256_set1_epi64x(1ll << 51);
    // d + bits(1.5·2^52), read as a double, is 1.5·2^52 + d for |d| < 2^51.
    const __m256i magic_bits = _mm256_set1_epi64x(0x4338000000000000ll);
    const __m256d magic = _mm256_set1_pd(0x1.8p52);
    const __m256d sign = _mm256_set1_pd(-0.0);
    const __m256d period4 = _mm256_set1_pd(period);
    const __m256d half4 = _mm256_set1_pd(half_window);
    const __m256d aging4 = _mm256_set1_pd(aging_rate);
    const __m256d aging_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(aging ? -1 : 0));
    const __m256d quality4 = _mm256_set1_pd(quality);
    // Per lane: the least total so far and the first index holding it.
    __m256d lane_best =
        _mm256_set1_pd(std::numeric_limits<double>::infinity());
    __m256i lane_idx =
        _mm256_set1_epi64x(std::numeric_limits<long long>::max());
    __m256i idx =
        _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(lo)),
                         _mm256_set_epi64x(3, 2, 1, 0));
    const __m256i four = _mm256_set1_epi64x(4);

    std::size_t i = lo;
    bool open = true;
    for (; open && i + 4 <= n; i += 4, idx = _mm256_add_epi64(idx, four)) {
      const __m256i d = _mm256_sub_epi64(
          tf_k, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tf + i)));
      const __m256i exact = _mm256_and_si256(_mm256_cmpgt_epi64(d, limit_lo),
                                             _mm256_cmpgt_epi64(limit_hi, d));
      const __m256d delta = _mm256_sub_pd(
          _mm256_castsi256_pd(_mm256_add_epi64(d, magic_bits)), magic);
      const __m256d distance =
          _mm256_andnot_pd(sign, _mm256_mul_pd(delta, period4));
      const __m256d beyond = _mm256_and_pd(
          _mm256_cmp_pd(distance, half4, _CMP_GT_OQ),
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(idx, k_lane)));
      if (_mm256_movemask_pd(_mm256_castsi256_pd(exact)) != 0xF ||
          _mm256_movemask_pd(beyond) != 0) {
        for (std::size_t j = i; open && j < i + 4; ++j) open = entry(k, j);
        continue;
      }
      const __m256d total = _mm256_add_pd(
          _mm256_loadu_pd(point_error + i),
          _mm256_and_pd(aging_mask, _mm256_mul_pd(aging4, distance)));
      const __m256d less = _mm256_cmp_pd(total, lane_best, _CMP_LT_OQ);
      lane_best = _mm256_blendv_pd(lane_best, total, less);
      lane_idx = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(lane_idx), _mm256_castsi256_pd(idx), less));
      const __m256d z = _mm256_div_pd(total, quality4);
      _mm256_storeu_pd(exponent + count,
                       _mm256_mul_pd(_mm256_xor_pd(z, sign), z));
      count += 4;
    }
    for (; open && i < n; ++i) open = entry(k, i);

    // Every candidate is the first holder of its lane's (or the scalar
    // entries') least total, so the least total's first holder is the
    // candidate with the least total and, among equals, the least index.
    alignas(32) double totals[4];
    alignas(32) long long indices[4];
    _mm256_store_pd(totals, lane_best);
    _mm256_store_si256(reinterpret_cast<__m256i*>(indices), lane_idx);
    for (int lane = 0; lane < 4; ++lane) {
      const auto index = static_cast<std::size_t>(indices[lane]);
      if (totals[lane] < best_total ||
          (totals[lane] == best_total && index < best_idx)) {
        best_total = totals[lane];
        best_idx = index;
      }
    }
  }
#endif
};

bool avx2_available() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

OfflineResult smooth_offsets(std::span<const RawExchange> trace,
                             const Params& params, double nominal_period) {
  params.validate();
  TSC_EXPECTS(trace.size() >= 2);
  TSC_EXPECTS(nominal_period > 0.0);

  OfflineResult result;

  // Whole-trace minimum RTT (one global level; traces spanning known level
  // shifts should be split at the shift points by the caller).
  TscDelta rhat = trace.front().rtt_counts();
  for (const auto& ex : trace) rhat = std::min(rhat, ex.rtt_counts());
  result.rhat_counts = rhat;

  result.period = whole_trace_period(trace, rhat, params, nominal_period);

  // Anchor C at the first packet's server midpoint (same convention as the
  // on-line clock) — the constant cancels in all downstream differences.
  const Seconds first_mid = 0.5 * (trace.front().tb + trace.front().te);
  const Seconds first_half_rtt =
      0.5 * delta_to_seconds(trace.front().rtt_counts(), result.period);
  result.timescale = CounterTimescale(trace.front().tf,
                                      first_mid + first_half_rtt,
                                      result.period);

  // Precompute naive offsets, point errors and the counter at each Tf.
  const std::size_t n = trace.size();
  std::vector<Seconds> naive(n);
  std::vector<Seconds> point_error(n);
  std::vector<TscCount> tf(n);
  for (std::size_t i = 0; i < n; ++i) {
    naive[i] = naive_offset(trace[i], result.timescale);
    point_error[i] = delta_to_seconds(trace[i].rtt_counts() - rhat,
                                      result.period);
    tf[i] = trace[i].tf;
  }

  // Two-sided weighted smoothing: for packet k use every packet within
  // ± τ'/2 (the same total window width as the on-line estimator), with
  // total error E_i + ε·|t_i − t_k|. Per packet, the window's Gaussian
  // exponents come first (four entries at a time on a CPU with AVX2), then
  // one exp_batch in place, then the two weighted sums, serially in window
  // order: the same doubles as a single loop.
  result.offsets.resize(n);
  static const bool use_avx2 = avx2_available();
  std::vector<double> weight(n);
  WindowScan scan{tf.data(),
                  point_error.data(),
                  n,
                  result.period,
                  params.offset_window / 2,
                  params.aging_rate,
                  params.enable_aging,
                  params.offset_quality,
                  weight.data()};
  std::size_t lo = 0;
  for (std::size_t k = 0; k < n; ++k) {
    while (lo < k &&
           result.timescale.between(tf[lo], tf[k]) > scan.half_window)
      ++lo;
    scan.run(k, lo, use_avx2);
    const std::span<double> w(weight.data(), scan.count);
    exp_batch(w, w);
    double weight_sum = 0;
    double weighted = 0;
    for (std::size_t j = 0; j < w.size(); ++j) {
      weight_sum += w[j];
      weighted += w[j] * naive[lo + j];
    }
    if (scan.best_total <= params.extreme_quality() && weight_sum > 0.0) {
      result.offsets[k] = weighted / weight_sum;
    } else {
      // Whole window poor: fall back to the best packet in it (two-sided,
      // so this is already the nearest good information in either
      // direction).
      result.offsets[k] = naive[scan.best_idx];
      ++result.poor_windows;
    }
  }
  return result;
}

}  // namespace tscclock::core
