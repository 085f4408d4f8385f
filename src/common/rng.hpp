// Deterministic random number generation for the simulation substrate.
//
// Every stochastic component of the testbed draws from its own Rng instance
// seeded from a scenario master seed, so traces are reproducible run-to-run
// and component-to-component (adding noise draws to the path model does not
// perturb the server model's stream).
//
// The stream is exactly the one std::mt19937_64 and libstdc++ 12's
// <random> distributions produce: Mt19937_64 below is the standard MT19937-64
// (same seeding, twist and tempering, word for word), and every draw repeats
// the libstdc++ arithmetic operation for operation over the same canonical
// double. tests/test_rng.cpp pins both, bit for bit. The code here is faster
// than the library's because two branches on random bits are gone, each
// mispredicted half the time:
//   * the twist's `(y & 1) ? a : 0` becomes the mask `(0 - (y & 1)) & a`;
//   * the uint64 -> double conversion inside std::generate_canonical
//     (a branch on the top bit without AVX-512) becomes two exact 32-bit
//     halves summed with a single rounding, which is the same double.
// normal() runs the Marsaglia polar method like std::normal_distribution
// but discards the second variate on purpose: each draw starts from a fresh
// distribution, so no cached value can leak between components or survive a
// change in the order of draws.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/contracts.hpp"

namespace tscclock {

/// MT19937-64 with the parameters of std::mt19937_64; satisfies
/// UniformRandomBitGenerator, so it composes with <random> machinery.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (index_ >= kN) [[unlikely]] refill();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  /// New state word from x[k] (upper bit), x[k+1] (lower 31 bits) and
  /// x[k+m]; the mask replaces the branch `(y & 1) ? a : 0`.
  static result_type twist(result_type current, result_type next,
                           result_type ahead) {
    const result_type y =
        (current & 0xffffffff80000000ULL) | (next & 0x7fffffffULL);
    return ahead ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  void refill() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k)
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
    for (; k < kN - 1; ++k)
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    index_ = 0;
  }

  std::array<result_type, kN> state_{};
  std::size_t index_ = kN;  // the first draw refills
};

/// The double in [0, 1) that std::generate_canonical<double, 53> makes of
/// one 64-bit word: x / 2^64 rounded once to nearest, with a result that
/// rounds up to 1 clamped to the largest double below 1. Both halves are
/// exact doubles, so their sum rounds exactly as a direct conversion would.
inline double canonical_from_bits(std::uint64_t x) {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(x));
  const double u = (hi * 0x1p32 + lo) * 0x1p-64;
  return std::min(u, 1.0 - std::numeric_limits<double>::epsilon() / 2);
}

/// Seeded pseudo-random source with the distribution draws the testbed needs.
/// The per-draw methods are inline: the simulation substrate makes ~15 draws
/// per generated exchange.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child generator; the label decorrelates children
  /// created from the same parent.
  [[nodiscard]] Rng fork(std::uint64_t label);

  /// Uniform in [0, 1). (The library's u * (1 - 0) + 0 is u itself.)
  double uniform() { return canonical(); }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    TSC_EXPECTS(lo <= hi);
    return canonical() * (hi - lo) + lo;
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    TSC_EXPECTS(mean > 0.0);
    return -std::log(1.0 - canonical()) / (1.0 / mean);
  }

  /// Pareto (Lomax form): density ~ (1 + x/scale)^-(shape+1), x >= 0.
  /// Heavy-tailed queueing excursions; mean = scale/(shape-1) for shape > 1.
  double pareto(double shape, double scale) {
    TSC_EXPECTS(shape > 0.0);
    TSC_EXPECTS(scale > 0.0);
    const double u = uniform(std::numeric_limits<double>::min(), 1.0);
    return scale * (std::pow(u, -1.0 / shape) - 1.0);
  }

  /// Zero-mean Gaussian with standard deviation `stddev` (Marsaglia polar
  /// method; the second variate is discarded, see the file comment).
  double normal(double stddev) {
    TSC_EXPECTS(stddev >= 0.0);
    if (stddev == 0.0) return 0.0;
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * stddev + 0.0;
  }

  /// True with probability p.
  bool bernoulli(double p) {
    TSC_EXPECTS(p >= 0.0 && p <= 1.0);
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// Direct access for composing with <random> machinery in tests.
  Mt19937_64& engine() { return engine_; }

 private:
  double canonical() { return canonical_from_bits(engine_()); }

  Mt19937_64 engine_;
};

}  // namespace tscclock
