// Tests for the deterministic random source and its distributions, and for
// its equivalence with std::mt19937_64 and the libstdc++ distributions.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace tscclock {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkedChildrenAreDecorrelated) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.uniform() == c2.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsReproducible) {
  Rng p1(7);
  Rng p2(7);
  Rng a = p1.fork(3);
  Rng b = p2.fork(3);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  RunningMoments m;
  for (int i = 0; i < 50000; ++i) m.update(rng.exponential(2.5));
  EXPECT_NEAR(m.mean(), 2.5, 0.05);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.exponential(-1.0), ContractViolation);
}

TEST(Rng, ParetoMeanMatchesLomaxFormula) {
  // Lomax mean = scale / (shape - 1) for shape > 1.
  Rng rng(17);
  RunningMoments m;
  const double shape = 3.0;
  const double scale = 2.0;
  for (int i = 0; i < 200000; ++i) m.update(rng.pareto(shape, scale));
  EXPECT_NEAR(m.mean(), scale / (shape - 1.0), 0.05);
}

TEST(Rng, ParetoIsHeavyTailed) {
  // P(X > 10·mean) should exceed the exponential equivalent by far.
  Rng rng(19);
  const double mean = 1.0;
  int pareto_exceed = 0;
  int exp_exceed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.pareto(2.0, mean) > 10 * mean) ++pareto_exceed;
    if (rng.exponential(mean) > 10 * mean) ++exp_exceed;
  }
  EXPECT_GT(pareto_exceed, 5 * (exp_exceed + 1));
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  RunningMoments m;
  for (int i = 0; i < 100000; ++i) m.update(rng.normal(0.5));
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.stddev(), 0.5, 0.01);
}

TEST(Rng, NormalZeroStddevIsZero) {
  Rng rng(23);
  EXPECT_EQ(rng.normal(0.0), 0.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(29);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
  EXPECT_THROW(rng.bernoulli(-0.1), ContractViolation);
}

TEST(Rng, BernoulliHitIsStrictlyBelowP) {
  // Hit means u < p, as in std::bernoulli_distribution: a draw equal to p
  // is a miss, and p one ulp above the draw is a hit.
  Rng rng(37);
  const double u = Rng(rng).uniform();
  EXPECT_FALSE(rng.bernoulli(u));
  const double next = Rng(rng).uniform();
  EXPECT_TRUE(rng.bernoulli(std::nextafter(next, 1.0)));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

// --- Equivalence with the standard library ----------------------------------

constexpr std::uint64_t kMaxWord = std::numeric_limits<std::uint64_t>::max();
constexpr int kWordsPastThreeRefills = 3 * 312 + 101;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

TEST(Mt19937_64, MatchesStdWordForWord) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{5489}, kMaxWord}) {
    Mt19937_64 mine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kWordsPastThreeRefills; ++i)
      ASSERT_EQ(mine(), reference()) << "seed " << seed << ", word " << i;
  }
}

TEST(Mt19937_64, ForkChildMatchesStdSeededAlike) {
  // Rng::fork's child seed, recomputed from a std::mt19937_64 parent.
  std::mt19937_64 reference_parent(7);
  std::uint64_t z = reference_parent() + 0x9e3779b97f4a7c15ULL * (3 + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  std::mt19937_64 reference(z ^ (z >> 31));

  Rng parent(7);
  Rng child = parent.fork(3);
  for (int i = 0; i < kWordsPastThreeRefills; ++i)
    ASSERT_EQ(child.engine()(), reference()) << "word " << i;
  EXPECT_EQ(parent.engine()(), reference_parent());
}

TEST(Mt19937_64, StandardCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ULL);
}

// --- Canonical ---------------------------------------------------------------

/// A generator that always returns the same word, to drive
/// std::generate_canonical through one chosen input.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kMaxWord; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(Canonical, EdgeWords) {
  const double below_one = std::nextafter(1.0, 0.0);
  struct Case {
    std::uint64_t word;
    double expected;
  };
  const Case cases[] = {
      {0, 0.0},
      {1, 0x1p-64},
      {(1ULL << 53) - 1, 0x1.fffffffffffffp-12},
      {1ULL << 53, 0x1p-11},
      {(1ULL << 53) + 1, 0x1p-11},  // tie, to even: down
      {(1ULL << 54) + 2, 0x1p-10},  // tie, to even: down
      {(1ULL << 54) + 6, 0x1.0000000000002p-10},  // tie, to even: up
      {(1ULL << 63) + (1ULL << 10), 0x1p-1},      // tie, to even: down
      {1ULL << 63, 0x1p-1},
      {kMaxWord - 1024, below_one},  // 2^64 - 1025: largest value below 1
      {kMaxWord - 1023, below_one},  // 2^64 - 1024: rounds to 1, clamped
      {kMaxWord, below_one},         // 2^64 - 1: rounds to 1, clamped
  };
  for (const auto& c : cases) {
    EXPECT_TRUE(same_bits(canonical_from_bits(c.word), c.expected))
        << "word " << c.word << ": " << canonical_from_bits(c.word);
#ifdef __GLIBCXX__
    FixedWord fixed{c.word};
    EXPECT_TRUE(same_bits(std::generate_canonical<double, 53>(fixed),
                          c.expected))
        << "word " << c.word;
#endif
  }
}

TEST(Canonical, MatchesDirectConversionOnRandomWords) {
  std::mt19937_64 words(20041025);
  const double below_one = std::nextafter(1.0, 0.0);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t x = words();
    const double mine = canonical_from_bits(x);
    const double direct =
        std::min(static_cast<double>(x) * 0x1p-64, below_one);
    ASSERT_TRUE(same_bits(mine, direct)) << "word " << x;
#ifdef __GLIBCXX__
    FixedWord fixed{x};
    ASSERT_TRUE(same_bits(mine, std::generate_canonical<double, 53>(fixed)))
        << "word " << x;
#endif
  }
}

// --- Draws vs the libstdc++ distributions --------------------------------------
//
// Each Rng draw must return the bits the matching std:: distribution,
// constructed fresh per draw, returns on a std::mt19937_64 seeded alike, and
// leave both engines at the same position. The parameter sets are the ones the
// src/sim call sites pass (their presets and the values derived from them),
// plus edge cases.
#ifdef __GLIBCXX__

constexpr int kDraws = 100000;

template <class Mine, class Reference>
void expect_same_stream(std::uint64_t seed, Mine mine, Reference reference) {
  Rng rng(seed);
  std::mt19937_64 engine(seed);
  for (int i = 0; i < kDraws; ++i) {
    const auto a = mine(rng);
    const auto b = reference(engine);
    if (!same_bits(a, b)) {
      ADD_FAILURE() << "draw " << i << ": " << a << " vs " << b;
      return;
    }
  }
  EXPECT_EQ(rng.engine()(), engine());
}

const double kDenormMin = std::numeric_limits<double>::denorm_min();
const double kDblMin = std::numeric_limits<double>::min();

TEST(RngMatchesLibstdcxx, Uniform) {
  expect_same_stream(
      1, [](Rng& r) { return r.uniform(); },
      [](std::mt19937_64& e) {
        return std::uniform_real_distribution<double>(0.0, 1.0)(e);
      });
}

TEST(RngMatchesLibstdcxx, UniformRange) {
  const double two_pi = 2.0 * std::acos(-1.0);
  const std::vector<std::pair<double, double>> ranges = {
      {0.0, two_pi},            // oscillator phase
      {0.10, 0.85},             // fleet level-shift start
      {0.2e-3, 0.8e-3},         // fleet forward delta
      {0.05e-3, 0.2e-3},        // fleet backward delta
      {-40e-6, 40e-6},          // fleet link offset
      {-2e-8, 2e-8},            // fleet link skew
      {0.2e-3, 1.0e-3},         // server late Te, default max
      {0.1e-3, 1.0e-3},         // timestamping outliers
      {-0.25, 0.25},            // poll jitter
      {kDblMin, 1.0},           // pareto's uniform
      {0.0, 0.0},               // edges
      {5.0, 5.0},
      {-3.0, -1.0},
      {-1e300, 1e300},
      {kDenormMin, 2 * kDenormMin},
  };
  std::uint64_t seed = 100;
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << ")");
    expect_same_stream(
        ++seed, [lo = lo, hi = hi](Rng& r) { return r.uniform(lo, hi); },
        [lo = lo, hi = hi](std::mt19937_64& e) {
          return std::uniform_real_distribution<double>(lo, hi)(e);
        });
  }
}

TEST(RngMatchesLibstdcxx, Exponential) {
  const std::vector<double> means = {
      20e-6, 30e-6,                  // server processing jitter
      0.8e-3,                        // server scheduling spike
      2.0e-6 + 1e-12,                // server early Te
      1.0e-6 + 1e-12, 2.5e-6 + 1e-12,  // host send / receive latency
      18e-6, 15e-6, 45e-6, 35e-6, 320e-6, 260e-6,  // path jitter
      3 * 3600.0, 4 * 3600.0, 6 * 3600.0, 8 * 3600.0,
      12 * 3600.0,                   // congestion intervals
      5 * 60.0, 8 * 60.0, 12 * 60.0,  // congestion durations
      4e-3,                          // bench storm spikes
      1.0, 1e-300, 1e300, kDblMin, kDenormMin,  // edges
  };
  std::uint64_t seed = 200;
  for (const double mean : means) {
    SCOPED_TRACE(testing::Message() << "mean " << mean);
    expect_same_stream(
        ++seed, [mean](Rng& r) { return r.exponential(mean); },
        [mean](std::mt19937_64& e) {
          return std::exponential_distribution<double>(1.0 / mean)(e);
        });
  }
}

TEST(RngMatchesLibstdcxx, Pareto) {
  // path.cpp passes scale = mean * (shape - 1) for each preset spike mean.
  std::vector<std::pair<double, double>> params;
  for (const double shape : {2.5, 2.2})
    for (const double mean : {0.8e-3, 4e-3, 0.35e-3, 0.3e-3, 2e-3})
      params.emplace_back(shape, mean * (shape - 1.0));
  // Edges, plus the shapes the statistics tests use.
  for (const auto& p : {std::pair{0.5, 1.0}, std::pair{1.0, 1.0},
                        std::pair{3.0, 2.0}, std::pair{100.0, 1e-300},
                        std::pair{1e-3, 1e300}})
    params.push_back(p);
  std::uint64_t seed = 300;
  for (const auto& [shape, scale] : params) {
    SCOPED_TRACE(testing::Message() << "shape " << shape << " scale "
                                    << scale);
    expect_same_stream(
        ++seed,
        [shape = shape, scale = scale](Rng& r) {
          return r.pareto(shape, scale);
        },
        [shape = shape, scale = scale](std::mt19937_64& e) {
          const double u = std::uniform_real_distribution<double>(
              std::numeric_limits<double>::min(), 1.0)(e);
          return scale * (std::pow(u, -1.0 / shape) - 1.0);
        });
  }
}

TEST(RngMatchesLibstdcxx, Normal) {
  // Oscillator OU innovation for 16 s and 20 s substeps, and its
  // oscillatory-period wander, from the default oscillator config.
  auto ou_innovation = [](double dt) {
    const double decay = std::exp(-dt / 3000.0);
    return 0.01e-6 * std::sqrt(1.0 - decay * decay);
  };
  const std::vector<double> stddevs = {
      1.0e-6,                                   // server stamp noise
      0.1e-6,                                   // DAG stamp noise
      ou_innovation(16.0), ou_innovation(20.0),
      0.01 * 6000.0 * std::sqrt(16.0 / 60.0),   // oscillatory period wander
      0.01 * 6000.0 * std::sqrt(20.0 / 60.0),
      1.0, 1e-300, 1e300, kDblMin, kDenormMin,  // edges
  };
  std::uint64_t seed = 400;
  for (const double stddev : stddevs) {
    SCOPED_TRACE(testing::Message() << "stddev " << stddev);
    expect_same_stream(
        ++seed, [stddev](Rng& r) { return r.normal(stddev); },
        [stddev](std::mt19937_64& e) {
          return std::normal_distribution<double>(0.0, stddev)(e);
        });
  }
}

TEST(RngMatchesLibstdcxx, Bernoulli) {
  const std::vector<double> probabilities = {
      0.0015,                          // DAG missing reference
      0.02 * 0.4, 0.02, 0.02 * 1.6,    // diurnal spike probability
      0.010, 0.006, 0.040, 0.018, 0.16, 0.11,
      0.75,                            // congestion spike probability
      0.002, 0.0008, 0.0015, 0.003,    // packet loss
      1.5e-3, 2.5e-3, 1.0e-4,          // server spikes, late Te
      0.012, 0.004, 1e-4,              // host side modes, outliers
      0.8,                             // bench storm
      0.5, kDenormMin, std::nextafter(1.0, 0.0),  // edges
  };
  std::uint64_t seed = 500;
  for (const double p : probabilities) {
    SCOPED_TRACE(testing::Message() << "p " << p);
    expect_same_stream(
        ++seed, [p](Rng& r) { return r.bernoulli(p) ? 1.0 : 0.0; },
        [p](std::mt19937_64& e) {
          return std::bernoulli_distribution(p)(e) ? 1.0 : 0.0;
        });
  }
}

TEST(RngMatchesLibstdcxx, InterleavedDraws) {
  // One stream shared by every draw kind, the way a simulator component
  // mixes them: positions must stay aligned across kinds.
  expect_same_stream(
      600,
      [](Rng& r) {
        double v = r.exponential(30e-6);
        if (r.bernoulli(0.3)) v += r.pareto(2.5, 1.2e-3);
        v += r.normal(1e-6);
        return v + r.uniform(-0.25, 0.25) + r.uniform();
      },
      [](std::mt19937_64& e) {
        double v = std::exponential_distribution<double>(1.0 / 30e-6)(e);
        if (std::bernoulli_distribution(0.3)(e)) {
          const double u = std::uniform_real_distribution<double>(
              std::numeric_limits<double>::min(), 1.0)(e);
          v += 1.2e-3 * (std::pow(u, -1.0 / 2.5) - 1.0);
        }
        v += std::normal_distribution<double>(0.0, 1e-6)(e);
        return v + std::uniform_real_distribution<double>(-0.25, 0.25)(e) +
               std::uniform_real_distribution<double>(0.0, 1.0)(e);
      });
}

#endif  // __GLIBCXX__

}  // namespace
}  // namespace tscclock
