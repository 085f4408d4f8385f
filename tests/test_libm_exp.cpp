// Tests for exp_batch: every result must be the same double as this
// process's std::exp, and on a host where glibc runs its FMA variant the
// in-repo kernel must actually be the one in use.
#include "common/libm_exp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <link.h>
#endif

namespace tscclock {
namespace {

/// std::exp on a value the compiler cannot see, so it is never folded into a
/// correctly rounded constant at compile time.
double libm_exp(double x) {
  volatile double v = x;
  return std::exp(v);
}

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// Runs exp_batch over `xs` and compares every result with std::exp byte
/// for byte; reports the first few mismatches by input.
void expect_matches_libm(const std::vector<double>& xs) {
  std::vector<double> out(xs.size());
  exp_batch(xs, out);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double want = libm_exp(xs[i]);
    if (std::memcmp(&out[i], &want, sizeof want) != 0) {
      if (++mismatches <= 5)
        ADD_FAILURE() << "exp(" << hex(xs[i]) << "): batch " << hex(out[i])
                      << ", std::exp " << hex(want);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << xs.size() << " inputs";
}

/// exp_batch(xs, xs): every result must still be std::exp of the input it
/// overwrote.
void expect_in_place_matches_libm(const std::vector<double>& xs) {
  std::vector<double> in_place = xs;
  exp_batch(in_place, in_place);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double want = libm_exp(xs[i]);
    mismatches += std::memcmp(&in_place[i], &want, sizeof want) != 0;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << xs.size() << " inputs, in place";
}

/// The host condition under which glibc's ifunc picks __exp_fma.
bool fma_glibc_host() {
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28))
  __builtin_cpu_init();
  return __builtin_cpu_supports("fma") && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

TEST(LibmExp, KernelSelectedOnGlibcFmaHost) {
  if (!fma_glibc_host())
    GTEST_SKIP() << "not an x86-64 glibc >= 2.28 host with FMA and AVX2: "
                    "exp_batch calls std::exp for every element";
  EXPECT_TRUE(exp_kernel_selected())
      << "the probe list disagreed with std::exp, so exp_batch fell back";
}

TEST(LibmExp, SeededRandomInputsMatch) {
  std::mt19937_64 gen(20261019);
  std::uniform_real_distribution<double> weights(-746.0, 0.0);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> xs(1 << 20);
  for (int round = 0; round < 10; ++round) {
    for (auto& x : xs) x = (round % 2 == 0) ? weights(gen) : unit(gen);
    expect_matches_libm(xs);
    if (HasFailure()) return;
  }
}

TEST(LibmExp, EveryTableSlotMatches) {
  // For each slot j and scale 2^m: inputs at and around
  // x = (128m + j)·ln2/128, across the reduced interval |r| ≤ ln2/256.
  std::mt19937_64 gen(7);
  const double step = std::log(2.0) / 128;
  std::uniform_real_distribution<double> offset(-0.5 * step, 0.5 * step);
  std::vector<double> xs;
  for (int m = -10; m <= 10; ++m) {
    for (int j = 0; j < 128; ++j) {
      const double centre = (128.0 * m + j) * step;
      xs.push_back(centre);
      xs.push_back(std::nextafter(centre, -1e300));
      xs.push_back(std::nextafter(centre, 1e300));
      xs.push_back(centre + 0.5 * step);
      xs.push_back(centre - 0.5 * step);
      for (int k = 0; k < 16; ++k) xs.push_back(centre + offset(gen));
    }
  }
  expect_matches_libm(xs);
}

TEST(LibmExp, DenseSweepNearUnderflow) {
  // Results here are subnormal or zero; glibc takes its special-case path.
  const double step = 0x1p-17;
  std::vector<double> xs;
  xs.reserve(1 << 16);
  for (double x = -745.2; x <= -700.0; x += step) {
    xs.push_back(x);
    if (xs.size() == (1u << 16)) {
      expect_matches_libm(xs);
      if (HasFailure()) return;
      xs.clear();
    }
  }
  expect_matches_libm(xs);
}

TEST(LibmExp, EdgesMatch) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {
      0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 709.782712893384, 709.79,
      -708.3964185322641, -745.1332191019411, -745.14, 1e-300, -1e-300};
  // The main path's edges, 2^-54 and 512, and their neighbours.
  for (const double edge : {0x1p-54, 512.0}) {
    for (const double x : {edge, -edge}) {
      double lo = x;
      double hi = x;
      for (int k = 0; k < 4; ++k) {
        lo = std::nextafter(lo, -inf);
        hi = std::nextafter(hi, inf);
        xs.push_back(lo);
        xs.push_back(hi);
      }
      xs.push_back(x);
    }
  }
  expect_matches_libm(xs);
}

/// The kernel evaluated without any fused operation: what glibc's non-FMA
/// variant computes. Each product is stored through a volatile so it is
/// rounded on its own, whatever the build's contraction setting.
double unfused_exp(double x) {
  const auto table = exp_detail::table();
  const double shift = 0x1.8p52;
  volatile double z = 0x1.71547652b82fep7 * x;
  double kd = z + shift;
  const auto ki = std::bit_cast<std::uint64_t>(kd);
  kd -= shift;
  volatile double hi = kd * -0x1.62e42fefa0000p-8;
  volatile double lo = kd * -0x1.cf79abc9e3b3ap-47;
  const double r = x + hi + lo;
  const std::uint64_t idx = 2 * (ki % 128);
  const double tail = std::bit_cast<double>(table[idx]);
  const double scale = std::bit_cast<double>(table[idx + 1] + (ki << 45));
  const double r2 = r * r;
  volatile double c3 = r * 0x1.555555555543cp-3;
  volatile double c5 = r * 0x1.1111167a4d017p-7;
  volatile double p23 = 0x1.ffffffffffdbdp-2 + c3;
  volatile double p45 = 0x1.55555cf172b91p-5 + c5;
  volatile double t2 = r2 * p23;
  volatile double t4 = r2 * r2 * p45;
  const double tmp = tail + r + t2 + t4;
  volatile double st = scale * tmp;
  return scale + st;
}

TEST(LibmExp, ProbesSeparateFusedFromUnfused) {
  const auto probes = exp_detail::probes();
  expect_matches_libm({probes.begin(), probes.end()});
  if (!exp_kernel_selected())
    GTEST_SKIP() << "std::exp is not glibc's FMA variant on this host";
  int unfused_differs = 0;
  for (const double x : probes) {
    const double a = unfused_exp(x);
    const double b = libm_exp(x);
    if (std::memcmp(&a, &b, sizeof a) != 0) ++unfused_differs;
  }
  EXPECT_GE(unfused_differs, 16)
      << "the probes would not notice a libm that evaluates without fma";
}

TEST(LibmExp, SingleOperationWitnesses) {
  // Two inputs each where evaluating one operation of glibc's FMA path
  // unfused gives another double: the kd rounding, C2 + r·C3, the r² term
  // and the final scale + scale·tmp. The other fused operations have no
  // such input on record: −ln2/N's high part makes kd·hi exact, and the
  // rounding of kd·lo, r·C5 and the r⁴ term reaches a result with a
  // probability of roughly 2^-30 or less per input; the table and
  // constants checks below pin those operands instead.
  expect_matches_libm({-0x1.95515c3f507eap+2, 0x1.fd7692d08362bp+0,
                       -0x1.09fdce6a1d1cp+2, 0x1.4dabe162eb6e1p+8,
                       -0x1.e185083e7a128p+2, -0x1.02360b4c58048p+5,
                       -0x1.3079f88818195p+5, -0x1.479f0d7bda16ap+3});
}

#if defined(__GLIBC__)

struct LibmData {
  bool found = false;
  bool table_equal = false;
  std::vector<std::uint64_t> preceding;  ///< the words just before the table
};

/// Looks for the committed table inside the loaded libm's readable segments
/// and keeps what is found there: whether all 256 words agree, and the 16
/// words before it, where glibc keeps the rest of __exp_data.
int search_libm(dl_phdr_info* info, std::size_t, void* data) {
  auto* result = static_cast<LibmData*>(data);
  const std::string name = info->dlpi_name ? info->dlpi_name : "";
  if (name.find("libm.so") == std::string::npos) return 0;
  const auto table = exp_detail::table();
  const std::size_t bytes = table.size() * sizeof(std::uint64_t);
  constexpr std::size_t kBefore = 16 * sizeof(std::uint64_t);
  for (int p = 0; p < info->dlpi_phnum; ++p) {
    const auto& ph = info->dlpi_phdr[p];
    if (ph.p_type != PT_LOAD || !(ph.p_flags & PF_R)) continue;
    const auto* begin =
        reinterpret_cast<const unsigned char*>(info->dlpi_addr + ph.p_vaddr);
    for (std::size_t off = kBefore; off + bytes <= ph.p_filesz; off += 8) {
      if (std::memcmp(begin + off, table.data(), 4 * sizeof(std::uint64_t)))
        continue;
      result->found = true;
      result->table_equal = std::memcmp(begin + off, table.data(), bytes) == 0;
      result->preceding.resize(16);
      std::memcpy(result->preceding.data(), begin + off - kBefore, kBefore);
      return 1;
    }
  }
  return 0;
}

TEST(LibmExp, TableAndConstantsMatchLoadedLibm) {
  if (!exp_kernel_selected())
    GTEST_SKIP() << "std::exp is not glibc's FMA variant on this host";
  LibmData libm;
  dl_iterate_phdr(search_libm, &libm);
  ASSERT_TRUE(libm.found) << "the table's first four words are not in libm";
  EXPECT_TRUE(libm.table_equal) << "a table word differs from libm's";
  for (const double c : exp_detail::constants()) {
    const auto word = std::bit_cast<std::uint64_t>(c);
    EXPECT_NE(std::find(libm.preceding.begin(), libm.preceding.end(), word),
              libm.preceding.end())
        << hex(c) << " is not among the constants stored before the table";
  }
}

#endif

TEST(LibmExp, BatchMayAliasItsInput) {
  std::vector<double> xs = {-3.5, -0.25, 0.0, -1e-3, -30.0, -800.0};
  const std::vector<double> in = xs;
  exp_batch(xs, xs);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double want = libm_exp(in[i]);
    EXPECT_EQ(std::memcmp(&xs[i], &want, sizeof want), 0) << hex(in[i]);
  }
}

/// One input of each kind the 4-lane path treats differently: main path,
/// underflow to +0 (≤ −1024, −∞), glibc's special-case range (−1024, −512]
/// and [512, ∞), tiny, ±0, +∞ and NaN.
std::vector<double> lane_kinds() {
  const double inf = std::numeric_limits<double>::infinity();
  return {-3.5,
          0x1.8p-3,
          -1024.0,
          -std::numeric_limits<double>::max(),
          -inf,
          -0x1.fffffffffffffp+9,
          -745.0,
          -512.0,
          600.0,
          1e-20,
          -std::numeric_limits<double>::denorm_min(),
          0.0,
          -0.0,
          inf,
          std::numeric_limits<double>::quiet_NaN()};
}

TEST(LibmExp, EveryLengthAndTailMatches) {
  // Lengths 0..9 cover no block, whole blocks and every tail length; the
  // inputs start at every offset of a buffer, so blocks are not aligned.
  std::mt19937_64 gen(4);
  const std::vector<double> kinds = lane_kinds();
  std::vector<double> buffer(16);
  std::vector<double> out(16);
  for (std::size_t len = 0; len <= 9; ++len) {
    for (std::size_t start = 0; start + len <= buffer.size(); ++start) {
      for (int round = 0; round < 20; ++round) {
        for (auto& x : buffer) x = kinds[gen() % kinds.size()];
        const std::span<const double> in(buffer.data() + start, len);
        exp_batch(in, std::span<double>(out.data() + start, len));
        for (std::size_t i = 0; i < len; ++i) {
          const double want = libm_exp(in[i]);
          ASSERT_EQ(std::memcmp(&out[start + i], &want, sizeof want), 0)
              << "exp(" << hex(in[i]) << ") at " << i << " of " << len;
        }
      }
    }
  }
}

TEST(LibmExp, EveryMixOfLaneKindsMatches) {
  // All 15^4 four-lane blocks of lane kinds, so each block position sees
  // every kind next to every other one, in and out of place.
  const std::vector<double> kinds = lane_kinds();
  const std::size_t m = kinds.size();
  std::vector<double> xs;
  xs.reserve(4 * m * m * m * m);
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      for (std::size_t c = 0; c < m; ++c)
        for (std::size_t d = 0; d < m; ++d)
          for (const std::size_t k : {a, b, c, d}) xs.push_back(kinds[k]);
  expect_matches_libm(xs);
  expect_in_place_matches_libm(xs);
}

TEST(LibmExp, SeededWindowExponentsMatch) {
  // The smoother's mix: −z² with most lanes on the main path, a share at or
  // below −1024 and a few in (−1024, −512], shuffled so that blocks mix
  // them; checked out of place and in place.
  std::mt19937_64 gen(20261021);
  std::uniform_real_distribution<double> main_path(-511.0, -0x1p-50);
  std::uniform_real_distribution<double> special(-1023.999, -512.0);
  std::uniform_real_distribution<double> underflow(-1e6, -1024.0);
  std::vector<double> xs(1 << 18);
  for (auto& x : xs) {
    const auto pick = gen() % 100;
    x = pick < 40 ? underflow(gen) : pick < 48 ? special(gen) : main_path(gen);
  }
  expect_matches_libm(xs);
  expect_in_place_matches_libm(xs);
}

}  // namespace
}  // namespace tscclock
