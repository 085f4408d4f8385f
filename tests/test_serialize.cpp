// common/serialize's exact double round trip. parse_double_exact decodes
// the canonical hexfloats format_double_exact writes for normal doubles and
// zero straight to their bits, takes a from_chars path for other hexfloats,
// and must still accept exactly what a whole-text strtod accepts and return
// the identical bits. Pinned against a plain strtod reference over random bit
// patterns, random long hex mantissas (rounding, subnormals, overflow), and
// an edge corpus of prefixes, signs, spacing and trailing garbage.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace tscclock {
namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double from_bits(std::uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

struct Outcome {
  bool accepted = false;
  std::uint64_t bits = 0;
};

/// The reference: strtod over the whole text (empty refused), exactly the
/// contract parse_double_exact documents.
Outcome strtod_reference(const std::string& text) {
  if (text.empty()) return {};
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return {};
  return {true, bits_of(value)};
}

Outcome parsed(const std::string& text) {
  try {
    return {true, bits_of(parse_double_exact(text))};
  } catch (const std::runtime_error&) {
    return {};
  }
}

void expect_parity(const std::string& text) {
  const Outcome want = strtod_reference(text);
  const Outcome got = parsed(text);
  EXPECT_EQ(got.accepted, want.accepted) << "'" << text << "'";
  if (got.accepted && want.accepted) {
    EXPECT_EQ(got.bits, want.bits) << "'" << text << "'";
  }
}

TEST(ParseDoubleExact, RandomBitPatternsRoundTripAndMatchStrtod) {
  std::mt19937_64 rng(20040601);
  for (int i = 0; i < 200000; ++i) {
    const double value = from_bits(rng());
    const std::string text = format_double_exact(value);
    ExactDoubleBuffer buffer;
    ASSERT_EQ(format_double_exact(value, buffer), text);
    expect_parity(text);
    if (value == value) {  // NaN payloads are not part of the contract
      ASSERT_EQ(bits_of(parse_double_exact(text)), bits_of(value)) << text;
    }
  }
}

TEST(ParseDoubleExact, MillionFormattedDoublesRoundTripBitExact) {
  // Every kind of finite double format_double_exact writes: random bit
  // patterns (nearly all normal), subnormals, mantissas with every number
  // of trailing zero digits (1..13 digits after the point, or none), and
  // the extremes. Each must come back bit for bit, as strtod reads it.
  std::mt19937_64 rng(20261021);
  const double max = std::numeric_limits<double>::max();
  const double min_normal = std::numeric_limits<double>::min();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,         -0.0,        max,   -max,
                                min_normal,  -min_normal, denorm, -denorm,
                                min_normal - denorm, 1.0, -1.0, 0x1p1023,
                                0x1p-1022,   0x1.fffffffffffffp+0};
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    switch (i % 4) {
      case 0:
        values.push_back(from_bits(bits));
        break;
      case 1:  // subnormal
        values.push_back(from_bits((bits & (std::uint64_t{1} << 63)) |
                                   (bits & ((std::uint64_t{1} << 52) - 1))));
        break;
      default: {  // a random number of trailing zero hex digits
        const int zeros = static_cast<int>(rng() % 14);
        const std::uint64_t mantissa =
            zeros == 13 ? 0 : (bits & ((std::uint64_t{1} << 52) - 1)) >>
                                  (4 * zeros) << (4 * zeros);
        values.push_back(from_bits((bits & ~((std::uint64_t{1} << 52) - 1)) |
                                   mantissa));
      }
    }
  }
  std::size_t mismatches = 0;
  for (const double value : values) {
    if (!std::isfinite(value)) continue;
    const std::string text = format_double_exact(value);
    const std::uint64_t got = bits_of(parse_double_exact(text));
    if (got != bits_of(value) || got != strtod_reference(text).bits) {
      if (++mismatches <= 5) ADD_FAILURE() << text;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ParseDoubleExact, NonCanonicalHexSpellingsMatchStrtod) {
  // Spellings of the same values that the canonical decoder must refuse
  // and hand on: other leading digits, uppercase, padded or unsigned
  // exponents, too many digits, an empty fraction, zero with a fraction,
  // and exponents outside the normal range.
  const std::vector<std::string> corpus = {
      "0x2p+0",          "0x0.8p+1",          "0x10p-4",
      "0x1.8P+3",        "0X1.8p+3",          "0x1.ABCp+3",
      "0x1.abc0p+3",     "0x1.8p3",           "0x01.8p+3",
      "0x1.8p+0003",     "0x1.8p+00003",      "+0x1.8p+3",
      "0x1.p+3",         "0x1.00000000000000p+0",
      "0x1.fffffffffffff0p+0",                "0x1.fffffffffffff8p+0",
      "0x0.0p+0",        "-0x0p-5",           "0x0p+99999",
      "0x1p-1023",       "0x1.8p-1074",       "0x1p+1024",
      "0x1p-1022",       "0x1p+1023",         "-0x1.fffffffffffffp+1023",
      "0x1p+0 ",         "0x1p+",             "0x1.8p+3x",
      "0x1.gp+0",        "0x1p+1e3",          "-0x",
      "0x1.0000000000001p+0",                 "0x1.00000000000001p+0"};
  for (const auto& text : corpus) {
    SCOPED_TRACE(text);
    expect_parity(text);
  }
}

TEST(ParseDoubleExact, RandomLongHexMantissasMatchStrtod) {
  // More hex digits than a double holds, binary points anywhere and
  // exponents from deep subnormal to overflow: the rounding, underflow and
  // overflow cases from_chars and strtod must agree on (or hand back).
  std::mt19937_64 rng(1607354097);
  const char* digits = "0123456789abcdefABCDEF";
  for (int i = 0; i < 100000; ++i) {
    std::string text = rng() % 2 ? "-0x" : "0x";
    const int count = 1 + static_cast<int>(rng() % 24);
    const int point = static_cast<int>(rng() % (count + 2)) - 1;
    for (int d = 0; d < count; ++d) {
      if (d == point) text += '.';
      // Bias towards runs of 0 and f, where ties and carries live.
      const std::uint64_t pick = rng() % 4;
      text += pick == 0 ? '0' : pick == 1 ? 'f' : digits[rng() % 22];
    }
    if (rng() % 8 != 0) {
      const long exponent = static_cast<long>(rng() % 2300) - 1150;
      text += rng() % 2 ? 'p' : 'P';
      text += std::to_string(exponent);
    }
    expect_parity(text);
  }
}

TEST(ParseDoubleExact, EdgeCorpusMatchesStrtod) {
  const double max = std::numeric_limits<double>::max();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<std::string> corpus = {
      // Signed zeros, denormals, extremes, non-finite spellings.
      "0", "-0", "0x0p+0", "-0x0p+0", format_double_exact(denorm),
      format_double_exact(-denorm),
      format_double_exact(std::numeric_limits<double>::min() - denorm),
      format_double_exact(std::numeric_limits<double>::min()),
      format_double_exact(max), format_double_exact(-max), "inf", "-inf",
      "nan", "-nan", "infinity", "NAN", "+inf",
      // Prefix, sign and spacing variants.
      "0x", "-0x", "0x.p1", "0x.", "0x1.", "0x.8", "+0x1p0", " 0x1p0",
      "\t0x1p0", "0X1P0", "0x1P0", "0Xap0", "0x1p", "0x1p+", "0x1p-",
      "0x-1p0", "-0x-1p0", "0x+1p0", "--0x1p0", "-", "+", "", "0xG",
      "0xg1p0",
      // Rounding at the 53-bit boundary, underflow and overflow.
      "-0x1p-1075", "0x1p-1075", "0x1.8p-1074", "0x1p-1074", "0x1p-1076",
      "0x1.00000000000008p0", "0x1.00000000000018p0",
      "0x1.000000000000080000001p0", "0x1.fffffffffffff8p+1023",
      "0x1.fffffffffffff7ffp+1023", "0x1p1024", "0x1p99999", "0x1p-99999",
      "0x0.0000000000001p-1022", "0x0.00000000000008p-1022",
      "0x1p+00000000000000000000001",
      // Decimal, which always takes the strtod path.
      "1e5", "1.5", "-2.5e-3", "1e400", "1e-400", "0.1",
      // Trailing garbage and embedded separators.
      "0x1p0garbage", "0x1p0 ", "0x1.8p+0\t", "0x1p0x", "1e5 ", "nan1",
      std::string("0x1p0\0", 6), std::string("0x1\0p0", 6),
      // Longer than the parser's stack copy.
      "0x1." + std::string(80, '0') + "1p0",
      "1." + std::string(100, '0') + "1",
      std::string(70, ' ') + "0x1p0"};
  for (const auto& text : corpus) {
    SCOPED_TRACE(text);
    expect_parity(text);
  }
}

TEST(ParseDoubleExact, ErrorTextsAreUnchanged) {
  try {
    parse_double_exact("");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "empty number field");
  }
  try {
    parse_double_exact("0x1p0garbage");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "malformed number '0x1p0garbage'");
  }
}

}  // namespace
}  // namespace tscclock
