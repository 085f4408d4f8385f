#include "common/serialize.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace tscclock {

std::string_view format_double_exact(double value,
                                     ExactDoubleBuffer& buffer) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  // %a hexfloat: the shortest exact representation strtod round-trips to
  // the identical bits on every IEEE-754 platform. (%.17g would round-trip
  // too, but hexfloat cannot even be mis-rounded by a sloppy libc.)
  const int length = std::snprintf(buffer.data(), buffer.size(), "%a", value);
  return {buffer.data(), static_cast<std::size_t>(length)};
}

std::string format_double_exact(double value) {
  ExactDoubleBuffer buffer;
  return std::string(format_double_exact(value, buffer));
}

namespace {

bool is_hex_digit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

/// Value of each hex digit character; kNotHex for every other character.
constexpr std::uint8_t kNotHex = 0xff;
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kNotHex);
  for (int c = '0'; c <= '9'; ++c)
    table[c] = static_cast<std::uint8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c)
    table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
  for (int c = 'A'; c <= 'F'; ++c)
    table[c] = static_cast<std::uint8_t>(c - 'A' + 10);
  return table;
}();

/// What format_double_exact writes for a normal double, [-]0x1[.h{1,13}]p±d
/// with d in [−1022, 1023], and for zero, [-]0x0p±d, decoded straight to the
/// bits: each such text spells one double exactly, the one strtod returns.
/// False, with `value` untouched, for any other text.
bool parse_canonical_hexfloat(std::string_view text, double& value) {
  std::uint64_t bits = 0;
  std::size_t pos = 0;
  if (!text.empty() && text[0] == '-') {
    bits = std::uint64_t{1} << 63;
    pos = 1;
  }
  // The shortest canonical text is "0x1p+0".
  if (text.size() < pos + 6 || text[pos] != '0' || text[pos + 1] != 'x')
    return false;
  const char lead = text[pos + 2];
  if (lead != '0' && lead != '1') return false;
  pos += 3;
  std::uint64_t fraction = 0;
  if (lead == '1' && text[pos] == '.') {
    std::size_t digits = 0;
    for (++pos; pos < text.size() && digits <= 13; ++pos, ++digits) {
      const std::uint8_t v = kHexValue[static_cast<unsigned char>(text[pos])];
      if (v == kNotHex) break;
      fraction = fraction << 4 | v;
    }
    if (digits == 0 || digits > 13) return false;
    fraction <<= 4 * (13 - digits);
  }
  if (text.size() < pos + 3 || text[pos] != 'p' ||
      (text[pos + 1] != '+' && text[pos + 1] != '-'))
    return false;
  const bool negative_exponent = text[pos + 1] == '-';
  pos += 2;
  if (text.size() - pos > 4) return false;
  int exponent = 0;
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c < '0' || c > '9') return false;
    exponent = exponent * 10 + (c - '0');
  }
  if (negative_exponent) exponent = -exponent;
  if (lead == '1') {
    if (exponent < -1022 || exponent > 1023) return false;
    bits |= static_cast<std::uint64_t>(exponent + 1023) << 52 | fraction;
  }
  value = std::bit_cast<double>(bits);
  return true;
}

/// strtod over the whole of `text`: true when it converts every character.
/// strtod needs NUL termination, so the text is copied — onto the stack
/// when it fits, which every number field of the repo's formats does.
bool strtod_whole(std::string_view text, double& value) {
  char stack[64];
  std::string heap;
  const char* begin = stack;
  if (text.size() < sizeof stack) {
    std::memcpy(stack, text.data(), text.size());
    stack[text.size()] = '\0';
  } else {
    heap.assign(text);
    begin = heap.c_str();
  }
  char* end = nullptr;
  value = std::strtod(begin, &end);
  return end == begin + text.size();
}

}  // namespace

double parse_double_exact(std::string_view text) {
  if (text.empty()) throw std::runtime_error("empty number field");
  double canonical = 0;
  if (parse_canonical_hexfloat(text, canonical)) return canonical;
  // Other hexfloats, [-]0x then a hex digit or '.' (subnormals among them):
  // from_chars reads the rest with strtod's hexfloat grammar and rounding;
  // whatever it leaves unread or reports out of range goes to strtod below,
  // so edge cases keep strtod's answer.
  const bool negative = text.front() == '-';
  const std::string_view body = text.substr(negative ? 1 : 0);
  if (body.size() > 2 && body[0] == '0' && body[1] == 'x' &&
      (is_hex_digit(body[2]) || body[2] == '.')) {
    const char* last = body.data() + body.size();
    double magnitude = 0;
    const auto [ptr, ec] = std::from_chars(body.data() + 2, last, magnitude,
                                           std::chars_format::hex);
    if (ec == std::errc() && ptr == last) {
      return negative ? -magnitude : magnitude;
    }
  }
  double value = 0;
  if (!strtod_whole(text, value)) {
    throw std::runtime_error("malformed number '" + std::string(text) + "'");
  }
  return value;
}

std::uint64_t parse_u64_exact(std::string_view text) {
  if (text.empty()) throw std::runtime_error("empty integer field");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::runtime_error("malformed integer '" + std::string(text) +
                               "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::runtime_error("integer overflow in '" + std::string(text) +
                               "'");
    }
    value = value * 10 + digit;
  }
  return value;
}

std::string escape_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string unescape_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (i + 1 >= text.size()) {
      throw std::runtime_error("dangling backslash in field '" +
                               std::string(text) + "'");
    }
    switch (text[++i]) {
      case '\\':
        out += '\\';
        break;
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        throw std::runtime_error("unknown escape '\\" +
                                 std::string(1, text[i]) + "' in field '" +
                                 std::string(text) + "'");
    }
  }
  return out;
}

std::vector<std::string> split_fields(std::string_view line, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      return fields;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace tscclock
