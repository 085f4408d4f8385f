#include "common/serialize.hpp"

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
  // Fast path for what format_double_exact writes for finite values:
  // [-]0x, then a hex digit or '.'. from_chars reads the rest with strtod's
  // hexfloat grammar and rounding; whatever it leaves unread or reports out
  // of range goes to strtod below, so edge cases keep strtod's answer.
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
