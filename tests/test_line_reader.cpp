// The shared streaming line reader (common/line_reader.hpp): lines end at
// '\n' only, a final line without its newline is torn and never returned,
// offsets are byte-exact (the checkpoint loader truncates at them), lines
// longer than a read chunk and lines straddling chunks come back whole, and
// unopenable or unreadable paths are told apart from a short file.
#include "common/line_reader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace tscclock {
namespace {

namespace fs = std::filesystem;

fs::path write_temp(const std::string& name, const std::string& content) {
  const fs::path path = fs::temp_directory_path() / ("tscclock_lines_" + name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

/// Every line the reader returns, plus the offset after each one.
struct Drained {
  std::vector<std::string> lines;
  std::vector<std::uint64_t> offsets;
  bool torn = false;
  bool failed = false;
};

Drained drain(const fs::path& path) {
  LineReader reader(path.string());
  EXPECT_TRUE(reader.is_open()) << path;
  Drained out;
  std::string_view line;
  while (reader.next_line(line)) {
    out.lines.emplace_back(line);
    out.offsets.push_back(reader.offset());
  }
  // Once false, it stays false.
  EXPECT_FALSE(reader.next_line(line));
  out.torn = reader.torn();
  out.failed = reader.failed();
  return out;
}

TEST(LineReader, SplitsAtNewlinesWithExactOffsets) {
  const auto path = write_temp("plain", "alpha\n\nbeta gamma\n");
  const Drained d = drain(path);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"alpha", "", "beta gamma"}));
  EXPECT_EQ(d.offsets, (std::vector<std::uint64_t>{6, 7, 18}));
  EXPECT_FALSE(d.torn);
  EXPECT_FALSE(d.failed);
  fs::remove(path);
}

TEST(LineReader, EmptyFileHasNoLinesAndIsNotTorn) {
  const auto path = write_temp("empty", "");
  const Drained d = drain(path);
  EXPECT_TRUE(d.lines.empty());
  EXPECT_FALSE(d.torn);
  EXPECT_FALSE(d.failed);
  fs::remove(path);
}

TEST(LineReader, MissingFinalNewlineIsTornNotContent) {
  const auto path = write_temp("torn", "one\ntwo");
  const Drained d = drain(path);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"one"}));
  EXPECT_EQ(d.offsets.back(), 4u);
  EXPECT_TRUE(d.torn);
  EXPECT_FALSE(d.failed);
  fs::remove(path);
}

TEST(LineReader, CarriageReturnIsContent) {
  const auto path = write_temp("crlf", "one\r\ntwo\r\n");
  const Drained d = drain(path);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"one\r", "two\r"}));
  EXPECT_EQ(d.offsets, (std::vector<std::uint64_t>{5, 10}));
  EXPECT_FALSE(d.torn);
  fs::remove(path);
}

TEST(LineReader, LinesLongerThanAndStraddlingReadChunks) {
  // A 200 KiB line (longer than one read chunk) between short ones, then
  // many mid-sized lines so that line boundaries fall inside chunks.
  std::string content = "head\n" + std::string(200 * 1024, 'x') + "\ntail\n";
  std::vector<std::string> want = {"head", std::string(200 * 1024, 'x'),
                                   "tail"};
  for (int i = 0; i < 3000; ++i) {
    want.push_back(std::to_string(i) + std::string(i % 97, 'y'));
    content += want.back() + "\n";
  }
  const auto path = write_temp("long", content);
  const Drained d = drain(path);
  EXPECT_EQ(d.lines, want);
  EXPECT_EQ(d.offsets.back(), content.size());
  EXPECT_FALSE(d.torn);
  fs::remove(path);
}

TEST(LineReader, UnopenableAndUnreadablePaths) {
  LineReader missing(
      (fs::temp_directory_path() / "tscclock_lines_does_not_exist").string());
  EXPECT_FALSE(missing.is_open());
  std::string_view line;
  EXPECT_FALSE(missing.next_line(line));

  // A directory opens on POSIX but fails on the first read.
  const fs::path dir = fs::temp_directory_path() / "tscclock_lines_dir";
  fs::create_directories(dir);
  LineReader reader(dir.string());
  if (reader.is_open()) {
    EXPECT_FALSE(reader.next_line(line));
    EXPECT_TRUE(reader.failed());
    EXPECT_FALSE(reader.error().empty());
    EXPECT_FALSE(reader.torn());
  }
  fs::remove(dir);
}

}  // namespace
}  // namespace tscclock
