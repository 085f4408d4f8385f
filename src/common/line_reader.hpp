// Streaming, offset-tracking line reader shared by every line-oriented
// artifact format (traces, shard result dumps, checkpoints, trace CSVs).
//
// The file is read in fixed-size chunks into one reused buffer, so memory
// is bounded by the chunk size plus the longest line, not by the file size,
// and handing out a line allocates nothing. What a format does with an
// unterminated final line is the caller's policy: the reader only reports it
// as torn() and never returns it as content, because a final line without
// its newline is exactly the kill-mid-write signature.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace tscclock {

class LineReader {
 public:
  /// Opens `path` for reading. Never throws: check is_open(), then
  /// failed() whenever next_line() returns false.
  explicit LineReader(const std::string& path);
  ~LineReader();
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  [[nodiscard]] bool is_open() const { return file_ != nullptr; }

  /// Next complete ('\n'-terminated) line, without the newline. The view
  /// stays valid until the next call. Returns false at the end of the
  /// complete content, on a trailing unterminated fragment (torn()), or on
  /// a read error (failed()); once false, it stays false.
  bool next_line(std::string_view& line);

  /// Byte offset just past the newline of the last line returned.
  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  /// The file ends in bytes with no terminating newline.
  [[nodiscard]] bool torn() const { return torn_; }
  /// The stream failed mid-read (a directory, an I/O error).
  [[nodiscard]] bool failed() const { return !error_.empty(); }
  /// Why the read failed (strerror text), empty unless failed().
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  /// Read one more chunk behind the unconsumed bytes; false at EOF or on
  /// error.
  bool refill();

  std::FILE* file_ = nullptr;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  ///< first unconsumed byte in buffer_
  std::size_t end_ = 0;    ///< one past the last valid byte in buffer_
  std::uint64_t offset_ = 0;
  bool eof_ = false;
  bool torn_ = false;
  std::string error_;
};

}  // namespace tscclock
