#include "common/line_reader.hpp"

#include <cerrno>
#include <cstring>

namespace tscclock {

namespace {

/// Read size, and the initial buffer size: a line longer than this grows
/// the buffer to fit it.
constexpr std::size_t kChunkBytes = 64 * 1024;

}  // namespace

LineReader::LineReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")) {
  if (file_ == nullptr) return;
  // Unbuffered stdio: buffer_ is the only buffer, so fread goes straight to
  // the file instead of copying through a second one.
  std::setvbuf(file_, nullptr, _IONBF, 0);
  buffer_.resize(kChunkBytes);
}

LineReader::~LineReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool LineReader::next_line(std::string_view& line) {
  if (file_ == nullptr) return false;
  std::size_t scanned = begin_;  // bytes before this hold no newline
  for (;;) {
    const void* newline =
        std::memchr(buffer_.data() + scanned, '\n', end_ - scanned);
    if (newline != nullptr) {
      const std::size_t at =
          static_cast<std::size_t>(static_cast<const char*>(newline) -
                                   buffer_.data());
      line = std::string_view(buffer_.data() + begin_, at - begin_);
      offset_ += at + 1 - begin_;
      begin_ = at + 1;
      return true;
    }
    const std::size_t pending = end_ - begin_;
    if (!refill()) {
      torn_ = pending > 0 && !failed();
      return false;
    }
    scanned = pending;  // refill moved the pending bytes to the front
  }
}

bool LineReader::refill() {
  if (eof_ || failed()) return false;
  const std::size_t pending = end_ - begin_;
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, pending);
    begin_ = 0;
    end_ = pending;
  }
  if (end_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
  const std::size_t got =
      std::fread(buffer_.data() + end_, 1, buffer_.size() - end_, file_);
  if (std::ferror(file_)) {
    error_ = std::strerror(errno);
    return false;
  }
  if (got == 0) {
    eof_ = true;
    return false;
  }
  end_ += got;
  return true;
}

}  // namespace tscclock
