// Chunked line reader shared by the text parsers (dataset CSV, darshan
// text archives).
//
// It reads a std::istream in fixed 64 KiB chunks — the chunk size the
// log tailer and the serve event loop already use — and hands out each
// line as a view into its own buffer, so a parser touches every byte
// once and allocates nothing per line. Line boundaries are exactly
// std::getline's (a final line without '\n' still counts; an empty
// stream has none), with one trailing '\r' dropped so CRLF input reads
// like LF. The buffer holds at most one chunk plus the longest line, so
// a multi-GB archive is read in bounded memory.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace iotax::util {

class LineReader {
 public:
  /// Bytes asked of the stream per read.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

  explicit LineReader(std::istream& in) : in_(in) {}

  /// The next line, without its '\n' and one trailing '\r'; false at the
  /// end of the input. The view is valid until the next call.
  bool next(std::string_view* line);

  /// 1-based number of the line last returned, as std::getline counts.
  std::size_t line_no() const { return line_no_; }

 private:
  /// Move the unread bytes to the front and append up to one chunk.
  void fill();

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // [begin_, end_) is read but not handed out
  std::size_t end_ = 0;
  std::size_t line_no_ = 0;
  bool eof_ = false;
};

}  // namespace iotax::util
