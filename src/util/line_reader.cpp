#include "src/util/line_reader.hpp"

#include <cstring>
#include <istream>

namespace iotax::util {

bool LineReader::next(std::string_view* line) {
  std::size_t scan = begin_;  // [begin_, scan) holds no '\n'
  for (;;) {
    const char* data = buf_.data();
    const void* nl =
        scan < end_ ? std::memchr(data + scan, '\n', end_ - scan) : nullptr;
    std::size_t stop = 0;
    if (nl != nullptr) {
      stop = static_cast<std::size_t>(static_cast<const char*>(nl) - data);
    } else if (!eof_) {
      scan = end_ - begin_;
      fill();
      continue;
    } else if (begin_ < end_) {
      stop = end_;  // the final line has no '\n'
    } else {
      return false;
    }
    std::size_t len = stop - begin_;
    if (len > 0 && data[begin_ + len - 1] == '\r') --len;
    *line = std::string_view(data + begin_, len);
    begin_ = stop < end_ ? stop + 1 : end_;
    ++line_no_;
    return true;
  }
}

void LineReader::fill() {
  const std::size_t pending = end_ - begin_;
  if (begin_ > 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, pending);
    begin_ = 0;
    end_ = pending;
  }
  if (buf_.size() < pending + kChunkBytes) buf_.resize(pending + kChunkBytes);
  in_.read(buf_.data() + end_, static_cast<std::streamsize>(kChunkBytes));
  const auto got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  // istream::read stops short only at the end of the input (or on a
  // stream error, which std::getline would also stop at).
  if (got < kChunkBytes) eof_ = true;
}

}  // namespace iotax::util
