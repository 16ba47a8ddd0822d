// The v1 checkpoint codec. A checkpoint is whitespace-separated text:
// a header "iotax-<family> 1", then keyword-led lines of values printed
// at precision 17. Regressor::load reads the outer header and hands one
// CheckpointReader to the family's read(). The reader extracts each
// value with the stream's own operator>>; a count from the file never
// sizes a vector up front (vectors grow as their values are read, so a
// lying count costs what the file holds, not what it claims); and every
// rejection is a CheckpointError naming the source and a util::Reason.
#pragma once

#include <cstddef>
#include <istream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/data/scaler.hpp"
#include "src/util/quarantine.hpp"

namespace iotax::ml {

/// A rejected checkpoint: what() names the source and the defect,
/// reason() classifies it.
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(util::Reason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  util::Reason reason() const { return reason_; }

 private:
  util::Reason reason_;
};

class CheckpointReader {
 public:
  /// `source` names the stream in every rejection ("" for none).
  CheckpointReader(std::istream& in, std::string source)
      : in_(in), source_(std::move(source)) {}

  /// The next token, or "" at the end of the stream (the outer magic).
  const std::string& token();
  /// The version after a magic; anything but 1 is bad-version.
  void version();
  /// A nested section header: the token must be `magic`, then version().
  void header(const char* magic);
  /// The next token must be `keyword` (a string literal).
  CheckpointReader& expect(const char* keyword);

  /// One value: one that does not parse is bad-number, the end of the
  /// stream is truncated.
  template <typename T>
  CheckpointReader& operator>>(T& value) {
    if (!(in_ >> value)) fail_read();
    return *this;
  }

  /// Replace `out` with `count` values, grown as they are read.
  template <typename T>
  CheckpointReader& values(std::size_t count, std::vector<T>& out) {
    out.clear();
    T value{};
    for (std::size_t i = 0; i < count; ++i) {
      *this >> value;
      out.push_back(value);
    }
    return *this;
  }

  /// The "scaler <n>" block: n means, then n stddevs.
  data::StandardScaler scaler();

  /// Run `build` (a params validate(), a validating constructor or a
  /// from_params), turning the std::invalid_argument it throws for an
  /// out-of-range value into a bad-number rejection.
  template <typename F>
  auto checked(F&& build) -> decltype(build()) {
    try {
      return build();
    } catch (const std::invalid_argument& err) {
      fail(util::Reason::kBadNumber, err.what());
    }
  }

  /// Throw CheckpointError "<source>: <reason>: <what>".
  [[noreturn]] void fail(util::Reason reason, const std::string& what) const;

 private:
  [[noreturn]] void fail_read() const;

  std::istream& in_;
  std::string source_;
  std::string token_;
  // The magic of the section being read and the last keyword met in
  // it, for the diagnostic of a failed read.
  std::string section_;
  const char* keyword_ = "";
};

/// Start a section: "<magic> 1", with every later value of the stream
/// printed at precision 17, which round-trips a double exactly.
void write_header(std::ostream& out, const char* magic);

/// Write `scaler` as the block CheckpointReader::scaler() reads.
void write_scaler(std::ostream& out, const data::StandardScaler& scaler);

}  // namespace iotax::ml
