#include "src/ml/checkpoint.hpp"

#include <ostream>
#include <utility>

namespace iotax::ml {

constexpr int kVersion = 1;

const std::string& CheckpointReader::token() {
  if (!(in_ >> token_)) token_.clear();
  return token_;
}

void CheckpointReader::version() {
  section_ = token_;
  keyword_ = "";
  int version = 0;
  if (!(in_ >> version) && in_.eof()) fail_read();
  if (version != kVersion) {
    fail(util::Reason::kBadVersion, section_ + " version is not " +
                                        std::to_string(kVersion));
  }
}

void CheckpointReader::header(const char* magic) {
  if (token() != magic) {
    fail(in_ ? util::Reason::kBadMagic : util::Reason::kTruncated,
         "expected a '" + std::string(magic) + "' section, got '" + token_ +
             "'");
  }
  version();
}

CheckpointReader& CheckpointReader::expect(const char* keyword) {
  if (!(in_ >> token_)) fail_read();
  if (token_ != keyword) {
    fail(util::Reason::kMalformedLine, section_ + ": expected '" + keyword +
                                           "', got '" + token_ + "'");
  }
  keyword_ = keyword;
  return *this;
}

data::StandardScaler CheckpointReader::scaler() {
  std::size_t n = 0;
  expect("scaler") >> n;
  std::vector<double> means;
  std::vector<double> stddevs;
  values(n, means).values(n, stddevs);
  return checked([&] {
    return data::StandardScaler::from_params(std::move(means),
                                             std::move(stddevs));
  });
}

void CheckpointReader::fail(util::Reason reason,
                            const std::string& what) const {
  throw CheckpointError(reason, (source_.empty() ? "" : source_ + ": ") +
                                    util::reason_name(reason) + ": " + what);
}

void CheckpointReader::fail_read() const {
  const std::string after =
      *keyword_ != '\0' ? " after '" + std::string(keyword_) + "'" : "";
  if (in_.eof()) fail(util::Reason::kTruncated, section_ + " ends" + after);
  fail(util::Reason::kBadNumber,
       section_ + ": a value" + after + " does not parse");
}

void write_header(std::ostream& out, const char* magic) {
  out.precision(17);
  out << magic << ' ' << kVersion << '\n';
}

void write_scaler(std::ostream& out, const data::StandardScaler& scaler) {
  out << "scaler " << scaler.means().size() << '\n';
  for (const double m : scaler.means()) out << m << ' ';
  out << '\n';
  for (const double s : scaler.stddevs()) out << s << ' ';
  out << '\n';
}

}  // namespace iotax::ml
