// iotax_check_bench CURRENT BASELINE: holds a bench harness's report
// to its committed baseline (bench/bench_report.hpp has the schema and
// the rules). Prints one line per skipped and per failed gate, then a
// verdict; exits 1 when a gate fails or a file cannot be read.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench/bench_report.hpp"

namespace {

iotax::util::Json read_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return iotax::util::Json::parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: iotax_check_bench CURRENT BASELINE\n");
    return 1;
  }
  try {
    const auto res = iotax::bench::check_report(read_report(argv[1]),
                                                read_report(argv[2]));
    for (const auto& w : res.warnings) {
      std::printf("check_bench: SKIP %s\n", w.c_str());
    }
    for (const auto& f : res.failures) {
      std::printf("check_bench: FAIL %s\n", f.line.c_str());
    }
    std::printf("check_bench: %s %s (%zu gates evaluated, %zu skipped, "
                "%zu failures)\n",
                res.failures.empty() ? "PASS" : "FAIL", argv[1],
                res.evaluated, res.warnings.size(), res.failures.size());
    return res.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check_bench: %s\n", e.what());
    return 1;
  }
}
