// iotax repo benchmark: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//   perfbench --list-metrics
//
// Generates the workload's inputs from the seed, sets up and measures
// it, checks every answer, and prints one JSON result line last on
// stdout: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a separate traced run (the program's obs spans and counters
// on) after a human-readable per-layer report. Exits non-zero when an
// output check fails. run.py builds this binary and passes --work-dir;
// --list-metrics prints the metric names and units for run.py to
// compare with BENCHMARK.json.
#include <stdlib.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "perfbench/harness.hpp"
#include "src/ml/kernels/dispatch.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

/// IOTAX_THREADS for every workload, recorded in BENCHMARK.json. Each
/// parallel region wakes the pool's workers, and a wake-up on a shared
/// VM takes anywhere from microseconds to milliseconds: at two threads
/// the daemon's closed-loop rate spread 33% across seeds (8-13% at one)
/// and identical pack_train runs +-15% (+-9% at one). At one thread the
/// daemon's batcher predicts inline.
constexpr const char* kThreads = "1";

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

Result serve_direct(const Options& o) { return perfbench::run_serve(o, false); }
Result serve_routed(const Options& o) { return perfbench::run_serve(o, true); }

constexpr Workload kWorkloads[] = {
    {"taxonomy", perfbench::run_taxonomy},
    {"pack_train", perfbench::run_pack_train},
    {"serve_direct", serve_direct},
    {"serve_routed", serve_routed},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload taxonomy|pack_train|serve_direct|"
               "serve_routed --seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

unsigned long long parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = parse_number("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto s = parse_number("--seconds", value);
      if (s < 1 || s > 600) usage("--seconds must lie in [1, 600]");
      opts.seconds = static_cast<int>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      const auto t = parse_number("--trace", value);
      if (t > 1) usage("--trace must be 0 or 1");
      opts.trace = t == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      opts.work_dir.empty()) {
    usage("--workload, --seed, --seconds, --trace and --work-dir are required");
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    std::printf("%s\n", perfbench::metric_tables_json().c_str());
    return 0;
  }
  const Options opts = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + opts.workload).c_str());

  ::setenv("IOTAX_THREADS", kThreads, 1);
  ::unsetenv("IOTAX_OBS");
  ::unsetenv("IOTAX_OOC");
  // The kernels dispatch by their default policy: the fastest tier the
  // build and the CPU both have.
  ::unsetenv("IOTAX_KERNELS");
  ::unsetenv("IOTAX_FAST_MATH");
  namespace kernels = iotax::ml::kernels;
  kernels::refresh();
  std::printf("kernels: %s\n", kernels::describe().c_str());
  try {
    Result result = workload->run(opts);
    result.check(!kernels::avx2_supported() ||
                     kernels::active_tier() == kernels::Tier::kAvx2,
                 "the CPU has AVX2 but the kernels dispatch to " +
                     kernels::describe());
    if (opts.trace) {
      std::printf("trace written to %s\n", perfbench::write_trace(opts).c_str());
    }
    return result.finish(opts.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
}
