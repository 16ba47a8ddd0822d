// Log pipeline round-trip: what a production deployment of this tooling
// looks like. The simulator stands in for the machine; everything after
// the archive is written works purely from files, exactly as a site
// analysing real darshan-parser output would:
//
//   simulate -> write job-log archive (text) -> parse archive ->
//   rebuild dataset -> save as CSV -> reload -> litmus test.
//
//   $ ./example_log_roundtrip [output_dir]
#include <cstdio>
#include <filesystem>

#include "src/data/table_io.hpp"
#include "src/ml/metrics.hpp"
#include "src/sim/dataset_builder.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/litmus.hpp"
#include "src/telemetry/darshan_log.hpp"

int main(int argc, char** argv) {
  using namespace iotax;
  const std::filesystem::path dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() / "iotax";
  std::filesystem::create_directories(dir);

  // The "machine": run it and persist its telemetry, then forget it.
  const auto res = sim::simulate(sim::tiny_system(21));
  const auto archive = (dir / "jobs.darshan.txt").string();
  telemetry::write_archive(archive, res.records);
  std::printf("wrote %zu job records to %s (%.1f KiB)\n", res.records.size(),
              archive.c_str(),
              static_cast<double>(std::filesystem::file_size(archive)) /
                  1024.0);

  // The "analysis site": parse logs leniently, report corrupt records.
  const auto parsed = telemetry::parse_archive_file_outcome(
      archive, telemetry::ParseMode::kLenient);
  const auto stats = parsed.stats();
  std::printf("parsed %zu records (%zu skipped as corrupt)\n", stats.parsed,
              stats.skipped);

  // Rebuild the model dataset from parsed logs only (no ground truth).
  const auto ds = sim::build_dataset(parsed.records, nullptr, "from-logs");
  std::printf("rebuilt dataset: %zu jobs x %zu features\n", ds.size(),
              ds.features.n_cols());

  // Persist and reload as CSV.
  const auto csv = (dir / "dataset.csv").string();
  data::write_dataset_csv(csv, ds);
  const auto reloaded = data::read_dataset_csv(csv, "from-logs");
  reloaded.validate();
  std::printf("CSV round-trip OK: %s\n", csv.c_str());

  // Run a litmus test on the file-derived dataset: the duplicate-set
  // application-modeling bound needs no ground truth at all.
  const auto bound = taxonomy::litmus_application_bound(reloaded);
  std::printf("application-modeling bound from logs: %.2f%% median error "
              "(%zu duplicate sets, %.1f%% of jobs)\n",
              ml::log_error_to_percent(bound.median_abs_error),
              bound.stats.n_sets,
              bound.stats.duplicate_fraction * 100.0);
  return 0;
}
