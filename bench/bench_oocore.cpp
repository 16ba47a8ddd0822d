// A/B harness for the out-of-core data path: the same Theta-like job
// stream is ingested and trained on twice — once through the in-RAM
// path (sequential ingest into a heap Dataset, materialized feature
// matrix) and once through the out-of-core path (sharded ingest
// streamed into a column store, mmap-backed training with spilled bin
// codes) — then the two GBT models and their predictions are checked
// bit-identical and BENCH_oocore.json (bench/bench_report.hpp) records
// wall time plus peak materialized and mapped bytes for each path. Row
// count honours IOTAX_SCALE (100K rows at scale 1); thread count
// honours IOTAX_THREADS.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_report.hpp"
#include "src/data/footprint.hpp"
#include "src/data/ooc.hpp"
#include "src/data/store.hpp"
#include "src/ml/gbt.hpp"
#include "src/sim/dataset_builder.hpp"
#include "src/telemetry/binary_log.hpp"

namespace iotax {
namespace {

constexpr std::size_t kShards = 4;

struct PathResult {
  double ingest_ms = 0.0;  // sequential ingest / sharded pack + open
  double train_ms = 0.0;
  std::size_t peak_materialized = 0;
  std::size_t peak_mapped = 0;
  std::string model_bytes;
  std::vector<double> predictions;
};

std::string fit_key(const ml::GradientBoostedTrees& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

PathResult train_on(const data::Dataset& ds, bool materialize) {
  PathResult r;
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  bench::Timer timer;
  ml::GradientBoostedTrees model({.n_estimators = 48, .max_depth = 6});
  if (materialize) {
    // The pre-store path: one heap feature matrix for the whole dataset.
    const auto x = taxonomy::feature_matrix(ds, feats);
    model.fit(x, ds.target);
    r.predictions = model.predict(x);
  } else {
    std::vector<std::size_t> cs, rs;
    const auto x = taxonomy::feature_view(ds, feats, &cs, &rs);
    model.fit(x, ds.target);
    r.predictions = model.predict(x);
  }
  r.train_ms = timer.seconds() * 1e3;
  r.model_bytes = fit_key(model);
  return r;
}

}  // namespace
}  // namespace iotax

int main() {
  using namespace iotax;
  bench::banner("Out-of-core column store A/B (ingest + GBT train)",
                "memory/runtime harness for the million-job refactor");

  const char* threads_env = std::getenv("IOTAX_THREADS");
  const int threads = threads_env != nullptr ? std::atoi(threads_env) : 0;

  auto cfg = sim::theta_like();
  cfg.workload.n_jobs = util::scaled_count(100000, 8000);
  const auto res = sim::simulate(cfg);

  const auto dir =
      std::filesystem::temp_directory_path() / "iotax_bench_oocore";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Contiguous record slices over kShards binary archives (what
  // `iotax simulate --shards N` writes).
  std::vector<sim::IngestShard> shards;
  const std::size_t n_records = res.records.size();
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::size_t lo = s * n_records / kShards;
    const std::size_t hi = (s + 1) * n_records / kShards;
    const std::vector<telemetry::JobLogRecord> slice(
        res.records.begin() + static_cast<long>(lo),
        res.records.begin() + static_cast<long>(hi));
    const auto path = (dir / ("shard" + std::to_string(s) + ".bin")).string();
    telemetry::write_binary_archive_file(path, slice);
    sim::IngestShard shard;
    shard.path = path;
    shard.binary = true;
    shards.push_back(shard);
  }

  const auto saved_ooc = data::ooc::settings();

  // ---- A: in-RAM path --------------------------------------------------
  data::ooc::settings().enabled = false;
  data::footprint::reset_peak();
  PathResult inram;
  {
    bench::Timer timer;
    const auto ingest = sim::build_dataset_ingest(
        res.records, nullptr, cfg.name, nullptr, sim::IngestMode::kLenient);
    inram.ingest_ms = timer.seconds() * 1e3;
    auto trained = train_on(ingest.dataset, /*materialize=*/true);
    inram.train_ms = trained.train_ms;
    inram.model_bytes = std::move(trained.model_bytes);
    inram.predictions = std::move(trained.predictions);
  }
  inram.peak_materialized = data::footprint::peak_bytes();
  inram.peak_mapped = data::footprint::peak_mapped_bytes();

  // ---- B: out-of-core path ---------------------------------------------
  data::ooc::settings().enabled = true;
  data::ooc::settings().spill_threshold_bytes = 0;  // spill all code planes
  data::footprint::reset_peak();
  PathResult ooc;
  const auto store_dir = (dir / "store").string();
  {
    bench::Timer timer;
    std::unique_ptr<data::StoreWriter> writer;
    sim::ingest_shards(shards, nullptr, cfg.name, nullptr,
                       sim::IngestMode::kLenient,
                       [&](data::Dataset&& chunk) {
                         if (!writer) {
                           writer = std::make_unique<data::StoreWriter>(
                               store_dir, chunk.features.names(),
                               chunk.system_name);
                         }
                         writer->append(chunk);
                       });
    writer->finish();
    ooc.ingest_ms = timer.seconds() * 1e3;
  }
  std::size_t store_rows = 0;
  {
    auto outcome = data::ColumnStore::open(store_dir);
    if (!outcome.ok()) {
      std::fprintf(stderr, "bench_oocore: %s\n",
                   outcome.first_error().c_str());
      return 1;
    }
    store_rows = outcome.store->rows();
    auto trained = train_on(outcome.store->dataset(), /*materialize=*/false);
    ooc.train_ms = trained.train_ms;
    ooc.model_bytes = std::move(trained.model_bytes);
    ooc.predictions = std::move(trained.predictions);
  }
  ooc.peak_materialized = data::footprint::peak_bytes();
  ooc.peak_mapped = data::footprint::peak_mapped_bytes();
  data::ooc::settings() = saved_ooc;

  const bool identical = inram.model_bytes == ooc.model_bytes &&
                         inram.predictions == ooc.predictions &&
                         store_rows == res.dataset.size();
  // A fully streaming OOC path materializes zero heap bytes; divide by
  // at least one byte so the factor stays finite and monotone.
  const double reduction =
      static_cast<double>(inram.peak_materialized) /
      static_cast<double>(std::max<std::size_t>(ooc.peak_materialized, 1));

  std::printf("rows                  %zu (%zu shard(s))\n", store_rows,
              kShards);
  std::printf("in-RAM   ingest %.0fms train %.0fms  "
              "peak materialized %zu  mapped %zu\n",
              inram.ingest_ms, inram.train_ms, inram.peak_materialized,
              inram.peak_mapped);
  std::printf("ooc      pack   %.0fms train %.0fms  "
              "peak materialized %zu  mapped %zu\n",
              ooc.ingest_ms, ooc.train_ms, ooc.peak_materialized,
              ooc.peak_mapped);
  std::printf("materialized reduction %.2fx\n", reduction);
  std::printf("models bit-identical  %s\n", identical ? "PASS" : "FAIL");

  bench::Report out{"oocore", {}};
  out.add({.name = "rows", .value = store_rows, .unit = "rows",
           .gate = "hard"});
  out.add({.name = "threads", .value = threads, .unit = "threads"});
  out.add({.name = "shards", .value = kShards, .unit = "shards"});
  out.add({.name = "inram.ingest_ms", .value = inram.ingest_ms, .unit = "ms"});
  out.add({.name = "inram.train_ms", .value = inram.train_ms, .unit = "ms"});
  out.add({.name = "inram.peak_materialized_bytes",
           .value = inram.peak_materialized, .unit = "bytes"});
  out.add({.name = "inram.peak_mapped_bytes", .value = inram.peak_mapped,
           .unit = "bytes"});
  out.add({.name = "ooc.pack_ms", .value = ooc.ingest_ms, .unit = "ms"});
  out.add({.name = "ooc.train_ms", .value = ooc.train_ms, .unit = "ms"});
  // Generous: catches algorithmic regressions, not runner wobble.
  out.add({.name = "ooc.pack_train_ms", .value = ooc.ingest_ms + ooc.train_ms,
           .unit = "ms", .gate = "envelope", .limit = 1.5});
  // Training heap stays bounded by the chunk budget (zero at the
  // baseline), so a new materializing copy in the streaming path fails.
  out.add({.name = "ooc.peak_materialized_bytes",
           .value = ooc.peak_materialized, .unit = "bytes",
           .gate = "envelope", .limit = 1.1});
  out.add({.name = "ooc.peak_mapped_bytes", .value = ooc.peak_mapped,
           .unit = "bytes"});
  out.add({.name = "materialized_reduction_factor", .value = reduction,
           .unit = "x"});
  out.add({.name = "bit_identical", .value = identical, .unit = "bool",
           .gate = "hard", .limit = true});
  out.write();
  std::filesystem::remove_all(dir);
  return identical ? 0 : 1;
}
