// The out-of-core columnar store: pack -> open must be value-exact, and
// every pipeline consumer (binning, GBT fit/predict, grid search, the
// five-step taxonomy) must produce byte-identical results whether the
// dataset lives on the heap (CSV path) or in mapped column files
// (--store path), in-RAM or out-of-core, at any thread count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/data/footprint.hpp"
#include "src/data/ooc.hpp"
#include "src/data/store.hpp"
#include "src/data/table_io.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/search.hpp"
#include "src/sim/dataset_builder.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/taxonomy/pipeline.hpp"
#include "src/taxonomy/report_io.hpp"
#include "src/telemetry/darshan_log.hpp"

namespace iotax {
namespace {

const sim::SimulationResult& fixture() {
  static const auto* res =
      new sim::SimulationResult(sim::simulate(sim::tiny_system(11)));
  return *res;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Save/restore the process-wide out-of-core policy around a test.
struct OocGuard {
  data::ooc::Settings saved = data::ooc::settings();
  ~OocGuard() { data::ooc::settings() = saved; }
};

void force_ooc(std::size_t chunk_rows, std::size_t spill_bytes) {
  auto& s = data::ooc::settings();
  s.enabled = true;
  s.chunk_rows = chunk_rows;
  s.spill_threshold_bytes = spill_bytes;
}

// Run `fn` under IOTAX_THREADS=t and restore the old value afterwards.
template <typename F>
auto with_threads(const char* t, F&& fn) {
  const char* old = std::getenv("IOTAX_THREADS");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;
  ::setenv("IOTAX_THREADS", t, 1);
  auto result = fn();
  if (had) {
    ::setenv("IOTAX_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("IOTAX_THREADS");
  }
  return result;
}

std::string save_model(const ml::GradientBoostedTrees& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

// ---------------------------------------------------------- round trip

TEST(ColumnStore, PackOpenRoundTripIsValueExact) {
  const auto& ds = fixture().dataset;
  const auto dir = fresh_dir("iotax_store_rt");
  data::pack_dataset(dir.string(), ds);

  auto outcome = data::ColumnStore::open(dir.string());
  ASSERT_TRUE(outcome.ok()) << outcome.first_error();
  const auto& back = outcome.store->dataset();
  ASSERT_EQ(back.size(), ds.size());
  ASSERT_EQ(back.features.names(), ds.features.names());
  EXPECT_EQ(back.system_name, ds.system_name);
  EXPECT_TRUE(back.features.has_external_columns());
  for (std::size_t c = 0; c < ds.features.n_cols(); ++c) {
    const auto a = ds.features.col(c);
    const auto b = back.features.col(c);
    for (std::size_t r = 0; r < ds.size(); ++r) {
      ASSERT_EQ(a[r], b[r]) << "col " << c << " row " << r;
    }
  }
  for (std::size_t r = 0; r < ds.size(); ++r) {
    EXPECT_EQ(back.meta[r].job_id, ds.meta[r].job_id);
    EXPECT_EQ(back.meta[r].app_id, ds.meta[r].app_id);
    EXPECT_EQ(back.meta[r].config_id, ds.meta[r].config_id);
    EXPECT_EQ(back.meta[r].start_time, ds.meta[r].start_time);
    EXPECT_EQ(back.meta[r].end_time, ds.meta[r].end_time);
    EXPECT_EQ(back.meta[r].nodes, ds.meta[r].nodes);
    EXPECT_EQ(back.meta[r].novel_app, ds.meta[r].novel_app);
    EXPECT_EQ(back.meta[r].log_fa, ds.meta[r].log_fa);
    EXPECT_EQ(back.meta[r].log_fn, ds.meta[r].log_fn);
    EXPECT_EQ(back.target[r], ds.target[r]);
  }
  EXPECT_NO_THROW(back.validate());
  std::filesystem::remove_all(dir);
}

TEST(ColumnStore, StreamingWriterMatchesPackDataset) {
  const auto& ds = fixture().dataset;
  const auto one = fresh_dir("iotax_store_one");
  const auto chunked = fresh_dir("iotax_store_chunked");
  data::pack_dataset(one.string(), ds);
  {
    // Ragged chunk sizes: the writer is append-only, so any chunking
    // must produce the same bytes.
    data::StoreWriter w(chunked.string(), ds.features.names(),
                        ds.system_name);
    std::size_t row = 0;
    std::size_t step = 1;
    while (row < ds.size()) {
      const auto n = std::min(step, ds.size() - row);
      w.append_rows(ds, row, n);
      row += n;
      step = step * 2 + 1;
    }
    w.finish();
    EXPECT_EQ(w.rows_written(), ds.size());
  }
  EXPECT_EQ(slurp(one / "manifest.json"), slurp(chunked / "manifest.json"));
  for (const auto& entry : std::filesystem::directory_iterator(one)) {
    const auto name = entry.path().filename();
    EXPECT_EQ(slurp(entry.path()), slurp(chunked / name)) << name;
  }
  std::filesystem::remove_all(one);
  std::filesystem::remove_all(chunked);
}

// -------------------------------------------------- footprint gauges

TEST(ColumnStore, MappedPoolTracksStoreLifetime) {
  const auto& ds = fixture().dataset;
  const auto dir = fresh_dir("iotax_store_fp");
  data::pack_dataset(dir.string(), ds);
  const auto before = data::footprint::mapped_bytes();
  {
    auto outcome = data::ColumnStore::open(dir.string());
    ASSERT_TRUE(outcome.ok()) << outcome.first_error();
    const auto n_cols = outcome.store->n_columns();
    EXPECT_EQ(data::footprint::mapped_bytes() - before,
              ds.size() * n_cols * sizeof(double));
    EXPECT_EQ(outcome.store->mapped_bytes(),
              ds.size() * n_cols * sizeof(double));
  }
  EXPECT_EQ(data::footprint::mapped_bytes(), before);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- out-of-core bit-identity

TEST(ColumnStore, OutOfCoreBinningBitIdentical) {
  const auto& ds = fixture().dataset;
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  std::vector<std::size_t> cs, rs;
  const auto x = taxonomy::feature_view(ds, feats, &cs, &rs);

  const ml::BinnedMatrix in_ram(x, 64);
  ASSERT_FALSE(in_ram.spilled());

  OocGuard guard;
  force_ooc(/*chunk_rows=*/97, /*spill_bytes=*/0);  // chunked sweep + spill
  const ml::BinnedMatrix ooc(x, 64);
  EXPECT_TRUE(ooc.spilled());

  ASSERT_EQ(ooc.rows(), in_ram.rows());
  ASSERT_EQ(ooc.cols(), in_ram.cols());
  for (std::size_t c = 0; c < in_ram.cols(); ++c) {
    ASSERT_EQ(ooc.n_bins(c), in_ram.n_bins(c)) << "feature " << c;
    for (std::size_t b = 0; b + 1 < in_ram.n_bins(c); ++b) {
      ASSERT_EQ(ooc.threshold(c, b), in_ram.threshold(c, b))
          << "feature " << c << " bin " << b;
    }
    const auto a = in_ram.col_codes(c);
    const auto b = ooc.col_codes(c);
    for (std::size_t r = 0; r < in_ram.rows(); ++r) {
      ASSERT_EQ(a[r], b[r]) << "feature " << c << " row " << r;
    }
  }
  for (std::size_t r = 0; r < in_ram.rows(); ++r) {
    const auto a = in_ram.row_codes(r);
    const auto b = ooc.row_codes(r);
    for (std::size_t c = 0; c < in_ram.cols(); ++c) ASSERT_EQ(a[c], b[c]);
  }

  // Copies of a spilled matrix share the mapping and read the same codes.
  const ml::BinnedMatrix copy(ooc);
  EXPECT_TRUE(copy.spilled());
  EXPECT_EQ(copy.code(5, 3), in_ram.code(5, 3));
}

TEST(ColumnStore, GbtAndGridSearchBitIdenticalThroughStore) {
  const auto& ds = fixture().dataset;
  const auto dir = fresh_dir("iotax_store_gbt");
  data::pack_dataset(dir.string(), ds);
  auto outcome = data::ColumnStore::open(dir.string());
  ASSERT_TRUE(outcome.ok()) << outcome.first_error();
  const auto& dsb = outcome.store->dataset();

  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  std::vector<std::size_t> train_rows, val_rows;
  for (std::size_t i = 0; i < 400; ++i) train_rows.push_back(i);
  for (std::size_t i = 400; i < 520; ++i) val_rows.push_back(i);

  const auto run = [&](const data::Dataset& d) {
    std::vector<std::size_t> tc, tr, vc, vr;
    const auto xt = taxonomy::feature_view(d, feats, &tc, &tr, train_rows);
    const auto xv = taxonomy::feature_view(d, feats, &vc, &vr, val_rows);
    const auto yt = taxonomy::targets(d, train_rows);
    const auto yv = taxonomy::targets(d, val_rows);
    ml::GradientBoostedTrees model({.n_estimators = 24, .max_depth = 5});
    model.fit(xt, yt);
    ml::GbtGrid grid;
    grid.n_estimators = {8, 16};
    grid.max_depth = {3, 6};
    grid.subsample = {1.0};
    grid.colsample = {1.0};
    const auto search = ml::grid_search(grid, xt, yt, xv, yv);
    std::ostringstream key;
    key.precision(17);
    key << save_model(model) << '\n';
    for (const auto p : model.predict(xv)) key << p << ',';
    key << '\n' << search.best.val_error << ' '
        << search.best.params.n_estimators << ' '
        << search.best.params.max_depth;
    for (const auto& pt : search.evaluated) key << ';' << pt.val_error;
    return key.str();
  };

  for (const char* threads : {"1", "4"}) {
    const auto heap_key = with_threads(threads, [&] { return run(ds); });
    const auto store_key = with_threads(threads, [&] {
      OocGuard guard;
      force_ooc(/*chunk_rows=*/64, /*spill_bytes=*/0);
      return run(dsb);
    });
    EXPECT_EQ(heap_key, store_key) << "IOTAX_THREADS=" << threads;
  }
  std::filesystem::remove_all(dir);
}

TEST(ColumnStore, TaxonomyReportBitIdenticalThroughStore) {
  const auto& ds = fixture().dataset;
  const auto dir = fresh_dir("iotax_store_tax");
  data::pack_dataset(dir.string(), ds);
  auto outcome = data::ColumnStore::open(dir.string());
  ASSERT_TRUE(outcome.ok()) << outcome.first_error();
  const auto& dsb = outcome.store->dataset();

  taxonomy::PipelineConfig cfg;
  cfg.grid = {.n_estimators = {16},
              .max_depth = {4},
              .subsample = {0.9},
              .colsample = {0.9},
              .base = {}};
  cfg.run_uq = true;

  const auto report_csv = [&](const data::Dataset& d, const char* tag) {
    const auto path =
        (std::filesystem::temp_directory_path() /
         (std::string("iotax_store_report_") + tag + ".csv"))
            .string();
    const auto report = taxonomy::run_taxonomy(d, cfg);
    taxonomy::write_report_csv(path, report);
    const auto bytes = slurp(path);
    std::filesystem::remove(path);
    return bytes;
  };

  for (const char* threads : {"1", "4"}) {
    const auto heap_bytes =
        with_threads(threads, [&] { return report_csv(ds, "heap"); });
    const auto store_bytes = with_threads(threads, [&] {
      OocGuard guard;
      force_ooc(/*chunk_rows=*/64, /*spill_bytes=*/0);
      return report_csv(dsb, "store");
    });
    EXPECT_EQ(heap_bytes, store_bytes) << "IOTAX_THREADS=" << threads;
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ sharded ingest

TEST(ColumnStore, ShardedIngestMatchesSequential) {
  auto records = fixture().records;
  records.resize(360);
  // Cross-shard duplicates: only a merge-phase (global) duplicate check
  // catches these, and the counts must match the sequential single pass.
  records[250] = records[10];
  records[355] = records[120];

  const auto dir = fresh_dir("iotax_store_shards");
  std::filesystem::create_directories(dir);
  std::vector<sim::IngestShard> shards;
  const std::size_t cuts[] = {0, 120, 240, 360};
  for (std::size_t s = 0; s + 1 < std::size(cuts); ++s) {
    const std::vector<telemetry::JobLogRecord> slice(
        records.begin() + static_cast<long>(cuts[s]),
        records.begin() + static_cast<long>(cuts[s + 1]));
    const auto path = (dir / ("shard" + std::to_string(s) + ".txt")).string();
    telemetry::write_archive(path, slice);
    sim::IngestShard shard;
    shard.path = path;
    shards.push_back(shard);
  }

  const auto sequential = sim::build_dataset_ingest(
      records, nullptr, "shards", nullptr, sim::IngestMode::kLenient);
  for (const char* threads : {"1", "4"}) {
    const auto sharded = with_threads(threads, [&] {
      return sim::build_dataset_ingest_sharded(
          shards, nullptr, "shards", nullptr, sim::IngestMode::kLenient);
    });
    ASSERT_EQ(sharded.dataset.size(), sequential.dataset.size())
        << "IOTAX_THREADS=" << threads;
    EXPECT_EQ(sharded.kept_records, sequential.kept_records);
    EXPECT_EQ(sharded.quarantine.total(), sequential.quarantine.total());
    for (std::size_t i = 0; i < util::kReasonCount; ++i) {
      const auto reason = static_cast<util::Reason>(i);
      EXPECT_EQ(sharded.quarantine.count(reason),
                sequential.quarantine.count(reason))
          << util::reason_name(reason);
    }
    for (std::size_t c = 0; c < sequential.dataset.features.n_cols(); ++c) {
      const auto a = sequential.dataset.features.col(c);
      const auto b = sharded.dataset.features.col(c);
      for (std::size_t r = 0; r < sequential.dataset.size(); ++r) {
        ASSERT_EQ(a[r], b[r]) << "col " << c << " row " << r;
      }
    }
    for (std::size_t r = 0; r < sequential.dataset.size(); ++r) {
      EXPECT_EQ(sharded.dataset.meta[r].job_id,
                sequential.dataset.meta[r].job_id);
      EXPECT_EQ(sharded.dataset.target[r], sequential.dataset.target[r]);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ColumnStore, ShardedPackMatchesWholeArchivePack) {
  auto records = fixture().records;
  records.resize(300);
  const auto dir = fresh_dir("iotax_store_packcmp");
  std::filesystem::create_directories(dir);

  const auto pack_from = [&](const std::vector<sim::IngestShard>& shards,
                             const std::string& out) {
    std::unique_ptr<data::StoreWriter> writer;
    sim::ingest_shards(shards, nullptr, "pack", nullptr,
                       sim::IngestMode::kLenient,
                       [&](data::Dataset&& chunk) {
                         if (!writer) {
                           writer = std::make_unique<data::StoreWriter>(
                               out, chunk.features.names(),
                               chunk.system_name);
                         }
                         writer->append(chunk);
                       });
    ASSERT_NE(writer, nullptr);
    writer->finish();
  };

  const auto whole = (dir / "whole.txt").string();
  telemetry::write_archive(whole, records);
  std::vector<sim::IngestShard> one;
  {
    sim::IngestShard s;
    s.path = whole;
    one.push_back(s);
  }
  std::vector<sim::IngestShard> three;
  const std::size_t cuts[] = {0, 100, 200, 300};
  for (std::size_t s = 0; s + 1 < std::size(cuts); ++s) {
    const std::vector<telemetry::JobLogRecord> slice(
        records.begin() + static_cast<long>(cuts[s]),
        records.begin() + static_cast<long>(cuts[s + 1]));
    const auto path = (dir / ("p" + std::to_string(s) + ".txt")).string();
    telemetry::write_archive(path, slice);
    sim::IngestShard shard;
    shard.path = path;
    three.push_back(shard);
  }
  pack_from(one, (dir / "store_one").string());
  pack_from(three, (dir / "store_three").string());
  EXPECT_EQ(slurp(dir / "store_one" / "manifest.json"),
            slurp(dir / "store_three" / "manifest.json"));
  for (const auto& entry :
       std::filesystem::directory_iterator(dir / "store_one")) {
    const auto name = entry.path().filename();
    EXPECT_EQ(slurp(entry.path()), slurp(dir / "store_three" / name))
        << name;
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- corruption mapping

TEST(ColumnStore, OpenDiagnosticsNameFileAndField) {
  const auto& ds = fixture().dataset;
  const auto dir = fresh_dir("iotax_store_diag");
  data::pack_dataset(dir.string(), ds);

  const auto reopen = [&](bool verify = false) {
    return data::ColumnStore::open(dir.string(), verify);
  };
  const auto manifest = slurp(dir / "manifest.json");
  const auto restore = [&] {
    std::ofstream out(dir / "manifest.json", std::ios::binary);
    out << manifest;
  };

  {  // missing store directory entirely
    const auto gone = data::ColumnStore::open(
        (std::filesystem::temp_directory_path() / "iotax_no_such_store")
            .string());
    EXPECT_FALSE(gone.ok());
    EXPECT_EQ(gone.quarantine.count(util::Reason::kBadMagic), 1u);
    EXPECT_NE(gone.first_error().find("manifest.json"), std::string::npos);
  }
  {  // malformed manifest JSON
    std::ofstream out(dir / "manifest.json", std::ios::binary);
    out << "{ not json";
  }
  {
    const auto bad = reopen();
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.quarantine.count(util::Reason::kMalformedHeader), 1u);
  }
  restore();
  {  // wrong format marker
    std::ofstream out(dir / "manifest.json", std::ios::binary);
    std::string doctored = manifest;
    const auto pos = doctored.find("iotax-store");
    ASSERT_NE(pos, std::string::npos);
    doctored.replace(pos, 11, "iotax-other");
    out << doctored;
  }
  {
    const auto bad = reopen();
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.quarantine.count(util::Reason::kBadMagic), 1u);
    EXPECT_NE(bad.first_error().find("format"), std::string::npos);
  }
  restore();
  {  // unsupported version
    std::ofstream out(dir / "manifest.json", std::ios::binary);
    std::string doctored = manifest;
    const auto pos = doctored.find("\"version\": 1");
    ASSERT_NE(pos, std::string::npos);
    doctored.replace(pos, 12, "\"version\": 9");
    out << doctored;
  }
  {
    const auto bad = reopen();
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.quarantine.count(util::Reason::kBadVersion), 1u);
  }
  restore();
  {  // truncated column file
    const auto col = dir / "c2.f64";
    std::filesystem::resize_file(col, ds.size() * sizeof(double) - 9);
    const auto bad = reopen();
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.quarantine.count(util::Reason::kTruncated), 1u);
    EXPECT_NE(bad.first_error().find("c2.f64"), std::string::npos);
  }
  {  // trailing bytes after repair-to-longer
    const auto col = dir / "c2.f64";
    std::filesystem::resize_file(col, ds.size() * sizeof(double) + 5);
    const auto bad = reopen();
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.quarantine.count(util::Reason::kTrailingBytes), 1u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace iotax
