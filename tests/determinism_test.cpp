// Determinism guarantees: every published number must be reproducible
// bit-for-bit from the same seeds — searches, ensembles, and the whole
// taxonomy pipeline included.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/data/table.hpp"
#include "src/data/view.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/nas.hpp"
#include "src/ml/search.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/stats/bootstrap.hpp"
#include "src/stats/descriptive.hpp"
#include "src/taxonomy/pipeline.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy small_data(std::uint64_t seed, std::size_t rows = 400,
              std::size_t cols = 3) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(rows, cols);
  d.y.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < cols; ++c) d.x(i, c) = rng.uniform(-1.0, 1.0);
    d.y[i] = d.x(i, 0) - d.x(i, 1) * d.x(i, 2) + rng.normal(0.0, 0.1);
  }
  return d;
}

TEST(Determinism, NasSearchReproducible) {
  const auto train = small_data(1);
  const auto val = small_data(2);
  ml::NasParams nas;
  nas.population = 4;
  nas.generations = 2;
  nas.epochs = 3;
  const auto a = ml::nas_search(nas, train.x, train.y, val.x, val.y);
  const auto b = ml::nas_search(nas, train.x, train.y, val.x, val.y);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].val_error, b.history[i].val_error);
    EXPECT_EQ(a.history[i].params.hidden, b.history[i].params.hidden);
  }
}

TEST(Determinism, EnsembleReproducible) {
  const auto train = small_data(3);
  ml::EnsembleParams params;
  params.size = 3;
  params.epochs = 4;
  ml::DeepEnsemble a(params);
  ml::DeepEnsemble b(params);
  a.fit(train.x, train.y);
  b.fit(train.x, train.y);
  const auto pa = a.predict_uncertainty(train.x);
  const auto pb = b.predict_uncertainty(train.x);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(pa.mean[i], pb.mean[i]);
    EXPECT_DOUBLE_EQ(pa.aleatory[i], pb.aleatory[i]);
    EXPECT_DOUBLE_EQ(pa.epistemic[i], pb.epistemic[i]);
  }
}

TEST(Determinism, TaxonomyPipelineReproducible) {
  auto cfg = sim::tiny_system(41);
  cfg.workload.n_jobs = 1500;
  const auto res = sim::simulate(cfg);
  taxonomy::PipelineConfig pc;
  pc.run_uq = false;
  pc.grid.n_estimators = {32};
  pc.grid.max_depth = {6};
  const auto r1 = taxonomy::run_taxonomy(res.dataset, pc);
  const auto r2 = taxonomy::run_taxonomy(res.dataset, pc);
  EXPECT_DOUBLE_EQ(r1.baseline_error, r2.baseline_error);
  EXPECT_DOUBLE_EQ(r1.tuned_error, r2.tuned_error);
  EXPECT_DOUBLE_EQ(r1.system_bound.err_with_time,
                   r2.system_bound.err_with_time);
  EXPECT_DOUBLE_EQ(r1.noise.sigma_log10, r2.noise.sigma_log10);
  EXPECT_DOUBLE_EQ(r1.share_unexplained, r2.share_unexplained);
}

// The parallelised hot paths must be bit-identical for every
// IOTAX_THREADS value: fixed-order reductions only, results in
// pre-sized slots, RNG streams drawn serially before each region.
class ThreadDeterminism : public ::testing::Test {
 protected:
  // Run `fn` under IOTAX_THREADS=1 and =4 and return both results.
  template <typename F>
  static auto at_1_and_4_threads(F&& fn) {
    const char* old = std::getenv("IOTAX_THREADS");
    const std::string saved = old != nullptr ? old : "";
    const bool had = old != nullptr;
    ::setenv("IOTAX_THREADS", "1", 1);
    auto serial = fn();
    ::setenv("IOTAX_THREADS", "4", 1);
    auto threaded = fn();
    if (had) {
      ::setenv("IOTAX_THREADS", saved.c_str(), 1);
    } else {
      ::unsetenv("IOTAX_THREADS");
    }
    return std::make_pair(std::move(serial), std::move(threaded));
  }
};

TEST_F(ThreadDeterminism, EnsembleFitBitIdentical) {
  const auto train = small_data(7);
  const auto [serial, threaded] = at_1_and_4_threads([&] {
    ml::EnsembleParams params;
    params.size = 3;
    params.epochs = 3;
    ml::DeepEnsemble ens(params);
    ens.fit(train.x, train.y);
    return ens.predict_uncertainty(train.x);
  });
  ASSERT_EQ(serial.mean.size(), threaded.mean.size());
  for (std::size_t i = 0; i < serial.mean.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical outputs.
    EXPECT_EQ(serial.mean[i], threaded.mean[i]);
    EXPECT_EQ(serial.aleatory[i], threaded.aleatory[i]);
    EXPECT_EQ(serial.epistemic[i], threaded.epistemic[i]);
  }
}

TEST_F(ThreadDeterminism, GridSearchBitIdentical) {
  const auto train = small_data(8);
  const auto val = small_data(9);
  const auto [serial, threaded] = at_1_and_4_threads([&] {
    ml::GbtGrid grid;
    grid.n_estimators = {8, 16};
    grid.max_depth = {3, 5};
    grid.subsample = {0.8};
    grid.colsample = {0.8};
    return ml::grid_search(grid, train.x, train.y, val.x, val.y);
  });
  ASSERT_EQ(serial.evaluated.size(), threaded.evaluated.size());
  for (std::size_t i = 0; i < serial.evaluated.size(); ++i) {
    EXPECT_EQ(serial.evaluated[i].val_error, threaded.evaluated[i].val_error);
  }
  EXPECT_EQ(serial.best.val_error, threaded.best.val_error);
  EXPECT_EQ(serial.best.params.n_estimators, threaded.best.params.n_estimators);
  EXPECT_EQ(serial.best.params.max_depth, threaded.best.params.max_depth);
}

TEST_F(ThreadDeterminism, GbtFitBitIdentical) {
  // The wide set's upper nodes hold enough rows x live features for
  // build_tree to split their scans across the pool in chunks of
  // four-feature groups, and its target leans on feature 4, the first
  // of the second chunk.
  auto wide = small_data(13, 3000, 11);
  for (std::size_t i = 0; i < wide.y.size(); ++i) {
    wide.y[i] += 3.0 * wide.x(i, 4);
  }
  for (const auto& [train, colsample] :
       {std::pair{small_data(10), 0.8}, std::pair{wide, 1.0}}) {
    const auto [serial, threaded] = at_1_and_4_threads([&] {
      ml::GbtParams params;
      params.n_estimators = 20;
      params.max_depth = 5;
      params.subsample = 0.8;
      params.colsample = colsample;
      ml::GradientBoostedTrees model(params);
      model.fit(train.x, train.y);
      return model.predict(train.x);
    });
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], threaded[i]);
    }
  }
}

TEST_F(ThreadDeterminism, NasSearchBitIdentical) {
  const auto train = small_data(11);
  const auto val = small_data(12);
  const auto [serial, threaded] = at_1_and_4_threads([&] {
    ml::NasParams nas;
    nas.population = 4;
    nas.generations = 2;
    nas.epochs = 2;
    return ml::nas_search(nas, train.x, train.y, val.x, val.y);
  });
  ASSERT_EQ(serial.history.size(), threaded.history.size());
  for (std::size_t i = 0; i < serial.history.size(); ++i) {
    EXPECT_EQ(serial.history[i].val_error, threaded.history[i].val_error);
    EXPECT_EQ(serial.history[i].params.hidden, threaded.history[i].params.hidden);
    EXPECT_EQ(serial.history[i].improved_best, threaded.history[i].improved_best);
  }
  EXPECT_EQ(serial.best.val_error, threaded.best.val_error);
}

TEST_F(ThreadDeterminism, BootstrapBitIdentical) {
  util::Rng data_rng(13);
  std::vector<double> xs(300);
  for (auto& x : xs) x = data_rng.normal(5.0, 1.5);
  const auto [serial, threaded] = at_1_and_4_threads([&] {
    util::Rng rng(101);
    return stats::bootstrap_ci(
        xs, [](std::span<const double> s) { return stats::mean(s); }, 200,
        0.95, rng);
  });
  EXPECT_EQ(serial.point, threaded.point);
  EXPECT_EQ(serial.lo, threaded.lo);
  EXPECT_EQ(serial.hi, threaded.hi);
}

TEST_F(ThreadDeterminism, GbtOnTableBackedViewBitIdentical) {
  // The zero-copy pipeline trains models through MatrixViews of a
  // column-major Table; the view path must stay thread-invariant too.
  const auto train = small_data(14);
  data::Table table({"a", "b", "c"});
  table.reserve_rows(train.x.rows());
  std::vector<double> row(3);
  for (std::size_t r = 0; r < train.x.rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) row[c] = train.x(r, c);
    table.add_row(row);
  }
  std::vector<std::size_t> rows(train.x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const std::vector<std::size_t> cols = {0, 1, 2};
  const data::MatrixView view(table, rows, cols);
  const auto [serial, threaded] = at_1_and_4_threads([&] {
    ml::GbtParams params;
    params.n_estimators = 16;
    params.subsample = 0.8;
    ml::GradientBoostedTrees model(params);
    model.fit(view, train.y);
    return model.predict(view);
  });
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]);
  }
  // The view path must also match a model trained on the materialized
  // copy of the same view, bit for bit.
  const auto copy = view.materialize();
  ml::GbtParams params;
  params.n_estimators = 16;
  params.subsample = 0.8;
  ml::GradientBoostedTrees model(params);
  model.fit(copy, train.y);
  const auto via_copy = model.predict(copy);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], via_copy[i]);
  }
}

TEST_F(ThreadDeterminism, TaxonomyPipelineOnViewsBitIdentical) {
  // End-to-end: the full five-step framework (which now runs entirely
  // on views of the dataset's feature table) at 1 vs 4 threads.
  const auto res = sim::simulate(sim::tiny_system(77));
  taxonomy::PipelineConfig pc;
  pc.grid.n_estimators = {8, 16};
  pc.grid.max_depth = {3, 5};
  pc.ensemble.size = 2;
  pc.ensemble.epochs = 3;
  pc.uq_train_cap = 300;
  const auto [serial, threaded] = at_1_and_4_threads(
      [&] { return taxonomy::run_taxonomy(res.dataset, pc); });
  EXPECT_EQ(serial.baseline_error, threaded.baseline_error);
  EXPECT_EQ(serial.tuned_error, threaded.tuned_error);
  EXPECT_EQ(serial.app_bound.median_abs_error,
            threaded.app_bound.median_abs_error);
  EXPECT_EQ(serial.system_bound.err_with_time,
            threaded.system_bound.err_with_time);
  EXPECT_EQ(serial.noise.median_abs_error, threaded.noise.median_abs_error);
  EXPECT_EQ(serial.share_unexplained, threaded.share_unexplained);
}

TEST(Determinism, SimulationRecordsBitIdentical) {
  const auto a = sim::simulate(sim::tiny_system(55));
  const auto b = sim::simulate(sim::tiny_system(55));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); i += 29) {
    EXPECT_EQ(a.records[i].posix, b.records[i].posix);
    EXPECT_DOUBLE_EQ(a.records[i].agg_perf_mib, b.records[i].agg_perf_mib);
  }
}

}  // namespace
}  // namespace iotax
