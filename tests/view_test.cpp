// The zero-copy data path: MatrixView/DatasetView must read the same
// values as the materialized copy they replace, and every consumer
// (binning, GBT, search, ensemble, the taxonomy litmus tests) must
// produce bit-identical output through either path at any thread count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/data/footprint.hpp"
#include "src/data/matrix.hpp"
#include "src/data/split.hpp"
#include "src/data/view.hpp"
#include "src/ml/binning.hpp"
#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/search.hpp"
#include "src/taxonomy/duplicates.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

data::Matrix make_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  data::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(0.0, 100.0);
  }
  return m;
}

std::vector<double> make_targets(const data::Matrix& x, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    y[r] = x(r, 0) * 0.01 - x(r, x.cols() - 1) * 0.02 + rng.normal(0.0, 0.1);
  }
  return y;
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

// ------------------------------------------------------- view basics

TEST(MatrixView, IdentityViewReadsBase) {
  const auto m = make_matrix(10, 4, 1);
  const data::MatrixView v = m;
  EXPECT_EQ(v.rows(), 10u);
  EXPECT_EQ(v.cols(), 4u);
  EXPECT_TRUE(v.rows_are_spans());
  for (std::size_t r = 0; r < v.rows(); ++r) {
    for (std::size_t c = 0; c < v.cols(); ++c) EXPECT_EQ(v(r, c), m(r, c));
  }
}

TEST(MatrixView, RowSubsetRemapsIndices) {
  const auto m = make_matrix(10, 3, 2);
  const std::vector<std::size_t> rows = {7, 0, 7, 3};
  const data::MatrixView v(m, rows);
  ASSERT_EQ(v.rows(), 4u);
  EXPECT_EQ(v.base_row(0), 7u);
  EXPECT_EQ(v(0, 1), m(7, 1));
  EXPECT_EQ(v(2, 2), m(7, 2));  // repeated indices are allowed
  EXPECT_EQ(v(3, 0), m(3, 0));
}

TEST(MatrixView, ContiguousColumnPrefixKeepsSpanFastPath) {
  const auto m = make_matrix(6, 5, 3);
  const std::vector<std::size_t> rows = {4, 1};
  const std::vector<std::size_t> cols = {0, 1, 2};
  const data::MatrixView v(m, rows, cols);
  EXPECT_TRUE(v.rows_are_spans());
  std::vector<double> scratch;
  const auto row = v.row(0, scratch);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_TRUE(scratch.empty());  // fast path never touched scratch
  EXPECT_EQ(row[2], m(4, 2));
}

TEST(MatrixView, NonContiguousColumnsGatherIntoScratch) {
  const auto m = make_matrix(6, 5, 4);
  const std::vector<std::size_t> rows = {2, 5};
  const std::vector<std::size_t> cols = {0, 1, 4};  // skips 2 and 3
  const data::MatrixView v(m, rows, cols);
  EXPECT_FALSE(v.rows_are_spans());
  std::vector<double> scratch;
  const auto row = v.row(1, scratch);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], m(5, 0));
  EXPECT_EQ(row[2], m(5, 4));
}

TEST(MatrixView, TakeRowsComposesWithExistingMap) {
  const auto m = make_matrix(10, 2, 5);
  const std::vector<std::size_t> outer = {9, 8, 7, 6};
  const data::MatrixView v(m, outer);
  const std::vector<std::size_t> inner = {3, 0};
  std::vector<std::size_t> storage;
  const auto sub = v.take_rows(inner, &storage);
  ASSERT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.base_row(0), 6u);  // outer[inner[0]]
  EXPECT_EQ(sub.base_row(1), 9u);
  EXPECT_EQ(sub(0, 1), m(6, 1));
}

TEST(MatrixView, OutOfRangeIndicesThrow) {
  const auto m = make_matrix(4, 3, 6);
  const std::vector<std::size_t> bad_rows = {4};
  const std::vector<std::size_t> bad_cols = {3};
  const std::vector<std::size_t> ok = {0};
  EXPECT_THROW(data::MatrixView(m, bad_rows), std::out_of_range);
  EXPECT_THROW(data::MatrixView(m, ok, bad_cols), std::out_of_range);
}

TEST(MatrixView, MaterializeEqualsElementwiseRead) {
  const auto m = make_matrix(8, 4, 7);
  const std::vector<std::size_t> rows = {6, 2, 4};
  const std::vector<std::size_t> cols = {3, 1};
  const data::MatrixView v(m, rows, cols);
  const auto copy = v.materialize();
  ASSERT_EQ(copy.rows(), 3u);
  ASSERT_EQ(copy.cols(), 2u);
  for (std::size_t r = 0; r < copy.rows(); ++r) {
    for (std::size_t c = 0; c < copy.cols(); ++c) {
      EXPECT_EQ(copy(r, c), v(r, c));
    }
  }
}

TEST(MatrixColumn, StridedColumnViewMatchesElements) {
  const auto m = make_matrix(5, 3, 8);
  const auto col = m.col(1);
  ASSERT_EQ(col.size(), 5u);
  for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(col[r], m(r, 1));
  const auto vec = col.to_vector();
  ASSERT_EQ(vec.size(), 5u);
  EXPECT_EQ(vec[3], m(3, 1));
  EXPECT_THROW(m.col(3), std::out_of_range);
}

TEST(Gather, GathersMappedElements) {
  const std::vector<double> src = {10.0, 11.0, 12.0, 13.0};
  const std::vector<std::size_t> rows = {3, 0, 3};
  std::vector<double> out;
  data::gather(src, rows, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 13.0);
  EXPECT_EQ(out[1], 10.0);
  EXPECT_EQ(out[2], 13.0);
}

// ------------------------------------------------- footprint gauges

TEST(Footprint, TracksMatrixLifetime) {
  const auto before = data::footprint::live_bytes();
  {
    data::Matrix m(100, 10);
    EXPECT_EQ(data::footprint::live_bytes(),
              before + 100 * 10 * sizeof(double));
    EXPECT_GE(data::footprint::peak_bytes(), data::footprint::live_bytes());
    data::Matrix moved = std::move(m);  // moves must not double-count
    EXPECT_EQ(data::footprint::live_bytes(),
              before + 100 * 10 * sizeof(double));
  }
  EXPECT_EQ(data::footprint::live_bytes(), before);
}

TEST(Footprint, ViewsAreFree) {
  const auto m = make_matrix(50, 8, 9);
  const auto before = data::footprint::live_bytes();
  std::vector<std::size_t> rows(25);
  std::iota(rows.begin(), rows.end(), 0);
  const data::MatrixView v(m, rows);
  EXPECT_EQ(data::footprint::live_bytes(), before);
  const auto copy = v.materialize();  // the copy is what costs bytes
  EXPECT_EQ(data::footprint::live_bytes(),
            before + copy.rows() * copy.cols() * sizeof(double));
}

// ------------------------------------- view == copy, bit for bit

TEST(ViewEquivalence, BinnedMatrixCodesMatchCopyPath) {
  const auto m = make_matrix(200, 5, 10);
  const std::vector<std::size_t> rows = {150, 3, 77, 12, 99, 150, 0, 60};
  const data::MatrixView v(m, rows);
  const auto copy = v.materialize();
  const ml::BinnedMatrix via_view(v, 16);
  const ml::BinnedMatrix via_copy(copy, 16);
  ASSERT_EQ(via_view.rows(), via_copy.rows());
  ASSERT_EQ(via_view.cols(), via_copy.cols());
  for (std::size_t c = 0; c < via_view.cols(); ++c) {
    EXPECT_EQ(via_view.n_bins(c), via_copy.n_bins(c));
    for (std::size_t r = 0; r < via_view.rows(); ++r) {
      EXPECT_EQ(via_view.code(r, c), via_copy.code(r, c));
    }
  }
}

TEST(ViewEquivalence, GbtTrainedOnViewMatchesCopyAtAnyThreadCount) {
  const auto x = make_matrix(300, 4, 11);
  const auto y = make_targets(x, 12);
  std::vector<std::size_t> rows(200);
  std::iota(rows.begin(), rows.end(), 50);
  std::vector<double> y_sub(200);
  for (std::size_t i = 0; i < 200; ++i) y_sub[i] = y[rows[i]];
  const data::MatrixView v(x, rows);
  const auto copy = v.materialize();
  for (const char* threads : {"1", "4"}) {
    const auto via_view = with_threads(threads, [&] {
      ml::GbtParams p;
      p.n_estimators = 12;
      ml::GradientBoostedTrees model(p);
      model.fit(v, y_sub);
      return model.predict(x);
    });
    const auto via_copy = with_threads(threads, [&] {
      ml::GbtParams p;
      p.n_estimators = 12;
      ml::GradientBoostedTrees model(p);
      model.fit(copy, y_sub);
      return model.predict(x);
    });
    ASSERT_EQ(via_view.size(), via_copy.size());
    for (std::size_t i = 0; i < via_view.size(); ++i) {
      EXPECT_EQ(via_view[i], via_copy[i]);  // exact: bit-identical
    }
  }
}

TEST(ViewEquivalence, GridSearchOnViewMatchesCopy) {
  const auto x = make_matrix(240, 3, 13);
  const auto y = make_targets(x, 14);
  std::vector<std::size_t> train_rows(180);
  std::iota(train_rows.begin(), train_rows.end(), 0);
  std::vector<std::size_t> val_rows(60);
  std::iota(val_rows.begin(), val_rows.end(), 180);
  std::vector<double> y_train(180);
  std::vector<double> y_val(60);
  for (std::size_t i = 0; i < 180; ++i) y_train[i] = y[i];
  for (std::size_t i = 0; i < 60; ++i) y_val[i] = y[180 + i];
  const data::MatrixView x_train(x, train_rows);
  const data::MatrixView x_val(x, val_rows);
  const auto x_train_copy = x_train.materialize();
  const auto x_val_copy = x_val.materialize();

  ml::GbtGrid grid;
  grid.n_estimators = {4, 8};
  grid.max_depth = {3, 5};
  grid.subsample = {0.8};
  grid.colsample = {0.9};
  const auto run = [&](const data::MatrixView& xt, const data::MatrixView& xv) {
    return ml::grid_search(grid, xt, y_train, xv, y_val);
  };
  for (const char* threads : {"1", "4"}) {
    const auto a = with_threads(threads, [&] { return run(x_train, x_val); });
    const auto b = with_threads(
        threads, [&] { return run(x_train_copy, x_val_copy); });
    ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
    EXPECT_EQ(a.best.val_error, b.best.val_error);
    for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
      EXPECT_EQ(a.evaluated[i].val_error, b.evaluated[i].val_error);
    }
  }
}

TEST(ViewEquivalence, EnsembleOnViewMatchesCopy) {
  const auto x = make_matrix(150, 3, 15);
  const auto y = make_targets(x, 16);
  std::vector<std::size_t> rows(100);
  std::iota(rows.begin(), rows.end(), 25);
  std::vector<double> y_sub(100);
  for (std::size_t i = 0; i < 100; ++i) y_sub[i] = y[rows[i]];
  const data::MatrixView v(x, rows);
  const auto copy = v.materialize();
  ml::EnsembleParams params;
  params.size = 2;
  params.epochs = 3;
  const auto run = [&](const data::MatrixView& xt) {
    ml::DeepEnsemble ens(params);
    ens.fit(xt, y_sub);
    return ens.predict_uncertainty(x);
  };
  for (const char* threads : {"1", "4"}) {
    const auto a = with_threads(threads, [&] { return run(v); });
    const auto b = with_threads(threads, [&] { return run(copy); });
    for (std::size_t i = 0; i < a.mean.size(); ++i) {
      EXPECT_EQ(a.mean[i], b.mean[i]);
      EXPECT_EQ(a.epistemic[i], b.epistemic[i]);
    }
  }
}

// ------------------------------------------------- DatasetView

data::Dataset make_small_dataset(std::size_t n) {
  data::Dataset ds;
  ds.system_name = "test";
  data::Table t({"f1", "f2"});
  for (std::size_t i = 0; i < n; ++i) {
    t.add_row(std::vector<double>{static_cast<double>(i),
                                  static_cast<double>(i % 3)});
    data::JobMeta m;
    m.job_id = i;
    m.app_id = i % 4;
    m.config_id = i % 2;
    m.start_time = static_cast<double>(i) * 10.0;
    m.end_time = m.start_time + 5.0;
    m.log_fa = 1.5;
    ds.meta.push_back(m);
    ds.target.push_back(m.log_throughput());
  }
  ds.features = t;
  return ds;
}

TEST(DatasetView, WindowMatchesDatasetTake) {
  const auto ds = make_small_dataset(20);
  const std::vector<std::size_t> rows = {15, 2, 9};
  const data::DatasetView v(ds, rows);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.meta(0).job_id, 15u);
  EXPECT_EQ(v.target(1), ds.target[2]);
  const auto copy = v.materialize();
  EXPECT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.meta[2].job_id, 9u);
  EXPECT_DOUBLE_EQ(copy.features.at(0, 0), 15.0);
}

TEST(DatasetView, RowsInWindowAreViewLocal) {
  const auto ds = make_small_dataset(20);
  const std::vector<std::size_t> rows = {18, 3, 12};  // times 180, 30, 120
  const data::DatasetView v(ds, rows);
  const auto in = v.rows_in_window(100.0, 200.0);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(in[0], 0u);  // view row 0 (base 18, t=180)
  EXPECT_EQ(in[1], 2u);  // view row 2 (base 12, t=120)
}

TEST(DatasetView, DuplicateSetsOnViewMatchMaterializedCopy) {
  auto ds = make_small_dataset(24);
  // Make rows with equal (app_id, config_id) true duplicates.
  std::vector<std::size_t> rows(12);
  std::iota(rows.begin(), rows.end(), 6);
  const data::DatasetView v(ds, rows);
  const auto copy = v.materialize();
  const auto via_view = taxonomy::find_duplicate_sets(v);
  const auto via_copy = taxonomy::find_duplicate_sets(copy);
  ASSERT_EQ(via_view.size(), via_copy.size());
  for (std::size_t s = 0; s < via_view.size(); ++s) {
    EXPECT_EQ(via_view[s].rows, via_copy[s].rows);  // both view-local
  }
}

TEST(FeatureMatrix, ViewRowsMatchMaterializedDataset) {
  const auto ds = make_small_dataset(16);
  const std::vector<std::size_t> rows = {11, 4, 8};
  const data::DatasetView v(ds, rows);
  const auto copy = v.materialize();
  // kPosix etc. need the full counter schema, so compare targets (the
  // same gather path feature_matrix uses).
  const auto t_view = taxonomy::targets(v);
  const auto t_copy = taxonomy::targets(copy);
  ASSERT_EQ(t_view.size(), t_copy.size());
  for (std::size_t i = 0; i < t_view.size(); ++i) {
    EXPECT_EQ(t_view[i], t_copy[i]);
  }
}

// ----------------------------------------- split/validate edge cases

TEST(Split, GroupedSplitAllTrainFraction) {
  const auto ds = make_small_dataset(40);
  util::Rng rng(4);
  const auto s = data::grouped_random_split(ds, 1.0, 0.0, rng);
  EXPECT_EQ(s.train.size(), 40u);
  EXPECT_TRUE(s.val.empty());
  EXPECT_TRUE(s.test.empty());
}

TEST(Split, GroupedSplitAllTestFraction) {
  const auto ds = make_small_dataset(40);
  util::Rng rng(5);
  const auto s = data::grouped_random_split(ds, 0.0, 0.0, rng);
  EXPECT_TRUE(s.train.empty());
  EXPECT_TRUE(s.val.empty());
  EXPECT_EQ(s.test.size(), 40u);
}

TEST(Split, GroupedSplitNeverStraddlesTrainTest) {
  const auto ds = make_small_dataset(60);  // 8 (app,config) groups
  util::Rng rng(6);
  const auto s = data::grouped_random_split(ds, 0.5, 0.25, rng);
  EXPECT_EQ(s.train.size() + s.val.size() + s.test.size(), 60u);
  std::vector<int> side(ds.size(), -1);
  for (const auto i : s.train) side[i] = 0;
  for (const auto i : s.val) side[i] = 1;
  for (const auto i : s.test) side[i] = 2;
  for (std::size_t a = 0; a < ds.size(); ++a) {
    ASSERT_NE(side[a], -1);
    for (std::size_t b = a + 1; b < ds.size(); ++b) {
      if (ds.meta[a].app_id == ds.meta[b].app_id &&
          ds.meta[a].config_id == ds.meta[b].config_id) {
        EXPECT_EQ(side[a], side[b]);
      }
    }
  }
}

TEST(Dataset, ValidateAcceptsEmptyDataset) {
  data::Dataset ds;
  ds.features = data::Table({"f1"});
  EXPECT_NO_THROW(ds.validate());
}

TEST(Dataset, ValidateAcceptsSingleRowDataset) {
  const auto ds = make_small_dataset(1);
  EXPECT_NO_THROW(ds.validate());
}

TEST(Dataset, ValidateCatchesSingleRowMismatch) {
  auto ds = make_small_dataset(1);
  ds.target[0] += 0.5;
  EXPECT_THROW(ds.validate(), std::logic_error);
}

}  // namespace
}  // namespace iotax
