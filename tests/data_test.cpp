#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/data/dataset.hpp"
#include "src/data/matrix.hpp"
#include "src/data/scaler.hpp"
#include "src/data/split.hpp"
#include "src/data/table.hpp"
#include "src/data/table_io.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

data::Table make_table() {
  data::Table t({"a", "b"});
  t.add_row(std::vector<double>{1.0, 10.0});
  t.add_row(std::vector<double>{2.0, 20.0});
  t.add_row(std::vector<double>{3.0, 30.0});
  return t;
}

TEST(Table, BasicShape) {
  const auto t = make_table();
  EXPECT_EQ(t.n_rows(), 3u);
  EXPECT_EQ(t.n_cols(), 2u);
  EXPECT_TRUE(t.has_column("a"));
  EXPECT_FALSE(t.has_column("z"));
  EXPECT_EQ(t.index_of("b"), 1u);
  EXPECT_THROW(t.index_of("z"), std::out_of_range);
  EXPECT_DOUBLE_EQ(t.at(1, 1), 20.0);
}

TEST(Table, RejectsDuplicateColumn) {
  data::Table t({"a"});
  EXPECT_THROW(t.add_column("a", {}), std::invalid_argument);
  EXPECT_THROW(data::Table({"x", "x"}), std::invalid_argument);
}

TEST(Table, AddColumnChecksRowCount) {
  auto t = make_table();
  EXPECT_THROW(t.add_column("c", {1.0}), std::invalid_argument);
  t.add_column("c", {7.0, 8.0, 9.0});
  EXPECT_DOUBLE_EQ(t.col("c")[2], 9.0);
}

TEST(Table, AddRowChecksColumnCount) {
  auto t = make_table();
  EXPECT_THROW(t.add_row(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Table, SelectReordersColumns) {
  const auto t = make_table();
  const std::vector<std::string> names = {"b", "a"};
  const auto s = t.select(names);
  EXPECT_EQ(s.names()[0], "b");
  EXPECT_DOUBLE_EQ(s.at(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 1.0);
}

TEST(Table, TakeRows) {
  const auto t = make_table();
  const std::vector<std::size_t> rows = {2, 0};
  const auto s = t.take(rows);
  EXPECT_EQ(s.n_rows(), 2u);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 1.0);
}

TEST(Table, HcatAndVcat) {
  const auto t = make_table();
  const auto tall = t.vcat(t);
  EXPECT_EQ(tall.n_rows(), 6u);
  EXPECT_DOUBLE_EQ(tall.at(4, 0), 2.0);

  data::Table mismatch({"zzz"});
  EXPECT_THROW(t.vcat(mismatch), std::invalid_argument);
}

TEST(Matrix, ToMatrixMatchesTable) {
  const auto t = make_table();
  const auto m = data::to_matrix(t);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 30.0);
}

TEST(Matrix, RowSpanAndTakeRows) {
  data::Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.0);
  const std::vector<std::size_t> rows = {1};
  const auto s = m.take_rows(rows);
  EXPECT_EQ(s.rows(), 1u);
  EXPECT_DOUBLE_EQ(s(0, 2), 5.0);
}

TEST(Matrix, ColExtraction) {
  const auto m = data::to_matrix(make_table());
  const auto col = m.col(1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[1], 20.0);
  EXPECT_THROW(m.col(5), std::out_of_range);
}

TEST(Scaler, StandardizesColumns) {
  const auto m = data::to_matrix(make_table());
  data::StandardScaler scaler;
  const auto z = scaler.fit_transform(m);
  // Column means ~0, population stddev ~1.
  for (std::size_t c = 0; c < z.cols(); ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < z.rows(); ++r) mean += z(r, c);
    EXPECT_NEAR(mean / 3.0, 0.0, 1e-12);
  }
  EXPECT_NEAR(z(0, 0), -1.2247, 1e-3);
}

TEST(Scaler, ConstantColumnMapsToZero) {
  data::Matrix m(3, 1, 5.0);
  data::StandardScaler scaler;
  const auto z = scaler.fit_transform(m);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(z(r, 0), 0.0);
}

TEST(Scaler, TransformBeforeFitThrows) {
  data::StandardScaler scaler;
  EXPECT_THROW(scaler.transform(data::Matrix(1, 1)), std::logic_error);
}

TEST(Scaler, SignedLog1p) {
  EXPECT_DOUBLE_EQ(data::signed_log1p_value(0.0), 0.0);
  EXPECT_NEAR(data::signed_log1p_value(999.0), 3.0, 1e-9);
  EXPECT_NEAR(data::signed_log1p_value(-999.0), -3.0, 1e-9);
}

data::Dataset make_dataset(std::size_t n) {
  data::Dataset ds;
  ds.system_name = "test";
  data::Table t({"f1"});
  for (std::size_t i = 0; i < n; ++i) {
    t.add_row(std::vector<double>{static_cast<double>(i)});
    data::JobMeta m;
    m.job_id = i;
    m.app_id = i % 5;
    m.config_id = i % 10;
    m.start_time = static_cast<double>(i) * 100.0;
    m.end_time = m.start_time + 50.0;
    m.log_fa = 2.0;
    m.log_fg = 0.1;
    m.log_fl = -0.05;
    m.log_fn = 0.01;
    ds.meta.push_back(m);
    ds.target.push_back(m.log_throughput());
  }
  ds.features = t;
  return ds;
}

TEST(Dataset, ValidatePassesOnConsistentData) {
  const auto ds = make_dataset(20);
  EXPECT_NO_THROW(ds.validate());
}

TEST(Dataset, ValidateCatchesBadTarget) {
  auto ds = make_dataset(5);
  ds.target[2] += 1.0;
  EXPECT_THROW(ds.validate(), std::logic_error);
}

TEST(Dataset, ValidateCatchesSizeMismatch) {
  auto ds = make_dataset(5);
  ds.target.pop_back();
  EXPECT_THROW(ds.validate(), std::logic_error);
}

TEST(Dataset, TakeSubsets) {
  const auto ds = make_dataset(10);
  const std::vector<std::size_t> rows = {7, 1};
  const auto sub = ds.take(rows);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.meta[0].job_id, 7u);
  EXPECT_DOUBLE_EQ(sub.features.at(1, 0), 1.0);
}

TEST(Dataset, RowsInWindow) {
  const auto ds = make_dataset(10);
  const auto rows = ds.rows_in_window(200.0, 500.0);
  ASSERT_EQ(rows.size(), 3u);  // jobs starting at 200, 300, 400
  EXPECT_EQ(rows[0], 2u);
}

TEST(Split, RandomSplitPartitions) {
  util::Rng rng(1);
  const auto s = data::random_split(100, 0.6, 0.2, rng);
  EXPECT_EQ(s.train.size(), 60u);
  EXPECT_EQ(s.val.size(), 20u);
  EXPECT_EQ(s.test.size(), 20u);
  std::vector<bool> seen(100, false);
  for (auto idx : {s.train, s.val, s.test}) {
    for (auto i : idx) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
}

TEST(Split, RandomSplitRejectsBadFractions) {
  util::Rng rng(2);
  EXPECT_THROW(data::random_split(10, 0.8, 0.4, rng), std::invalid_argument);
  EXPECT_THROW(data::random_split(10, -0.1, 0.4, rng), std::invalid_argument);
}

TEST(Split, TimeSplitRespectsBoundaries) {
  const auto ds = make_dataset(10);  // starts at 0,100,...,900
  const auto s = data::split_by_start_time(ds, 5);
  EXPECT_EQ(s.train.size(), 5u);
  EXPECT_TRUE(s.val.empty());
  EXPECT_EQ(s.test.size(), 5u);
  for (auto i : s.train) EXPECT_LT(ds.meta[i].start_time, 500.0);
  for (auto i : s.test) EXPECT_GE(ds.meta[i].start_time, 500.0);
}

TEST(Split, TimeSplitFractions) {
  // Out-of-order start times with ties: rows sort by start time, ties
  // keep row order, and a cut past the end puts every row in train.
  auto ds = make_dataset(6);
  const double starts[] = {300.0, 100.0, 300.0, 0.0, 100.0, 200.0};
  for (std::size_t i = 0; i < 6; ++i) ds.meta[i].start_time = starts[i];
  const auto half = data::split_by_start_time(ds, 6 / 2);
  EXPECT_EQ(half.train, (std::vector<std::size_t>{3, 1, 4}));
  EXPECT_EQ(half.test, (std::vector<std::size_t>{5, 0, 2}));
  const auto all = data::split_by_start_time(ds, 100);
  EXPECT_EQ(all.train.size(), 6u);
  EXPECT_TRUE(all.test.empty());
}

TEST(Split, GroupedSplitKeepsDuplicateSetsTogether) {
  const auto ds = make_dataset(100);  // 10 distinct (app,config) groups...
  util::Rng rng(3);
  const auto s = data::grouped_random_split(ds, 0.6, 0.2, rng);
  EXPECT_EQ(s.train.size() + s.val.size() + s.test.size(), 100u);
  // Build group -> side map and check no group straddles sides.
  auto side_of = [&](std::size_t row) {
    for (auto i : s.train) {
      if (i == row) return 0;
    }
    for (auto i : s.val) {
      if (i == row) return 1;
    }
    return 2;
  };
  for (std::size_t a = 0; a < ds.size(); ++a) {
    for (std::size_t b = a + 1; b < ds.size(); ++b) {
      if (ds.meta[a].app_id == ds.meta[b].app_id &&
          ds.meta[a].config_id == ds.meta[b].config_id) {
        EXPECT_EQ(side_of(a), side_of(b));
      }
    }
  }
}

TEST(TableIo, TableRoundTrip) {
  const auto t = make_table();
  const auto path = std::filesystem::temp_directory_path() / "iotax_tbl.csv";
  data::write_table_csv(path.string(), t);
  const auto back = data::read_table_csv(path.string());
  EXPECT_EQ(back.names(), t.names());
  ASSERT_EQ(back.n_rows(), t.n_rows());
  for (std::size_t r = 0; r < t.n_rows(); ++r) {
    for (std::size_t c = 0; c < t.n_cols(); ++c) {
      EXPECT_DOUBLE_EQ(back.at(r, c), t.at(r, c));
    }
  }
  std::filesystem::remove(path);
}

TEST(TableIo, DatasetRoundTrip) {
  const auto ds = make_dataset(25);
  const auto path = std::filesystem::temp_directory_path() / "iotax_ds.csv";
  data::write_dataset_csv(path.string(), ds);
  const auto back = data::read_dataset_csv(path.string(), "test");
  EXPECT_EQ(back.size(), ds.size());
  EXPECT_NO_THROW(back.validate());
  EXPECT_EQ(back.meta[7].job_id, 7u);
  EXPECT_DOUBLE_EQ(back.meta[3].start_time, 300.0);
  EXPECT_EQ(back.features.names(), ds.features.names());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace iotax
