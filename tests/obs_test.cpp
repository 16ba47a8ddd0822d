// Observability layer: span nesting and ordering, histogram bucket
// semantics, exporter golden files — and the guarantee that turning
// IOTAX_OBS on never changes a single model output bit.
//
// These tests mutate process-global observability state (the enabled
// flag, the global trace log and metrics registry), so they live in
// their own binary (iotax_obs_tests, ctest label "obs") instead of the
// main suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "src/ml/ensemble.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/nn.hpp"
#include "src/ml/search.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/json.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::TraceLog::global().reset();
    obs::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::TraceLog::global().reset();
    obs::MetricsRegistry::global().reset();
  }
};

TEST_F(ObsTest, SpanNestingAndOpenOrder) {
  {
    IOTAX_TRACE_SPAN("outer");
    obs::span_arg("k", 1.0);
    {
      IOTAX_TRACE_SPAN("inner");
      { IOTAX_TRACE_SPAN("leaf"); }
    }
    IOTAX_TRACE_SPAN("sibling");
  }
  const auto spans = obs::TraceLog::global().snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // snapshot() sorts by id == open order, even though spans *close*
  // innermost-first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "leaf");
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].depth, 2u);
  EXPECT_EQ(spans[3].parent, spans[0].id);
  EXPECT_EQ(spans[3].depth, 1u);
  for (const auto& s : spans) {
    EXPECT_GE(s.dur_ns, 0);
    EXPECT_GE(s.start_ns, 0);
  }
  // Children open after and close before their parent.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
}

TEST_F(ObsTest, SpanArgsAttachToInnermostOpenSpan) {
  {
    IOTAX_TRACE_SPAN("outer");
    obs::span_arg("outer_arg", 1.0);
    {
      IOTAX_TRACE_SPAN("inner");
      obs::span_arg("inner_arg", 2.0);
    }
    obs::span_arg("outer_arg2", 3.0);
  }
  const auto spans = obs::TraceLog::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(spans[0].args.size(), 2u);
  EXPECT_EQ(spans[0].args[0].first, "outer_arg");
  EXPECT_EQ(spans[0].args[1].first, "outer_arg2");
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "inner_arg");
  EXPECT_DOUBLE_EQ(spans[1].args[0].second, 2.0);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  {
    IOTAX_TRACE_SPAN("ghost");
    obs::span_arg("k", 1.0);
  }
  EXPECT_EQ(obs::TraceLog::global().size(), 0u);
  EXPECT_EQ(obs::now_ns_if_enabled(), 0);
}

TEST_F(ObsTest, SpanGuardEndClosesEarlyAndIsIdempotent) {
  {
    obs::SpanGuard span("early");
    span.end();
    span.end();  // second end() is a no-op
    EXPECT_EQ(obs::TraceLog::global().size(), 1u);
  }  // destructor must not record a second event
  EXPECT_EQ(obs::TraceLog::global().size(), 1u);
}

TEST_F(ObsTest, EnabledFlagFollowsEnvKnob) {
  const char* old = std::getenv("IOTAX_OBS");
  const std::string saved = old != nullptr ? old : "";
  const bool had = old != nullptr;

  ::setenv("IOTAX_OBS", "1", 1);
  obs::refresh_enabled_from_env();
  EXPECT_TRUE(obs::enabled());
  ::setenv("IOTAX_OBS", "0", 1);
  obs::refresh_enabled_from_env();
  EXPECT_FALSE(obs::enabled());
  ::unsetenv("IOTAX_OBS");
  obs::refresh_enabled_from_env();
  EXPECT_FALSE(obs::enabled());

  if (had) ::setenv("IOTAX_OBS", saved.c_str(), 1);
  obs::set_enabled(true);  // restore fixture state
}

TEST_F(ObsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 2.0, 5.0});
  // Exact edge values land in the bucket they bound (Prometheus "le").
  h.observe(1.0);
  h.observe(2.0);
  h.observe(5.0);
  h.observe(0.5);   // below first edge -> bucket 0
  h.observe(1.5);   // (1, 2] -> bucket 1
  h.observe(5.01);  // above last edge -> overflow
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(buckets[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(buckets[2], 1u);  // 5.0
  EXPECT_EQ(buckets[3], 1u);  // 5.01
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 2.0 + 5.0 + 0.5 + 1.5 + 5.01);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (const auto b : h.bucket_counts()) EXPECT_EQ(b, 0u);
}

TEST_F(ObsTest, HistogramQuantilesInterpolateWithinBuckets) {
  obs::Histogram h({1.0, 2.0, 4.0});
  EXPECT_TRUE(std::isnan(h.bucket_quantile(0.5)));  // empty histogram
  // 10 observations in (1, 2]: the estimate interpolates linearly
  // through that bucket.
  for (int i = 0; i < 10; ++i) h.observe(1.5);
  EXPECT_DOUBLE_EQ(h.bucket_quantile(0.5), 1.5);   // rank 5 of 10 -> midpoint
  EXPECT_DOUBLE_EQ(h.bucket_quantile(1.0), 2.0);   // upper edge of the bucket
  // Spread across buckets: 10 in (1,2], 10 in (2,4].
  for (int i = 0; i < 10; ++i) h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.bucket_quantile(0.5), 2.0);   // rank 10 closes bucket 1
  EXPECT_DOUBLE_EQ(h.bucket_quantile(0.75), 3.0);  // rank 15, halfway into (2,4]
  // Observations beyond the last edge clamp to it (the overflow bucket
  // has no upper bound to interpolate toward).
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.bucket_quantile(1.0), 4.0);
  // Out-of-range q is clamped, not an error.
  EXPECT_DOUBLE_EQ(h.bucket_quantile(-0.5), h.bucket_quantile(0.0));
  EXPECT_DOUBLE_EQ(h.bucket_quantile(1.5), h.bucket_quantile(1.0));
}

TEST_F(ObsTest, HistogramRejectsBadEdges) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST_F(ObsTest, RegistryHandlesAreStableAndResetKeepsThem) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("x");
  c.add(2);
  EXPECT_EQ(&reg.counter("x"), &c);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(reg.counter("x").value(), 1u);
  // Histogram edges apply on first creation only.
  obs::Histogram& h = reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&reg.histogram("h", {9.0}), &h);
  EXPECT_EQ(h.edges().size(), 2u);
}

void fill_golden(obs::MetricsRegistry& reg) {
  reg.counter("a.count").add(3);
  reg.gauge("b.gauge").set(1.5);
  obs::Histogram& h = reg.histogram("c.h", {1.0, 2.0});
  h.observe(1.0);
  h.observe(3.0);
}

TEST_F(ObsTest, MetricsJsonGolden) {
  obs::MetricsRegistry reg;
  fill_golden(reg);
  std::ostringstream out;
  reg.write_json(out);
  const std::string expected = R"({
 "counters": {
  "a.count": 3
 },
 "gauges": {
  "b.gauge": 1.5
 },
 "histograms": {
  "c.h": {
   "edges": [
    1,
    2
   ],
   "buckets": [
    1,
    0,
    1
   ],
   "count": 2,
   "sum": 4
  }
 }
}
)";
  EXPECT_EQ(out.str(), expected);
  // And the export must round-trip through the strict parser.
  EXPECT_NO_THROW(util::Json::parse(out.str()));
}

TEST_F(ObsTest, MetricsCsvGolden) {
  obs::MetricsRegistry reg;
  fill_golden(reg);
  std::ostringstream out;
  reg.write_csv(out);
  const std::string expected =
      "type,name,field,value\n"
      "counter,a.count,value,3\n"
      "gauge,b.gauge,value,1.5\n"
      "histogram,c.h,le_1,1\n"
      "histogram,c.h,le_2,0\n"
      "histogram,c.h,le_inf,1\n"
      "histogram,c.h,count,2\n"
      "histogram,c.h,sum,4\n";
  EXPECT_EQ(out.str(), expected);
}

TEST_F(ObsTest, ChromeTraceExportIsValidAndComplete) {
  {
    IOTAX_TRACE_SPAN("outer");
    obs::span_arg("rows", 42.0);
    { IOTAX_TRACE_SPAN("inner"); }
  }
  std::ostringstream out;
  obs::TraceLog::global().write_chrome_json(out);
  const auto doc = util::Json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("cat").as_string(), "iotax");
    EXPECT_EQ(e.at("pid").as_int(), 1);
    EXPECT_GE(e.at("ts").as_double(), 0.0);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
  }
  EXPECT_EQ(events[0].at("name").as_string(), "outer");
  EXPECT_DOUBLE_EQ(events[0].at("args").at("rows").as_double(), 42.0);
  EXPECT_EQ(events[1].at("name").as_string(), "inner");
  // The child's args carry the parent span id for tree reconstruction.
  EXPECT_EQ(events[1].at("args").at("parent").as_int(),
            events[0].at("args").at("id").as_int());
}

// --- Json unit coverage -------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a": [1, 2.5, -3], "b": {"nested": true}, "c": null, "d": "x\ny"})";
  const auto doc = util::Json::parse(text);
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a")[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("a")[1].as_double(), 2.5);
  EXPECT_TRUE(doc.at("b").at("nested").as_bool());
  EXPECT_TRUE(doc.at("c").is_null());
  EXPECT_EQ(doc.at("d").as_string(), "x\ny");
  // dump -> parse -> dump is a fixed point.
  const std::string once = doc.dump();
  EXPECT_EQ(util::Json::parse(once).dump(), once);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(util::Json::parse(""), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("{\"a\": 1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(util::Json::parse("{\"a\": 1, \"a\": 2}"),
               std::invalid_argument);
  EXPECT_THROW(util::Json::parse("[1, 2,]"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(util::Json::parse("1e999"), std::invalid_argument);
}

TEST(Json, IntegersRenderWithoutDecimalPoint) {
  EXPECT_EQ(util::Json(3.0).dump(), "3");
  EXPECT_EQ(util::Json(-3.0).dump(), "-3");
  EXPECT_EQ(util::Json(0.25).dump(), "0.25");
  EXPECT_EQ(util::Json(std::size_t{7}).dump(), "7");
}

// --- IOTAX_OBS=1 must not change any model output ----------------------

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy small_data(std::uint64_t seed) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(400, 3);
  d.y.resize(400);
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t c = 0; c < 3; ++c) d.x(i, c) = rng.uniform(-1.0, 1.0);
    d.y[i] = d.x(i, 0) - d.x(i, 1) * d.x(i, 2) + rng.normal(0.0, 0.1);
  }
  return d;
}

// Run `fn` with observability off then on (fresh trace/metrics state),
// under IOTAX_THREADS=1 and =4; all four results must be bit-identical.
class ObsDeterminism : public ::testing::Test {
 protected:
  template <typename F>
  static auto off_and_on_at(const char* threads, F&& fn) {
    const char* old = std::getenv("IOTAX_THREADS");
    const std::string saved = old != nullptr ? old : "";
    const bool had = old != nullptr;
    ::setenv("IOTAX_THREADS", threads, 1);

    obs::set_enabled(false);
    auto off = fn();
    obs::set_enabled(true);
    obs::TraceLog::global().reset();
    obs::MetricsRegistry::global().reset();
    auto on = fn();
    obs::set_enabled(false);
    obs::TraceLog::global().reset();
    obs::MetricsRegistry::global().reset();

    if (had) {
      ::setenv("IOTAX_THREADS", saved.c_str(), 1);
    } else {
      ::unsetenv("IOTAX_THREADS");
    }
    return std::make_pair(std::move(off), std::move(on));
  }

  template <typename F>
  static void expect_identical_everywhere(F&& fn) {
    const auto [off1, on1] = off_and_on_at("1", fn);
    const auto [off4, on4] = off_and_on_at("4", fn);
    for (std::size_t i = 0; i < off1.size(); ++i) {
      ASSERT_EQ(off1[i], on1[i]) << "obs flipped output " << i << " (serial)";
      ASSERT_EQ(off4[i], on4[i]) << "obs flipped output " << i
                                 << " (threaded)";
      ASSERT_EQ(off1[i], off4[i]) << "threads flipped output " << i;
    }
  }
};

TEST_F(ObsDeterminism, GbtOutputsBitIdentical) {
  const auto train = small_data(11);
  const auto probe = small_data(12);
  expect_identical_everywhere([&] {
    ml::GbtParams p;
    p.n_estimators = 20;
    p.max_depth = 4;
    p.subsample = 0.8;  // exercises the fit-time RNG
    p.colsample = 0.7;
    ml::GradientBoostedTrees model(p);
    model.fit(train.x, train.y);
    return model.predict(probe.x);
  });
}

TEST_F(ObsDeterminism, MlpOutputsBitIdentical) {
  const auto train = small_data(13);
  const auto probe = small_data(14);
  expect_identical_everywhere([&] {
    ml::MlpParams p;
    p.hidden = {16};
    p.epochs = 4;
    p.dropout = 0.1;  // exercises the dropout RNG stream
    p.nll_head = true;
    ml::Mlp model(p);
    model.fit(train.x, train.y);
    const auto dist = model.predict_dist(probe.x);
    auto out = dist.mean;
    out.insert(out.end(), dist.variance.begin(), dist.variance.end());
    return out;
  });
}

TEST_F(ObsDeterminism, EnsembleOutputsBitIdentical) {
  const auto train = small_data(15);
  expect_identical_everywhere([&] {
    ml::EnsembleParams params;
    params.size = 3;
    params.epochs = 3;
    ml::DeepEnsemble ens(params);
    ens.fit(train.x, train.y);
    const auto uq = ens.predict_uncertainty(train.x);
    auto out = uq.mean;
    out.insert(out.end(), uq.aleatory.begin(), uq.aleatory.end());
    out.insert(out.end(), uq.epistemic.begin(), uq.epistemic.end());
    return out;
  });
}

TEST_F(ObsDeterminism, SearchOutputsBitIdentical) {
  const auto train = small_data(16);
  const auto val = small_data(17);
  expect_identical_everywhere([&] {
    ml::GbtGrid grid;
    grid.base.n_estimators = 8;
    grid.n_estimators = {4, 8};
    grid.max_depth = {3, 4};
    grid.subsample = {0.9};
    grid.colsample = {0.8};
    const auto result =
        ml::grid_search(grid, train.x, train.y, val.x, val.y);
    std::vector<double> errs;
    for (const auto& point : result.evaluated) errs.push_back(point.val_error);
    errs.push_back(result.best.val_error);
    return errs;
  });
}

TEST_F(ObsDeterminism, InstrumentedRunRecordsSpansAndMetrics) {
  const auto train = small_data(18);
  obs::set_enabled(true);
  obs::TraceLog::global().reset();
  obs::MetricsRegistry::global().reset();
  ml::GbtParams p;
  p.n_estimators = 5;
  ml::GradientBoostedTrees model(p);
  model.fit(train.x, train.y);
  model.predict(train.x);

  bool saw_fit = false;
  bool saw_predict = false;
  for (const auto& s : obs::TraceLog::global().snapshot()) {
    if (s.name == "gbt.fit") saw_fit = true;
    if (s.name == "gbt.predict") saw_predict = true;
  }
  EXPECT_TRUE(saw_fit);
  EXPECT_TRUE(saw_predict);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  bool saw_trees = false;
  for (const auto& row : snap.counters) {
    if (row.name == "gbt.trees") {
      saw_trees = true;
      EXPECT_EQ(row.value, 5u);
    }
  }
  EXPECT_TRUE(saw_trees);
  bool saw_hist = false;
  for (const auto& row : snap.histograms) {
    if (row.name == "gbt.tree_ms") {
      saw_hist = true;
      EXPECT_EQ(row.count, 5u);
    }
  }
  EXPECT_TRUE(saw_hist);
  obs::set_enabled(false);
  obs::TraceLog::global().reset();
  obs::MetricsRegistry::global().reset();
}

}  // namespace
}  // namespace iotax
