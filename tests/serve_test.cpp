// The serving stack: frame codec, bounded MPMC queue, and the daemon
// end to end over a real Unix socket — golden bit-identity against
// offline predictions at IOTAX_THREADS 1 and 4, truncation at every
// byte boundary, admission control, graceful-drain accounting (also
// with requests in flight when stop() is called), and batches that close
// on what has arrived unless a hold is asked for.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/data/matrix.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/client.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/frame.hpp"
#include "src/util/mpmc.hpp"
#include "src/util/quarantine.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

using util::FrameDecode;
using util::FrameHeader;
using util::FrameType;
using util::Reason;

// -- frame codec ------------------------------------------------------------

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Frame, PrimitivesRoundTripBitExact) {
  std::string buf;
  util::put_u16(&buf, 0xBEEF);
  util::put_u32(&buf, 0xDEADBEEFu);
  util::put_u64(&buf, 0x0123456789ABCDEFull);
  util::put_f64(&buf, -0.0);
  util::put_f64(&buf, 1e-308);  // subnormal territory survives transport
  std::size_t pos = 0;
  std::uint16_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  double d = 0.0, e = 0.0;
  ASSERT_TRUE(util::get_u16(as_bytes(buf), &pos, &a));
  ASSERT_TRUE(util::get_u32(as_bytes(buf), &pos, &b));
  ASSERT_TRUE(util::get_u64(as_bytes(buf), &pos, &c));
  ASSERT_TRUE(util::get_f64(as_bytes(buf), &pos, &d));
  ASSERT_TRUE(util::get_f64(as_bytes(buf), &pos, &e));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(std::signbit(d));  // -0.0, not 0.0
  EXPECT_EQ(e, 1e-308);
  EXPECT_EQ(pos, buf.size());
  // Reads past the end fail without moving the cursor.
  EXPECT_FALSE(util::get_u16(as_bytes(buf), &pos, &a));
  EXPECT_EQ(pos, buf.size());
}

TEST(Frame, EncodeDecodeRoundTrip) {
  const auto wire = util::encode_frame(FrameType::kPredictRequest,
                                       util::kFlagPredictDist, 42, "payload");
  ASSERT_EQ(wire.size(), FrameHeader::kWireSize + 7);
  const auto dec = util::decode_frame(as_bytes(wire));
  ASSERT_EQ(dec.status, FrameDecode::Status::kOk);
  EXPECT_EQ(dec.header.version, FrameHeader::kVersion);
  EXPECT_EQ(dec.header.type,
            static_cast<std::uint8_t>(FrameType::kPredictRequest));
  EXPECT_EQ(dec.header.flags, util::kFlagPredictDist);
  EXPECT_EQ(dec.header.request_id, 42u);
  EXPECT_EQ(dec.header.payload_len, 7u);
  EXPECT_EQ(dec.consumed, wire.size());
}

TEST(Frame, EveryPrefixNeedsMore) {
  const auto wire =
      util::encode_frame(FrameType::kPredictRequest, 0, 7, "abcdef");
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const auto dec = util::decode_frame(as_bytes(wire).subspan(0, n));
    EXPECT_EQ(dec.status, FrameDecode::Status::kNeedMore) << "prefix " << n;
  }
}

TEST(Frame, BadMagicRejectedFromFirstByte) {
  auto wire = util::encode_frame(FrameType::kPing, 0, 1, "");
  wire[0] = 'X';
  // A wrong protocol is detected on the very first byte, before a full
  // header ever accumulates.
  const auto dec = util::decode_frame(as_bytes(wire).subspan(0, 1));
  EXPECT_EQ(dec.status, FrameDecode::Status::kBad);
  EXPECT_EQ(dec.reason, Reason::kBadMagic);
}

TEST(Frame, BadVersionRejected) {
  auto wire = util::encode_frame(FrameType::kPing, 0, 1, "");
  wire[4] = 9;  // version field, little-endian low byte
  const auto dec = util::decode_frame(as_bytes(wire));
  EXPECT_EQ(dec.status, FrameDecode::Status::kBad);
  EXPECT_EQ(dec.reason, Reason::kBadVersion);
}

TEST(Frame, ImplausiblePayloadLengthRejected) {
  auto wire = util::encode_frame(FrameType::kPing, 0, 1, "");
  const std::uint32_t huge = FrameHeader::kMaxPayload + 1;
  std::memcpy(wire.data() + 16, &huge, sizeof(huge));
  const auto dec = util::decode_frame(as_bytes(wire));
  EXPECT_EQ(dec.status, FrameDecode::Status::kBad);
  EXPECT_EQ(dec.reason, Reason::kImplausibleSize);
}

TEST(Frame, ControlCodecRoundTripAndDefects) {
  serve::ControlRequest req;
  req.request_id = 77;
  req.op = serve::ControlOp::kPromote;
  req.model_index = 3;
  req.min_shadow_requests = 1000;
  const auto wire = serve::encode_control_request(req);
  auto dec = util::decode_frame(as_bytes(wire));
  ASSERT_EQ(dec.status, FrameDecode::Status::kOk);
  ASSERT_EQ(dec.header.type,
            static_cast<std::uint8_t>(FrameType::kControlRequest));
  serve::ControlRequest got;
  serve::ErrorResponse err;
  ASSERT_TRUE(serve::decode_control_request(
      dec.header, as_bytes(wire).subspan(FrameHeader::kWireSize), &got, &err));
  EXPECT_EQ(got.request_id, 77u);
  EXPECT_EQ(got.op, serve::ControlOp::kPromote);
  EXPECT_EQ(got.model_index, 3);
  EXPECT_EQ(got.min_shadow_requests, 1000u);

  serve::ControlResponse resp;
  resp.request_id = 77;
  resp.ok = true;
  resp.generation = 9;
  resp.shadow_requests = 1234;
  resp.shadow_diverged = 5;
  resp.max_abs_divergence = 0.125;
  resp.detail = "promoted candidate.gbt as generation 9";
  const auto rwire = serve::encode_control_response(resp);
  dec = util::decode_frame(as_bytes(rwire));
  ASSERT_EQ(dec.status, FrameDecode::Status::kOk);
  serve::ControlResponse rgot;
  ASSERT_TRUE(serve::decode_control_response(
      dec.header, as_bytes(rwire).subspan(FrameHeader::kWireSize), &rgot));
  EXPECT_TRUE(rgot.ok);
  EXPECT_EQ(rgot.generation, 9u);
  EXPECT_EQ(rgot.shadow_requests, 1234u);
  EXPECT_EQ(rgot.shadow_diverged, 5u);
  EXPECT_EQ(rgot.max_abs_divergence, 0.125);
  EXPECT_EQ(rgot.detail, resp.detail);

  // Defects carry typed reasons, like every other payload codec.
  {  // Short payload: the fixed fields do not even fit.
    const auto bad = util::encode_frame(FrameType::kControlRequest, 0, 1,
                                        std::string(7, '\0'));
    dec = util::decode_frame(as_bytes(bad));
    ASSERT_EQ(dec.status, FrameDecode::Status::kOk);
    EXPECT_FALSE(serve::decode_control_request(
        dec.header, as_bytes(bad).subspan(FrameHeader::kWireSize), &got,
        &err));
    EXPECT_EQ(err.reason, Reason::kTruncated);
  }
  {  // Trailing garbage after the fixed fields.
    const auto bad = util::encode_frame(FrameType::kControlRequest, 0, 1,
                                        std::string(13, '\0'));
    dec = util::decode_frame(as_bytes(bad));
    EXPECT_FALSE(serve::decode_control_request(
        dec.header, as_bytes(bad).subspan(FrameHeader::kWireSize), &got,
        &err));
    EXPECT_EQ(err.reason, Reason::kSizeMismatch);
  }
  {  // Unknown op (0 and one past kStatus are both outside the enum).
    for (const std::uint16_t op : {std::uint16_t{0}, std::uint16_t{4}}) {
      std::string payload;
      util::put_u16(&payload, op);
      util::put_u16(&payload, 0);
      util::put_u64(&payload, 0);
      const auto bad =
          util::encode_frame(FrameType::kControlRequest, 0, 1, payload);
      dec = util::decode_frame(as_bytes(bad));
      EXPECT_FALSE(serve::decode_control_request(
          dec.header, as_bytes(bad).subspan(FrameHeader::kWireSize), &got,
          &err));
      EXPECT_EQ(err.reason, Reason::kBadNumber) << "op " << op;
    }
  }
}

TEST(Frame, ReasonNamesRoundTrip) {
  Reason r = Reason::kBadChecksum;
  ASSERT_TRUE(util::reason_from_name("truncated", &r));
  EXPECT_EQ(r, Reason::kTruncated);
  EXPECT_FALSE(util::reason_from_name("no-such-reason", &r));
  EXPECT_EQ(r, Reason::kTruncated);  // untouched on failure
}

// -- bounded MPMC queue -----------------------------------------------------

TEST(BoundedQueue, BackpressureAndClose) {
  util::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: caller sheds
  auto batch = q.pop_batch(8, std::chrono::microseconds(0));
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: no new work
  EXPECT_TRUE(q.pop_batch(8, std::chrono::microseconds(0)).empty());
}

TEST(BoundedQueue, BatchGatherRespectsMaxN) {
  util::BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(i));
  const auto first = q.pop_batch(3, std::chrono::microseconds(0));
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
  const auto rest = q.pop_batch(3, std::chrono::microseconds(0));
  EXPECT_EQ(rest, (std::vector<int>{3, 4}));
}

TEST(BoundedQueue, ConcurrentProducersDrainCompletely) {
  util::BoundedQueue<int> q(16);
  constexpr int kPerProducer = 500;
  std::atomic<int> pushed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&q, &pushed] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.try_push(i)) std::this_thread::yield();
        pushed.fetch_add(1);
      }
    });
  }
  std::atomic<int> popped{0};
  std::thread consumer([&q, &popped] {
    while (true) {
      const auto batch = q.pop_batch(8, std::chrono::microseconds(50));
      if (batch.empty()) return;  // closed and drained
      popped.fetch_add(static_cast<int>(batch.size()));
    }
  });
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(pushed.load(), 3 * kPerProducer);
  EXPECT_EQ(popped.load(), 3 * kPerProducer);
}

// -- daemon end to end ------------------------------------------------------

struct Xy {
  data::Matrix x{0, 0};
  std::vector<double> y;
};

Xy make_data(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Xy d;
  d.x = data::Matrix(n, 5);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 5; ++c) d.x(i, c) = rng.uniform(-3.0, 3.0);
    d.y[i] = std::sin(d.x(i, 0)) + 0.3 * d.x(i, 1) * d.x(i, 2) +
             rng.normal(0.0, 0.05);
  }
  return d;
}

/// Train a small GBT once, save the checkpoint to a temp file, and hand
/// out servers bound to per-test Unix sockets.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_ = new Xy(make_data(400, 11));
    probe_ = new Xy(make_data(64, 12));
    ml::GbtParams p;
    p.n_estimators = 12;
    p.max_depth = 4;
    model_ = new ml::GradientBoostedTrees(p);
    model_->fit(train_->x, train_->y);
    model_path_ = ::testing::TempDir() + "serve_test_model.gbt";
    // Under `ctest -j` every test is its own process writing this same
    // file: save a private copy and rename it into place, so no process
    // ever loads a half-written checkpoint.
    const std::string tmp = model_path_ + "." + std::to_string(::getpid());
    {
      std::ofstream out(tmp);
      ASSERT_TRUE(out.is_open());
      model_->save(out);
    }
    ASSERT_EQ(std::rename(tmp.c_str(), model_path_.c_str()), 0);
  }

  static void TearDownTestSuite() {
    delete train_;
    delete probe_;
    delete model_;
    train_ = nullptr;
    probe_ = nullptr;
    model_ = nullptr;
  }

  serve::ServeConfig base_config(const char* tag) const {
    serve::ServeConfig cfg;
    cfg.model_files = {model_path_};
    cfg.unix_socket = ::testing::TempDir() + "serve_test_" + tag + ".sock";
    return cfg;
  }

  static serve::PredictRequest request_for_row(std::size_t row,
                                               std::uint64_t id) {
    serve::PredictRequest req;
    req.request_id = id;
    const auto src = probe_->x.row(row);
    req.features.assign(src.begin(), src.end());
    return req;
  }

  /// Pipeline every probe row through `client` and return predictions
  /// in row order.
  static std::vector<double> query_all(serve::Client& client) {
    const std::size_t n = probe_->x.rows();
    for (std::size_t i = 0; i < n; ++i) {
      client.send_predict(request_for_row(i, i + 1));
    }
    std::vector<double> pred(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      serve::Client::Reply reply;
      EXPECT_TRUE(client.read_reply(&reply));
      EXPECT_EQ(reply.type, FrameType::kPredictResponse);
      EXPECT_EQ(reply.predict.values.size(), 1u);
      const auto row = reply.request_id - 1;
      EXPECT_LT(row, n);
      if (reply.predict.values.size() == 1 && row < n) {
        pred[row] = reply.predict.values[0];
      }
    }
    return pred;
  }

  static Xy* train_;
  static Xy* probe_;
  static ml::GradientBoostedTrees* model_;
  static std::string model_path_;
};

Xy* ServeTest::train_ = nullptr;
Xy* ServeTest::probe_ = nullptr;
ml::GradientBoostedTrees* ServeTest::model_ = nullptr;
std::string ServeTest::model_path_;

/// Bit-pattern equality: the golden guarantee is byte-identity, not
/// almost-equality.
void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ba, bb) << "row " << i;
  }
}

TEST_F(ServeTest, GoldenBitIdenticalToOfflineAcrossThreadCounts) {
  // setenv only while no server threads are alive; each pass brings the
  // daemon up under one fixed IOTAX_THREADS.
  const char* old = std::getenv("IOTAX_THREADS");
  const std::string saved = old != nullptr ? old : "";
  for (const char* threads : {"1", "4"}) {
    ::setenv("IOTAX_THREADS", threads, 1);
    const auto offline = model_->predict(probe_->x);
    serve::Server server(base_config("golden"));
    server.start();
    auto client = serve::Client::connect_unix(server.config().unix_socket);
    const auto served = query_all(client);
    client.close();
    server.stop();
    expect_bit_identical(served, offline);
    const auto stats = server.stats();
    EXPECT_EQ(stats.requests, probe_->x.rows());
    EXPECT_EQ(stats.responses, probe_->x.rows());
    EXPECT_GE(stats.batches, 1u);
  }
  if (!saved.empty()) {
    ::setenv("IOTAX_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("IOTAX_THREADS");
  }
}

TEST_F(ServeTest, ServesManyConnectionsOverTcp) {
  auto cfg = base_config("tcp");
  cfg.unix_socket.clear();
  cfg.tcp_port = 0;  // ephemeral
  serve::Server server(cfg);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  const auto offline = model_->predict(probe_->x);
  for (int pass = 0; pass < 3; ++pass) {
    auto client = serve::Client::connect_tcp(
        "127.0.0.1", static_cast<std::uint16_t>(server.tcp_port()));
    expect_bit_identical(query_all(client), offline);
  }
  server.stop();
  EXPECT_EQ(server.stats().connections, 3u);
}

TEST_F(ServeTest, TruncationAtEveryByteBoundaryIsQuarantined) {
  serve::Server server(base_config("trunc"));
  server.start();
  const auto wire = serve::encode_predict_request(request_for_row(0, 99));
  std::uint64_t expect_truncated = 0;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    auto client = serve::Client::connect_unix(server.config().unix_socket);
    client.send_raw(std::string_view(wire).substr(0, cut));
    client.shutdown_write();
    serve::Client::Reply reply;
    if (cut == 0) {
      // A clean close is not a defect.
      EXPECT_FALSE(client.read_reply(&reply));
      continue;
    }
    ++expect_truncated;
    ASSERT_TRUE(client.read_reply(&reply)) << "cut at byte " << cut;
    EXPECT_EQ(reply.type, FrameType::kErrorResponse);
    EXPECT_EQ(reply.error.status, serve::ServeStatus::kBadFrame);
    ASSERT_TRUE(reply.error.reason.has_value());
    EXPECT_EQ(*reply.error.reason, Reason::kTruncated) << "cut " << cut;
    EXPECT_FALSE(client.read_reply(&reply));  // connection then closes
  }
  // The daemon took every partial frame on the chin and still serves.
  auto client = serve::Client::connect_unix(server.config().unix_socket);
  client.send_predict(request_for_row(0, 7));
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  client.close();
  server.stop();
  EXPECT_EQ(server.quarantine().count(Reason::kTruncated), expect_truncated);
  EXPECT_EQ(server.stats().quarantined, expect_truncated);
}

TEST_F(ServeTest, BadMagicClosesOnlyThatConnection) {
  serve::Server server(base_config("magic"));
  server.start();
  auto bad = serve::Client::connect_unix(server.config().unix_socket);
  bad.send_raw("GET / HTTP/1.1\r\n\r\n");  // wrong protocol entirely
  serve::Client::Reply reply;
  ASSERT_TRUE(bad.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kBadFrame);
  ASSERT_TRUE(reply.error.reason.has_value());
  EXPECT_EQ(*reply.error.reason, Reason::kBadMagic);
  EXPECT_FALSE(bad.read_reply(&reply));  // that connection is done

  auto good = serve::Client::connect_unix(server.config().unix_socket);
  good.send_ping(5);
  ASSERT_TRUE(good.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPong);
  EXPECT_EQ(reply.request_id, 5u);
  server.stop();
  EXPECT_EQ(server.quarantine().count(Reason::kBadMagic), 1u);
}

TEST_F(ServeTest, WireDefectsMapToStableReasons) {
  serve::Server server(base_config("defects"));
  server.start();
  serve::Client::Reply reply;

  {  // Unsupported protocol version.
    auto wire = util::encode_frame(FrameType::kPing, 0, 1, "");
    wire[4] = 9;
    auto client = serve::Client::connect_unix(server.config().unix_socket);
    client.send_raw(wire);
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_TRUE(reply.error.reason.has_value());
    EXPECT_EQ(*reply.error.reason, Reason::kBadVersion);
  }
  {  // Server-only frame type arriving at the server.
    auto client = serve::Client::connect_unix(server.config().unix_socket);
    client.send_raw(util::encode_frame(FrameType::kPong, 0, 2, ""));
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_TRUE(reply.error.reason.has_value());
    EXPECT_EQ(*reply.error.reason, Reason::kMalformedHeader);
    // Frame boundaries are intact, so the connection survives.
    client.send_ping(3);
    ASSERT_TRUE(client.read_reply(&reply));
    EXPECT_EQ(reply.type, FrameType::kPong);
  }
  {  // NaN feature: well-framed, semantically poisonous.
    auto req = request_for_row(1, 4);
    req.features[2] = std::nan("");
    auto client = serve::Client::connect_unix(server.config().unix_socket);
    client.send_predict(req);
    ASSERT_TRUE(client.read_reply(&reply));
    EXPECT_EQ(reply.error.status, serve::ServeStatus::kBadRequest);
    ASSERT_TRUE(reply.error.reason.has_value());
    EXPECT_EQ(*reply.error.reason, Reason::kNonFiniteValue);
  }
  {  // Feature width that disagrees with the checkpoint.
    serve::PredictRequest req;
    req.request_id = 5;
    req.features = {1.0, 2.0};  // model expects 5
    auto client = serve::Client::connect_unix(server.config().unix_socket);
    client.send_predict(req);
    ASSERT_TRUE(client.read_reply(&reply));
    EXPECT_EQ(reply.error.status, serve::ServeStatus::kBadRequest);
    ASSERT_TRUE(reply.error.reason.has_value());
    EXPECT_EQ(*reply.error.reason, Reason::kSizeMismatch);
  }
  {  // Model index outside the registry.
    auto req = request_for_row(1, 6);
    req.model_index = 7;
    auto client = serve::Client::connect_unix(server.config().unix_socket);
    client.send_predict(req);
    ASSERT_TRUE(client.read_reply(&reply));
    EXPECT_EQ(reply.error.status, serve::ServeStatus::kUnknownModel);
    EXPECT_FALSE(reply.error.reason.has_value());
    // Recoverable: the same connection can still predict.
    client.send_predict(request_for_row(1, 7));
    ASSERT_TRUE(client.read_reply(&reply));
    EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  }
  server.stop();
  const auto q = server.quarantine();
  EXPECT_EQ(q.count(Reason::kBadVersion), 1u);
  EXPECT_EQ(q.count(Reason::kMalformedHeader), 1u);
  EXPECT_EQ(q.count(Reason::kNonFiniteValue), 1u);
  EXPECT_EQ(q.count(Reason::kSizeMismatch), 1u);
}

TEST_F(ServeTest, AdmissionControlShedsWithTypedBusy) {
  auto cfg = base_config("busy");
  cfg.batch_size = 4;
  cfg.batch_wait_us = 200000;  // hold the batch open: responses can't race
  cfg.max_inflight = 2;
  serve::Server server(cfg);
  server.start();
  auto client = serve::Client::connect_unix(server.config().unix_socket);
  // Three back-to-back requests down one pipe: the reader admits 1 and
  // 2, then inflight == max and 3 must shed.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    client.send_predict(request_for_row(id, id));
  }
  std::map<std::uint64_t, bool> busy;  // id -> was shed
  for (int i = 0; i < 3; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    if (reply.type == FrameType::kErrorResponse) {
      ASSERT_EQ(reply.error.status, serve::ServeStatus::kBusy);
      busy[reply.request_id] = true;
    } else {
      ASSERT_EQ(reply.type, FrameType::kPredictResponse);
      busy[reply.request_id] = false;
    }
  }
  EXPECT_FALSE(busy[1]);
  EXPECT_FALSE(busy[2]);
  EXPECT_TRUE(busy[3]);
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.errors, 0u);  // BUSY is shed, not an error
}

TEST_F(ServeTest, DrainAnswersEverythingAdmitted) {
  auto cfg = base_config("drain");
  cfg.batch_size = 8;
  cfg.batch_wait_us = 5000;
  serve::Server server(cfg);
  server.start();
  auto client = serve::Client::connect_unix(server.config().unix_socket);
  constexpr std::uint64_t kRequests = 40;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    client.send_predict(request_for_row(id % 64, id));
  }
  std::uint64_t answered = 0;
  for (; answered < kRequests; ++answered) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
  }
  server.stop();
  const auto stats = server.stats();
  // The drain invariant: every admitted request was answered.
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.responses, kRequests);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_TRUE(server.quarantine().empty());
  // stop() is idempotent.
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_F(ServeTest, DrainWithRequestsInFlightAnswersOrRefusesEach) {
  // stop() lands while 64 pipelined predicts are unread or in flight.
  // Each one read before the drain began is answered with its real
  // prediction; one read after gets a typed kShuttingDown (a router
  // fails over on it at once). Nothing is answered twice, and EOF
  // follows once the last reply is out.
  auto cfg = base_config("drain_inflight");
  cfg.batch_size = 8;
  cfg.batch_wait_us = 5000;
  serve::Server server(cfg);
  server.start();
  const auto offline = model_->predict(probe_->x);
  auto client = serve::Client::connect_unix(server.config().unix_socket);
  client.set_recv_timeout_ms(5000);
  serve::Client::Reply reply;
  client.send_ping(1000);  // the session is accepted before stop() runs
  ASSERT_TRUE(client.read_reply(&reply));
  constexpr std::uint64_t kRequests = 64;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    client.send_predict(request_for_row(id - 1, id));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::jthread stopper([&server] { server.stop(); });
  std::set<std::uint64_t> answered;
  std::uint64_t predicted = 0, refused = 0;
  const auto next = [&] {
    try {
      return client.read_reply(&reply);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "no clean EOF after the last reply: " << e.what();
      return false;
    }
  };
  while (next()) {
    ASSERT_GE(reply.request_id, 1u);
    ASSERT_LE(reply.request_id, kRequests);
    EXPECT_TRUE(answered.insert(reply.request_id).second)
        << "request " << reply.request_id << " answered twice";
    if (reply.type == FrameType::kPredictResponse) {
      ++predicted;
      expect_bit_identical(reply.predict.values,
                           {offline[reply.request_id - 1]});
    } else {
      ASSERT_EQ(reply.type, FrameType::kErrorResponse);
      EXPECT_EQ(reply.error.status, serve::ServeStatus::kShuttingDown);
      ++refused;
    }
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  // Everything was sent before stop(), so the drain read all of it.
  EXPECT_EQ(answered.size(), kRequests);
  stopper.join();
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_EQ(stats.responses, predicted);
  EXPECT_EQ(stats.shed, refused);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServeTest, LoneRequestIsNotHeldForCompany) {
  // A batch closes on what has arrived: under the default config a lone
  // request leaves the queue as soon as the batcher wakes, instead of
  // sitting out a gather window for company that never comes. An
  // explicit batch_wait_us still holds a short batch open, which the
  // hold-based serve and fleet tests rely on. Each request is sent
  // alone, so the sum of serve.queue_wait_ms grows by exactly its one
  // sample.
  const bool obs_was_on = obs::enabled();
  obs::set_enabled(true);
  auto& registry = obs::MetricsRegistry::global();
  const obs::Histogram& queue_wait =
      registry.histogram("serve.queue_wait_ms", obs::latency_ms_edges());
  const auto lone_waits_ms = [&](const serve::ServeConfig& cfg,
                                 std::size_t n) {
    registry.reset();
    serve::Server server(cfg);
    server.start();
    auto client = serve::Client::connect_unix(cfg.unix_socket);
    std::vector<double> waits;
    for (std::size_t i = 0; i < n; ++i) {
      const double before = queue_wait.sum();
      client.send_predict(request_for_row(i, i + 1));
      serve::Client::Reply reply;
      EXPECT_TRUE(client.read_reply(&reply));
      EXPECT_EQ(reply.type, FrameType::kPredictResponse);
      EXPECT_EQ(queue_wait.count(), i + 1);
      waits.push_back(queue_wait.sum() - before);
    }
    client.close();
    server.stop();
    return waits;
  };

  const auto unheld = lone_waits_ms(base_config("lone"), 20);
  EXPECT_LE(*std::min_element(unheld.begin(), unheld.end()), 0.1)
      << "every lone request waited in the queue for company";

  auto held = base_config("lone_held");
  held.batch_wait_us = 20000;
  for (const double ms : lone_waits_ms(held, 3)) EXPECT_GE(ms, 20.0);

  registry.reset();
  obs::set_enabled(obs_was_on);
}

TEST_F(ServeTest, RegistryServesMultipleModelsByIndex) {
  // Second checkpoint: a deeper GBT with different predictions.
  ml::GbtParams p;
  p.n_estimators = 20;
  p.max_depth = 3;
  ml::GradientBoostedTrees other(p);
  other.fit(train_->x, train_->y);
  const auto other_path = ::testing::TempDir() + "serve_test_other.gbt";
  {
    std::ofstream out(other_path);
    ASSERT_TRUE(out.is_open());
    other.save(out);
  }
  auto cfg = base_config("multi");
  cfg.model_files.push_back(other_path);
  serve::Server server(cfg);
  server.start();
  ASSERT_EQ(server.registry().size(), 2u);
  auto client = serve::Client::connect_unix(server.config().unix_socket);
  const auto expect0 = model_->predict(probe_->x);
  const auto expect1 = other.predict(probe_->x);
  std::vector<double> got0(probe_->x.rows()), got1(probe_->x.rows());
  for (std::size_t i = 0; i < probe_->x.rows(); ++i) {
    auto req = request_for_row(i, 2 * i + 1);
    client.send_predict(req);
    req.request_id = 2 * i + 2;
    req.model_index = 1;
    client.send_predict(req);
  }
  for (std::size_t i = 0; i < 2 * probe_->x.rows(); ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
    const auto row = (reply.request_id - 1) / 2;
    if (reply.request_id % 2 == 1) {
      got0[row] = reply.predict.values[0];
    } else {
      got1[row] = reply.predict.values[0];
    }
  }
  server.stop();
  expect_bit_identical(got0, expect0);
  expect_bit_identical(got1, expect1);
}

// -- shadow deployment and promotion ----------------------------------------

/// Train and save a candidate checkpoint with different hyperparameters
/// (so its predictions visibly diverge from the fixture model's).
std::string save_candidate_checkpoint(const Xy& train, const char* tag) {
  ml::GbtParams p;
  p.n_estimators = 20;
  p.max_depth = 3;
  ml::GradientBoostedTrees candidate(p);
  candidate.fit(train.x, train.y);
  const auto path =
      ::testing::TempDir() + "serve_test_candidate_" + tag + ".gbt";
  std::ofstream out(path);
  EXPECT_TRUE(out.is_open());
  candidate.save(out);
  return path;
}

TEST_F(ServeTest, ShadowScoresBitExactAndPromotionSwapsGenerations) {
  const auto candidate_path = save_candidate_checkpoint(*train_, "promo");
  auto candidate = ml::load_regressor_file(candidate_path);
  const auto offline_prod = model_->predict(probe_->x);
  const auto offline_cand = candidate->predict(probe_->x);

  auto cfg = base_config("shadow");
  cfg.shadow_file = candidate_path;
  serve::Server server(cfg);
  server.start();
  const auto shadow_entry = server.shadow();
  ASSERT_NE(shadow_entry, nullptr);
  EXPECT_EQ(shadow_entry->generation, 0u);  // candidate, not published
  EXPECT_EQ(shadow_entry->source, candidate_path);

  auto client = serve::Client::connect_unix(server.config().unix_socket);
  serve::Client::Reply reply;

  {  // Rollback before any publish is refused, not fatal.
    serve::ControlRequest req;
    req.request_id = 1;
    req.op = serve::ControlOp::kRollback;
    client.send_control(req);
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kControlResponse);
    EXPECT_FALSE(reply.control.ok);
  }
  {  // Promote before the shadow has scored traffic is refused.
    serve::ControlRequest req;
    req.request_id = 2;
    req.op = serve::ControlOp::kPromote;
    req.min_shadow_requests = 1;
    client.send_control(req);
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kControlResponse);
    EXPECT_FALSE(reply.control.ok);
    EXPECT_NE(reply.control.detail.find("scored 0 of required 1"),
              std::string::npos)
        << reply.control.detail;
  }
  {  // Control verbs bounds-check the slot like predict does.
    serve::ControlRequest req;
    req.request_id = 3;
    req.op = serve::ControlOp::kStatus;
    req.model_index = 7;
    client.send_control(req);
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kControlResponse);
    EXPECT_FALSE(reply.control.ok);
  }

  // Shadow-flagged traffic: each reply carries {production, shadow},
  // both bit-identical to the respective offline predictions.
  const std::size_t n = probe_->x.rows();
  std::vector<double> prod(n, 0.0), shad(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    auto req = request_for_row(i, 100 + i);
    req.want_shadow = true;
    client.send_predict(req);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
    ASSERT_EQ(reply.predict.values.size(), 2u);
    const auto row = reply.request_id - 100;
    ASSERT_LT(row, n);
    prod[row] = reply.predict.values[0];
    shad[row] = reply.predict.values[1];
  }
  expect_bit_identical(prod, offline_prod);
  expect_bit_identical(shad, offline_cand);

  // The daemon's divergence accounting must equal what the two offline
  // prediction vectors say, bit for bit.
  std::uint64_t expect_diverged = 0;
  double expect_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&offline_prod[i], &offline_cand[i], sizeof(double)) != 0) {
      ++expect_diverged;
      expect_max = std::max(expect_max,
                            std::abs(offline_prod[i] - offline_cand[i]));
    }
  }
  ASSERT_GT(expect_diverged, 0u);  // the candidate is genuinely different

  {  // Status reports the accounting without changing anything.
    serve::ControlRequest req;
    req.request_id = 4;
    req.op = serve::ControlOp::kStatus;
    client.send_control(req);
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kControlResponse);
    EXPECT_TRUE(reply.control.ok);
    EXPECT_EQ(reply.control.generation, 1u);
    EXPECT_EQ(reply.control.shadow_requests, n);
    EXPECT_EQ(reply.control.shadow_diverged, expect_diverged);
    EXPECT_EQ(reply.control.max_abs_divergence, expect_max);
  }
  {  // Now the gate is satisfied: promotion publishes generation 2.
    serve::ControlRequest req;
    req.request_id = 5;
    req.op = serve::ControlOp::kPromote;
    req.min_shadow_requests = n;
    client.send_control(req);
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kControlResponse);
    EXPECT_TRUE(reply.control.ok) << reply.control.detail;
    EXPECT_EQ(reply.control.generation, 2u);
    EXPECT_NE(reply.control.detail.find("promoted"), std::string::npos);
  }
  EXPECT_EQ(server.shadow(), nullptr);  // promotion consumed the candidate

  // Post-promotion traffic is served by the candidate, and a shadow
  // flag with no candidate degrades to a single production value.
  expect_bit_identical(query_all(client), offline_cand);
  {
    auto req = request_for_row(0, 900);
    req.want_shadow = true;
    client.send_predict(req);
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
    EXPECT_EQ(reply.predict.values.size(), 1u);
  }
  {  // A second promote has nothing left to publish.
    serve::ControlRequest req;
    req.request_id = 6;
    req.op = serve::ControlOp::kPromote;
    client.send_control(req);
    ASSERT_TRUE(client.read_reply(&reply));
    EXPECT_FALSE(reply.control.ok);
    EXPECT_NE(reply.control.detail.find("no shadow candidate"),
              std::string::npos)
        << reply.control.detail;
  }
  {  // Rollback restores the original model under a fresh generation.
    serve::ControlRequest req;
    req.request_id = 7;
    req.op = serve::ControlOp::kRollback;
    client.send_control(req);
    ASSERT_TRUE(client.read_reply(&reply));
    EXPECT_TRUE(reply.control.ok) << reply.control.detail;
    EXPECT_EQ(reply.control.generation, 3u);
  }
  expect_bit_identical(query_all(client), offline_prod);

  client.close();
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.shadow_requests, n);
  EXPECT_EQ(stats.shadow_diverged, expect_diverged);
  EXPECT_EQ(stats.max_abs_divergence, expect_max);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST_F(ServeTest, HotSwapDropsNoInFlightRequests) {
  const auto candidate_path = save_candidate_checkpoint(*train_, "hotswap");
  auto candidate = ml::load_regressor_file(candidate_path);
  const auto offline_prod = model_->predict(probe_->x);
  const auto offline_cand = candidate->predict(probe_->x);

  auto cfg = base_config("hotswap");
  cfg.shadow_file = candidate_path;
  serve::Server server(cfg);
  server.start();

  // Four clients hammer the slot with sequential round-trips while the
  // main thread promotes and rolls back underneath them. Every reply
  // must be a real prediction, bit-identical to ONE of the two models'
  // offline answers for that row — never an error, never dropped, never
  // a torn value.
  constexpr int kClients = 4;
  constexpr int kPerClient = 200;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto cl = serve::Client::connect_unix(server.config().unix_socket);
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t row =
            static_cast<std::size_t>(c * kPerClient + i) % probe_->x.rows();
        cl.send_predict(request_for_row(row, static_cast<std::uint64_t>(i) + 1));
        serve::Client::Reply reply;
        if (!cl.read_reply(&reply) ||
            reply.type != FrameType::kPredictResponse ||
            reply.predict.values.size() != 1) {
          bad.fetch_add(1);
          continue;
        }
        const double v = reply.predict.values[0];
        const bool is_prod =
            std::memcmp(&v, &offline_prod[row], sizeof(double)) == 0;
        const bool is_cand =
            std::memcmp(&v, &offline_cand[row], sizeof(double)) == 0;
        if (!is_prod && !is_cand) bad.fetch_add(1);
      }
    });
  }

  auto admin = serve::Client::connect_unix(server.config().unix_socket);
  serve::Client::Reply reply;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {  // min_shadow_requests = 0: no traffic floor for this swap.
    serve::ControlRequest req;
    req.request_id = 1;
    req.op = serve::ControlOp::kPromote;
    admin.send_control(req);
    ASSERT_TRUE(admin.read_reply(&reply));
    ASSERT_TRUE(reply.control.ok) << reply.control.detail;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    serve::ControlRequest req;
    req.request_id = 2;
    req.op = serve::ControlOp::kRollback;
    admin.send_control(req);
    ASSERT_TRUE(admin.read_reply(&reply));
    ASSERT_TRUE(reply.control.ok) << reply.control.detail;
  }
  for (auto& t : clients) t.join();
  admin.close();
  server.stop();

  EXPECT_EQ(bad.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(stats.responses, stats.requests);  // the drain invariant held
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

}  // namespace
}  // namespace iotax
