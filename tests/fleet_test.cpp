// The fault-tolerant serving fleet: backoff/deadline primitives, the
// consistent-hash slot function, chaos-plan parsing, the router's
// pending table against live and misbehaving shards (failover, BUSY,
// degraded, verdicts, id rewrite, pipelining, drop re-sends), and the
// router end to end over static replica groups — failover mid-load with
// zero client-visible failures and bit-identity to offline predictions.
// Also the resource bounds of both front doors: threads and memory maps
// stay flat under connection churn and many open sessions, a failed
// start leaves nothing open, and a client that never reads stalls only
// itself.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/data/matrix.hpp"
#include "src/faults/chaos.hpp"
#include "src/ml/gbt.hpp"
#include "src/serve/client.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/backoff.hpp"
#include "src/util/frame.hpp"
#include "src/util/json.hpp"
#include "src/util/quarantine.hpp"
#include "src/util/rng.hpp"

namespace iotax {
namespace {

using util::FrameDecode;
using util::FrameHeader;
using util::FrameType;
using util::Reason;

// -- backoff and deadline ---------------------------------------------------

TEST(FleetBackoff, ExactScheduleWithoutJitter) {
  util::BackoffPolicy p;
  p.initial_ms = 10;
  p.max_ms = 100;
  p.multiplier = 2.0;
  p.jitter = 0.0;
  util::Rng rng(1);
  EXPECT_EQ(util::backoff_delay_ms(p, 0, rng), 10u);
  EXPECT_EQ(util::backoff_delay_ms(p, 1, rng), 20u);
  EXPECT_EQ(util::backoff_delay_ms(p, 2, rng), 40u);
  EXPECT_EQ(util::backoff_delay_ms(p, 3, rng), 80u);
  EXPECT_EQ(util::backoff_delay_ms(p, 4, rng), 100u);  // capped
  EXPECT_EQ(util::backoff_delay_ms(p, 40, rng), 100u);  // stays capped
}

TEST(FleetBackoff, JitterIsDeterministicPerSeedAndBounded) {
  util::BackoffPolicy p;
  p.initial_ms = 8;
  p.max_ms = 64;
  p.jitter = 0.5;
  std::vector<std::uint64_t> a, b;
  util::Rng ra(42), rb(42);
  for (std::size_t k = 0; k < 16; ++k) {
    a.push_back(util::backoff_delay_ms(p, k, ra));
    b.push_back(util::backoff_delay_ms(p, k, rb));
  }
  // Same seed -> the exact same delay sequence: chaos tests replay.
  EXPECT_EQ(a, b);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_LE(a[k], static_cast<std::uint64_t>(64 * 1.5) + 1) << "k=" << k;
  }
  // A different seed diverges somewhere (jitter is real).
  util::Rng rc(43);
  std::vector<std::uint64_t> c;
  for (std::size_t k = 0; k < 16; ++k) {
    c.push_back(util::backoff_delay_ms(p, k, rc));
  }
  EXPECT_NE(a, c);
}

TEST(FleetBackoff, PolicyValidation) {
  util::BackoffPolicy ok;
  EXPECT_NO_THROW(ok.validate());
  util::BackoffPolicy bad = ok;
  bad.multiplier = 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.jitter = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.initial_ms = 100;
  bad.max_ms = 10;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FleetBackoff, DeadlineSlicesTheBudget) {
  const auto inf = util::Deadline::infinite();
  EXPECT_TRUE(inf.is_infinite());
  EXPECT_FALSE(inf.expired());
  EXPECT_EQ(inf.remaining_ms(), ~0ULL);

  const auto d = util::Deadline::after_ms(200);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_LE(d.remaining_ms(), 200u);

  const auto tiny = util::Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tiny.expired());
  EXPECT_EQ(tiny.remaining_ms(), 0u);
}

// -- consistent-hash slot ---------------------------------------------------

TEST(FleetSlot, DeterministicInRangeAndSpreads) {
  serve::PredictRequest req;
  req.features = {1.5, -2.25, 0.0};
  EXPECT_EQ(serve::fleet_slot(req, 1), 0u);
  const std::size_t s4 = serve::fleet_slot(req, 4);
  EXPECT_LT(s4, 4u);
  EXPECT_EQ(serve::fleet_slot(req, 4), s4);  // pure function of the request

  // The model index participates in the routing identity.
  serve::PredictRequest other = req;
  other.model_index = 1;
  // (Different identity; equal slots are possible but both in range.)
  EXPECT_LT(serve::fleet_slot(other, 4), 4u);

  // 256 random rows across 4 groups must touch every group — an empty
  // group would mean the hash is degenerate.
  util::Rng rng(7);
  std::vector<std::size_t> hits(4, 0);
  for (int i = 0; i < 256; ++i) {
    serve::PredictRequest r;
    for (int c = 0; c < 5; ++c) r.features.push_back(rng.uniform(-3.0, 3.0));
    ++hits[serve::fleet_slot(r, 4)];
  }
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_GT(hits[g], 0u) << "group " << g << " never hit";
  }
}

TEST(FleetSlot, RoutesByBitPatternNotValue) {
  // -0.0 == 0.0 as values but not as bit patterns; the slot must follow
  // the bits, mirroring how the answer itself is computed.
  serve::PredictRequest pos, neg;
  pos.features = {0.0, 1.0};
  neg.features = {-0.0, 1.0};
  bool diverged = false;
  for (std::size_t n = 2; n <= 64 && !diverged; ++n) {
    diverged = serve::fleet_slot(pos, n) != serve::fleet_slot(neg, n);
  }
  EXPECT_TRUE(diverged);
}

// -- chaos plans ------------------------------------------------------------

TEST(FleetChaosPlan, ParsesAndReportsGroundTruth) {
  const auto plan = faults::ChaosPlan::from_json(util::Json::parse(R"({
    "seed": 7, "accept_delay_ms": 2, "events": [
      {"at_request": 100, "action": "kill",  "group": 0, "replica": 1},
      {"at_request": 400, "action": "hang",  "group": 1, "replica": 0},
      {"at_request": 700, "action": "drop",  "group": 0, "replica": 0},
      {"at_request": 900, "action": "delay", "group": 1, "replica": 1,
       "delay_ms": 5}]})"));
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.accept_delay_ms, 2u);
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.expected_restarts(), 2u);  // kill + hang, not drop/delay
  EXPECT_EQ(plan.count(faults::ChaosAction::kKill), 1u);
  EXPECT_EQ(plan.count(faults::ChaosAction::kDrop), 1u);
  EXPECT_NO_THROW(plan.validate(2, 2));
  // Shape checks catch events addressing shards that do not exist.
  EXPECT_THROW(plan.validate(1, 2), std::invalid_argument);
  EXPECT_THROW(plan.validate(2, 1), std::invalid_argument);

  // to_json -> from_json survives the round trip.
  const auto again = faults::ChaosPlan::from_json(plan.to_json());
  ASSERT_EQ(again.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(again.events[i].at_request, plan.events[i].at_request);
    EXPECT_EQ(again.events[i].action, plan.events[i].action);
    EXPECT_EQ(again.events[i].group, plan.events[i].group);
    EXPECT_EQ(again.events[i].replica, plan.events[i].replica);
    EXPECT_EQ(again.events[i].delay_ms, plan.events[i].delay_ms);
  }
}

TEST(FleetChaosPlan, RejectsDefects) {
  const auto parse = [](const char* text) {
    return faults::ChaosPlan::from_json(util::Json::parse(text));
  };
  // A typo must not silently run a zero-chaos plan.
  EXPECT_THROW(parse(R"({"sead": 7})"), std::invalid_argument);
  EXPECT_THROW(
      parse(R"({"events": [{"at_request": 1, "action": "kill", "grup": 0}]})"),
      std::invalid_argument);
  // Unknown action name.
  EXPECT_THROW(parse(R"({"events": [{"at_request": 1, "action": "melt"}]})"),
               std::invalid_argument);
  // at_request is 1-based; 0 would "fire before a request that never
  // happened".
  EXPECT_THROW(parse(R"({"events": [{"at_request": 0, "action": "kill"}]})"),
               std::invalid_argument);
  // Events must arrive sorted so the router can walk one cursor.
  EXPECT_THROW(parse(R"({"events": [
      {"at_request": 9, "action": "kill"},
      {"at_request": 3, "action": "kill"}]})"),
               std::invalid_argument);
  // delay_ms only belongs on delay events.
  EXPECT_THROW(parse(R"({"events": [
      {"at_request": 1, "action": "kill", "delay_ms": 5}]})"),
               std::invalid_argument);
}

// -- a scriptable fake shard ------------------------------------------------

/// Raw unix-socket peer that speaks just enough of the serve protocol
/// to misbehave on demand: answer BUSY n times before serving, or stay
/// silent forever. The real daemon cannot be told to do either
/// deterministically, and determinism is the point of these tests. It
/// records every request id it sees, so tests can check what the router
/// puts on the wire.
class FakeShard {
 public:
  FakeShard(std::string path, std::size_t busy_first_n, bool silent)
      : path_(std::move(path)), busy_left_(busy_first_n), silent_(silent) {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd_, 8) < 0) {
      throw std::runtime_error("fake shard: cannot listen on " + path_);
    }
    thread_ = std::thread([this] { loop(); });
  }

  ~FakeShard() { stop(); }

  void stop() {
    if (stopping_.exchange(true)) return;
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  std::uint64_t served() const { return served_.load(); }
  std::uint64_t busy_sent() const { return busy_sent_.load(); }
  std::vector<std::uint64_t> seen_ids() const {
    std::lock_guard<std::mutex> lock(seen_mu_);
    return seen_;
  }

  /// The prediction a request maps to (what the client must see): a
  /// function of its row, not its id, which the router rewrites.
  static double value_for(const serve::PredictRequest& req) {
    return req.features.at(0) + 0.25;
  }

 private:
  void loop() {
    while (!stopping_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (cfd < 0) continue;
      serve_connection(cfd);
      ::close(cfd);
    }
  }

  void serve_connection(int fd) {
    std::vector<std::uint8_t> buf;
    std::size_t start = 0;
    std::uint8_t chunk[4096];
    while (!stopping_.load()) {
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 20);
      if (rc < 0) return;
      if (rc == 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buf.insert(buf.end(), chunk, chunk + n);
      while (true) {
        const auto view = std::span<const std::uint8_t>(buf).subspan(start);
        const FrameDecode dec = util::decode_frame(view);
        if (dec.status != FrameDecode::Status::kOk) break;
        handle(fd, dec.header,
               view.subspan(FrameHeader::kWireSize, dec.header.payload_len));
        start += dec.consumed;
      }
    }
  }

  void handle(int fd, const FrameHeader& header,
              std::span<const std::uint8_t> payload) {
    // A silent shard reads everything and answers nothing, pings included.
    const auto type = static_cast<FrameType>(header.type);
    if (type == FrameType::kPing) {
      if (!silent_) send_all(fd, serve::encode_pong(header.request_id));
      return;
    }
    if (type != FrameType::kPredictRequest) return;
    serve::PredictRequest req;
    serve::ErrorResponse err;
    if (!serve::decode_predict_request(header, payload, &req, &err)) return;
    {
      std::lock_guard<std::mutex> lock(seen_mu_);
      seen_.push_back(req.request_id);
    }
    if (silent_) return;
    std::size_t expect = busy_left_.load();
    while (expect > 0 &&
           !busy_left_.compare_exchange_weak(expect, expect - 1)) {
    }
    if (expect > 0) {
      serve::ErrorResponse busy;
      busy.request_id = req.request_id;
      busy.status = serve::ServeStatus::kBusy;
      busy.detail = "scripted shed";
      send_all(fd, serve::encode_error_response(busy));
      busy_sent_.fetch_add(1);
      return;
    }
    serve::PredictResponse resp;
    resp.request_id = req.request_id;
    resp.values = {value_for(req)};
    send_all(fd, serve::encode_predict_response(resp));
    served_.fetch_add(1);
  }

  static void send_all(int fd, std::string_view bytes) {
    const char* p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
      const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
      if (n <= 0) return;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  std::string path_;
  std::atomic<std::size_t> busy_left_;
  bool silent_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> busy_sent_{0};
  mutable std::mutex seen_mu_;
  std::vector<std::uint64_t> seen_;  // guarded by seen_mu_
};

// -- fixture: a trained checkpoint and live shard servers -------------------

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

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_ = new Xy(make_data(300, 21));
    probe_ = new Xy(make_data(48, 22));
    ml::GbtParams p;
    p.n_estimators = 10;
    p.max_depth = 4;
    model_ = new ml::GradientBoostedTrees(p);
    model_->fit(train_->x, train_->y);
    model_path_ = ::testing::TempDir() + "fleet_test_model.gbt";
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

  static std::string sock_path(const char* tag) {
    return ::testing::TempDir() + "fleet_test_" + tag + ".sock";
  }

  /// A shard: a real in-process daemon on its own unix socket.
  static serve::ServeConfig shard_config(const char* tag) {
    serve::ServeConfig cfg;
    cfg.model_files = {model_path_};
    cfg.unix_socket = sock_path(tag);
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

  static serve::Endpoint endpoint(const char* tag) {
    return serve::Endpoint::unix_path(sock_path(tag));
  }

  /// A router on `tag` over static groups with a fast, test-friendly
  /// retry policy: small budget, tight backoff.
  static serve::RouterConfig router_config(
      const char* tag, std::vector<std::vector<serve::Endpoint>> groups,
      std::uint64_t deadline_ms = 2000) {
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path(tag);
    cfg.static_groups = std::move(groups);
    cfg.deadline_ms = deadline_ms;
    cfg.try_timeout_ms = 100;
    cfg.retry_backoff = {/*initial_ms=*/1, /*max_ms=*/8, /*multiplier=*/2.0,
                         /*jitter=*/0.25};
    return cfg;
  }

  static Xy* train_;
  static Xy* probe_;
  static ml::GradientBoostedTrees* model_;
  static std::string model_path_;
};

Xy* FleetTest::train_ = nullptr;
Xy* FleetTest::probe_ = nullptr;
ml::GradientBoostedTrees* FleetTest::model_ = nullptr;
std::string FleetTest::model_path_;

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

// -- the router's pending table ---------------------------------------------

TEST_F(FleetTest, ClientRecvTimeoutIsTypedNotHung) {
  // Satellite contract: a daemon that accepts and then goes silent must
  // surface as Client::Timeout (Reason::kDeadlineExpired), not block
  // the caller forever and not read as a vanished peer.
  FakeShard mute(sock_path("mute"), 0, /*silent=*/true);
  auto client = serve::Client::connect_unix(sock_path("mute"));
  client.set_recv_timeout_ms(100);
  client.send_ping(1);
  serve::Client::Reply reply;
  EXPECT_THROW(client.read_reply(&reply), serve::Client::Timeout);
  static_assert(serve::Client::Timeout::kReason == Reason::kDeadlineExpired);
  mute.stop();
}

TEST_F(FleetTest, RouterFailsOverFromDeadReplica) {
  serve::Server live(shard_config("fo_live"));
  live.start();
  // Replica 0 does not exist and session 0 prefers it; the router must
  // fail over to replica 1 inside the deadline and still return the
  // real answer.
  serve::Router router(router_config(
      "fo_front", {{endpoint("fo_dead"), endpoint("fo_live")}}));
  router.start();
  const auto offline = model_->predict(probe_->x);
  auto client = serve::Client::connect_unix(sock_path("fo_front"));
  serve::Client::Reply reply;
  client.send_predict(request_for_row(0, 1));
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
  EXPECT_EQ(reply.request_id, 1u);
  expect_bit_identical(reply.predict.values, {offline[0]});
  // Later requests keep answering while replica 0 stays dead.
  client.send_predict(request_for_row(1, 2));
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
  expect_bit_identical(reply.predict.values, {offline[1]});
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.errors, 0u);
  live.stop();
}

TEST_F(FleetTest, RouterKeepsASilentReplicaOutUntilItAnswersAPing) {
  // Replica 0 accepts connections but never answers (a stopped process
  // still completes connects from its backlog) and session 0 prefers it.
  // Only the request caught on it when it went silent may stall for
  // try_timeout_ms; every later one must go straight to replica 1, and
  // replica 0 must see no request until a fresh connection to it has
  // answered a ping.
  auto mute = std::make_unique<FakeShard>(sock_path("hush_r0"), 0,
                                          /*silent=*/true);
  FakeShard live(sock_path("hush_r1"), 0, /*silent=*/false);
  serve::Router router(router_config(
      "hush_front", {{endpoint("hush_r0"), endpoint("hush_r1")}}));
  router.start();
  auto client = serve::Client::connect_unix(sock_path("hush_front"));
  const auto ask = [&](std::uint64_t id) {
    const auto req = request_for_row(id % probe_->x.rows(), id);
    const auto t0 = std::chrono::steady_clock::now();
    client.send_predict(req);
    serve::Client::Reply reply;
    EXPECT_TRUE(client.read_reply(&reply));
    EXPECT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.predict.values.at(0), FakeShard::value_for(req));
    return std::chrono::steady_clock::now() - t0;
  };
  // 40 requests over >= 4 try_timeout_ms periods: the pre-probe router
  // reconnected within a few ms of each failure and stalled again.
  constexpr std::uint64_t kRequests = 40;
  std::size_t stalled = 0;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    if (ask(id) >= std::chrono::milliseconds(50)) ++stalled;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(stalled, 1u);
  EXPECT_EQ(mute->seen_ids().size(), 1u);
  auto stats = router.stats();
  EXPECT_EQ(stats.retries, 1u);  // the one request caught by the silence
  // ... and one failover per request: the first re-sent, the rest
  // steered off their session's replica.
  EXPECT_EQ(stats.failovers, kRequests);
  EXPECT_EQ(stats.degraded, 0u);

  // Replica 0 comes back: once a probe is answered it serves again.
  mute.reset();
  FakeShard back(sock_path("hush_r0"), 0, /*silent=*/false);
  const auto until = util::Deadline::after_ms(2000);
  std::uint64_t id = kRequests;
  while (back.seen_ids().empty() && !until.expired()) {
    ask(++id);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(back.seen_ids().empty());
  client.close();
  router.stop();
  stats = router.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST_F(FleetTest, RouterAbsorbsBusyOnSameReplica) {
  // Two scripted BUSY sheds, then service. BUSY must be retried on the
  // SAME replica (no failover — the queue needs a moment, the process
  // is fine) and never surface to the client.
  FakeShard shard(sock_path("busy"), /*busy_first_n=*/2, /*silent=*/false);
  FakeShard spare(sock_path("busy_spare"), 0, /*silent=*/false);
  serve::Router router(router_config(
      "busy_front", {{endpoint("busy"), endpoint("busy_spare")}}));
  router.start();
  auto client = serve::Client::connect_unix(sock_path("busy_front"));
  const auto req = request_for_row(0, 9);
  client.send_predict(req);
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
  EXPECT_EQ(reply.request_id, 9u);
  ASSERT_EQ(reply.predict.values.size(), 1u);
  EXPECT_EQ(reply.predict.values[0], FakeShard::value_for(req));
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.busy_retries, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(shard.busy_sent(), 2u);
  // The shard thread bumps served() after writing the reply; give its
  // scheduler slice a moment before asserting.
  const auto served_deadline = util::Deadline::after_ms(2000);
  while (shard.served() == 0 && !served_deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(shard.served(), 1u);
  EXPECT_EQ(spare.seen_ids().size(), 0u);
  shard.stop();
  spare.stop();
}

TEST_F(FleetTest, RouterDegradesWhenNoReplicaAnswers) {
  serve::Router router(router_config(
      "void_front", {{endpoint("void_a"), endpoint("void_b")}},
      /*deadline_ms=*/200));
  router.start();
  auto client = serve::Client::connect_unix(sock_path("void_front"));
  // The second request arrives with both replicas already known to be
  // down, so no replica ever sees it: it must still report why.
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const auto t0 = std::chrono::steady_clock::now();
    client.send_predict(request_for_row(0, id));
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_EQ(reply.type, FrameType::kErrorResponse);
    EXPECT_EQ(reply.error.status, serve::ServeStatus::kDegraded);
    EXPECT_EQ(reply.request_id, id);
    ASSERT_TRUE(reply.error.reason.has_value());
    EXPECT_EQ(*reply.error.reason, Reason::kConnectionReset);
    EXPECT_NE(reply.error.detail.find("replica group unavailable"),
              std::string::npos)
        << reply.error.detail;
    // The deadline bounds the pain: well past 200ms would mean the retry
    // loop ignores its budget. Generous slack for slow CI machines.
    EXPECT_LT(elapsed, 2000);
  }
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.degraded, 2u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.requests, stats.responses + stats.errors);
}

TEST_F(FleetTest, RouterRelaysModelVerdictsOnFirstAttempt) {
  serve::Server live(shard_config("verdict"));
  live.start();
  serve::Router router(router_config("verdict_front", {{endpoint("verdict")}}));
  router.start();
  auto client = serve::Client::connect_unix(sock_path("verdict_front"));
  // Unknown model index: a typed answer, not a transport failure — it
  // must come back on the first attempt, not burn the retry budget.
  auto req = request_for_row(0, 5);
  req.model_index = 7;
  client.send_predict(req);
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kUnknownModel);
  EXPECT_EQ(reply.request_id, 5u);
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.degraded, 0u);
  live.stop();
}

TEST_F(FleetTest, RouterForwardsAClientWindowAsOneBatch) {
  // Pipelining: a 16-deep client window must reach its replica together,
  // so the shard's 50 ms gather window closes over one 16-row batch. A
  // router that forwards one request at a time per session makes 16.
  auto shard_cfg = shard_config("window_g0");
  shard_cfg.batch_wait_us = 50000;
  serve::Server shard(shard_cfg);
  shard.start();
  serve::Router router(router_config("window_front", {{endpoint("window_g0")}}));
  router.start();
  const auto offline = model_->predict(probe_->x);
  constexpr std::size_t kWindow = 16;
  auto client = serve::Client::connect_unix(sock_path("window_front"));
  for (std::size_t i = 0; i < kWindow; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  std::vector<double> served(kWindow, 0.0);
  for (std::size_t i = 0; i < kWindow; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
    ASSERT_GE(reply.request_id, 1u);
    ASSERT_LE(reply.request_id, kWindow);
    served[reply.request_id - 1] = reply.predict.values[0];
  }
  client.close();
  router.stop();
  expect_bit_identical(
      served, std::vector<double>(offline.begin(), offline.begin() + kWindow));
  EXPECT_EQ(shard.stats().batches, 1u);
  EXPECT_EQ(shard.stats().requests, kWindow);
  shard.stop();
}

TEST_F(FleetTest, RouterRewritesIdsSoSessionsShareABackhaul) {
  // Two sessions send the same request ids at the same time over one
  // shared backhaul. The shard must see distinct ids, and each client
  // must get its own rows' answers back under its own ids.
  FakeShard shard(sock_path("ids_g0"), 0, /*silent=*/false);
  serve::Router router(router_config("ids_front", {{endpoint("ids_g0")}}));
  router.start();
  constexpr std::size_t kPerClient = 24;
  std::vector<std::vector<double>> got(2);
  std::vector<std::string> failures(2);
  const auto drive = [&](std::size_t c) {
    auto client = serve::Client::connect_unix(sock_path("ids_front"));
    for (std::size_t i = 0; i < kPerClient; ++i) {
      client.send_predict(request_for_row(c * kPerClient + i, i + 1));
    }
    got[c].assign(kPerClient, 0.0);
    for (std::size_t i = 0; i < kPerClient; ++i) {
      serve::Client::Reply reply;
      if (!client.read_reply(&reply) ||
          reply.type != FrameType::kPredictResponse || reply.request_id < 1 ||
          reply.request_id > kPerClient) {
        failures[c] = "bad reply " + std::to_string(reply.request_id);
        return;
      }
      got[c][reply.request_id - 1] = reply.predict.values.at(0);
    }
  };
  std::thread a(drive, 0);
  std::thread b(drive, 1);
  a.join();
  b.join();
  router.stop();
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
    std::vector<double> want;
    for (std::size_t i = 0; i < kPerClient; ++i) {
      want.push_back(FakeShard::value_for(request_for_row(c * kPerClient + i, 0)));
    }
    expect_bit_identical(got[c], want);
  }
  const auto ids = shard.seen_ids();
  EXPECT_EQ(ids.size(), 2 * kPerClient);
  EXPECT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()).size(), ids.size());
  shard.stop();
}

TEST_F(FleetTest, RouterDropChaosResendsEveryPendingRequest) {
  // Drop fires on the 16th request while the first 15 wait out replica
  // 0's 50 ms gather window on its backhaul: every one of them must be
  // re-sent to replica 1 and answered bit-identically.
  auto r0_cfg = shard_config("drop_r0");
  auto r1_cfg = shard_config("drop_r1");
  r0_cfg.batch_wait_us = r1_cfg.batch_wait_us = 50000;
  serve::Server r0(r0_cfg);
  serve::Server r1(r1_cfg);
  r0.start();
  r1.start();
  auto cfg = router_config("drop_front",
                           {{endpoint("drop_r0"), endpoint("drop_r1")}});
  cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(R"({
    "events": [{"at_request": 16, "action": "drop", "group": 0,
                "replica": 0}]})"));
  serve::Router router(cfg);
  router.start();
  const auto offline = model_->predict(probe_->x);
  constexpr std::size_t kWindow = 16;
  auto client = serve::Client::connect_unix(sock_path("drop_front"));
  for (std::size_t i = 0; i < kWindow; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  std::vector<double> served(kWindow, 0.0);
  for (std::size_t i = 0; i < kWindow; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
    served[reply.request_id - 1] = reply.predict.values[0];
  }
  client.close();
  router.stop();
  expect_bit_identical(
      served, std::vector<double>(offline.begin(), offline.begin() + kWindow));
  const auto stats = router.stats();
  EXPECT_EQ(stats.chaos_drops, 1u);
  EXPECT_EQ(stats.responses, kWindow);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(stats.retries, 8u);
  EXPECT_GE(stats.failovers, 8u);
  r0.stop();
  r1.stop();
}

TEST_F(FleetTest, RouterDropChaosClosesOnlyTheNamedBackhaul) {
  // The drop names replica 1, which has no backhaul; the window pending
  // on replica 0 (the triggering request's) must not be touched.
  auto r0_cfg = shard_config("aim_r0");
  r0_cfg.batch_wait_us = 50000;
  serve::Server r0(r0_cfg);
  r0.start();
  auto cfg = router_config("aim_front",
                           {{endpoint("aim_r0"), endpoint("aim_nobody")}});
  cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(R"({
    "events": [{"at_request": 16, "action": "drop", "group": 0,
                "replica": 1}]})"));
  serve::Router router(cfg);
  router.start();
  constexpr std::size_t kWindow = 16;
  auto client = serve::Client::connect_unix(sock_path("aim_front"));
  for (std::size_t i = 0; i < kWindow; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  for (std::size_t i = 0; i < kWindow; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
  }
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.chaos_drops, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(r0.stats().batches, 1u);
  r0.stop();
}

TEST_F(FleetTest, RouterShedsPastItsPerSessionPendingBound) {
  // A shard that never answers holds every request pending until the
  // deadline; past the per-session bound the router itself answers a
  // typed BUSY, at once, instead of queueing without limit.
  FakeShard mute(sock_path("shed_mute"), 0, /*silent=*/true);
  auto cfg = router_config("shed_front", {{endpoint("shed_mute")}},
                           /*deadline_ms=*/300);
  cfg.try_timeout_ms = 0;  // no silence limit: pending until the deadline
  serve::Router router(cfg);
  router.start();
  constexpr std::size_t kBound = serve::Router::kMaxPendingPerSession;
  constexpr std::size_t kExtra = 4;
  auto client = serve::Client::connect_unix(sock_path("shed_front"));
  for (std::size_t i = 0; i < kBound + kExtra; ++i) {
    client.send_predict(request_for_row(i % probe_->x.rows(), i + 1));
  }
  std::size_t busy = 0, degraded = 0;
  for (std::size_t i = 0; i < kBound + kExtra; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kErrorResponse);
    if (reply.error.status == serve::ServeStatus::kBusy) {
      EXPECT_GT(reply.request_id, kBound);
      ++busy;
    } else {
      EXPECT_EQ(reply.error.status, serve::ServeStatus::kDegraded);
      EXPECT_EQ(reply.error.reason, Reason::kDeadlineExpired);
      ++degraded;
    }
  }
  EXPECT_EQ(busy, kExtra);
  EXPECT_EQ(degraded, kBound);
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.shed, kExtra);
  EXPECT_EQ(stats.requests, kBound);
  EXPECT_EQ(stats.requests, stats.responses + stats.errors);
  mute.stop();
}

// -- SIGPIPE / half-closed peers --------------------------------------------

TEST_F(FleetTest, ServerSurvivesPeerClosingBeforeTheReply) {
  // Regression for the half-closed-connection death: the peer sends a
  // request and vanishes before the reply is written. The write must
  // fail as EPIPE (SIGPIPE ignored/suppressed), be absorbed, and leave
  // the daemon serving — not kill the process.
  auto cfg = shard_config("halfclosed");
  cfg.batch_wait_us = 50000;  // hold the batch: the reply loses the race
  serve::Server server(cfg);
  server.start();
  {
    auto doomed = serve::Client::connect_unix(cfg.unix_socket);
    doomed.send_predict(request_for_row(0, 1));
    doomed.close();  // gone before the 50ms batch window elapses
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Still alive and still answering.
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  client.send_predict(request_for_row(1, 2));
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().requests, 2u);
}

// -- router over static groups ----------------------------------------------

TEST_F(FleetTest, RouterRoutesBitIdenticalAcrossGroups) {
  serve::Server shard_a(shard_config("route_g0"));
  serve::Server shard_b(shard_config("route_g1"));
  shard_a.start();
  shard_b.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("route_front");
  cfg.static_groups = {
      {serve::Endpoint::unix_path(sock_path("route_g0"))},
      {serve::Endpoint::unix_path(sock_path("route_g1"))}};
  serve::Router router(cfg);
  router.start();

  const auto offline = model_->predict(probe_->x);
  const std::size_t n = probe_->x.rows();
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  for (std::size_t i = 0; i < n; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  std::vector<double> served(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse);
    const auto row = reply.request_id - 1;
    ASSERT_LT(row, n);
    served[row] = reply.predict.values[0];
  }
  client.close();
  router.stop();
  // Every answer is bit-identical to offline — the hash decided where a
  // request ran, never what it answered.
  expect_bit_identical(served, offline);
  const auto stats = router.stats();
  EXPECT_EQ(stats.requests, n);
  EXPECT_EQ(stats.responses, n);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  // Both shards saw traffic (the slot function spreads; with 48 varied
  // rows an idle group would mean routing collapsed to one slot).
  EXPECT_GT(shard_a.stats().requests, 0u);
  EXPECT_GT(shard_b.stats().requests, 0u);
  EXPECT_EQ(shard_a.stats().requests + shard_b.stats().requests, n);
  shard_a.stop();
  shard_b.stop();
}

TEST_F(FleetTest, RouterFailsOverMidLoadWithZeroClientFailures) {
  serve::Server replica_a(shard_config("fo_r0"));
  serve::Server replica_b(shard_config("fo_r1"));
  replica_a.start();
  replica_b.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("fo_front");
  cfg.static_groups = {
      {serve::Endpoint::unix_path(sock_path("fo_r0")),
       serve::Endpoint::unix_path(sock_path("fo_r1"))}};
  serve::Router router(cfg);
  router.start();

  const auto offline = model_->predict(probe_->x);
  const std::size_t n = probe_->x.rows();
  const std::size_t half = n / 2;
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  std::vector<double> served(n, 0.0);
  const auto drain = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      client.send_predict(request_for_row(i, i + 1));
    }
    for (std::size_t i = lo; i < hi; ++i) {
      serve::Client::Reply reply;
      ASSERT_TRUE(client.read_reply(&reply));
      ASSERT_EQ(reply.type, FrameType::kPredictResponse)
          << "request " << reply.request_id << ": " << reply.error.detail;
      served[reply.request_id - 1] = reply.predict.values[0];
    }
  };
  drain(0, half);
  EXPECT_GT(replica_a.stats().requests, 0u);  // the session camped on r0
  // The replica currently serving this session dies mid-load. Every
  // remaining request must still answer, bit-identically, via r1.
  replica_a.stop();
  drain(half, n);
  client.close();
  router.stop();
  expect_bit_identical(served, offline);
  const auto stats = router.stats();
  EXPECT_EQ(stats.responses, n);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GT(replica_b.stats().requests, 0u);
  replica_b.stop();
}

TEST_F(FleetTest, RouterReportsDegradedWhenAGroupIsGone) {
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("deg_front");
  cfg.deadline_ms = 200;
  cfg.try_timeout_ms = 50;
  cfg.static_groups = {
      {serve::Endpoint::unix_path(sock_path("deg_nobody"))}};
  serve::Router router(cfg);
  router.start();
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  client.send_predict(request_for_row(0, 1));
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kDegraded);
  ASSERT_TRUE(reply.error.reason.has_value());
  EXPECT_EQ(*reply.error.reason, Reason::kConnectionReset);
  client.close();
  router.stop();
  const auto stats = router.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  // The terminal transport reason lands in the quarantine ledger under
  // the shared 24-reason vocabulary.
  EXPECT_EQ(router.quarantine().count(Reason::kConnectionReset), 1u);
}

TEST_F(FleetTest, RouterAnswersPingAndRefusesControl) {
  serve::Server shard(shard_config("ctl_g0"));
  shard.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("ctl_front");
  cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("ctl_g0"))}};
  serve::Router router(cfg);
  router.start();
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  serve::Client::Reply reply;
  client.send_ping(3);
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPong);
  EXPECT_EQ(reply.request_id, 3u);
  // Control verbs mutate one registry and the fleet has N of them;
  // routing a promote to a hash-picked shard would fork replica state.
  serve::ControlRequest ctl;
  ctl.request_id = 4;
  ctl.op = serve::ControlOp::kStatus;
  client.send_control(ctl);
  ASSERT_TRUE(client.read_reply(&reply));
  ASSERT_EQ(reply.type, FrameType::kErrorResponse);
  EXPECT_EQ(reply.error.status, serve::ServeStatus::kBadRequest);
  EXPECT_NE(reply.error.detail.find("not routed"), std::string::npos);
  // The connection survives the refusal.
  client.send_predict(request_for_row(0, 5));
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  client.close();
  router.stop();
  shard.stop();
}

TEST_F(FleetTest, RouterDropAndDelayChaosAreInvisibleToClients) {
  serve::Server shard(shard_config("chaos_g0"));
  shard.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("chaos_front");
  cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("chaos_g0"))}};
  cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(R"({
    "events": [
      {"at_request": 2, "action": "drop",  "group": 0, "replica": 0},
      {"at_request": 3, "action": "delay", "group": 0, "replica": 0,
       "delay_ms": 5}]})"));
  serve::Router router(cfg);
  router.start();
  const auto offline = model_->predict(probe_->x);
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  constexpr std::size_t kRequests = 4;
  std::vector<double> served(kRequests, 0.0);
  for (std::size_t i = 0; i < kRequests; ++i) {
    client.send_predict(request_for_row(i, i + 1));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::Client::Reply reply;
    ASSERT_TRUE(client.read_reply(&reply));
    ASSERT_EQ(reply.type, FrameType::kPredictResponse)
        << "request " << reply.request_id << ": " << reply.error.detail;
    served[reply.request_id - 1] = reply.predict.values[0];
  }
  client.close();
  router.stop();
  expect_bit_identical(
      served, std::vector<double>(offline.begin(), offline.begin() + 4));
  const auto stats = router.stats();
  EXPECT_EQ(stats.responses, kRequests);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.chaos_drops, 1u);
  EXPECT_EQ(stats.chaos_delays, 1u);
  shard.stop();
}

TEST_F(FleetTest, RouterSurvivesPeerClosingBeforeTheReply) {
  // The router-side SIGPIPE regression: the front peer vanishes while
  // the backhaul round-trip is in flight; the reply write hits a dead
  // socket and must be absorbed, not kill the process.
  auto shard_cfg = shard_config("rhc_g0");
  shard_cfg.batch_wait_us = 50000;  // backhaul reply arrives after close
  serve::Server shard(shard_cfg);
  shard.start();
  serve::RouterConfig cfg;
  cfg.unix_socket = sock_path("rhc_front");
  cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("rhc_g0"))}};
  serve::Router router(cfg);
  router.start();
  {
    auto doomed = serve::Client::connect_unix(cfg.unix_socket);
    doomed.send_predict(request_for_row(0, 1));
    doomed.close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  auto client = serve::Client::connect_unix(cfg.unix_socket);
  client.send_predict(request_for_row(1, 2));
  serve::Client::Reply reply;
  ASSERT_TRUE(client.read_reply(&reply));
  EXPECT_EQ(reply.type, FrameType::kPredictResponse);
  client.close();
  router.stop();
  shard.stop();
}

TEST_F(FleetTest, RouterConfigContractsAreEnforced) {
  {  // Exactly one shard source.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_a");
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
  {  // A group with no endpoints cannot serve its slot.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_b");
    cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("x"))}, {}};
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
  {  // kill/hang chaos needs a supervisor to deliver the signal.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_c");
    cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("x"))}};
    cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(
        R"({"events": [{"at_request": 1, "action": "kill"}]})"));
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
  {  // Chaos events must address shards inside the topology.
    serve::RouterConfig cfg;
    cfg.unix_socket = sock_path("cfg_d");
    cfg.static_groups = {{serve::Endpoint::unix_path(sock_path("x"))}};
    cfg.chaos = faults::ChaosPlan::from_json(util::Json::parse(
        R"({"events": [{"at_request": 1, "action": "drop", "group": 3}]})"));
    serve::Router router(cfg);
    EXPECT_THROW(router.start(), std::invalid_argument);
  }
}


// -- resource bounds of the front doors -------------------------------------

std::size_t maps_lines() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Connect, ping, close — `cycles` times. Returns false on a lost pong.
bool churn(const std::string& socket_path, std::size_t cycles) {
  for (std::size_t i = 0; i < cycles; ++i) {
    auto client = serve::Client::connect_unix(socket_path);
    client.send_ping(i + 1);
    serve::Client::Reply reply;
    if (!client.read_reply(&reply) || reply.type != FrameType::kPong) {
      return false;
    }
  }
  return true;
}

// A front door that keeps each finished session's thread until stop()
// grows by two maps (stack + guard page) per connection ever accepted —
// ~4000 over this churn — until vm.max_map_count aborts the process.
constexpr std::size_t kChurnCycles = 2000;
constexpr std::size_t kMapsSlack = 64;

TEST_F(FleetTest, ServerMapsStayFlatUnderConnectionChurn) {
  serve::Server server(shard_config("churn_server"));
  server.start();
  ASSERT_TRUE(churn(sock_path("churn_server"), 50));  // warm allocator arenas
  const std::size_t before = maps_lines();
  ASSERT_TRUE(churn(sock_path("churn_server"), kChurnCycles));
  const std::size_t after = maps_lines();
  EXPECT_LT(after, before + kMapsSlack) << before << " -> " << after;
  server.stop();
  EXPECT_EQ(server.stats().connections, 50 + kChurnCycles);
}

TEST_F(FleetTest, RouterMapsStayFlatUnderConnectionChurn) {
  serve::Router router(router_config("churn_front", {{endpoint("churn_none")}}));
  router.start();
  ASSERT_TRUE(churn(sock_path("churn_front"), 50));
  const std::size_t before = maps_lines();
  ASSERT_TRUE(churn(sock_path("churn_front"), kChurnCycles));
  const std::size_t after = maps_lines();
  EXPECT_LT(after, before + kMapsSlack) << before << " -> " << after;
  router.stop();
  EXPECT_EQ(router.stats().connections, 50 + kChurnCycles);
}

TEST_F(FleetTest, RouterThreadCountIsFlatIn64Sessions) {
  // Both front doors: the router (in front of one shard), then that
  // shard's daemon addressed directly.
  serve::Server shard(shard_config("threads_g0"));
  shard.start();
  serve::Router router(router_config("threads_front", {{endpoint("threads_g0")}}));
  router.start();
  const auto offline = model_->predict(probe_->x);  // starts the pool too
  for (const char* front : {"threads_front", "threads_g0"}) {
    // Warm-up: through the router, the first request opens its one
    // backhaul.
    {
      auto warm = serve::Client::connect_unix(sock_path(front));
      warm.send_predict(request_for_row(0, 1));
      serve::Client::Reply reply;
      ASSERT_TRUE(warm.read_reply(&reply));
    }
    const std::size_t before = thread_count();
    constexpr std::size_t kSessions = 64;
    std::vector<serve::Client> clients;
    for (std::size_t c = 0; c < kSessions; ++c) {
      clients.push_back(serve::Client::connect_unix(sock_path(front)));
      clients.back().send_predict(request_for_row(c % probe_->x.rows(), c + 1));
    }
    for (std::size_t c = 0; c < kSessions; ++c) {
      serve::Client::Reply reply;
      ASSERT_TRUE(clients[c].read_reply(&reply));
      ASSERT_EQ(reply.type, FrameType::kPredictResponse) << reply.error.detail;
      EXPECT_EQ(reply.request_id, c + 1);
      expect_bit_identical(reply.predict.values,
                           {offline[c % probe_->x.rows()]});
    }
    // All 64 sessions are still open here.
    EXPECT_EQ(thread_count(), before) << front;
  }
  router.stop();
  shard.stop();
}

std::size_t fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST_F(FleetTest, FailedStartLeavesNoFdOrSocketFile) {
  // The unix listener binds, then the TCP port is already taken: start()
  // throws, and neither front door may keep the bound fd or leave its
  // socket file behind.
  const int holder = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(holder, reinterpret_cast<const sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(holder, 1), 0);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int taken = ntohs(addr.sin_port);
  {
    auto cfg = shard_config("failed_start");
    cfg.tcp_port = taken;
    serve::Server server(cfg);
    const std::size_t before = fd_count();
    EXPECT_THROW(server.start(), std::runtime_error);
    EXPECT_FALSE(server.running());
    EXPECT_EQ(fd_count(), before);
    EXPECT_FALSE(std::filesystem::exists(cfg.unix_socket));
  }
  {
    auto cfg = router_config("failed_start_front",
                             {{endpoint("failed_start_none")}});
    cfg.tcp_port = taken;
    serve::Router router(cfg);
    const std::size_t before = fd_count();
    EXPECT_THROW(router.start(), std::runtime_error);
    EXPECT_FALSE(router.running());
    EXPECT_EQ(fd_count(), before);
    EXPECT_FALSE(std::filesystem::exists(cfg.unix_socket));
  }
  ::close(holder);
}

/// Owns a raw client socket (the test needs nonblocking sends).
struct RawFd {
  int fd = -1;
  ~RawFd() { reset(); }
  void reset() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

TEST_F(FleetTest, ClientThatNeverReadsStallsNoOtherClient) {
  // Client A pipelines predicts and never reads a reply. Once its sends
  // stall, client B must still be answered at once, bit-identically, and
  // stop() must return while A is still connected. Over both front
  // doors: a daemon alone, and a router in front of one daemon.
  const auto offline = model_->predict(probe_->x);
  const auto check = [&](const std::string& front,
                         const std::function<void()>& stop_front, RawFd& a) {
    a.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, front.c_str(), front.size() + 1);
    ASSERT_EQ(::connect(a.fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string burst;
    for (std::size_t i = 0; i < 64; ++i) {
      burst += serve::encode_predict_request(
          request_for_row(i % probe_->x.rows(), i + 1));
    }
    // Send until nothing has gone out for 300 ms; a front door that
    // never stopped reading would take the whole budget.
    constexpr std::size_t kBudget = std::size_t{64} << 20;
    std::size_t sent = 0;
    while (sent < kBudget) {
      pollfd pfd{a.fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 300) == 0) break;
      const std::size_t off = sent % burst.size();
      const ssize_t n = ::send(a.fd, burst.data() + off, burst.size() - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      ASSERT_TRUE(n >= 0 || errno == EAGAIN) << std::strerror(errno);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    EXPECT_LT(sent, kBudget) << front << " never stopped reading A";

    auto b = serve::Client::connect_unix(front);
    b.set_recv_timeout_ms(2000);
    b.send_predict(request_for_row(5, 77));
    serve::Client::Reply reply;
    try {
      ASSERT_TRUE(b.read_reply(&reply));
      EXPECT_EQ(reply.type, FrameType::kPredictResponse)
          << front << ": " << reply.error.detail;
      EXPECT_EQ(reply.request_id, 77u);
      if (reply.type == FrameType::kPredictResponse) {
        expect_bit_identical(reply.predict.values, {offline[5]});
      }
    } catch (const serve::Client::Timeout&) {
      ADD_FAILURE() << front << ": B was not answered within 2 s";
    }
    b.close();

    auto stopped = std::async(std::launch::async, stop_front);
    if (stopped.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      ADD_FAILURE() << front << ": stop() blocked while A was connected";
      a.reset();  // unwedge it so the test can end
    }
    stopped.get();
  };
  {
    serve::Server daemon(shard_config("noread_daemon"));
    daemon.start();
    RawFd a;  // after the daemon: closed first if stop() wedged
    check(sock_path("noread_daemon"), [&] { daemon.stop(); }, a);
  }
  {
    serve::Server shard(shard_config("noread_g0"));
    shard.start();
    serve::Router router(router_config("noread_front", {{endpoint("noread_g0")}}));
    router.start();
    RawFd a;
    check(sock_path("noread_front"), [&] { router.stop(); }, a);
    shard.stop();
  }
}

}  // namespace
}  // namespace iotax
