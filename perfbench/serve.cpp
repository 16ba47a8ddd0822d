// The two serving workloads: one default-GBT checkpoint served by an
// in-process serve::Server (serve_direct), or by two in-process replica
// Servers behind an in-process serve::Router (serve_routed, the
// `iotax fleet` default topology of 1 group x 2 replicas wired through
// RouterConfig::static_groups). Both get the same request stream:
//
//   phase A  open loop: a Poisson stream at a fixed rate over two
//            connections, each request timed from its due time, so a
//            stalled sender or a growing backlog shows up as latency;
//   phase B  closed loop: a fixed window of outstanding requests per
//            connection, so batches fill and throughput saturates.
//
// Requests are held-out rows in dataset order; every reply must carry
// the bits offline predict gives the same row. Idle-priority spinners
// keep every CPU from halting (AwakeCpus), so the host's wake-up latency
// for a halted vCPU stays out of the figures.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.hpp"
#include "perfbench/stats.hpp"
#include "src/ml/gbt.hpp"
#include "src/ml/registry.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/client.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/server.hpp"
#include "src/sim/presets.hpp"
#include "src/sim/simulator.hpp"
#include "src/taxonomy/feature_sets.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

using namespace iotax;

constexpr std::size_t kServeJobs = 4000;
constexpr int kSetupRepeats = 32;
/// Offline loads of the checkpoint, for ml.checkpoint_load_s.
constexpr int kLoadRepeats = 16;
constexpr std::size_t kConnections = 2;
/// Outstanding requests per connection in the closed loop.
constexpr std::size_t kWindow = 16;
/// The same fixed rate on both serve workloads, well below what the
/// routed path sustains in the closed loop, so neither builds a backlog.
constexpr double kFixedRate = 1000.0;
/// Share of --seconds given to the fixed-rate phase; the closed loop
/// gets the rest.
constexpr double kFixedRateShare = 0.6;
constexpr std::size_t kWarmupPerConnection = 256;
/// How long a phase waits for replies after its last send before the
/// missing ones count as failed.
constexpr double kDrainDeadlineS = 10.0;
constexpr std::uint64_t kRecvPollMs = 50;

using Clock = std::chrono::steady_clock;

/// Held-out rows and the bit pattern offline predict gives each.
struct Requests {
  data::Matrix x;
  std::vector<std::uint64_t> expected;

  std::size_t rows() const { return x.rows(); }
};

serve::PredictRequest make_request(const Requests& req, std::uint64_t id,
                                   std::size_t row) {
  serve::PredictRequest r;
  r.request_id = id;
  const auto src = req.x.row(row);
  r.features.assign(src.begin(), src.end());
  return r;
}

bool reply_ok(const serve::Client::Reply& reply, const Requests& req,
              std::size_t row) {
  return reply.type == util::FrameType::kPredictResponse &&
         reply.predict.values.size() == 1 &&
         bits(reply.predict.values[0]) == req.expected[row];
}

/// The system under test for one setup: the serving shards, the router
/// in front of them (serve_routed), and the generator's connections.
struct Deployment {
  std::vector<std::unique_ptr<serve::Server>> shards;
  std::unique_ptr<serve::Router> router;
  std::vector<serve::Client> clients;

  void stop() {
    for (auto& c : clients) c.close();
    clients.clear();
    if (router) router->stop();
    router.reset();
    for (auto& s : shards) s->stop();
    shards.clear();
  }

  serve::ServeStats shard_stats() const {
    serve::ServeStats total;
    for (const auto& s : shards) {
      const auto st = s->stats();
      total.responses += st.responses;
      total.batches += st.batches;
      total.shed += st.shed;
      total.errors += st.errors;
    }
    return total;
  }
};

struct SetupTimes {
  double start_s = 0.0;
  double fleet_s = 0.0;
  double connect_s = 0.0;
};

/// One timed setup, what a serving user pays before the first request:
/// start the daemon(s), each loading the checkpoint, and the router,
/// then connect the clients.
Deployment deploy(bool routed, int rep, SetupTimes* t) {
  Deployment d;
  const std::string tag = std::to_string(rep) + "-";
  std::vector<serve::Endpoint> replicas;
  {
    SpanLog::Scope start(spans(), "serve.start");
    for (std::size_t i = 0; i < (routed ? 2u : 1u); ++i) {
      serve::ServeConfig cfg;
      cfg.model_files = {"model.gbt"};
      cfg.unix_socket = tag + "s" + std::to_string(i) + ".sock";
      d.shards.push_back(std::make_unique<serve::Server>(cfg));
      d.shards.back()->start();
      replicas.push_back(serve::Endpoint::unix_path(cfg.unix_socket));
    }
    t->start_s = start.end();
  }
  std::string front = replicas.front().path;
  if (routed) {
    SpanLog::Scope fleet(spans(), "fleet.start");
    serve::RouterConfig rc;
    rc.unix_socket = tag + "front.sock";
    rc.static_groups = {replicas};
    d.router = std::make_unique<serve::Router>(rc);
    d.router->start();
    front = rc.unix_socket;
    t->fleet_s = fleet.end();
  }
  {
    SpanLog::Scope connect(spans(), "client.connect");
    for (std::size_t c = 0; c < kConnections; ++c) {
      d.clients.push_back(serve::Client::connect_unix(front));
      d.clients.back().set_recv_timeout_ms(kRecvPollMs);
    }
    t->connect_s = connect.end();
  }
  return d;
}

// ---- phase A: open loop --------------------------------------------------

struct OpenLoop {
  std::vector<double> latency_ms;       // from due time, completed requests
  std::vector<double> since_send_ms;    // from send time, completed requests
  std::vector<double> late_ms;          // send time minus due time
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  // error replies, wrong bits and missing replies
  double wall_s = 0.0;     // first due time to last reply
  double cpu_s = 0.0;      // process CPU minus the generator's threads
};

OpenLoop open_loop(std::vector<serve::Client>& clients, const Requests& req,
                   std::uint64_t seed, std::uint64_t id_base,
                   std::size_t row_base, double duration_s, AwakeCpus& awake) {
  // The Poisson schedule is an input: drawn from the seed up front.
  util::Rng rng(seed);
  std::vector<double> due_off;
  for (double t = rng.exponential(kFixedRate); t < duration_s;
       t += rng.exponential(kFixedRate)) {
    due_off.push_back(t);
  }
  const std::size_t n = due_off.size();
  std::vector<double> due(n), send(n), recv(n, -1.0);
  std::vector<char> ok(n, 0);
  std::vector<std::atomic<std::size_t>> sent_on(kConnections);
  std::vector<std::size_t> final_on(kConnections, 0);
  std::atomic<bool> sender_done{false};
  std::atomic<std::size_t> receivers_done{0};
  std::vector<double> receiver_cpu(kConnections, 0.0);

  // Replies never answered stay at recv = -1 and count as failed; a
  // transport error ends the connection's receiver, never the process.
  const auto receive = [&](const std::stop_token& stop, std::size_t c) {
    const double cpu0 = thread_cpu_s();
    std::size_t got = 0;
    try {
      while (!stop.stop_requested()) {
        if (sender_done.load() && got >= final_on[c]) break;
        serve::Client::Reply reply;
        try {
          if (!clients[c].read_reply(&reply)) break;
        } catch (const serve::Client::Timeout&) {
          continue;
        }
        const double t = now_s();
        if (reply.request_id <= id_base || reply.request_id > id_base + n) continue;
        const std::size_t i = reply.request_id - id_base - 1;
        recv[i] = t;
        ok[i] = reply_ok(reply, req, (row_base + i) % req.rows()) ? 1 : 0;
        ++got;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: connection %zu: %s\n", c, e.what());
    }
    receiver_cpu[c] = thread_cpu_s() - cpu0;
    receivers_done.fetch_add(1);
  };

  const double cpu0 = process_cpu_s();
  const double spin0 = awake.spinner_cpu_s();
  const double sender_cpu0 = thread_cpu_s();
  // jthreads: an exception on this thread still stops and joins them.
  std::vector<std::jthread> receivers;
  for (std::size_t c = 0; c < kConnections; ++c) receivers.emplace_back(receive, c);

  const double start = now_s() + 0.005;
  const auto start_tp = Clock::now() + std::chrono::microseconds(5000);
  std::size_t n_sent = 0;
  {
    SpanLog::Scope stream(spans(), "client.fixed_rate");
    try {
      for (; n_sent < n; ++n_sent) {
        const std::size_t i = n_sent;
        due[i] = start + due_off[i];
        std::this_thread::sleep_until(
            start_tp + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due_off[i])));
        const std::size_t c = i % kConnections;
        send[i] = now_s();
        clients[c].send_predict(
            make_request(req, id_base + i + 1, (row_base + i) % req.rows()));
        sent_on[c].fetch_add(1);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: fixed-rate sender stopped: %s\n", e.what());
    }
    for (std::size_t c = 0; c < kConnections; ++c) final_on[c] = sent_on[c].load();
    sender_done.store(true);
    const double drain_until = now_s() + kDrainDeadlineS;
    while (receivers_done.load() < kConnections && now_s() < drain_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (auto& t : receivers) t.request_stop();
    receivers.clear();  // joins
  }
  const double sender_cpu = thread_cpu_s() - sender_cpu0;

  OpenLoop out;
  out.sent = n;
  out.cpu_s = process_cpu_s() - cpu0 - sender_cpu - (awake.spinner_cpu_s() - spin0) -
              std::accumulate(receiver_cpu.begin(), receiver_cpu.end(), 0.0);
  double last = start;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n_sent) out.late_ms.push_back(1e3 * (send[i] - due[i]));
    if (recv[i] < 0.0 || ok[i] == 0) {
      ++out.failed;
      continue;
    }
    ++out.ok;
    last = std::max(last, recv[i]);
    out.latency_ms.push_back(1e3 * (recv[i] - due[i]));
    out.since_send_ms.push_back(1e3 * (recv[i] - send[i]));
  }
  out.wall_s = last - start;
  return out;
}

// ---- phase B: closed loop ----------------------------------------------

/// Closed-loop throughput is taken per window and the median window
/// reported, so a stall of the shared machine inside one window does
/// not move the figure.
constexpr double kRateWindowS = 0.5;

struct ClosedLoop {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::uint64_t ids_used = 0;  // the next phase starts its ids past these
  double wall_s = 0.0;
  std::vector<double> window_rps;  // completions per second, full windows
};

/// Keep kWindow requests outstanding on every connection until
/// `duration_s` passes or a connection has sent `max_per_connection`.
ClosedLoop closed_loop(std::vector<serve::Client>& clients, const Requests& req,
                       std::uint64_t id_base, std::size_t row_base,
                       double duration_s,
                       std::size_t max_per_connection = SIZE_MAX) {
  const double window_s = std::min(kRateWindowS, duration_s);
  const auto n_windows = static_cast<std::size_t>(duration_s / window_s);
  struct PerConnection {
    std::size_t sent = 0, ok = 0, failed = 0;
    double end_s = 0.0;
    std::vector<std::size_t> window_ok;
  };
  std::vector<PerConnection> per(kConnections);
  for (auto& p : per) p.window_ok.assign(n_windows, 0);
  // Connection c sends ids id_base + c + 1 + k * kConnections, so the id
  // names the request's row without a lookup table.
  const auto row_of = [&](std::uint64_t id) {
    return (row_base + (id - id_base - 1)) % req.rows();
  };
  const double start = now_s();
  const double stop_at = start + duration_s;
  const auto drive = [&](std::size_t c) {
    auto& p = per[c];
    std::size_t inflight = 0;
    try {
      while (true) {
        while (inflight < kWindow && p.sent < max_per_connection &&
               now_s() < stop_at) {
          const std::uint64_t id = id_base + c + 1 + p.sent * kConnections;
          clients[c].send_predict(make_request(req, id, row_of(id)));
          ++p.sent;
          ++inflight;
        }
        if (inflight == 0) break;
        serve::Client::Reply reply;
        try {
          if (!clients[c].read_reply(&reply)) break;
        } catch (const serve::Client::Timeout&) {
          if (now_s() > stop_at + kDrainDeadlineS) break;
          continue;
        }
        --inflight;
        if (reply_ok(reply, req, row_of(reply.request_id))) {
          ++p.ok;
          const auto w = static_cast<std::size_t>((now_s() - start) / window_s);
          if (w < n_windows) ++p.window_ok[w];
        } else {
          ++p.failed;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: connection %zu: %s\n", c, e.what());
    }
    p.failed += inflight;  // never answered
    p.end_s = now_s();
  };
  {
    SpanLog::Scope loop(spans(), "client.closed_loop");
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) threads.emplace_back(drive, c);
    threads.clear();  // joins
  }
  ClosedLoop out;
  double end = start;
  for (const auto& p : per) {
    out.sent += p.sent;
    out.ok += p.ok;
    out.failed += p.failed;
    out.ids_used = std::max<std::uint64_t>(out.ids_used, p.sent * kConnections);
    end = std::max(end, p.end_s);
  }
  out.wall_s = end - start;
  for (std::size_t w = 0; w < n_windows; ++w) {
    std::size_t ok = 0;
    for (const auto& p : per) ok += p.window_ok[w];
    out.window_rps.push_back(static_cast<double>(ok) / window_s);
  }
  return out;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
}

}  // namespace

Result run_serve(const Options& opts, bool routed) {
  Result result;
  RunDir dir(opts.work_dir);

  // Inputs: a cori-like dataset; the rows before the hold-out train the
  // checkpoint, the held-out rows are the requests.
  Requests req;
  {
    auto cfg = sim::cori_like(opts.seed);
    cfg.workload.n_jobs = kServeJobs;
    const auto sim_result = sim::simulate(cfg);
    const auto& ds = sim_result.dataset;
    const auto& feats = app_features();
    const auto n_train = static_cast<std::size_t>(
        static_cast<double>(ds.size()) * (1.0 - kHoldoutFrac));
    std::vector<std::size_t> train(n_train), hold(ds.size() - n_train);
    std::iota(train.begin(), train.end(), std::size_t{0});
    std::iota(hold.begin(), hold.end(), n_train);
    ml::GradientBoostedTrees model;
    model.fit(taxonomy::feature_matrix(ds, feats, train), taxonomy::targets(ds, train));
    std::ofstream out("model.gbt");
    model.save(out);
    req.x = taxonomy::feature_matrix(ds, feats, hold);
  }
  // From here on no CPU halts.
  auto awake = std::make_unique<AwakeCpus>();

  // The benchmark's own copy of the checkpoint, loaded outside set-up
  // (each daemon loads its own in Server::start): offline predict of
  // every request row gives the bits every served value must match.
  std::vector<double> load_s;
  std::unique_ptr<ml::Regressor> model;
  for (int r = 0; r < kLoadRepeats; ++r) {
    SpanLog::Scope load(spans(), "ml.checkpoint_load");
    model = ml::load_regressor_file("model.gbt");
    load_s.push_back(load.end());
  }
  for (const double v : model->predict(req.x)) req.expected.push_back(bits(v));
  reset_peak_rss();

  // Setup, repeated: half before the phases (the last of those serves
  // them) and half after, so the median samples the shared machine over
  // the whole run instead of one moment of it.
  std::vector<double> setup_s, start_s, fleet_s, connect_s;
  const auto timed_setup = [&](int rep) {
    SetupTimes t;
    SpanLog::Scope setup(spans(), "bench.setup");
    Deployment fresh = deploy(routed, rep, &t);
    setup_s.push_back(setup.end());
    start_s.push_back(t.start_s);
    fleet_s.push_back(t.fleet_s);
    connect_s.push_back(t.connect_s);
    return fresh;
  };
  Deployment d;
  for (int r = 0; r < kSetupRepeats / 2; ++r) {
    d.stop();
    d = timed_setup(r);
  }

  // Warm-up outside any measurement: opens the router's backhaul
  // connections and pages the model in.
  std::uint64_t id_base = 0;
  std::size_t row_base = 0;
  {
    SpanLog::Scope warm(spans(), "bench.warmup");
    const auto w = closed_loop(d.clients, req, id_base, row_base, kDrainDeadlineS,
                               kWarmupPerConnection);
    result.attempts(w.sent, w.failed);
    result.check(w.failed == 0, "warm-up replies match offline predict");
    id_base += w.ids_used;
    row_base += w.ids_used;
  }

  const double a_seconds = kFixedRateShare * opts.seconds;
  const double b_seconds = opts.seconds - a_seconds;

  // Phase A: fixed rate. The traced run records the daemon's request
  // histogram here.
  if (opts.trace) {
    obs::MetricsRegistry::global().reset();
    obs::set_enabled(true);
  }
  const auto before_a = d.shard_stats();
  OpenLoop a;
  {
    SpanLog::Scope work(spans(), "bench.work");
    a = open_loop(d.clients, req, sub_seed(opts.seed, 1), id_base, row_base, a_seconds,
                  *awake);
  }
  const auto after_a = d.shard_stats();
  const double server_mean_ms = obs_histogram_mean("serve.request_ms");
  obs::set_enabled(false);
  id_base += a.sent;
  row_base += a.sent;
  result.attempts(a.sent, a.failed);

  // Phase B: closed loop (untraced; the traced run repeats it traced).
  const auto b = closed_loop(d.clients, req, id_base, row_base, b_seconds);
  const auto after_b = d.shard_stats();
  id_base += b.ids_used;
  row_base += b.ids_used;
  result.attempts(b.sent, b.failed);
  ClosedLoop b_traced;
  if (opts.trace) {
    obs::set_enabled(true);
    b_traced = closed_loop(d.clients, req, id_base, row_base, b_seconds);
    obs::set_enabled(false);
    result.attempts(b_traced.sent, b_traced.failed);
  }
  const auto fleet = d.router ? d.router->stats() : serve::FleetStats{};
  const auto totals = d.shard_stats();
  d.stop();
  const double peak_mb = peak_rss_mb();
  for (int r = kSetupRepeats / 2; r < kSetupRepeats; ++r) timed_setup(r).stop();
  awake.reset();

  result.check(a.failed == 0, std::to_string(a.failed) +
                                  " fixed-rate request(s) failed, wrong or unanswered");
  result.check(b.failed == 0 && b_traced.failed == 0,
               std::to_string(b.failed + b_traced.failed) +
                   " closed-loop request(s) failed, wrong or unanswered");
  result.check(!a.latency_ms.empty() && !b.window_rps.empty() &&
                   (!opts.trace || !b_traced.window_rps.empty()),
               "both phases completed requests");
  if (a.latency_ms.empty() || b.window_rps.empty()) return result;

  const double saturated_rps = median(b.window_rps);
  // The mean, not the median: set-up time switches between two levels
  // (about 4.5 and 8 ms direct) in blocks of consecutive set-ups, and
  // the median of a run jumps to whichever level held the majority.
  result.end_to_end("setup_s", mean(setup_s));
  result.end_to_end("wall_s", a.wall_s);
  result.end_to_end("cpu_s", a.cpu_s);
  result.end_to_end("peak_rss_mb", peak_mb);
  result.end_to_end("p50_ms", nearest_rank(a.latency_ms, 0.5));
  result.end_to_end("saturated_rps", saturated_rps);
  result.end_to_end("ok_frac", result.ok_frac());

  const std::size_t samples = a.latency_ms.size();
  std::printf("fixed rate %.0f req/s over %zu connections: %zu sent, %zu ok\n",
              kFixedRate, kConnections, a.sent, a.ok);
  std::printf("  p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  p99.9 %.4f ms  "
              "(nearest rank, n=%zu, from due time)\n",
              nearest_rank(a.latency_ms, 0.5), nearest_rank(a.latency_ms, 0.9),
              nearest_rank(a.latency_ms, 0.99), nearest_rank(a.latency_ms, 0.999),
              samples);
  std::printf("  sender late p99 %.4f ms (n=%zu); achieved %.1f req/s of %.0f offered\n",
              nearest_rank(a.late_ms, 0.99), a.late_ms.size(),
              static_cast<double>(a.ok) / a.wall_s, kFixedRate);
  std::printf("closed loop, %zu outstanding x %zu connections: %zu ok in %.3f s; "
              "median of %zu %.1f-s windows %.0f req/s\n",
              kWindow, kConnections, b.ok, b.wall_s, b.window_rps.size(), kRateWindowS,
              saturated_rps);

  if (opts.trace) {
    const double batches_a = static_cast<double>(after_a.batches - before_a.batches);
    const double rows_a = static_cast<double>(after_a.responses - before_a.responses);
    const double batches_b = static_cast<double>(after_b.batches - after_a.batches);
    const double rows_b = static_cast<double>(after_b.responses - after_a.responses);
    const double rows_per_batch = batches_b > 0.0 ? rows_b / batches_b : 0.0;

    // Offline predict of one closed-loop-sized batch: the kernel's share
    // of a served batch.
    std::vector<double> batch_us;
    {
      const auto batch_rows = std::max<std::size_t>(
          1, std::min<std::size_t>(req.rows(),
                                   static_cast<std::size_t>(rows_per_batch + 0.5)));
      data::Matrix batch(batch_rows, req.x.cols());
      for (std::size_t r = 0; r < batch_rows; ++r) {
        const auto src = req.x.row(r);
        std::copy(src.begin(), src.end(), batch.mutable_row(r).begin());
      }
      for (int i = 0; i < 200; ++i) {
        const double t0 = now_s();
        const auto pred = model->predict(batch);
        batch_us.push_back(1e6 * (now_s() - t0));
        if (pred.empty()) break;
      }
    }
    const double client_mean_ms = mean(a.since_send_ms);
    result.layer("ml.checkpoint_load_s", median(load_s));
    result.layer("ml.batch_predict_us", median(batch_us));
    result.layer("serve.start_s", median(start_s));
    result.layer("serve.batches", batches_a);
    result.layer("serve.rows_per_batch", rows_per_batch);
    result.layer("serve.fixed_rate_rows_per_batch", batches_a > 0.0 ? rows_a / batches_a : 0.0);
    result.layer("serve.shed", static_cast<double>(totals.shed));
    result.layer("serve.errors", static_cast<double>(totals.errors));
    result.layer("serve.server_mean_ms", server_mean_ms);
    result.layer("serve.transport_mean_ms", client_mean_ms - server_mean_ms);
    if (routed) {
      const double n_req = static_cast<double>(std::max<std::uint64_t>(fleet.requests, 1));
      result.layer("fleet.start_s", median(fleet_s));
      result.layer("fleet.attempts_per_req",
                   (static_cast<double>(fleet.requests) + static_cast<double>(fleet.retries)) /
                       n_req);
      result.layer("fleet.failovers", static_cast<double>(fleet.failovers));
      result.layer("fleet.degraded", static_cast<double>(fleet.degraded));
    }
    result.layer("client.samples", static_cast<double>(samples));
    result.layer("client.p90_ms", nearest_rank(a.latency_ms, 0.9));
    result.layer("client.p99_ms", nearest_rank(a.latency_ms, 0.99));
    result.layer("client.p999_ms", nearest_rank(a.latency_ms, 0.999));
    result.layer("client.late_p99_ms", nearest_rank(a.late_ms, 0.99));
    result.layer("client.offered_rps", kFixedRate);
    result.layer("client.achieved_rps", static_cast<double>(a.ok) / a.wall_s);
    result.layer("obs.overhead_frac", saturated_rps / median(b_traced.window_rps) - 1.0);

    const int setup = spans().last("bench.setup");
    const int work = spans().last("bench.work");
    const auto& all = spans().spans();
    const double setup_total = all[static_cast<std::size_t>(setup)].seconds();
    const double work_total = all[static_cast<std::size_t>(work)].seconds();
    const double unexplained = spans().uncovered(setup) + spans().uncovered(work);
    const double total = setup_total + work_total;
    result.layer("bench.unexplained_frac", unexplained / total);
    std::vector<LayerShare> shares = {{"serve.start (loads the checkpoint)", start_s.back()}};
    if (routed) shares.push_back({"fleet.start", fleet_s.back()});
    shares.push_back({"client.connect", connect_s.back()});
    shares.push_back({"client.fixed_rate (open-loop stream)",
                      work_total - spans().uncovered(work)});
    print_shares(opts.workload + ": setup + fixed-rate phase", total, shares, unexplained);
    print_shares(opts.workload + ": mean client latency from send at the fixed rate",
                 client_mean_ms / 1e3,
                 {{"serve daemon (serve.request_ms)", server_mean_ms / 1e3},
                  {routed ? "transport: sockets, framing, router hop"
                          : "transport: sockets, framing",
                   (client_mean_ms - server_mean_ms) / 1e3}},
                 0.0);
    result.print_layer_metrics();
  }
  return result;
}

}  // namespace perfbench
