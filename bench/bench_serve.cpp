// Serving-path harness: stands the iotax serve daemon up in-process on
// a Unix socket, drives it with pipelined client threads, and reports
// request latency (p50/p99) and throughput at IOTAX_THREADS=1 and 4.
// With --fleet it adds a fault-tolerance A/B: the same request stream
// once against a direct in-process daemon and once through the router
// in front of a real 1 group x 2 replicas supervised fleet (shards
// exec'd from the built iotax binary) while a chaos plan kill -9s the
// serving replica mid-run. The routed answers must be bit-identical
// with zero failed requests, and the routed p50 and p99 are gated as
// envelopes of the direct ones. Latency quantiles are nearest rank
// (perfbench/stats.hpp). Writes BENCH_serve.json
// (bench/bench_report.hpp).
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/bench_report.hpp"
#include "perfbench/stats.hpp"
#include "src/data/matrix.hpp"
#include "src/faults/chaos.hpp"
#include "src/ml/gbt.hpp"
#include "src/serve/client.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/server.hpp"
#include "src/util/env.hpp"

namespace iotax {
namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kPipelineWindow = 16;

struct RunStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double requests_per_sec = 0.0;
  std::size_t requests = 0;
};

/// One client: pipeline `n_requests` rows through its own connection,
/// recording client-observed latency per request.
void client_loop(const std::string& socket_path, const data::Matrix& x,
                 std::size_t n_requests, std::vector<double>* latencies_ms) {
  auto client = serve::Client::connect_unix(socket_path);
  latencies_ms->reserve(n_requests);
  std::vector<std::chrono::steady_clock::time_point> sent(n_requests);
  const auto send_row = [&](std::uint64_t id) {
    serve::PredictRequest req;
    req.request_id = id + 1;
    const auto src = x.row(id % x.rows());
    req.features.assign(src.begin(), src.end());
    sent[id] = std::chrono::steady_clock::now();
    client.send_predict(req);
  };
  std::size_t next = 0, done = 0;
  while (done < n_requests) {
    while (next < n_requests && next - done < kPipelineWindow) {
      send_row(next++);
    }
    serve::Client::Reply reply;
    if (!client.read_reply(&reply)) break;
    if (reply.type == util::FrameType::kErrorResponse) {
      // BUSY under this load would skew the latency tail silently.
      std::fprintf(stderr, "bench_serve: daemon replied %s\n",
                   serve::serve_status_name(reply.error.status));
      std::exit(1);
    }
    const auto id = reply.request_id - 1;
    latencies_ms->push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - sent[id])
                                .count());
    ++done;
  }
}

RunStats run_at(const char* threads, const std::string& model_path,
                const data::Matrix& x, std::size_t requests_per_client) {
  ::setenv("IOTAX_THREADS", threads, 1);
  serve::ServeConfig cfg;
  cfg.model_files = {model_path};
  cfg.unix_socket = "/tmp/iotax_bench_serve.sock";
  serve::Server server(cfg);
  server.start();

  std::vector<std::vector<double>> per_client(kClients);
  bench::Timer timer;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(client_loop, cfg.unix_socket, std::cref(x),
                         requests_per_client, &per_client[c]);
  }
  for (auto& t : clients) t.join();
  const double wall_s = timer.seconds();
  server.stop();

  std::vector<double> all;
  for (const auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  RunStats stats;
  stats.requests = all.size();
  stats.p50_ms = perfbench::nearest_rank(all, 0.50);
  stats.p99_ms = perfbench::nearest_rank(all, 0.99);
  stats.requests_per_sec =
      wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0;
  const auto served = server.stats();
  if (served.responses != all.size() || served.shed != 0) {
    std::fprintf(stderr, "bench_serve: daemon accounting off "
                         "(%llu responses, %llu shed)\n",
                 static_cast<unsigned long long>(served.responses),
                 static_cast<unsigned long long>(served.shed));
    std::exit(1);
  }
  return stats;
}

// ---- fleet A/B (--fleet) ---------------------------------------------

/// One pipelined client that also records every reply's value bit
/// pattern keyed by request id, so the two legs of the A/B compare
/// bit-for-bit. Error replies are counted, not fatal: the gate wants
/// "failed_requests: 0" as a measured fact, not an assert.
RunStats drive_recording(const std::string& socket_path, const data::Matrix& x,
                         std::size_t n_requests,
                         std::vector<std::uint64_t>* bits,
                         std::size_t* failed) {
  auto client = serve::Client::connect_unix(socket_path);
  std::vector<double> latencies;
  latencies.reserve(n_requests);
  bits->assign(n_requests, 0);
  *failed = 0;
  std::vector<std::chrono::steady_clock::time_point> sent(n_requests);
  std::size_t next = 0, done = 0;
  bench::Timer timer;
  while (done < n_requests) {
    while (next < n_requests && next - done < kPipelineWindow) {
      serve::PredictRequest req;
      req.request_id = next + 1;
      const auto src = x.row(next % x.rows());
      req.features.assign(src.begin(), src.end());
      sent[next] = std::chrono::steady_clock::now();
      client.send_predict(req);
      ++next;
    }
    serve::Client::Reply reply;
    if (!client.read_reply(&reply)) {
      std::fprintf(stderr, "bench_serve: peer closed with %zu of %zu "
                           "replies outstanding\n",
                   n_requests - done, n_requests);
      std::exit(1);
    }
    const auto id = reply.request_id - 1;
    if (reply.type == util::FrameType::kErrorResponse) {
      ++*failed;
    } else {
      std::uint64_t pattern = 0;
      std::memcpy(&pattern, reply.predict.values.data(), sizeof pattern);
      (*bits)[id] = pattern;
    }
    latencies.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - sent[id])
                            .count());
    ++done;
  }
  const double wall_s = timer.seconds();
  RunStats stats;
  stats.requests = latencies.size();
  stats.p50_ms = perfbench::nearest_rank(latencies, 0.50);
  stats.p99_ms = perfbench::nearest_rank(latencies, 0.99);
  stats.requests_per_sec =
      wall_s > 0.0 ? static_cast<double>(latencies.size()) / wall_s : 0.0;
  return stats;
}

/// The shards are real processes, so the routed leg needs the built CLI
/// binary: $IOTAX_BIN when set, else ../tools/iotax (the bench runs
/// from build/bench in CI). Missing binary fails loudly — a skipped
/// fleet leg must not look like a passed one.
std::string resolve_iotax_bin() {
  const char* env = std::getenv("IOTAX_BIN");
  const std::string path = env != nullptr ? env : "../tools/iotax";
  if (::access(path.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "bench_serve: --fleet needs the iotax binary but '%s' is "
                 "not executable; set IOTAX_BIN or run from build/bench\n",
                 path.c_str());
    std::exit(1);
  }
  return path;
}

struct FleetResult {
  std::size_t n_groups = 1;
  std::size_t n_replicas = 2;
  std::size_t requests = 0;
  std::size_t kill_at = 0;
  bool bit_identical = false;
  std::size_t failed_requests = 0;
  std::uint64_t restarts = 0;
  RunStats direct;
  RunStats routed;
};

FleetResult run_fleet(const std::string& model_path, const data::Matrix& x) {
  FleetResult result;
  result.requests = util::scaled_count(4000, 800);
  result.kill_at = result.requests / 2;

  const std::string dir =
      "/tmp/iotax_bench_fleet." + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  ::setenv("IOTAX_THREADS", "1", 1);

  // Leg A: direct in-process daemon, the no-failure reference.
  std::vector<std::uint64_t> direct_bits;
  {
    serve::ServeConfig cfg;
    cfg.model_files = {model_path};
    cfg.unix_socket = dir + "/direct.sock";
    serve::Server server(cfg);
    server.start();
    result.direct = drive_recording(cfg.unix_socket, x, result.requests,
                                    &direct_bits, &result.failed_requests);
    server.stop();
    if (result.failed_requests != 0) {
      std::fprintf(stderr, "bench_serve: direct leg saw %zu error replies\n",
                   result.failed_requests);
      std::exit(1);
    }
  }

  // Leg B: the same stream through the router while the chaos plan
  // kill -9s the serving replica at the halfway request.
  serve::SupervisorConfig sup;
  sup.iotax_bin = resolve_iotax_bin();
  sup.model_files = {model_path};
  sup.shard_dir = dir;
  sup.n_groups = result.n_groups;
  sup.n_replicas = result.n_replicas;
  serve::Supervisor supervisor(sup);
  supervisor.start();

  faults::ChaosEvent kill;
  kill.at_request = result.kill_at;
  kill.action = faults::ChaosAction::kKill;
  kill.group = 0;
  kill.replica = 0;

  serve::RouterConfig rc;
  rc.unix_socket = dir + "/router.sock";
  rc.deadline_ms = 10000;
  rc.try_timeout_ms = 500;
  rc.chaos.events = {kill};
  rc.supervisor = &supervisor;
  serve::Router router(rc);
  router.start();

  std::vector<std::uint64_t> routed_bits;
  result.routed = drive_recording(rc.unix_socket, x, result.requests,
                                  &routed_bits, &result.failed_requests);
  if (router.stats().chaos_kills != 1) {
    std::fprintf(stderr, "bench_serve: chaos kill never fired — the "
                         "failover A/B is vacuous\n");
    std::exit(1);
  }
  // The drive usually outruns the health loop; give the supervisor its
  // detection interval + backoff to bring the killed shard back so the
  // reported restart count is the recovered state, not a race.
  const auto recover_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (supervisor.stats().restarts < 1 &&
         std::chrono::steady_clock::now() < recover_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  router.stop();
  result.restarts = supervisor.stats().restarts;
  supervisor.stop();

  result.bit_identical = direct_bits == routed_bits;
  return result;
}

}  // namespace
}  // namespace iotax

int main(int argc, char** argv) {
  bool with_fleet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fleet") == 0) {
      with_fleet = true;
    } else {
      std::fprintf(stderr, "usage: bench_serve [--fleet]\n");
      return 1;
    }
  }
  using namespace iotax;
  bench::banner("Model-serving daemon latency/throughput",
                "micro-batching serve path (iotax serve)");

  const auto res = sim::simulate(sim::tiny_system());
  const auto& ds = res.dataset;
  const std::vector<taxonomy::FeatureSet> feats = {
      taxonomy::FeatureSet::kPosix, taxonomy::FeatureSet::kMpiio};
  const auto x = taxonomy::feature_matrix(ds, feats);
  const auto y = taxonomy::targets(ds);

  ml::GbtParams p;
  p.n_estimators = 30;
  p.max_depth = 5;
  ml::GradientBoostedTrees model(p);
  model.fit(x, y);
  const std::string model_path = "/tmp/iotax_bench_serve_model.gbt";
  {
    std::ofstream out(model_path);
    model.save(out);
  }

  const auto requests_per_client = util::scaled_count(2500, 500);
  const char* old_threads = std::getenv("IOTAX_THREADS");
  const std::string saved = old_threads != nullptr ? old_threads : "";

  const auto t1 = run_at("1", model_path, x, requests_per_client);
  const auto t4 = run_at("4", model_path, x, requests_per_client);

  FleetResult fleet;
  if (with_fleet) {
    fleet = run_fleet(model_path, x);
  }

  if (!saved.empty()) {
    ::setenv("IOTAX_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("IOTAX_THREADS");
  }
  std::remove(model_path.c_str());

  std::printf("model                 %s (%zu features)\n",
              model.name().c_str(), x.cols());
  std::printf("clients               %zu x %zu requests, window %zu\n",
              kClients, requests_per_client, kPipelineWindow);
  std::printf("threads=1  p50 %.3f ms  p99 %.3f ms  %.0f req/s\n",
              t1.p50_ms, t1.p99_ms, t1.requests_per_sec);
  std::printf("threads=4  p50 %.3f ms  p99 %.3f ms  %.0f req/s\n",
              t4.p50_ms, t4.p99_ms, t4.requests_per_sec);
  if (with_fleet) {
    std::printf("fleet %zux%zu, %zu requests, kill -9 g0r0 at request %zu\n",
                fleet.n_groups, fleet.n_replicas, fleet.requests,
                fleet.kill_at);
    std::printf("  direct  p50 %.3f ms  p99 %.3f ms  %.0f req/s\n",
                fleet.direct.p50_ms, fleet.direct.p99_ms,
                fleet.direct.requests_per_sec);
    std::printf("  routed  p50 %.3f ms  p99 %.3f ms  %.0f req/s\n",
                fleet.routed.p50_ms, fleet.routed.p99_ms,
                fleet.routed.requests_per_sec);
    std::printf("  bit_identical %s, %zu failed, %llu restart(s)\n",
                fleet.bit_identical ? "true" : "false", fleet.failed_requests,
                static_cast<unsigned long long>(fleet.restarts));
  }

  bench::Report out{"serve", {}};
  out.add({.name = "jobs", .value = ds.size(), .unit = "jobs"});
  out.add({.name = "clients", .value = kClients, .unit = "clients"});
  out.add({.name = "pipeline_window", .value = kPipelineWindow,
           .unit = "requests"});
  out.add({.name = "requests_per_client", .value = requests_per_client,
           .unit = "requests"});
  const auto add_run = [&](const std::string& at, const RunStats& run) {
    out.add({.name = at + ".p50_ms", .value = run.p50_ms, .unit = "ms"});
    out.add({.name = at + ".p99_ms", .value = run.p99_ms, .unit = "ms"});
    out.add({.name = at + ".requests_per_sec", .value = run.requests_per_sec,
             .unit = "req/s"});
  };
  add_run("threads_1", t1);
  add_run("threads_4", t4);
  if (with_fleet) {
    out.add({.name = "fleet.groups", .value = fleet.n_groups,
             .unit = "groups"});
    out.add({.name = "fleet.replicas", .value = fleet.n_replicas,
             .unit = "replicas"});
    out.add({.name = "fleet.requests", .value = fleet.requests,
             .unit = "requests", .gate = "hard"});
    out.add({.name = "fleet.kill_at", .value = fleet.kill_at,
             .unit = "request"});
    out.add({.name = "fleet.bit_identical", .value = fleet.bit_identical,
             .unit = "bool", .gate = "hard", .limit = true});
    // A failed request leaked past failover during the shard kill.
    out.add({.name = "fleet.failed_requests", .value = fleet.failed_requests,
             .unit = "requests", .gate = "hard", .limit = 0});
    // No restart: the chaos kill never happened and the A/B is vacuous.
    out.add({.name = "fleet.restarts", .value = fleet.restarts,
             .unit = "restarts", .gate = "floor", .limit = 1});
    add_run("fleet.direct", fleet.direct);
    // Both legs run here, so runner speed cancels. A router that
    // forwards one request per session at a time puts routed p50 near
    // 16x direct (the client's window); pipelined forwarding keeps it a
    // small constant above. The p99 slack absorbs the kill's failover
    // blip.
    out.add({.name = "fleet.routed.p50_ms", .value = fleet.routed.p50_ms,
             .unit = "ms", .gate = "envelope", .limit = 3,
             .of = "fleet.direct.p50_ms"});
    out.add({.name = "fleet.routed.p99_ms", .value = fleet.routed.p99_ms,
             .unit = "ms", .gate = "envelope", .limit = 5, .slack = 100,
             .of = "fleet.direct.p99_ms"});
    out.add({.name = "fleet.routed.requests_per_sec",
             .value = fleet.routed.requests_per_sec, .unit = "req/s"});
  }
  out.write();
  return 0;
}
