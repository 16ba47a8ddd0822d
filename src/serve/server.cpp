#include "src/serve/server.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "src/data/matrix.hpp"
#include "src/ml/ensemble.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace iotax::serve {

using util::FrameHeader;
using util::FrameType;
using util::Reason;

/// One admitted request waiting for its batch.
struct Server::Pending {
  std::uint64_t session = 0;
  PredictRequest req;
  Clock::time_point t_enqueue;
};

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

Server::Server(ServeConfig config) : config_(std::move(config)) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_inflight == 0) config_.max_inflight = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::logic_error("serve: already running");
  }
  for (const auto& path : config_.model_files) registry_.add(path);
  if (registry_.size() == 0) {
    throw std::runtime_error("serve: no model checkpoints given");
  }
  if (!config_.shadow_file.empty()) {
    if (config_.shadow_slot >= registry_.size()) {
      throw std::runtime_error(
          "serve: --shadow-slot " + std::to_string(config_.shadow_slot) +
          " outside registry of " + std::to_string(registry_.size()));
    }
    const std::uint64_t hash = ml::hash_model_file(config_.shadow_file);
    auto entry = std::make_shared<ml::ModelEntry>();
    entry->model = std::shared_ptr<const ml::Regressor>(
        ml::load_regressor_file(config_.shadow_file));
    entry->source = config_.shadow_file;
    entry->generation = 0;  // candidate: not yet published
    entry->params_hash = hash;
    const auto prod = registry_.entry(config_.shadow_slot);
    if (entry->model->n_features() != 0 && prod->model->n_features() != 0 &&
        entry->model->n_features() != prod->model->n_features()) {
      throw std::runtime_error(
          "serve: shadow model expects " +
          std::to_string(entry->model->n_features()) +
          " features but production slot " +
          std::to_string(config_.shadow_slot) + " expects " +
          std::to_string(prod->model->n_features()));
    }
    std::lock_guard<std::mutex> lock(shadow_mu_);
    shadow_ = std::move(entry);
  }
  queue_ = std::make_unique<util::BoundedQueue<Pending>>(config_.max_inflight);
  loop_ = std::make_unique<EventLoop>(
      static_cast<Owner&>(*this), config_.unix_socket, config_.tcp_port,
      config_.model_files.size() + (config_.shadow_file.empty() ? 0 : 1),
      "serve");
  bound_tcp_port_ = loop_->tcp_port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop_->run(); });
  batcher_thread_ = std::thread([this] { batcher_loop(); });
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true)) {
    // Another thread is already draining; wait for it to finish.
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return;
  }
  // The loop closes the listeners, stops reading, and returns once the
  // batcher has answered everything admitted and the replies are out.
  loop_->request_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  queue_->close();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  loop_.reset();
  running_.store(false, std::memory_order_release);
}

ServeStats Server::stats() const {
  ServeStats s;
  s.connections = n_connections_.load(std::memory_order_relaxed);
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.responses = n_responses_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.shed = n_shed_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  s.quarantined = n_quarantined_.load(std::memory_order_relaxed);
  s.shadow_requests = n_shadow_requests_.load(std::memory_order_relaxed);
  s.shadow_diverged = n_shadow_diverged_.load(std::memory_order_relaxed);
  s.promotions = n_promotions_.load(std::memory_order_relaxed);
  s.rollbacks = n_rollbacks_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    s.max_abs_divergence = max_abs_divergence_;
  }
  return s;
}

std::shared_ptr<const ml::ModelEntry> Server::shadow() const {
  std::lock_guard<std::mutex> lock(shadow_mu_);
  return shadow_;
}

util::QuarantineReport Server::quarantine() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantine_;
}

void Server::note_quarantine(Reason reason, const std::string& detail) {
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    util::QuarantineEntry entry;
    entry.reason = reason;
    entry.detail = detail;
    quarantine_.add(std::move(entry));
  }
  n_quarantined_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("serve.quarantined", 1);
}

void Server::reply_error(Session& s, const ErrorResponse& err, bool shed) {
  loop_->queue(s, encode_error_response(err));
  shed ? count_shed() : count_error();
}

void Server::on_request(Session& s, const FrameHeader& header,
                        std::span<const std::uint8_t> payload,
                        std::span<const std::uint8_t> /*frame*/) {
  ErrorResponse err;
  if (static_cast<FrameType>(header.type) == FrameType::kControlRequest) {
    ControlRequest req;
    if (!decode_control_request(header, payload, &req, &err)) {
      note_quarantine(*err.reason, err.detail);
      reply_error(s, err);
    } else {
      handle_control(s, req);
    }
    return;
  }
  Pending pending;
  pending.session = s.id;
  if (!decode_predict_request(header, payload, &pending.req, &err)) {
    note_quarantine(*err.reason, err.detail);
    reply_error(s, err);
    return;
  }
  if (pending.req.model_index >= registry_.size()) {
    err.request_id = header.request_id;
    err.status = ServeStatus::kUnknownModel;
    err.reason.reset();
    err.detail = "model index " + std::to_string(pending.req.model_index) +
                 " outside registry of " + std::to_string(registry_.size());
    reply_error(s, err);
    return;
  }
  // Snapshot the slot's current publication: a concurrent promote can
  // swap the slot, but this request validated (and will score) against a
  // coherent entry that the shared_ptr keeps alive.
  const auto entry = registry_.entry(pending.req.model_index);
  const auto& model = *entry->model;
  if (model.n_features() != 0 &&
      pending.req.features.size() != model.n_features()) {
    err.request_id = header.request_id;
    err.status = ServeStatus::kBadRequest;
    err.reason = Reason::kSizeMismatch;
    err.detail = "model expects " + std::to_string(model.n_features()) +
                 " features, request carries " +
                 std::to_string(pending.req.features.size());
    note_quarantine(Reason::kSizeMismatch, err.detail);
    reply_error(s, err);
    return;
  }
  if (loop_->stopping()) {
    err.request_id = header.request_id;
    err.status = ServeStatus::kShuttingDown;
    err.reason.reset();
    err.detail = "daemon is draining";
    reply_error(s, err, /*shed=*/true);
    return;
  }
  // Admission control: past max-inflight the request is shed with a
  // typed BUSY reply — the client backs off, the daemon never queues
  // unboundedly. The queue holds at most the unanswered requests, so
  // it has room whenever this count does.
  pending.t_enqueue = Clock::now();
  if (unanswered_ >= config_.max_inflight ||
      !queue_->try_push(std::move(pending))) {
    err.request_id = header.request_id;
    err.status = ServeStatus::kBusy;
    err.reason.reset();
    err.detail = "max-inflight " + std::to_string(config_.max_inflight) +
                 " reached";
    reply_error(s, err, /*shed=*/true);
    return;
  }
  ++unanswered_;
  ++s.pending;
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("serve.requests", 1);
  IOTAX_OBS_GAUGE("serve.inflight", static_cast<double>(unanswered_));
}

void Server::on_wake() {
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    delivering_.swap(outbox_);
  }
  for (Reply& reply : delivering_) {
    --unanswered_;
    // A session stays known while it has requests pending.
    Session& s = *loop_->find(reply.session);
    --s.pending;
    loop_->queue(s, reply.frame);
    loop_->settle(s);
  }
  delivering_.clear();
  IOTAX_OBS_GAUGE("serve.inflight", static_cast<double>(unanswered_));
}

void Server::handle_control(Session& s, const ControlRequest& req) {
  ControlResponse resp;
  resp.request_id = req.request_id;
  resp.shadow_requests = n_shadow_requests_.load(std::memory_order_relaxed);
  resp.shadow_diverged = n_shadow_diverged_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    resp.max_abs_divergence = max_abs_divergence_;
  }
  if (req.model_index >= registry_.size()) {
    resp.detail = "model index " + std::to_string(req.model_index) +
                  " outside registry of " + std::to_string(registry_.size());
    loop_->queue(s, encode_control_response(resp));
    return;
  }
  // A refused verb reports the slot's current generation.
  resp.generation = registry_.entry(req.model_index)->generation;
  switch (req.op) {
    case ControlOp::kStatus: {
      const auto entry = registry_.entry(req.model_index);
      resp.ok = true;
      resp.generation = entry->generation;
      resp.detail = entry->model->name() + " from " + entry->source +
                    " (params hash " +
                    ml::format_params_hash(entry->params_hash) + ")";
      break;
    }
    case ControlOp::kPromote: {
      // Promotion gate: a shadow must exist, target the requested slot,
      // and have scored enough live traffic. The publish itself is one
      // registry generation bump; in-flight requests keep their entry
      // snapshots and finish on the model they validated against.
      std::shared_ptr<const ml::ModelEntry> candidate;
      {
        std::lock_guard<std::mutex> lock(shadow_mu_);
        candidate = shadow_;
      }
      if (candidate == nullptr) {
        resp.detail = "no shadow candidate loaded";
        break;
      }
      if (req.model_index != config_.shadow_slot) {
        resp.detail = "shadow is a candidate for slot " +
                      std::to_string(config_.shadow_slot) + ", not " +
                      std::to_string(req.model_index);
        break;
      }
      if (resp.shadow_requests < req.min_shadow_requests) {
        resp.detail = "shadow has scored " +
                      std::to_string(resp.shadow_requests) + " of required " +
                      std::to_string(req.min_shadow_requests) + " request(s)";
        break;
      }
      const std::uint64_t generation =
          registry_.publish(req.model_index, candidate->model,
                            candidate->source, candidate->params_hash);
      {
        std::lock_guard<std::mutex> lock(shadow_mu_);
        shadow_.reset();  // consumed; further kFlagShadow rows answer {prod}
      }
      n_promotions_.fetch_add(1, std::memory_order_relaxed);
      IOTAX_OBS_COUNT("serve.promotions", 1);
      IOTAX_OBS_GAUGE("serve.generation", static_cast<double>(generation));
      resp.ok = true;
      resp.generation = generation;
      resp.detail = "promoted " + candidate->source + " (params hash " +
                    ml::format_params_hash(candidate->params_hash) +
                    ") as generation " + std::to_string(generation);
      break;
    }
    case ControlOp::kRollback: {
      try {
        const auto restored = registry_.rollback(req.model_index);
        n_rollbacks_.fetch_add(1, std::memory_order_relaxed);
        IOTAX_OBS_COUNT("serve.rollbacks", 1);
        IOTAX_OBS_GAUGE("serve.generation",
                        static_cast<double>(restored->generation));
        resp.ok = true;
        resp.generation = restored->generation;
        resp.detail = "rolled back to " + restored->source +
                      " (params hash " +
                      ml::format_params_hash(restored->params_hash) +
                      ") as generation " +
                      std::to_string(restored->generation);
      } catch (const std::exception& e) {
        resp.detail = e.what();
      }
      break;
    }
  }
  loop_->queue(s, encode_control_response(resp));
}

void Server::batcher_loop() {
  while (true) {
    auto batch = queue_->pop_batch(
        config_.batch_size, std::chrono::microseconds(config_.batch_wait_us));
    if (batch.empty()) break;  // closed and drained
    run_batch(std::move(batch));
  }
}

void Server::run_batch(std::vector<Pending>&& batch) {
  const bool timed = obs::enabled();
  const Clock::time_point t_popped = timed ? Clock::now() : Clock::time_point{};
  IOTAX_TRACE_SPAN("serve.batch");
  obs::span_arg("rows", static_cast<double>(batch.size()));
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  IOTAX_OBS_COUNT("serve.batches", 1);
  if (timed) {
    // Rows per executed batch: how much batching the queue actually
    // achieves, and thus how much of the packed-kernel batch speedup
    // each request sees (wide buckets — sizes are powers-ish).
    static obs::Histogram& batch_rows_hist =
        obs::MetricsRegistry::global().histogram(
            "serve.batch_rows", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                                 128.0, 256.0, 512.0});
    batch_rows_hist.observe(static_cast<double>(batch.size()));
    // Queue wait, per row: from admission to the batcher taking it.
    for (const auto& pending : batch) {
      IOTAX_OBS_HIST_MS("serve.queue_wait_ms",
                        ms_between(pending.t_enqueue, t_popped));
    }
  }

  // Group batch slots by (model, row width, dist?, shadow?) in
  // first-appearance order, then run each group through one
  // MatrixView-backed predict.
  std::vector<Reply> replies;
  replies.reserve(batch.size());
  struct Group {
    std::uint16_t model_index;
    std::size_t width;
    bool dist;
    bool shadow;
    std::vector<std::size_t> slots;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& req = batch[i].req;
    Group* group = nullptr;
    for (auto& g : groups) {
      if (g.model_index == req.model_index &&
          g.width == req.features.size() && g.dist == req.want_dist &&
          g.shadow == req.want_shadow) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{req.model_index, req.features.size(),
                             req.want_dist, req.want_shadow, {}});
      group = &groups.back();
    }
    group->slots.push_back(i);
  }

  for (const auto& group : groups) {
    // Entry snapshot: a promote landing mid-batch swaps the registry
    // slot, but this group finishes on the model its requests were
    // admitted against — no in-flight request is dropped or re-scored.
    const auto entry = registry_.entry(group.model_index);
    const auto& model = *entry->model;
    // Shadow scoring applies to kFlagShadow point predictions against
    // the candidate's slot; dist requests keep their 3-value contract.
    std::shared_ptr<const ml::ModelEntry> shadow_entry;
    if (group.shadow && !group.dist &&
        group.model_index == config_.shadow_slot) {
      std::lock_guard<std::mutex> lock(shadow_mu_);
      shadow_entry = shadow_;
    }
    data::Matrix x(group.slots.size(), group.width);
    for (std::size_t r = 0; r < group.slots.size(); ++r) {
      const auto& feats = batch[group.slots[r]].req.features;
      auto row = x.mutable_row(r);
      for (std::size_t c = 0; c < group.width; ++c) row[c] = feats[c];
    }
    std::vector<PredictResponse> responses(group.slots.size());
    bool ok = true;
    try {
      // A dist request against an ensemble gets the full decomposition;
      // any other model family answers with its point prediction. Both
      // run the ordinary batch kernels, so a served value is bit-equal
      // to what offline `iotax predict` computes for the same row.
      const auto* ensemble =
          group.dist ? dynamic_cast<const ml::DeepEnsemble*>(&model) : nullptr;
      if (ensemble != nullptr) {
        const auto uq = ensemble->predict_uncertainty(x);
        for (std::size_t r = 0; r < group.slots.size(); ++r) {
          responses[r].values = {uq.mean[r], uq.aleatory[r], uq.epistemic[r]};
        }
      } else if (shadow_entry != nullptr) {
        // Production and shadow score the identical Matrix through the
        // same batch kernels, so both values are bit-equal to what
        // offline `iotax predict` computes for the same rows — which is
        // what lets divergence accounting be exact rather than
        // tolerance-based.
        const auto pred = model.predict(x);
        const auto spred = shadow_entry->model->predict(x);
        std::uint64_t diverged = 0;
        double max_abs = 0.0;
        for (std::size_t r = 0; r < group.slots.size(); ++r) {
          responses[r].values = {pred[r], spred[r]};
          if (std::memcmp(&pred[r], &spred[r], sizeof(double)) != 0) {
            ++diverged;
            const double d = std::abs(pred[r] - spred[r]);
            if (d > max_abs) max_abs = d;
          }
        }
        n_shadow_requests_.fetch_add(group.slots.size(),
                                     std::memory_order_relaxed);
        IOTAX_OBS_COUNT("shadow.requests",
                        static_cast<std::uint64_t>(group.slots.size()));
        if (diverged > 0) {
          n_shadow_diverged_.fetch_add(diverged, std::memory_order_relaxed);
          IOTAX_OBS_COUNT("shadow.diverged", diverged);
        }
        {
          std::lock_guard<std::mutex> lock(shadow_mu_);
          if (max_abs > max_abs_divergence_) max_abs_divergence_ = max_abs;
          IOTAX_OBS_GAUGE("shadow.max_abs_divergence", max_abs_divergence_);
        }
      } else {
        const auto pred = model.predict(x);
        for (std::size_t r = 0; r < group.slots.size(); ++r) {
          responses[r].values = {pred[r]};
        }
      }
    } catch (const std::exception& e) {
      ok = false;
      for (const auto slot : group.slots) {
        ErrorResponse err;
        err.request_id = batch[slot].req.request_id;
        err.status = ServeStatus::kInternal;
        err.detail = e.what();
        replies.push_back({batch[slot].session, encode_error_response(err)});
        count_error();
      }
    }
    if (!ok) continue;
    const auto now = Clock::now();
    for (std::size_t r = 0; r < group.slots.size(); ++r) {
      const auto slot = group.slots[r];
      responses[r].request_id = batch[slot].req.request_id;
      replies.push_back(
          {batch[slot].session, encode_predict_response(responses[r])});
      n_responses_.fetch_add(1, std::memory_order_relaxed);
      IOTAX_OBS_COUNT("serve.responses", 1);
      IOTAX_OBS_HIST_MS("serve.request_ms",
                        ms_between(batch[slot].t_enqueue, now));
    }
  }
  // The batch itself, kernel plus encode: what the daemon spends on a
  // request once it has left the queue.
  if (timed) {
    IOTAX_OBS_HIST_MS("serve.batch_ms", ms_between(t_popped, Clock::now()));
  }
  // Hand the whole batch to the loop at once: one lock, and one wake
  // unless an earlier batch's wake has not been taken up yet.
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    wake = outbox_.empty();
    outbox_.insert(outbox_.end(), std::make_move_iterator(replies.begin()),
                   std::make_move_iterator(replies.end()));
  }
  if (wake) loop_->wake();
}

}  // namespace iotax::serve
