#include "src/ml/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/data/ooc.hpp"
#include "src/ml/checkpoint.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace iotax::ml {

DeepEnsemble::DeepEnsemble(EnsembleParams params)
    : params_(std::move(params)) {
  if (params_.size < 2) {
    throw std::invalid_argument("DeepEnsemble: need >= 2 members");
  }
}

void DeepEnsemble::fit_continue(const data::MatrixView& x,
                                std::span<const double> y,
                                std::size_t extra_rounds) {
  if (members_.empty()) {
    throw std::logic_error("DeepEnsemble::fit_continue: not fitted");
  }
  if (x.rows() != y.size()) {
    throw std::invalid_argument("DeepEnsemble::fit_continue: size mismatch");
  }
  if (extra_rounds == 0) return;
  IOTAX_TRACE_SPAN("ensemble.fit_continue");
  obs::span_arg("members", static_cast<double>(members_.size()));
  obs::span_arg("extra_rounds", static_cast<double>(extra_rounds));
  // All members hold the fit-time scaler fit() shared across the
  // ensemble; transform once and continue every member against the
  // shared copy, exactly as fit() shared z.
  const data::Matrix z = members_.front()->scaler().transform_log1p(x);
  util::parallel_for(members_.size(), [&](std::size_t k) {
    obs::SpanGuard member_span("ensemble.member");
    obs::span_arg("member", static_cast<double>(k));
    members_[k]->fit_continue_preprocessed(z, y, extra_rounds);
  });
  params_.epochs += extra_rounds;
}

void DeepEnsemble::fit(const data::MatrixView& x, std::span<const double> y) {
  IOTAX_TRACE_SPAN("ensemble.fit");
  obs::span_arg("members", static_cast<double>(params_.size));
  util::Rng rng(params_.seed);
  members_.clear();

  // Preprocess once and share across members: every member would compute
  // this exact matrix (same data, same deterministic transform), so one
  // copy replaces K and the parallel-member peak drops accordingly.
  data::StandardScaler scaler;
  const data::Matrix z = scaler.fit_transform_log1p(x);

  // Candidate architectures: best NAS candidates (deduplicated by order)
  // or fresh random samples from the search space.
  const std::vector<NasCandidate>& nas_history = params_.nas_history;
  std::vector<MlpParams> seeds;
  if (!nas_history.empty()) {
    auto sorted = nas_history;
    std::sort(sorted.begin(), sorted.end(),
              [](const NasCandidate& a, const NasCandidate& b) {
                return a.val_error < b.val_error;
              });
    for (const auto& cand : sorted) {
      seeds.push_back(cand.params);
      if (seeds.size() >= params_.size) break;
    }
  }

  // Draw every member's params up front — the single serial RNG pass —
  // so member training below is embarrassingly parallel yet the param
  // stream is identical to the sequential loop.
  NasParams space = params_.space;
  space.nll_head = true;
  std::vector<MlpParams> member_params(params_.size);
  for (std::size_t k = 0; k < params_.size; ++k) {
    MlpParams mp;
    if (k < seeds.size()) {
      mp = seeds[k];
    } else {
      // Sample fresh: small random architecture from the space.
      mp.hidden.clear();
      const auto layers = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(space.max_layers)));
      for (std::size_t l = 0; l < layers; ++l) {
        mp.hidden.push_back(rng.choice(space.widths));
      }
      mp.learning_rate = std::pow(10.0, rng.uniform(-3.3, -2.2));
      mp.dropout = rng.uniform(0.0, 0.2);
      mp.weight_decay = std::pow(10.0, rng.uniform(-6.0, -4.0));
    }
    mp.nll_head = true;
    mp.epochs = params_.epochs;
    mp.seed = rng.next();  // different init + shuffle per member
    member_params[k] = std::move(mp);
  }

  members_ = util::parallel_map<std::unique_ptr<Mlp>>(
      params_.size, [&](std::size_t k) {
        obs::SpanGuard member_span("ensemble.member");
        obs::span_arg("member", static_cast<double>(k));
        auto member = std::make_unique<Mlp>(member_params[k]);
        member->fit_preprocessed(z, y, scaler);
        return member;
      });
}

UncertaintyPrediction DeepEnsemble::predict_uncertainty(
    const data::MatrixView& x) const {
  if (members_.empty()) {
    throw std::logic_error("DeepEnsemble::predict_uncertainty: not fitted");
  }
  IOTAX_TRACE_SPAN("ensemble.predict_uncertainty");
  const std::size_t n = x.rows();
  const std::size_t k = members_.size();
  UncertaintyPrediction out;
  out.mean.assign(n, 0.0);
  out.aleatory.assign(n, 0.0);
  out.epistemic.assign(n, 0.0);
  std::vector<double> mean_sq(n, 0.0);

  // Every member holds the fit-time scaler fit() shared across the
  // ensemble, so the input transform is member-invariant: do it once
  // here instead of once per member, which at the parallel-member peak
  // would hold k identical transformed copies at once. The shared scaled
  // copy is also the only O(rows x cols) buffer on the predict path, so
  // it is produced one chunk of rows at a time: per-row math is
  // independent and members accumulate in fixed order within each chunk,
  // so the chunked walk is bit-identical to the one-shot transform while
  // the transient buffer stays bounded by the out-of-core chunk budget.
  const std::size_t chunk =
      std::max<std::size_t>(std::size_t{1}, data::ooc::settings().chunk_rows);
  const bool parallel_members =
      !util::in_parallel_region() && util::parallel_threads() > 1 && k > 1;
  std::vector<std::size_t> idx;
  std::vector<std::size_t> base_rows;
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t hi = std::min(n, lo + chunk);
    idx.resize(hi - lo);
    std::iota(idx.begin(), idx.end(), lo);
    const data::MatrixView xc = x.take_rows(idx, &base_rows);
    const data::Matrix z = members_.front()->scaler().transform_log1p(xc);
    // Accumulate raw member sums and divide by k once at the end; the
    // member-order accumulation is identical in the serial and parallel
    // branches, so both yield the same bits.
    const auto accumulate = [&](const DistPrediction& pred) {
      for (std::size_t i = 0; i < hi - lo; ++i) {
        out.mean[lo + i] += pred.mean[i];
        mean_sq[lo + i] += pred.mean[i] * pred.mean[i];
        out.aleatory[lo + i] += pred.variance[i];
      }
    };
    if (parallel_members) {
      std::vector<DistPrediction> preds(k);
      util::parallel_for(k, [&](std::size_t m) {
        members_[m]->predict_dist_preprocessed(z, &preds[m]);
      });
      for (const auto& pred : preds) accumulate(pred);
    } else {
      DistPrediction pred;  // one buffer reused across the member loop
      for (const auto& member : members_) {
        member->predict_dist_preprocessed(z, &pred);
        accumulate(pred);
      }
    }
  }
  const auto kd = static_cast<double>(k);
  for (std::size_t i = 0; i < n; ++i) {
    out.mean[i] /= kd;
    mean_sq[i] /= kd;
    out.aleatory[i] /= kd;
    out.epistemic[i] = std::max(0.0, mean_sq[i] - out.mean[i] * out.mean[i]);
  }
  return out;
}

std::vector<double> DeepEnsemble::predict(const data::MatrixView& x) const {
  return predict_uncertainty(x).mean;
}

std::string DeepEnsemble::name() const {
  return "ensemble[k=" + std::to_string(params_.size) + "]";
}

void DeepEnsemble::save(std::ostream& out) const {
  if (members_.empty()) {
    throw std::logic_error("DeepEnsemble::save: not fitted");
  }
  write_header(out, "iotax-ensemble");
  out << "epochs " << params_.epochs << '\n';
  out << "seed " << params_.seed << '\n';
  out << "members " << members_.size() << '\n';
  for (const auto& member : members_) member->save(out);
  if (!out) throw std::runtime_error("DeepEnsemble::save: stream failure");
}

DeepEnsemble DeepEnsemble::read(CheckpointReader& r) {
  EnsembleParams params;
  r.expect("epochs") >> params.epochs;
  r.expect("seed") >> params.seed;
  r.expect("members") >> params.size;
  const auto mismatch = [&](const std::string& what) {
    r.fail(util::Reason::kSizeMismatch, "iotax-ensemble " + what);
  };
  if (params.size < 2) {
    mismatch("has " + std::to_string(params.size) +
             " members; it needs at least 2");
  }
  DeepEnsemble ensemble(std::move(params));
  for (std::size_t i = 0; i < ensemble.params_.size; ++i) {
    r.header("iotax-mlp");
    auto member = std::make_unique<Mlp>(Mlp::read(r));
    // fit always trains NLL heads, and predict_uncertainty needs one
    // from every member.
    if (!member->params().nll_head) {
      mismatch("member " + std::to_string(i) +
               " has an MSE head; members need an NLL head");
    }
    // predict_uncertainty transforms its input once with member 0's
    // scaler and feeds the result to every member. Mlp::read ties a
    // member's input width to its scaler's, so this covers the widths.
    const Mlp& first = i > 0 ? *ensemble.members_.front() : *member;
    if (member->scaler().means() != first.scaler().means() ||
        member->scaler().stddevs() != first.scaler().stddevs()) {
      mismatch("member " + std::to_string(i) +
               "'s input scaler differs from member 0's");
    }
    ensemble.members_.push_back(std::move(member));
  }
  return ensemble;
}

}  // namespace iotax::ml
