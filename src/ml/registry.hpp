// Name-based model factory: build any Regressor family from a family
// name and a JSON parameter object. This is the configuration-driven
// entry point the CLI `train` command and experiment configs use, so a
// model choice is a string, not a compile-time type.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/ml/model.hpp"

namespace iotax::ml {

/// Family names accepted by make_regressor, sorted: the names in the one
/// family table (registry.cpp) that known_model_magics(), make_regressor
/// and Regressor::load also read.
std::vector<std::string> regressor_names();

/// Construct an unfitted regressor.
///
/// `name` is one of regressor_names() ("mean", "linear", "gbt", "mlp",
/// "ensemble", "classifier"); `params_json` is a JSON object whose keys
/// map onto the family's params struct ({"n_estimators": 50,
/// "max_depth": 4} for gbt, {"hidden": [32, 32], "nll_head": true} for
/// mlp, {"kind": "logistic", "gbt": {...}} for classifier, ...). Throws
/// std::invalid_argument for an unknown family, malformed JSON, an
/// unknown key, or a value of the wrong type — a typo never silently
/// trains a default model.
std::unique_ptr<Regressor> make_regressor(const std::string& name,
                                          const std::string& params_json = "{}");

/// Open `path` and restore the checkpoint through Regressor::load. Every
/// failure is a std::runtime_error naming the path — a rejected
/// checkpoint a CheckpointError that also carries its util::Reason — so
/// a CLI pointed at the wrong file says which file and why.
std::unique_ptr<Regressor> load_regressor_file(const std::string& path);

/// FNV-1a 64-bit hash of a checkpoint file's bytes — the "params hash"
/// shown by registry diagnostics and the serve banner. Computable even
/// for a checkpoint that fails to load, so a broken or mismatched file
/// is identifiable by content, not just by name. Throws
/// std::runtime_error when the file cannot be opened.
std::uint64_t hash_model_file(const std::string& path);

/// Render a params hash the way diagnostics print it ("0x1a2b...").
std::string format_params_hash(std::uint64_t hash);

/// One publication in a registry slot: the model itself, where it came
/// from, the slot's monotonically increasing generation, and the FNV-1a
/// hash of the checkpoint bytes. Entries are immutable and shared — a
/// serve batch snapshots the shared_ptr once and the model stays alive
/// for the whole batch even if the slot is re-published underneath it.
struct ModelEntry {
  std::shared_ptr<const Regressor> model;
  std::string source;
  std::uint64_t generation = 0;
  std::uint64_t params_hash = 0;
};

/// In-memory registry of loaded checkpoints for the serve daemon: each
/// add() creates one slot; requests address models by their add()
/// index. The slot count is fixed after startup, but each slot's
/// current publication can be atomically replaced (publish) or restored
/// (rollback) under live traffic: readers take entry() snapshots, so an
/// in-flight batch keeps scoring against the model it started with
/// while new requests see the new generation.
class ModelRegistry {
 public:
  /// Load a checkpoint into a new slot at generation 1; returns the
  /// slot index. Load failures rethrow (a CheckpointError keeping its
  /// reason, anything else as std::runtime_error) with the slot, the
  /// would-be generation, and the checkpoint's params hash appended —
  /// enough to tell which artifact was rejected, not just which path.
  std::size_t add(const std::string& path);

  std::size_t size() const;

  /// Snapshot of slot i's current publication (never null).
  std::shared_ptr<const ModelEntry> entry(std::size_t i) const;

  /// Replace slot i's publication; the displaced entry is retained for
  /// rollback. Returns the new generation (previous + 1).
  std::uint64_t publish(std::size_t i, std::shared_ptr<const Regressor> model,
                        std::string source, std::uint64_t params_hash);

  /// Restore slot i's previous publication under a fresh generation
  /// (generations only ever increase, so clients can always detect a
  /// swap). Rolling back twice toggles between the two newest
  /// publications. Throws std::runtime_error when the slot has never
  /// been re-published.
  std::shared_ptr<const ModelEntry> rollback(std::size_t i);

  /// Current model of slot i. Only safe when no concurrent publish can
  /// run (startup banners, single-threaded tools); concurrent readers
  /// must hold an entry() snapshot instead.
  const Regressor& model(std::size_t i) const { return *entry(i)->model; }
  /// Source path slot i was add()ed from (stable across publishes; the
  /// current publication's origin is entry(i)->source).
  const std::string& path(std::size_t i) const { return paths_.at(i); }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const ModelEntry>> slots_;
  std::vector<std::shared_ptr<const ModelEntry>> previous_;
  std::vector<std::string> paths_;
};

}  // namespace iotax::ml
