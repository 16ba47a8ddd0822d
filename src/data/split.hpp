// Train/val/test splitting. The paper's deployment experiments (§VIII,
// Fig. 1c) split by time: train on the first part of the system's life,
// deploy on the rest. Random splits are used for in-distribution tests.
#pragma once

#include "src/data/dataset.hpp"
#include "src/util/rng.hpp"

namespace iotax::data {

/// Random split with the given fractions (must sum to <= 1; any remainder
/// goes to test).
Split random_split(std::size_t n, double train_frac, double val_frac,
                   util::Rng& rng);

/// Time-ordered split: rows sorted stably by start time, the first
/// `n_train` (clamped to the row count) to train and the rest to test;
/// val stays empty.
Split split_by_start_time(const Dataset& ds, std::size_t n_train);

/// Duplicate-set-aware random split: whole duplicate sets are assigned to
/// one side so that identical jobs never straddle the train/test boundary
/// (prevents the memorisation leak discussed in §VI.C).
Split grouped_random_split(const Dataset& ds, double train_frac,
                           double val_frac, util::Rng& rng);

}  // namespace iotax::data
