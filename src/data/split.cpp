#include "src/data/split.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace iotax::data {

Split random_split(std::size_t n, double train_frac, double val_frac,
                   util::Rng& rng) {
  if (train_frac < 0.0 || val_frac < 0.0 || train_frac + val_frac > 1.0) {
    throw std::invalid_argument("random_split: bad fractions");
  }
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  rng.shuffle(idx);
  const auto n_train = static_cast<std::size_t>(
      static_cast<double>(n) * train_frac);
  const auto n_val =
      static_cast<std::size_t>(static_cast<double>(n) * val_frac);
  Split s;
  s.train.assign(idx.begin(), idx.begin() + static_cast<long>(n_train));
  s.val.assign(idx.begin() + static_cast<long>(n_train),
               idx.begin() + static_cast<long>(n_train + n_val));
  s.test.assign(idx.begin() + static_cast<long>(n_train + n_val), idx.end());
  return s;
}

Split split_by_start_time(const Dataset& ds, std::size_t n_train) {
  std::vector<std::size_t> order(ds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ds.meta[a].start_time < ds.meta[b].start_time;
                   });
  const auto cut = order.begin() +
                   static_cast<long>(std::min(n_train, order.size()));
  Split s;
  s.train.assign(order.begin(), cut);
  s.test.assign(cut, order.end());
  return s;
}

Split grouped_random_split(const Dataset& ds, double train_frac,
                           double val_frac, util::Rng& rng) {
  if (train_frac < 0.0 || val_frac < 0.0 || train_frac + val_frac > 1.0) {
    throw std::invalid_argument("grouped_random_split: bad fractions");
  }
  // Group rows by duplicate-set key.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto key = ds.meta[i].app_id * 0x9e3779b97f4a7c15ULL ^
                     ds.meta[i].config_id;
    groups[key].push_back(i);
  }
  std::vector<std::vector<std::size_t>> group_list;
  group_list.reserve(groups.size());
  for (auto& [key, rows] : groups) group_list.push_back(std::move(rows));
  // Deterministic order before shuffling (unordered_map order is not).
  std::sort(group_list.begin(), group_list.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  rng.shuffle(group_list);

  const auto n = ds.size();
  const auto train_target =
      static_cast<std::size_t>(static_cast<double>(n) * train_frac);
  const auto val_target =
      static_cast<std::size_t>(static_cast<double>(n) * val_frac);
  Split s;
  for (const auto& rows : group_list) {
    auto* dst = &s.test;
    if (s.train.size() < train_target) {
      dst = &s.train;
    } else if (s.val.size() < val_target) {
      dst = &s.val;
    }
    dst->insert(dst->end(), rows.begin(), rows.end());
  }
  return s;
}

}  // namespace iotax::data
