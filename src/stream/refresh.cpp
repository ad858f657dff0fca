#include "stream/refresh.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/hard_negatives.hpp"
#include "kge/adam.hpp"
#include "kge/loss.hpp"
#include "kge/negative_sampler.hpp"
#include "util/rng.hpp"

namespace dynkge::stream {
namespace {

/// Uniform head-or-tail corruption for the dataset-less path (a streamed
/// triple may involve entities with no dataset history to filter against).
kge::Triple corrupt_uniform(const kge::Triple& positive,
                            std::int32_t num_entities, util::Rng& rng) {
  kge::Triple negative = positive;
  const auto replacement = static_cast<kge::EntityId>(
      rng.next_below(static_cast<std::uint64_t>(num_entities)));
  if (rng.next_bernoulli(0.5)) {
    negative.head = replacement;
  } else {
    negative.tail = replacement;
  }
  return negative;
}

void accumulate_triple(const kge::KgeModel& model, const kge::Triple& triple,
                       int label, kge::ModelGrads& grads, double& loss_sum,
                       std::size_t& loss_count) {
  const double score = model.score(triple.head, triple.relation, triple.tail);
  const auto lg = kge::logistic_loss(score, label);
  loss_sum += lg.loss;
  ++loss_count;
  model.accumulate_gradients(triple.head, triple.relation, triple.tail,
                             static_cast<float>(lg.dscore), grads);
}

}  // namespace

RefreshResult incremental_refresh(kge::KgeModel& model,
                                  std::span<const kge::Triple> deltas,
                                  std::uint64_t version,
                                  const RefreshParams& params,
                                  const kge::Dataset* dataset) {
  RefreshResult result;
  if (deltas.empty() || params.steps <= 0) return result;

  // The frozen-base contract: only rows named by the batch may change.
  auto& touched = result.touched;
  touched.reserve(deltas.size() * 2);
  for (const kge::Triple& t : deltas) {
    touched.push_back(t.head);
    touched.push_back(t.tail);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Base rows, kept to report the drift this refresh introduces.
  std::vector<float> base_rows;
  const auto width = static_cast<std::size_t>(model.entities().width());
  base_rows.reserve(touched.size() * width);
  for (const kge::EntityId id : touched) {
    const auto row = model.entities().row(id);
    base_rows.insert(base_rows.end(), row.begin(), row.end());
  }

  // One RNG stream per (seed, version): replaying the same delta batch
  // into the same version is byte-reproducible, and successive versions
  // are decorrelated.
  util::Rng rng(util::derive_seed(params.seed, version, 0x5712EA11ULL));

  kge::AdamConfig adam;
  adam.learning_rate = params.learning_rate;
  adam.weight_decay = params.weight_decay;
  // Moments for the touched rows only, addressed by a row's index in the
  // sorted touched list.
  kge::RowAdam entity_opt(static_cast<std::int32_t>(touched.size()),
                          model.entities().width(), adam);

  const bool hard_mining = dataset != nullptr &&
                           params.negatives_used < params.negatives_sampled &&
                           params.negatives_used > 0;
  std::optional<kge::NegativeSampler> sampler;
  if (dataset != nullptr) sampler.emplace(*dataset, true);
  kge::ModelGrads grads = model.make_grads();
  kge::TripleList negatives;

  for (int step = 0; step < params.steps; ++step) {
    grads.clear();
    double loss_sum = 0.0;
    std::size_t loss_count = 0;
    for (const kge::Triple& positive : deltas) {
      accumulate_triple(model, positive, +1, grads, loss_sum, loss_count);
      negatives.clear();
      if (hard_mining) {
        // Strategy-5 reuse: score `sampled` corruptions, train on the
        // hardest `used` (core/hard_negatives.hpp).
        core::select_hard_negatives(model, *sampler, positive,
                                    params.negatives_sampled,
                                    params.negatives_used, rng, negatives);
      } else {
        for (int i = 0; i < params.negatives_sampled; ++i) {
          negatives.push_back(sampler.has_value()
                                  ? sampler->corrupt(positive, rng)
                                  : corrupt_uniform(positive,
                                                    model.num_entities(), rng));
        }
      }
      for (const kge::Triple& negative : negatives) {
        accumulate_triple(model, negative, -1, grads, loss_sum, loss_count);
      }
    }

    // Apply Adam only to rows inside the frozen-base contract, in sorted
    // id order (the determinism contract shared with the trainer).
    // Gradient rows for corruption entities outside the batch are
    // dropped; relation gradients are dropped entirely.
    entity_opt.begin_step();
    for (const std::int32_t id : grads.entity.sorted_ids()) {
      const auto slot = std::lower_bound(touched.begin(), touched.end(), id);
      if (slot == touched.end() || *slot != id) continue;
      entity_opt.update_row(static_cast<std::int32_t>(slot - touched.begin()),
                            grads.entity.row(id), model.entities().row(id));
      ++result.row_updates;
    }
    if (loss_count > 0) {
      result.mean_loss = loss_sum / static_cast<double>(loss_count);
    }
  }

  double drift_sq = 0.0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    const auto now = model.entities().row(touched[i]);
    const float* base = base_rows.data() + i * width;
    for (std::size_t j = 0; j < width; ++j) {
      const double d = static_cast<double>(now[j]) - base[j];
      drift_sq += d * d;
    }
  }
  result.drift = std::sqrt(drift_sq);
  return result;
}

}  // namespace dynkge::stream
