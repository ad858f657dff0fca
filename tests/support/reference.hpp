// Scalar reference forms of the training step: one virtual score() or
// accumulate_gradients() call per example, per-row hash lookups, and the
// pre-blocked Adam body. Production code runs the blocked forms
// (core::select_hard_negatives_block, kge::accumulate_batch,
// kge::RowAdam, kge::SgdStep); the kernel tests assert byte identity
// against these, and bench_kernels times the production forms against
// them.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "kge/adam.hpp"
#include "kge/model.hpp"
#include "kge/negative_sampler.hpp"
#include "util/rng.hpp"

namespace dynkge::reference {

/// Strategy 5 for one positive: append to `out` the `used` hardest of
/// `sampled` corruptions, scored one score() call at a time. When used >=
/// sampled, all corruptions are appended without scoring. Throws
/// std::invalid_argument when either count is below 1. Returns the number
/// of scores computed (0 or `sampled`).
int select_hard_negatives(const kge::KgeModel& model,
                          const kge::NegativeSampler& sampler,
                          const kge::Triple& positive, int sampled, int used,
                          util::Rng& rng, kge::TripleList& out);

/// kge::accumulate_batch one example at a time: score(), logistic loss,
/// accumulate_gradients() per example, positive i then its negatives.
double accumulate_batch(const kge::KgeModel& model,
                        std::span<const kge::Triple> positives,
                        std::span<const kge::Triple> negatives,
                        std::span<const std::size_t> negative_offsets,
                        float coeff_scale, double coeff_floor,
                        kge::ModelGrads& grads, double loss_sum = 0.0);

/// Sparse-row Adam with the pre-blocked per-row body: one update_row per
/// row, scalar element loop.
class RowAdam {
 public:
  RowAdam(std::int32_t rows, std::int32_t width, kge::AdamConfig config);

  void begin_step();

  void update_row(std::int32_t row, std::span<const float> grad,
                  kge::EmbeddingMatrix& params);

 private:
  kge::AdamConfig config_;
  std::int64_t step_ = 0;
  double bias1_ = 1.0;
  double bias2_ = 1.0;
  kge::EmbeddingMatrix m_;
  kge::EmbeddingMatrix v_;
};

/// A model without blocked kernels (DistMult's math, scalar only): it
/// runs the default score_triples_block / accumulate_gradients_block
/// hooks, which loop over score() and accumulate_gradients().
class ScalarOnlyModel final : public kge::KgeModel {
 public:
  ScalarOnlyModel(std::int32_t entities, std::int32_t relations,
                  std::int32_t rank)
      : KgeModel(entities, relations, rank, rank) {}

  std::string name() const override { return "ScalarOnly"; }
  void init(util::Rng& rng) override;
  double score(kge::EntityId h, kge::RelationId r,
               kge::EntityId t) const override;
  void accumulate_gradients(kge::EntityId h, kge::RelationId r,
                            kge::EntityId t, float coeff,
                            kge::ModelGrads& grads) const override;
};

/// The per-triple plain-SGD step the federated and Hogwild trainers ran
/// before kge::SgdStep: `grads` cleared, filled and walked in sorted id
/// order, row -= lr * (g + decay * row). Returns the loss; the touched
/// rows stay in `grads`.
double sgd_step(kge::KgeModel& model, kge::ModelGrads& grads,
                const kge::Triple& triple, int label, float learning_rate,
                float decay);

}  // namespace dynkge::reference
