#include "support/reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "kge/loss.hpp"

namespace dynkge::reference {

int select_hard_negatives(const kge::KgeModel& model,
                          const kge::NegativeSampler& sampler,
                          const kge::Triple& positive, int sampled, int used,
                          util::Rng& rng, kge::TripleList& out) {
  if (sampled < 1 || used < 1) {
    throw std::invalid_argument("select_hard_negatives: counts must be >= 1");
  }
  if (used >= sampled) {
    sampler.corrupt_n(positive, sampled, rng, out);
    return 0;
  }
  std::vector<std::pair<double, kge::Triple>> scored;
  scored.reserve(sampled);
  for (int i = 0; i < sampled; ++i) {
    const kge::Triple negative = sampler.corrupt(positive, rng);
    scored.emplace_back(
        model.score(negative.head, negative.relation, negative.tail),
        negative);
  }
  std::partial_sort(scored.begin(), scored.begin() + used, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
  for (int i = 0; i < used; ++i) out.push_back(scored[i].second);
  return sampled;
}

double accumulate_batch(const kge::KgeModel& model,
                        std::span<const kge::Triple> positives,
                        std::span<const kge::Triple> negatives,
                        std::span<const std::size_t> negative_offsets,
                        float coeff_scale, double coeff_floor,
                        kge::ModelGrads& grads, double loss_sum) {
  const auto train = [&](const kge::Triple& triple, int label) {
    const auto lg = kge::logistic_loss(
        model.score(triple.head, triple.relation, triple.tail), label);
    loss_sum += lg.loss;
    if (std::fabs(lg.dscore) < coeff_floor) return;
    model.accumulate_gradients(triple.head, triple.relation, triple.tail,
                               static_cast<float>(lg.dscore) * coeff_scale,
                               grads);
  };
  for (std::size_t i = 0; i < positives.size(); ++i) {
    train(positives[i], +1);
    for (std::size_t n = negative_offsets[i]; n < negative_offsets[i + 1];
         ++n) {
      train(negatives[n], -1);
    }
  }
  return loss_sum;
}

RowAdam::RowAdam(std::int32_t rows, std::int32_t width,
                 kge::AdamConfig config)
    : config_(config), m_(rows, width), v_(rows, width) {}

void RowAdam::begin_step() {
  ++step_;
  bias1_ = 1.0 - std::pow(config_.beta1, static_cast<double>(step_));
  bias2_ = 1.0 - std::pow(config_.beta2, static_cast<double>(step_));
}

void RowAdam::update_row(std::int32_t row, std::span<const float> grad,
                         kge::EmbeddingMatrix& params) {
  auto p = params.row(row);
  auto m = m_.row(row);
  auto v = v_.row(row);
  const auto b1 = static_cast<float>(config_.beta1);
  const auto b2 = static_cast<float>(config_.beta2);
  const auto wd = static_cast<float>(config_.weight_decay);
  const double lr = config_.learning_rate;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const float g = grad[i] + wd * p[i];
    m[i] = b1 * m[i] + (1.0f - b1) * g;
    v[i] = b2 * v[i] + (1.0f - b2) * g * g;
    const double m_hat = m[i] / bias1_;
    const double v_hat = v[i] / bias2_;
    p[i] -= static_cast<float>(lr * m_hat /
                               (std::sqrt(v_hat) + config_.epsilon));
  }
}

void ScalarOnlyModel::init(util::Rng& rng) {
  entities_.init_uniform(rng, 0.5f);
  relations_.init_uniform(rng, 0.5f);
}

double ScalarOnlyModel::score(kge::EntityId h, kge::RelationId r,
                              kge::EntityId t) const {
  double sum = 0.0;
  const auto eh = entities_.row(h), er = relations_.row(r),
             et = entities_.row(t);
  for (std::size_t i = 0; i < eh.size(); ++i) sum += eh[i] * er[i] * et[i];
  return sum;
}

void ScalarOnlyModel::accumulate_gradients(kge::EntityId h,
                                           kge::RelationId r,
                                           kge::EntityId t, float coeff,
                                           kge::ModelGrads& grads) const {
  grads.entity.accumulate(h);
  grads.entity.accumulate(t);
  grads.relation.accumulate(r);
  const auto eh = entities_.row(h), er = relations_.row(r),
             et = entities_.row(t);
  const auto gh = grads.entity.row(h), gr = grads.relation.row(r),
             gt = grads.entity.row(t);
  for (std::size_t i = 0; i < eh.size(); ++i) {
    gh[i] += coeff * er[i] * et[i];
    gr[i] += coeff * eh[i] * et[i];
    gt[i] += coeff * eh[i] * er[i];
  }
}

double sgd_step(kge::KgeModel& model, kge::ModelGrads& grads,
                const kge::Triple& triple, int label, float learning_rate,
                float decay) {
  const auto lg = kge::logistic_loss(
      model.score(triple.head, triple.relation, triple.tail), label);
  grads.clear();
  model.accumulate_gradients(triple.head, triple.relation, triple.tail,
                             static_cast<float>(lg.dscore), grads);
  for (const auto& [grad, params] :
       {std::pair{&grads.entity, &model.entities()},
        std::pair{&grads.relation, &model.relations()}}) {
    for (const std::int32_t id : grad->sorted_ids()) {
      auto row = params->row(id);
      const auto g = grad->row(id);
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] -= learning_rate * (g[i] + decay * row[i]);
      }
    }
  }
  return lg.loss;
}

}  // namespace dynkge::reference
