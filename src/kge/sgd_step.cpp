#include "kge/sgd_step.hpp"

#include <algorithm>
#include <utility>

#include "kge/loss.hpp"

namespace dynkge::kge {
namespace {

void apply(std::span<float> row, const float* g, float lr, float decay) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] -= lr * (g[i] + decay * row[i]);
  }
}

}  // namespace

SgdStep::SgdStep(KgeModel& model, float weight_decay)
    : model_(model),
      decay_(weight_decay),
      blocked_(model.has_block_kernels()),
      scratch_(2 * static_cast<std::size_t>(model.entities().width()) +
               static_cast<std::size_t>(model.relations().width())),
      grads_(model.make_grads()) {}

SgdStep::Result SgdStep::operator()(const Triple& triple, int label,
                                    float learning_rate) {
  const auto [h, r, t] = triple;
  const auto lg = logistic_loss(model_.score(h, r, t), label);
  const auto coeff = static_cast<float>(lg.dscore);
  const Result result{lg.loss, {std::min(h, t), std::max(h, t)},
                      h == t ? 1u : 2u, r};

  if (h == t || !blocked_) {
    grads_.clear();
    model_.accumulate_gradients(h, r, t, coeff, grads_);
    for (const auto& [grad, params] :
         {std::pair{&grads_.entity, &model_.entities()},
          std::pair{&grads_.relation, &model_.relations()}}) {
      for (const std::int32_t id : grad->sorted_ids()) {
        apply(params->row(id), grad->row(id).data(), learning_rate, decay_);
      }
    }
    return result;
  }

  std::fill(scratch_.begin(), scratch_.end(), 0.0f);
  float* const gh = scratch_.data();
  float* const gt = gh + model_.entities().width();
  float* const gr = gt + model_.entities().width();
  const GradWork work{h, r, t, coeff, gh, gr, gt};
  model_.accumulate_gradients_block({&work, 1}, grads_);
  apply(model_.entities().row(h), gh, learning_rate, decay_);
  apply(model_.entities().row(t), gt, learning_rate, decay_);
  apply(model_.relations().row(r), gr, learning_rate, decay_);
  return result;
}

}  // namespace dynkge::kge
