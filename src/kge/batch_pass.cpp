#include "kge/batch_pass.hpp"

#include <cmath>

#include "kge/loss.hpp"

namespace dynkge::kge {

double accumulate_batch(const KgeModel& model,
                        std::span<const Triple> positives,
                        std::span<const Triple> negatives,
                        std::span<const std::size_t> negative_offsets,
                        float coeff_scale, double coeff_floor,
                        ModelGrads& grads, BatchScratch& scratch,
                        double loss_sum) {
  // Gather: positive i, then its negatives.
  scratch.examples.clear();
  for (std::size_t i = 0; i < positives.size(); ++i) {
    scratch.examples.push_back(positives[i]);
    scratch.examples.insert(scratch.examples.end(),
                            negatives.begin() + negative_offsets[i],
                            negatives.begin() + negative_offsets[i + 1]);
  }
  scratch.scores.resize(scratch.examples.size());
  model.score_triples_block(scratch.examples, scratch.scores);

  // Loss in example order (loss_sum is order-sensitive); the first
  // example of each positive's run is the positive.
  scratch.work.clear();
  std::size_t idx = 0;
  for (std::size_t i = 0; i < positives.size(); ++i) {
    const std::size_t end =
        idx + 1 + (negative_offsets[i + 1] - negative_offsets[i]);
    for (int label = +1; idx < end; ++idx, label = -1) {
      const auto lg = logistic_loss(scratch.scores[idx], label);
      loss_sum += lg.loss;
      if (std::fabs(lg.dscore) < coeff_floor) continue;
      const Triple& example = scratch.examples[idx];
      scratch.work.push_back({example.head, example.relation, example.tail,
                              static_cast<float>(lg.dscore) * coeff_scale});
    }
  }

  // Scatter: create every row in the scalar creation order (h, t, r per
  // item), recording arena offsets — offsets, unlike spans, survive arena
  // growth — then resolve stable row pointers and run the block kernel.
  scratch.offsets.resize(scratch.work.size());
  for (std::size_t w = 0; w < scratch.work.size(); ++w) {
    const GradWork& item = scratch.work[w];
    scratch.offsets[w] = {grads.entity.accumulate_offset(item.h),
                          grads.entity.accumulate_offset(item.t),
                          grads.relation.accumulate_offset(item.r)};
  }
  for (std::size_t w = 0; w < scratch.work.size(); ++w) {
    scratch.work[w].gh = grads.entity.row_at(scratch.offsets[w][0]).data();
    scratch.work[w].gt = grads.entity.row_at(scratch.offsets[w][1]).data();
    scratch.work[w].gr = grads.relation.row_at(scratch.offsets[w][2]).data();
  }
  model.accumulate_gradients_block(scratch.work, grads);
  return loss_sum;
}

}  // namespace dynkge::kge
