// One blocked forward/backward pass over a batch of training examples —
// the gather -> score -> loss -> scatter step shared by the distributed
// trainer and the streaming refresh.
//
// The examples are each positive followed by its negatives, positive by
// positive (the scalar loss order). The pass packs them, scores them
// through one score_triples_block call, takes the logistic loss of each,
// creates the gradient rows of the kept examples in example order (h, t,
// r per example) and accumulates them through one
// accumulate_gradients_block call. Per-element arithmetic and
// accumulation order are the kernel contract's (model.hpp), so the
// gradient rows and the loss are byte-identical to scoring and
// accumulating the examples one at a time with score() and
// accumulate_gradients().
#pragma once

#include <array>
#include <span>
#include <vector>

#include "kge/model.hpp"

namespace dynkge::kge {

/// Reusable buffers for accumulate_batch (one per caller thread; kept
/// across batches so the pass allocates only while a batch grows past
/// every earlier one).
struct BatchScratch {
  TripleList examples;
  std::vector<double> scores;
  std::vector<GradWork> work;
  std::vector<std::array<std::size_t, 3>> offsets;  ///< gh, gt, gr
};

/// Accumulates into `grads` the gradient of every example whose loss
/// derivative dLoss/dphi has magnitude >= `coeff_floor`, with upstream
/// coefficient float(dLoss/dphi) * coeff_scale. Positive i's negatives
/// are negatives[negative_offsets[i], negative_offsets[i + 1]), so
/// negative_offsets holds positives.size() + 1 entries. Returns
/// `loss_sum` plus every example's loss, added in example order (the
/// trainer carries one sum across a whole epoch).
double accumulate_batch(const KgeModel& model,
                        std::span<const Triple> positives,
                        std::span<const Triple> negatives,
                        std::span<const std::size_t> negative_offsets,
                        float coeff_scale, double coeff_floor,
                        ModelGrads& grads, BatchScratch& scratch,
                        double loss_sum = 0.0);

}  // namespace dynkge::kge
