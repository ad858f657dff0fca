// Strategy 5 — negative sample selection (paper section 4.5).
//
// For each positive triple, draw n uniform corruptions, score them with a
// forward pass (cheap — no gradients), and train only on the m that the
// model finds hardest to classify: the ones with the *highest* (least
// negative) scores. "1 out of n" keeps class balance at 1:1 while still
// mining informative negatives; "n out of n" recovers the baseline.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "kge/model.hpp"
#include "kge/negative_sampler.hpp"

namespace dynkge::core {

/// Reusable buffers for select_hard_negatives_block (one per rank; reused
/// across steps so the hot path allocates only while a batch grows past
/// every previous batch).
struct HardNegativeScratch {
  kge::TripleList candidates;
  std::vector<double> scores;
  std::vector<std::pair<double, kge::Triple>> scored;
};

/// For each positive of the batch, in order, append to `out` the `used`
/// hardest of `sampled` uniform corruptions and push the positive's end
/// offset into `offsets` (whose existing contents are kept, matching the
/// callers' `negative_offsets` shape). The corruptions are drawn positive
/// by positive in one RNG stream; the forward passes for all candidates
/// of the batch run through one score_triples_block call. When used >=
/// sampled, all corruptions are appended without any scoring pass
/// (baseline behaviour, zero overhead). Throws std::invalid_argument when
/// either count is below 1. Returns the number of forward-pass scores
/// computed (0 or positives.size() * sampled), which the trainer charges
/// to the simulated compute clock.
std::size_t select_hard_negatives_block(
    const kge::KgeModel& model, const kge::NegativeSampler& sampler,
    std::span<const kge::Triple> positives, int sampled, int used,
    util::Rng& rng, kge::TripleList& out, std::vector<std::size_t>& offsets,
    HardNegativeScratch& scratch);

}  // namespace dynkge::core
