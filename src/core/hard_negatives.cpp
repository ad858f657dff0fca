#include "core/hard_negatives.hpp"

#include <algorithm>
#include <stdexcept>

namespace dynkge::core {

std::size_t select_hard_negatives_block(
    const kge::KgeModel& model, const kge::NegativeSampler& sampler,
    std::span<const kge::Triple> positives, int sampled, int used,
    util::Rng& rng, kge::TripleList& out, std::vector<std::size_t>& offsets,
    HardNegativeScratch& scratch) {
  if (sampled < 1 || used < 1) {
    throw std::invalid_argument(
        "select_hard_negatives_block: counts must be >= 1");
  }
  if (used >= sampled) {
    // Baseline behaviour: every corruption trains, no scoring pass.
    for (const kge::Triple& positive : positives) {
      sampler.corrupt_n(positive, sampled, rng, out);
      offsets.push_back(out.size());
    }
    return 0;
  }

  // Draw every positive's candidates up front. Scoring consumes no RNG, so
  // grouping all draws first leaves the RNG stream identical to a
  // per-positive interleaving (draw, score, draw, score, ...) — candidate
  // j of positive i is the (i * sampled + j)-th corruption drawn.
  scratch.candidates.clear();
  for (const kge::Triple& positive : positives) {
    for (int i = 0; i < sampled; ++i) {
      scratch.candidates.push_back(sampler.corrupt(positive, rng));
    }
  }

  scratch.scores.resize(scratch.candidates.size());
  model.score_triples_block(scratch.candidates, scratch.scores);

  // Per positive: the hardest negatives are the highest scoring (the
  // model is least sure they are false); partial_sort keeps this
  // O(n log m) and breaks ties identically to the scalar reference.
  for (std::size_t p = 0; p < positives.size(); ++p) {
    scratch.scored.clear();
    const std::size_t base = p * static_cast<std::size_t>(sampled);
    for (int i = 0; i < sampled; ++i) {
      scratch.scored.emplace_back(scratch.scores[base + i],
                                  scratch.candidates[base + i]);
    }
    std::partial_sort(scratch.scored.begin(), scratch.scored.begin() + used,
                      scratch.scored.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    for (int i = 0; i < used; ++i) out.push_back(scratch.scored[i].second);
    offsets.push_back(out.size());
  }
  return scratch.candidates.size();
}

}  // namespace dynkge::core
