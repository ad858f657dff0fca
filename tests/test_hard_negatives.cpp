#include "core/hard_negatives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "kge/complex_model.hpp"
#include "kge/synthetic.hpp"
#include "support/reference.hpp"

namespace dynkge::core {
namespace {

struct Fixture {
  Fixture()
      : dataset(kge::generate_synthetic([] {
          kge::SyntheticSpec spec;
          spec.num_entities = 200;
          spec.num_relations = 12;
          spec.num_triples = 2500;
          spec.num_latent_types = 4;
          spec.seed = 77;
          return spec;
        }())),
        model(dataset.num_entities(), dataset.num_relations(), 8),
        sampler(dataset) {
    util::Rng rng(3);
    model.init(rng);
  }

  /// select_hard_negatives_block over `positives`, appending to `out`
  /// and `offsets`; returns the number of candidates scored.
  std::size_t select(std::span<const kge::Triple> positives, int sampled,
                     int used, util::Rng& rng, kge::TripleList& out,
                     std::vector<std::size_t>& offsets) {
    return select_hard_negatives_block(model, sampler, positives, sampled,
                                       used, rng, out, offsets, scratch);
  }

  /// The one-positive form.
  std::size_t select_one(const kge::Triple& positive, int sampled, int used,
                         util::Rng& rng, kge::TripleList& out) {
    std::vector<std::size_t> offsets;
    return select({&positive, 1}, sampled, used, rng, out, offsets);
  }

  double score(const kge::Triple& t) const {
    return model.score(t.head, t.relation, t.tail);
  }

  std::span<const kge::Triple> train(std::size_t begin, std::size_t count) {
    return dataset.train().subspan(begin, count);
  }

  kge::Dataset dataset;
  kge::ComplExModel model;
  kge::NegativeSampler sampler;
  HardNegativeScratch scratch;
};

TEST(HardNegatives, BaselinePathSkipsScoring) {
  Fixture f;
  util::Rng rng(1);
  kge::TripleList out;
  EXPECT_EQ(f.select_one(f.dataset.train()[0], 5, 5, rng, out), 0u);
  EXPECT_EQ(out.size(), 5u);

  // Also for a batch, and with used > sampled.
  std::vector<std::size_t> offsets;
  out.clear();
  EXPECT_EQ(f.select(f.train(0, 4), 3, 7, rng, out, offsets), 0u);
  EXPECT_EQ(out.size(), 12u);
  EXPECT_EQ(offsets, (std::vector<std::size_t>{3, 6, 9, 12}));
}

TEST(HardNegatives, SelectionPathScoresAllCandidates) {
  Fixture f;
  util::Rng rng(1);
  kge::TripleList out;
  EXPECT_EQ(f.select_one(f.dataset.train()[0], 10, 1, rng, out), 10u);
  EXPECT_EQ(out.size(), 1u);

  std::vector<std::size_t> offsets;
  out.clear();
  EXPECT_EQ(f.select(f.train(0, 5), 10, 2, rng, out, offsets), 50u);
  EXPECT_EQ(out.size(), 10u);
}

TEST(HardNegatives, PicksTheHighestScoringCandidate) {
  Fixture f;
  const kge::Triple positive = f.dataset.train()[0];
  // Reproduce the candidate set with an identical rng stream, then verify
  // the selected one scores at least as high as every candidate.
  util::Rng selection_rng(42);
  kge::TripleList out;
  f.select_one(positive, 8, 1, selection_rng, out);
  ASSERT_EQ(out.size(), 1u);
  const double chosen = f.score(out[0]);

  util::Rng replay_rng(42);
  for (int i = 0; i < 8; ++i) {
    const kge::Triple candidate = f.sampler.corrupt(positive, replay_rng);
    EXPECT_GE(chosen + 1e-9, f.score(candidate));
  }
}

TEST(HardNegatives, EachPositiveKeepsItsOwnHardest) {
  Fixture f;
  const auto positives = f.train(10, 3);
  util::Rng selection_rng(43);
  kge::TripleList out;
  std::vector<std::size_t> offsets{0};
  f.select(positives, 6, 2, selection_rng, out, offsets);
  ASSERT_EQ(offsets, (std::vector<std::size_t>{0, 2, 4, 6}));

  // Candidate j of positive i is the (i * 6 + j)-th corruption drawn.
  util::Rng replay_rng(43);
  for (std::size_t p = 0; p < positives.size(); ++p) {
    std::vector<double> scores;
    for (int i = 0; i < 6; ++i) {
      scores.push_back(f.score(f.sampler.corrupt(positives[p], replay_rng)));
    }
    std::sort(scores.begin(), scores.end(), std::greater<>());
    EXPECT_EQ(f.score(out[offsets[p]]), scores[0]) << "positive " << p;
    EXPECT_EQ(f.score(out[offsets[p] + 1]), scores[1]) << "positive " << p;
  }
}

TEST(HardNegatives, MOutOfNReturnsSortedHardest) {
  Fixture f;
  util::Rng rng(9);
  kge::TripleList out;
  f.select_one(f.dataset.train()[1], 12, 3, rng, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_GE(f.score(out[0]) + 1e-9, f.score(out[1]));
  EXPECT_GE(f.score(out[1]) + 1e-9, f.score(out[2]));
}

TEST(HardNegatives, AppendsWithoutClearing) {
  Fixture f;
  util::Rng rng(2);
  kge::TripleList out;
  std::vector<std::size_t> offsets{0};
  f.select(f.train(0, 1), 4, 1, rng, out, offsets);
  f.select(f.train(1, 2), 4, 2, rng, out, offsets);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 1, 3, 5}));
}

TEST(HardNegatives, AllNegativesShareTheRelation) {
  Fixture f;
  util::Rng rng(5);
  const auto positives = f.train(2, 4);
  kge::TripleList out;
  std::vector<std::size_t> offsets{0};
  f.select(positives, 10, 2, rng, out, offsets);
  for (std::size_t p = 0; p < positives.size(); ++p) {
    for (std::size_t n = offsets[p]; n < offsets[p + 1]; ++n) {
      EXPECT_EQ(out[n].relation, positives[p].relation);
      EXPECT_NE(out[n], positives[p]);
    }
  }
}

TEST(HardNegatives, RejectsBadCounts) {
  Fixture f;
  util::Rng rng(1);
  kge::TripleList out;
  EXPECT_THROW(f.select_one(f.dataset.train()[0], 0, 1, rng, out),
               std::invalid_argument);
  EXPECT_THROW(f.select_one(f.dataset.train()[0], 5, 0, rng, out),
               std::invalid_argument);
  std::vector<std::size_t> offsets;
  EXPECT_THROW(f.select(f.train(0, 3), -1, 1, rng, out, offsets),
               std::invalid_argument);
}

TEST(HardNegatives, DeterministicGivenSeed) {
  Fixture f;
  util::Rng r1(11), r2(11);
  kge::TripleList a, b;
  std::vector<std::size_t> offsets_a, offsets_b;
  f.select(f.train(3, 5), 10, 2, r1, a, offsets_a);
  f.select(f.train(3, 5), 10, 2, r2, b, offsets_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(offsets_a, offsets_b);
}

TEST(HardNegatives, MatchesPerPositiveScalarReference) {
  Fixture f;
  const auto positives = f.train(20, 37);
  for (const auto& [sampled, used] :
       {std::pair{5, 1}, std::pair{8, 3}, std::pair{4, 4}}) {
    util::Rng block_rng(61), scalar_rng(61);
    kge::TripleList blocked;
    std::vector<std::size_t> offsets{0};
    const std::size_t scored =
        f.select(positives, sampled, used, block_rng, blocked, offsets);

    kge::TripleList scalar;
    std::size_t scalar_scored = 0;
    for (std::size_t p = 0; p < positives.size(); ++p) {
      scalar_scored += static_cast<std::size_t>(
          reference::select_hard_negatives(f.model, f.sampler, positives[p],
                                           sampled, used, scalar_rng,
                                           scalar));
      EXPECT_EQ(offsets[p + 1], scalar.size()) << "positive " << p;
    }
    EXPECT_EQ(scored, scalar_scored);
    EXPECT_EQ(blocked, scalar) << sampled << " sampled, " << used << " used";
    // Both consumed the same RNG stream.
    EXPECT_EQ(block_rng.next_u64(), scalar_rng.next_u64());
  }
}

}  // namespace
}  // namespace dynkge::core
