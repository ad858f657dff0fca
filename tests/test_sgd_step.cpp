// SgdStep equivalence: the hash-free per-triple step must leave every
// parameter row byte-identical to the ModelGrads step the federated and
// Hogwild trainers used before it, return the same loss bit for bit, and
// report the same touched rows in the same order. The reference is that
// step (tests/support). Comparisons are memcmp over raw storage.
#include "kge/sgd_step.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "kge/model_factory.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {
namespace {

constexpr std::int32_t kEntities = 9;  // small: h == t comes up often
constexpr std::int32_t kRelations = 4;

std::unique_ptr<KgeModel> seeded_model(const std::string& name,
                                       std::int32_t rank) {
  std::unique_ptr<KgeModel> model =
      name == "scalar_only"
          ? std::make_unique<reference::ScalarOnlyModel>(kEntities, kRelations,
                                                        rank)
          : make_model(name, kEntities, kRelations, rank);
  util::Rng rng(31);
  model->init(rng);
  return model;
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// (model, rank, weight decay). Rank 5 leaves a remainder after any
/// vector width; rank 16 fills whole AVX2 lanes.
class SgdStepP : public ::testing::TestWithParam<
                     std::tuple<std::string, std::int32_t, float>> {};

INSTANTIATE_TEST_SUITE_P(
    Models, SgdStepP,
    ::testing::Combine(::testing::Values("complex", "distmult", "transe",
                                         "rotate", "scalar_only"),
                       ::testing::Values(5, 16),
                       ::testing::Values(0.0f, 0.01f)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_rank" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == 0.0f ? "_nodecay" : "_decay");
    });

TEST_P(SgdStepP, MatchesHashMapStepBitForBit) {
  const auto& [name, rank, decay] = GetParam();
  auto reference = seeded_model(name, rank);
  auto stepped = seeded_model(name, rank);
  ModelGrads step_grads = reference->make_grads();
  SgdStep step(*stepped, decay);

  util::Rng rng(97);
  int self_loops = 0;
  for (int i = 0; i < 600; ++i) {
    Triple triple{static_cast<EntityId>(rng.next_below(kEntities)),
                  static_cast<RelationId>(rng.next_below(kRelations)),
                  static_cast<EntityId>(rng.next_below(kEntities))};
    if (i % 7 == 0) triple.tail = triple.head;
    self_loops += triple.head == triple.tail ? 1 : 0;
    const int label = i % 5 == 0 ? +1 : -1;
    const float lr = 0.02f + 0.01f * static_cast<float>(i % 3);

    const double want_loss = reference::sgd_step(*reference, step_grads,
                                                 triple, label, lr, decay);
    const SgdStep::Result got = step(triple, label, lr);

    ASSERT_TRUE(same_bits(got.loss, want_loss)) << "step " << i;
    // The reference touched its rows in sorted id order.
    ASSERT_EQ(std::vector<EntityId>(got.entities().begin(),
                                    got.entities().end()),
              step_grads.entity.sorted_ids())
        << "step " << i;
    ASSERT_EQ(std::vector<RelationId>{got.relation},
              step_grads.relation.sorted_ids())
        << "step " << i;
    ASSERT_TRUE(same_bytes(stepped->entities().flat(),
                           reference->entities().flat()))
        << "entity rows diverged at step " << i;
    ASSERT_TRUE(same_bytes(stepped->relations().flat(),
                           reference->relations().flat()))
        << "relation rows diverged at step " << i;
  }
  EXPECT_GT(self_loops, 80);
}

TEST(SgdStep, ReportsEntitiesAscendingAndSelfLoopOnce) {
  auto model = seeded_model("complex", 4);
  SgdStep step(*model, 0.0f);
  const SgdStep::Result forward = step({2, 1, 7}, +1, 0.1f);
  EXPECT_EQ(std::vector<EntityId>(forward.entities().begin(),
                                  forward.entities().end()),
            (std::vector<EntityId>{2, 7}));
  const SgdStep::Result backward = step({7, 3, 2}, -1, 0.1f);
  EXPECT_EQ(std::vector<EntityId>(backward.entities().begin(),
                                  backward.entities().end()),
            (std::vector<EntityId>{2, 7}));
  EXPECT_EQ(backward.relation, 3);
  const SgdStep::Result loop = step({5, 0, 5}, +1, 0.1f);
  EXPECT_EQ(std::vector<EntityId>(loop.entities().begin(),
                                  loop.entities().end()),
            (std::vector<EntityId>{5}));
}

}  // namespace
}  // namespace dynkge::kge
