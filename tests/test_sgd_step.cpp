// SgdStep equivalence: the hash-free per-triple step must leave every
// parameter row byte-identical to the ModelGrads step the federated and
// Hogwild trainers used before it, return the same loss bit for bit, and
// report the same touched rows in the same order. The reference below is
// that step, copied verbatim. Comparisons are memcmp over raw storage.
#include "kge/sgd_step.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "kge/loss.hpp"
#include "kge/model_factory.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {
namespace {

constexpr std::int32_t kEntities = 9;  // small: h == t comes up often
constexpr std::int32_t kRelations = 4;

struct ReferenceResult {
  double loss = 0.0;
  std::vector<EntityId> entities;  ///< the order the trainers touched them
  std::vector<RelationId> relations;
};

/// The per-triple step as the trainers wrote it with ModelGrads.
ReferenceResult reference_step(KgeModel& model, ModelGrads& step_grads,
                               const Triple& triple, int label,
                               float learning_rate, float decay) {
  ReferenceResult result;
  const auto lg = logistic_loss(
      model.score(triple.head, triple.relation, triple.tail), label);
  result.loss = lg.loss;
  step_grads.clear();
  model.accumulate_gradients(triple.head, triple.relation, triple.tail,
                             static_cast<float>(lg.dscore), step_grads);
  for (const std::int32_t id : step_grads.entity.sorted_ids()) {
    auto row = model.entities().row(id);
    const auto g = step_grads.entity.row(id);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] -= learning_rate * (g[i] + decay * row[i]);
    }
    result.entities.push_back(id);
  }
  for (const std::int32_t id : step_grads.relation.sorted_ids()) {
    auto row = model.relations().row(id);
    const auto g = step_grads.relation.row(id);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] -= learning_rate * (g[i] + decay * row[i]);
    }
    result.relations.push_back(id);
  }
  return result;
}

/// A model without blocked kernels (DistMult's math, scalar only), for
/// the step's ModelGrads path.
class ScalarOnlyModel final : public KgeModel {
 public:
  ScalarOnlyModel(std::int32_t entities, std::int32_t relations,
                  std::int32_t rank)
      : KgeModel(entities, relations, rank, rank) {}

  std::string name() const override { return "ScalarOnly"; }
  void init(util::Rng& rng) override {
    entities_.init_uniform(rng, 0.5f);
    relations_.init_uniform(rng, 0.5f);
  }
  double score(EntityId h, RelationId r, EntityId t) const override {
    double sum = 0.0;
    const auto eh = entities_.row(h), er = relations_.row(r),
               et = entities_.row(t);
    for (std::size_t i = 0; i < eh.size(); ++i) sum += eh[i] * er[i] * et[i];
    return sum;
  }
  void accumulate_gradients(EntityId h, RelationId r, EntityId t, float coeff,
                            ModelGrads& grads) const override {
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
};

std::unique_ptr<KgeModel> seeded_model(const std::string& name,
                                       std::int32_t rank) {
  std::unique_ptr<KgeModel> model =
      name == "scalar_only"
          ? std::make_unique<ScalarOnlyModel>(kEntities, kRelations, rank)
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

    const ReferenceResult want =
        reference_step(*reference, step_grads, triple, label, lr, decay);
    const SgdStep::Result got = step(triple, label, lr);

    ASSERT_TRUE(same_bits(got.loss, want.loss)) << "step " << i;
    ASSERT_EQ(std::vector<EntityId>(got.entities().begin(),
                                    got.entities().end()),
              want.entities)
        << "step " << i;
    ASSERT_EQ(std::vector<RelationId>{got.relation}, want.relations)
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
