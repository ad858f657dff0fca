#include "kge/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dynkge::kge {
namespace {

TEST(RowAdam, RequiresBeginStep) {
  RowAdam adam(2, 3);
  EmbeddingMatrix params(2, 3);
  const std::vector<float> grad(3, 1.0f);
  EXPECT_THROW(adam.update_row(0, grad, params.row(0)), std::logic_error);
}

TEST(RowAdam, RejectsWidthMismatch) {
  RowAdam adam(2, 3);
  EmbeddingMatrix params(2, 3);
  adam.begin_step();
  const std::vector<float> grad(4, 1.0f);
  EXPECT_THROW(adam.update_row(0, grad, params.row(0)),
               std::invalid_argument);
}

TEST(RowAdam, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  AdamConfig config;
  config.learning_rate = 0.1;
  RowAdam adam(1, 2, config);
  EmbeddingMatrix params(1, 2);
  adam.begin_step();
  const std::vector<float> grad{1.0f, -2.0f};
  adam.update_row(0, grad, params.row(0));
  EXPECT_NEAR(params.row(0)[0], -0.1f, 1e-5);
  EXPECT_NEAR(params.row(0)[1], 0.1f, 1e-5);
}

TEST(RowAdam, ConvergesOnQuadratic) {
  // Minimize f(x) = ||x - target||^2 via its gradient 2(x - target).
  AdamConfig config;
  config.learning_rate = 0.05;
  RowAdam adam(1, 4, config);
  EmbeddingMatrix params(1, 4);
  const std::vector<float> target{1.0f, -2.0f, 0.5f, 3.0f};
  for (int step = 0; step < 2000; ++step) {
    adam.begin_step();
    std::vector<float> grad(4);
    for (int i = 0; i < 4; ++i) {
      grad[i] = 2.0f * (params.row(0)[i] - target[i]);
    }
    adam.update_row(0, grad, params.row(0));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(params.row(0)[i], target[i], 1e-2);
  }
}

TEST(RowAdam, WeightDecayShrinksParameters) {
  AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 0.1;
  RowAdam adam(1, 2, config);
  EmbeddingMatrix params(1, 2);
  params.row(0)[0] = 5.0f;
  params.row(0)[1] = -5.0f;
  const std::vector<float> zero_grad(2, 0.0f);
  for (int step = 0; step < 2000; ++step) {
    adam.begin_step();
    adam.update_row(0, zero_grad, params.row(0));
  }
  EXPECT_LT(std::fabs(params.row(0)[0]), 1.0f);
  EXPECT_LT(std::fabs(params.row(0)[1]), 1.0f);
}

TEST(RowAdam, LazyRowsKeepIndependentMoments) {
  // Updating row 0 must not disturb row 1's moments or parameters.
  RowAdam adam(2, 2);
  EmbeddingMatrix params(2, 2);
  params.row(1)[0] = 3.0f;
  const std::vector<float> grad{1.0f, 1.0f};
  adam.begin_step();
  adam.update_row(0, grad, params.row(0));
  EXPECT_FLOAT_EQ(params.row(1)[0], 3.0f);
}

TEST(RowAdam, DeterministicAcrossInstances) {
  // Two optimizers fed identical steps produce identical parameters — the
  // replica-consistency primitive for distributed training.
  RowAdam a(3, 4), b(3, 4);
  EmbeddingMatrix pa(3, 4), pb(3, 4);
  util::Rng rng(77);
  for (int step = 0; step < 50; ++step) {
    a.begin_step();
    b.begin_step();
    std::vector<float> grad(4);
    for (auto& g : grad) g = static_cast<float>(rng.next_double(-1, 1));
    const auto row = static_cast<std::int32_t>(rng.next_below(3));
    a.update_row(row, grad, pa.row(row));
    b.update_row(row, grad, pb.row(row));
  }
  for (std::size_t i = 0; i < pa.flat().size(); ++i) {
    EXPECT_EQ(pa.flat()[i], pb.flat()[i]);
  }
}

TEST(RowAdam, LearningRateIsMutable) {
  RowAdam adam(1, 1);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.001);
  adam.set_learning_rate(0.004);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.004);
}

TEST(RowAdam, StepCounterAdvances) {
  RowAdam adam(1, 1);
  EXPECT_EQ(adam.step(), 0);
  adam.begin_step();
  adam.begin_step();
  EXPECT_EQ(adam.step(), 2);
}

TEST(RowAdam, SecondMomentDampensLargeGradients) {
  // A giant gradient must still move parameters by roughly lr (Adam's
  // normalization), not by the raw gradient magnitude.
  AdamConfig config;
  config.learning_rate = 0.01;
  RowAdam adam(1, 1, config);
  EmbeddingMatrix params(1, 1);
  adam.begin_step();
  const std::vector<float> grad{1e6f};
  adam.update_row(0, grad, params.row(0));
  EXPECT_NEAR(params.row(0)[0], -0.01f, 1e-4);
}

}  // namespace
}  // namespace dynkge::kge
