// One plain-SGD step on one triple — the inner loop of the per-triple
// trainers (federated clients, Hogwild).
//
// A step scores the triple, takes the logistic loss, accumulates the
// gradient of the three touched rows and applies
// row -= lr * (g + decay * row) to each. The gradient lands in three
// scratch rows the step owns, filled by the model's blocked kernel at
// block size 1 with pre-resolved pointers, so no hash map is cleared,
// filled or probed per step. Per-element arithmetic and accumulation
// order are the kernel contract's (model.hpp), which makes every row
// byte-identical to the ModelGrads form of the step. That form remains
// the path for h == t (the aliased rows need the scalar interleaving)
// and for models without blocked kernels.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "kge/model.hpp"

namespace dynkge::kge {

class SgdStep {
 public:
  struct Result {
    double loss = 0.0;
    std::array<EntityId, 2> entity_ids{};
    std::size_t num_entities = 0;  ///< 1 when h == t, else 2
    RelationId relation = 0;

    /// Touched entity rows in ascending id order.
    std::span<const EntityId> entities() const {
      return {entity_ids.data(), num_entities};
    }
  };

  /// Steps `model` in place (not owned; must outlive the step). One
  /// SgdStep per thread: the scratch rows are not shared.
  SgdStep(KgeModel& model, float weight_decay);

  /// One step on `triple` with label +1 (positive) or -1 (negative).
  Result operator()(const Triple& triple, int label, float learning_rate);

 private:
  KgeModel& model_;
  float decay_;
  bool blocked_;
  std::vector<float> scratch_;  ///< gh | gt | gr
  ModelGrads grads_;            ///< h == t / scalar-model path only
};

}  // namespace dynkge::kge
