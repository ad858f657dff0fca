#include "kge/model_factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "kge/complex_model.hpp"
#include "kge/distmult_model.hpp"
#include "kge/rotate_model.hpp"
#include "kge/transe_model.hpp"

namespace dynkge::kge {

std::unique_ptr<KgeModel> make_model(const std::string& name,
                                     std::int32_t num_entities,
                                     std::int32_t num_relations,
                                     std::int32_t rank) {
  if (name == "complex") {
    return std::make_unique<ComplExModel>(num_entities, num_relations, rank);
  }
  if (name == "distmult") {
    return std::make_unique<DistMultModel>(num_entities, num_relations, rank);
  }
  if (name == "transe") {
    return std::make_unique<TransEModel>(num_entities, num_relations, rank);
  }
  if (name == "rotate") {
    return std::make_unique<RotatEModel>(num_entities, num_relations, rank);
  }
  throw std::invalid_argument("unknown KGE model: " + name);
}

std::unique_ptr<KgeModel> clone_model(const KgeModel& model) {
  std::unique_ptr<KgeModel> clone;
  if (const auto* complex = dynamic_cast<const ComplExModel*>(&model)) {
    clone = std::make_unique<ComplExModel>(
        model.num_entities(), model.num_relations(), complex->rank());
  } else if (const auto* distmult =
                 dynamic_cast<const DistMultModel*>(&model)) {
    clone = std::make_unique<DistMultModel>(
        model.num_entities(), model.num_relations(), distmult->rank());
  } else if (const auto* transe = dynamic_cast<const TransEModel*>(&model)) {
    clone = std::make_unique<TransEModel>(model.num_entities(),
                                          model.num_relations(),
                                          transe->rank(), transe->gamma());
  } else if (const auto* rotate = dynamic_cast<const RotatEModel*>(&model)) {
    clone = std::make_unique<RotatEModel>(model.num_entities(),
                                          model.num_relations(),
                                          rotate->rank(), rotate->gamma());
  } else {
    throw std::invalid_argument("clone_model: unknown model type '" +
                                model.name() + "'");
  }
  clone->set_init_scale(model.init_scale());
  clone->entities() = model.entities();
  clone->relations() = model.relations();
  return clone;
}

}  // namespace dynkge::kge
