// Blocked-kernel equivalence: the batched score/gradient/Adam kernels and
// the batch pass must be byte-identical to the scalar reference forms
// (tests/support) — per kernel on adversarial inputs (h == t aliasing,
// non-multiple-of-4 block sizes, coefficients below the underflow floor).
// "Byte-identical" is meant literally: every comparison below is memcmp
// over the raw float/double storage, not an epsilon check.
//
// End to end, the trainer matrix across models, quantization modes, and
// selection strategies pins byte goldens (final-model FNV-1a and the
// exact per-epoch mean loss) recorded from the trainer's former scalar
// path. To re-record after an intentional numeric change, run this binary
// and paste the "actual" lines printed by the failing cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.hpp"
#include "kge/adam.hpp"
#include "kge/batch_pass.hpp"
#include "kge/model.hpp"
#include "kge/model_factory.hpp"
#include "kge/synthetic.hpp"
#include "support/golden.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"

namespace dynkge::core {
namespace {

using kge::EmbeddingMatrix;
using kge::GradWork;
using kge::KgeModel;
using kge::ModelGrads;
using kge::Triple;

constexpr const char* kModels[] = {"complex", "distmult", "transe", "rotate"};

std::unique_ptr<KgeModel> seeded_model(const std::string& name) {
  auto model = kge::make_model(name, 60, 12, 12);
  util::Rng rng(7);
  model->init(rng);
  return model;
}

/// A triple list that exercises the block kernels' edge cases: size 21 is
/// not a multiple of 4 (tail handled by the scalar fallback loop), and
/// several triples have h == t (the aliased-gradient fallback).
std::vector<Triple> adversarial_triples() {
  std::vector<Triple> triples;
  util::Rng rng(11);
  for (int i = 0; i < 21; ++i) {
    Triple triple;
    triple.head = static_cast<kge::EntityId>(rng.next_below(60));
    triple.relation = static_cast<kge::RelationId>(rng.next_below(12));
    triple.tail = (i % 5 == 0)
                      ? triple.head  // h == t: self-loop
                      : static_cast<kge::EntityId>(rng.next_below(60));
    triples.push_back(triple);
  }
  return triples;
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// ---- direct kernel equivalence ---------------------------------------

TEST(BlockKernels, AllModelsAdvertiseBlockKernels) {
  for (const char* name : kModels) {
    EXPECT_TRUE(seeded_model(name)->has_block_kernels()) << name;
  }
}

TEST(BlockKernels, ScoreBlockBitIdenticalToScalar) {
  const auto triples = adversarial_triples();
  for (const char* name : kModels) {
    const auto model = seeded_model(name);
    std::vector<double> blocked(triples.size());
    model->score_triples_block(triples, blocked);
    for (std::size_t i = 0; i < triples.size(); ++i) {
      const double scalar = model->score(triples[i].head,
                                         triples[i].relation,
                                         triples[i].tail);
      // memcmp, not ==: catches a sign-of-zero or NaN-payload divergence
      // that double equality would wave through.
      EXPECT_EQ(std::memcmp(&scalar, &blocked[i], sizeof(double)), 0)
          << name << " triple " << i << ": scalar " << scalar << " blocked "
          << blocked[i];
    }
  }
}

TEST(BlockKernels, GradBlockBitIdenticalToScalar) {
  const auto triples = adversarial_triples();
  for (const char* name : kModels) {
    const auto model = seeded_model(name);

    // Scalar reference: one virtual call per work item, in order.
    ModelGrads scalar_grads = model->make_grads();
    float coeff = 0.05f;
    for (const Triple& triple : triples) {
      model->accumulate_gradients(triple.head, triple.relation, triple.tail,
                                  coeff, scalar_grads);
      coeff = -coeff * 0.9f;  // vary magnitude and sign across items
    }

    // Blocked path: create rows first (the offsets survive arena growth),
    // resolve pointers once, then hand the whole block to the model.
    ModelGrads blocked_grads = model->make_grads();
    std::vector<GradWork> work;
    std::vector<std::array<std::size_t, 3>> offsets;
    coeff = 0.05f;
    for (const Triple& triple : triples) {
      work.push_back({triple.head, triple.relation, triple.tail, coeff});
      offsets.push_back(
          {blocked_grads.entity.accumulate_offset(triple.head),
           blocked_grads.entity.accumulate_offset(triple.tail),
           blocked_grads.relation.accumulate_offset(triple.relation)});
      coeff = -coeff * 0.9f;
    }
    for (std::size_t w = 0; w < work.size(); ++w) {
      work[w].gh = blocked_grads.entity.row_at(offsets[w][0]).data();
      work[w].gt = blocked_grads.entity.row_at(offsets[w][1]).data();
      work[w].gr = blocked_grads.relation.row_at(offsets[w][2]).data();
    }
    model->accumulate_gradients_block(work, blocked_grads);

    ASSERT_EQ(scalar_grads.entity.num_rows(), blocked_grads.entity.num_rows())
        << name;
    ASSERT_EQ(scalar_grads.relation.num_rows(),
              blocked_grads.relation.num_rows())
        << name;
    for (const auto& slot : scalar_grads.entity.sorted_slots()) {
      EXPECT_TRUE(same_bytes(scalar_grads.entity.row(slot.id),
                             blocked_grads.entity.row(slot.id)))
          << name << " entity row " << slot.id;
    }
    for (const auto& slot : scalar_grads.relation.sorted_slots()) {
      EXPECT_TRUE(same_bytes(scalar_grads.relation.row(slot.id),
                             blocked_grads.relation.row(slot.id)))
          << name << " relation row " << slot.id;
    }
  }
}

// ---- batch pass ------------------------------------------------------

TEST(BlockKernels, BatchPassMatchesScalarReference) {
  // Positives are the adversarial triples; each gets a varying number of
  // negatives (0..3), some of them self-loops.
  const auto positives = adversarial_triples();
  std::vector<Triple> negatives;
  std::vector<std::size_t> offsets{0};
  util::Rng rng(19);
  for (std::size_t i = 0; i < positives.size(); ++i) {
    for (std::size_t n = 0; n < i % 4; ++n) {
      Triple negative = positives[i];
      negative.tail = static_cast<kge::EntityId>(rng.next_below(60));
      negatives.push_back(negative);
    }
    offsets.push_back(negatives.size());
  }
  kge::BatchScratch scratch;
  std::vector<std::string> names(std::begin(kModels), std::end(kModels));
  names.push_back("scalar_only");  // the default *_block hooks
  for (const std::string& name : names) {
    std::unique_ptr<KgeModel> model;
    if (name == "scalar_only") {
      model = std::make_unique<reference::ScalarOnlyModel>(60, 12, 12);
      util::Rng rng(7);
      model->init(rng);
    } else {
      model = seeded_model(name);
    }
    // Scale up the model so some loss derivatives saturate below the
    // floor and those examples are dropped.
    for (float& x : model->entities().flat()) x *= 4.0f;
    for (const auto& [scale, floor] :
         {std::pair{1.0f, 0.0}, std::pair{0.25f, 1e-2}}) {
      ModelGrads scalar_grads = model->make_grads();
      const double scalar_loss = reference::accumulate_batch(
          *model, positives, negatives, offsets, scale, floor, scalar_grads,
          0.5);
      ModelGrads blocked_grads = model->make_grads();
      const double blocked_loss = kge::accumulate_batch(
          *model, positives, negatives, offsets, scale, floor, blocked_grads,
          scratch, 0.5);

      EXPECT_EQ(std::memcmp(&scalar_loss, &blocked_loss, sizeof(double)), 0)
          << name << " floor " << floor;
      ASSERT_EQ(scalar_grads.entity.sorted_ids(),
                blocked_grads.entity.sorted_ids())
          << name << " floor " << floor;
      ASSERT_EQ(scalar_grads.relation.sorted_ids(),
                blocked_grads.relation.sorted_ids())
          << name << " floor " << floor;
      for (const auto& slot : scalar_grads.entity.sorted_slots()) {
        EXPECT_TRUE(same_bytes(scalar_grads.entity.row(slot.id),
                               blocked_grads.entity.row(slot.id)))
            << name << " entity row " << slot.id;
      }
      for (const auto& slot : scalar_grads.relation.sorted_slots()) {
        EXPECT_TRUE(same_bytes(scalar_grads.relation.row(slot.id),
                               blocked_grads.relation.row(slot.id)))
            << name << " relation row " << slot.id;
      }
    }
  }
}

// ---- blocked Adam ----------------------------------------------------

kge::SparseGrad make_test_grads(std::int32_t width) {
  kge::SparseGrad grads(width);
  util::Rng rng(23);
  for (std::int32_t id : {17, 3, 41, 0, 29}) {  // deliberately unsorted
    auto row = grads.accumulate(id);
    for (float& x : row) {
      x = static_cast<float>(rng.next_double() * 2.0 - 1.0);
    }
  }
  return grads;
}

TEST(BlockKernels, AdamUpdateRowsMatchesPerRowUpdates) {
  kge::AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 1e-4;
  EmbeddingMatrix params_scalar(48, 12);
  util::Rng rng(31);
  for (float& x : params_scalar.flat()) {
    x = static_cast<float>(rng.next_double());
  }
  EmbeddingMatrix params_blocked = params_scalar;

  reference::RowAdam scalar_opt(48, 12, config);
  kge::RowAdam blocked_opt(48, 12, config);
  kge::RowAdam row_opt(48, 12, config);
  EmbeddingMatrix params_row = params_scalar;
  const kge::SparseGrad grads = make_test_grads(12);
  // Two steps so the second one exercises carried moment state too.
  for (int step = 0; step < 2; ++step) {
    scalar_opt.begin_step();
    blocked_opt.begin_step();
    row_opt.begin_step();
    for (const auto& slot : grads.sorted_slots()) {
      scalar_opt.update_row(slot.id, grads.row(slot.id), params_scalar);
      row_opt.update_row(slot.id, grads.row(slot.id),
                         params_row.row(slot.id));
    }
    blocked_opt.update_rows(grads, params_blocked);
    EXPECT_TRUE(same_bytes(params_scalar.flat(), params_blocked.flat()))
        << "step " << step;
    EXPECT_TRUE(same_bytes(params_scalar.flat(), params_row.flat()))
        << "step " << step;
  }
}

TEST(BlockKernels, AdamUpdateRowsScaledMatchesScaleThenUpdate) {
  kge::AdamConfig config;
  config.learning_rate = 0.02;
  EmbeddingMatrix params_scalar(48, 12);
  util::Rng rng(37);
  for (float& x : params_scalar.flat()) {
    x = static_cast<float>(rng.next_double());
  }
  EmbeddingMatrix params_blocked = params_scalar;
  const float scale = 1.0f / 3.0f;

  reference::RowAdam scalar_opt(48, 12, config);
  kge::RowAdam blocked_opt(48, 12, config);
  kge::SparseGrad grads_scalar = make_test_grads(12);
  kge::SparseGrad grads_blocked = make_test_grads(12);
  scalar_opt.begin_step();
  blocked_opt.begin_step();
  // Scalar relation-partition shape: scale the row, then update it.
  for (const auto& slot : grads_scalar.sorted_slots()) {
    auto row = grads_scalar.row(slot.id);
    for (float& x : row) x *= scale;
    scalar_opt.update_row(slot.id, row, params_scalar);
  }
  blocked_opt.update_rows_scaled(grads_blocked, scale, params_blocked);
  EXPECT_TRUE(same_bytes(params_scalar.flat(), params_blocked.flat()));
}

// ---- end-to-end trainer equivalence ----------------------------------

const kge::Dataset& tiny_dataset() {
  static const kge::Dataset dataset = kge::generate_synthetic([] {
    kge::SyntheticSpec spec;
    spec.num_entities = 300;
    spec.num_relations = 24;
    spec.num_triples = 4000;
    spec.num_latent_types = 6;
    spec.seed = 99;
    return spec;
  }());
  return dataset;
}

using test_support::Golden;
using test_support::render;

Golden golden_of(const TrainReport& report) {
  Golden golden;
  golden.model_fnv = test_support::model_fnv(*report.model);
  for (const EpochRecord& record : report.epoch_log) {
    golden.losses.push_back(record.mean_loss);
  }
  return golden;
}

struct TrainerCase {
  const char* model;
  QuantMode quant;
  SelectionMode selection;
};

std::string case_name(const TrainerCase& param) {
  std::string name = param.model;
  name += param.quant == QuantMode::kNone     ? "_raw"
          : param.quant == QuantMode::kOneBit ? "_1bit"
                                              : "_2bit";
  name += param.selection == SelectionMode::kNone       ? "_dense"
          : param.selection == SelectionMode::kBernoulli ? "_rs"
                                                         : "_topk";
  return name;
}

/// Goldens by case name, recorded from the trainer's former scalar path.
const Golden& expected_golden(const std::string& name) {
  static const std::vector<std::pair<std::string, Golden>> goldens = {
      {"complex_raw_dense",
       {0x594ac04b1fad1870ULL,
        {0x1.631dd982f3e59p-1, 0x1.62e1924cf231cp-1, 0x1.6125581ebcc2dp-1,
         0x1.51892c1519874p-1, 0x1.23aaa89ea7c27p-1}}},
      {"complex_raw_rs",
       {0x94a02b4be405ea30ULL,
        {0x1.63203ed9c57a8p-1, 0x1.62e819995b83ap-1, 0x1.61bebeccba656p-1,
         0x1.55e2547537305p-1, 0x1.2d6627e3fd033p-1}}},
      {"complex_raw_topk",
       {0x454cf753ca2265a4ULL,
        {0x1.6323df15b8bfcp-1, 0x1.62fd006dfbe52p-1, 0x1.62efea716df64p-1,
         0x1.62e48262aaa65p-1, 0x1.62a1b39ea552bp-1}}},
      {"complex_1bit_dense",
       {0x4d8f94afdb1b5aadULL,
        {0x1.6327adfc63e5ep-1, 0x1.62f92bd80818bp-1, 0x1.6286997e8a59ep-1,
         0x1.5cdd72e65548bp-1, 0x1.4107f1d73cb44p-1}}},
      {"complex_1bit_rs",
       {0x4baa2ed07c6c68c8ULL,
        {0x1.6327814a53298p-1, 0x1.62ee3e7dd2df6p-1, 0x1.61d9a551aac36p-1,
         0x1.563494b92d715p-1, 0x1.2e43a1bab9d2bp-1}}},
      {"complex_1bit_topk",
       {0x9ddbedf665e6b54eULL,
        {0x1.632ba5dbbfd85p-1, 0x1.6302682134aa4p-1, 0x1.62f431e05e3b7p-1,
         0x1.62ea39d048f2p-1, 0x1.62cc218d82b26p-1}}},
      {"complex_2bit_dense",
       {0x930e2d5d5630bcc0ULL,
        {0x1.631e160489f65p-1, 0x1.62ef76a666048p-1, 0x1.622e4f1706507p-1,
         0x1.597371702114dp-1, 0x1.3508ac7c5ac5fp-1}}},
      {"complex_2bit_rs",
       {0x50367d01600f7b77ULL,
        {0x1.631dfc175edb2p-1, 0x1.62f1a5e9e8235p-1, 0x1.6285795086fb8p-1,
         0x1.5ccd2cebf079bp-1, 0x1.3e77a4da7ededp-1}}},
      {"complex_2bit_topk",
       {0x6727925bd294c41aULL,
        {0x1.63242e4c5625bp-1, 0x1.62fdb9c5ab21dp-1, 0x1.62f13c5ad20cep-1,
         0x1.62e8b8884c7fbp-1, 0x1.62d0133c7ae36p-1}}},
      {"distmult_raw_dense",
       {0xdf8f8ad56e36ded8ULL,
        {0x1.63342430941adp-1, 0x1.62ee6c0b4f8abp-1, 0x1.62bcbd060160ap-1,
         0x1.6058c7ae08a2bp-1, 0x1.513cc21784404p-1}}},
      {"distmult_raw_rs",
       {0x274b0163263c1186ULL,
        {0x1.63399979acae8p-1, 0x1.62f0817ad3044p-1, 0x1.62d5ccd5d04dp-1,
         0x1.61ab94b44ad2cp-1, 0x1.58deb9a16cdeep-1}}},
      {"distmult_raw_topk",
       {0x1e88e2dd9be14e75ULL,
        {0x1.6345c4086fe86p-1, 0x1.63005148d7981p-1, 0x1.62f213375477p-1,
         0x1.62eaf8aa82b22p-1, 0x1.62e6ebc2951cfp-1}}},
      {"distmult_1bit_dense",
       {0x2090adc8ff745558ULL,
        {0x1.6340f5ccfdd01p-1, 0x1.62f8625a4e9bfp-1, 0x1.62e5c80754c88p-1,
         0x1.62ac19b80e2b5p-1, 0x1.612f558c9d8b1p-1}}},
      {"distmult_1bit_rs",
       {0xc0d13b68d975debcULL,
        {0x1.6342b885195efp-1, 0x1.62fae2f8d2fa6p-1, 0x1.62ed0ad68fa15p-1,
         0x1.62ded7ece847bp-1, 0x1.627fe3e0f05cp-1}}},
      {"distmult_1bit_topk",
       {0x5ea8bc783e9d3bb9ULL,
        {0x1.634da0f905955p-1, 0x1.6307d8edfe0ap-1, 0x1.62f5fd1c5c50ap-1,
         0x1.62ed7c416e1ecp-1, 0x1.62e9049cf97b4p-1}}},
      {"distmult_2bit_dense",
       {0x83dca2d8bd45c39bULL,
        {0x1.633445158a023p-1, 0x1.62f37eee58878p-1, 0x1.62e4cd8a6b8d3p-1,
         0x1.629e5f7964483p-1, 0x1.5e4f1a582df7ap-1}}},
      {"distmult_2bit_rs",
       {0x31cbc702551039abULL,
        {0x1.6338e6a66e141p-1, 0x1.62f52be6913b9p-1, 0x1.62e5bde449661p-1,
         0x1.62b72372b111p-1, 0x1.616b33c9052e1p-1}}},
      {"distmult_2bit_topk",
       {0x6222771417993bc2ULL,
        {0x1.634430b6c727ep-1, 0x1.6302cbade572bp-1, 0x1.62f338a7a81c6p-1,
         0x1.62eb602fd5f72p-1, 0x1.62e6dd50f80bep-1}}},
      {"transe_raw_dense",
       {0x1881ba597e9b4368ULL,
        {0x1.3e12c29a53a14p+2, 0x1.114d2b59f8865p+2, 0x1.bf64ac2eac175p+1,
         0x1.63b979423a3c6p+1, 0x1.2173b8b538557p+1}}},
      {"transe_raw_rs",
       {0xa72786609c6088a5ULL,
        {0x1.3f3e721ecd805p+2, 0x1.1517f33b80f52p+2, 0x1.cf30b8a8e114fp+1,
         0x1.7817b0d2b8425p+1, 0x1.3781f7802a058p+1}}},
      {"transe_raw_topk",
       {0x5095133ffcde5085ULL,
        {0x1.434ff814752a3p+2, 0x1.1f21226b2c41fp+2, 0x1.dc10b61371ceep+1,
         0x1.6f38bff5be896p+1, 0x1.05c14384e2b35p+1}}},
      {"transe_1bit_dense",
       {0xe681db7337e25ad5ULL,
        {0x1.3ffe18ab1cc99p+2, 0x1.17bcd3c7c9e18p+2, 0x1.d32d5c434c6cap+1,
         0x1.776d10c38313ap+1, 0x1.25eb94d175f89p+1}}},
      {"transe_1bit_rs",
       {0x50f0516eb48b751fULL,
        {0x1.40b33ad72beb5p+2, 0x1.1b77dc8edcc7ap+2, 0x1.e365baa84767fp+1,
         0x1.8c372e44fc2ddp+1, 0x1.42b9819d78351p+1}}},
      {"transe_1bit_topk",
       {0x0d27a07a52655308ULL,
        {0x1.43e092ffdb1cp+2, 0x1.213b00e109e2dp+2, 0x1.e6f25407c004ap+1,
         0x1.82a261460031ap+1, 0x1.1eec119ad011p+1}}},
      {"transe_2bit_dense",
       {0x78b7209d10aeb5b2ULL,
        {0x1.3eced9b3107cap+2, 0x1.13235cd8b8a98p+2, 0x1.c53c06c354209p+1,
         0x1.68ef6da14bc99p+1, 0x1.25291f4bddd31p+1}}},
      {"transe_2bit_rs",
       {0xfd390aa49cfa2a34ULL,
        {0x1.409506bc735p+2, 0x1.181d50099e086p+2, 0x1.d4e63a6d0a416p+1,
         0x1.7eab589aa8d83p+1, 0x1.3dcc122019ff1p+1}}},
      {"transe_2bit_topk",
       {0xf1ffb01b6e7d269eULL,
        {0x1.43f68d9d067adp+2, 0x1.1f96520ff1b9p+2, 0x1.dd75407e61a6p+1,
         0x1.6d5460d557f25p+1, 0x1.00c6f382a0231p+1}}},
      {"rotate_raw_dense",
       {0xe7fb09a32e2ea658ULL,
        {0x1.29b2d5d3fbe86p+2, 0x1.f369b0460f213p+1, 0x1.93d556e9d5aabp+1,
         0x1.3935887305e6bp+1, 0x1.f3b9d139a9ff8p+0}}},
      {"rotate_raw_rs",
       {0x88bce1b72381ed95ULL,
        {0x1.2b088540ada5ap+2, 0x1.fddcbcfa5fef9p+1, 0x1.a2b0f269227b7p+1,
         0x1.4c693c2ba506bp+1, 0x1.053685294004bp+1}}},
      {"rotate_raw_topk",
       {0x5257b388c2f6d4adULL,
        {0x1.3a3c8839af052p+2, 0x1.3206584992eap+2, 0x1.2894c5e7dd53p+2,
         0x1.1d0092dbc8dd4p+2, 0x1.0f4c7558abcabp+2}}},
      {"rotate_1bit_dense",
       {0xc4445f54381e9c88ULL,
        {0x1.2a65228dbedc3p+2, 0x1.f7ead9926c3d9p+1, 0x1.9ba9c716371abp+1,
         0x1.446fa5fd3be24p+1, 0x1.0348061b1ba35p+1}}},
      {"rotate_1bit_rs",
       {0xcdf1eb669eb0ee18ULL,
        {0x1.2bbc9d8d5c409p+2, 0x1.0150be481ad27p+2, 0x1.aa881aded3198p+1,
         0x1.57e53889e2c7dp+1, 0x1.10bdade6f7f94p+1}}},
      {"rotate_1bit_topk",
       {0xec409b635cea69cbULL,
        {0x1.3a380e21c6481p+2, 0x1.31d06a7c0a507p+2, 0x1.286239db437e8p+2,
         0x1.1cd66ae7cbcbbp+2, 0x1.0f4929c65414ep+2}}},
      {"rotate_2bit_dense",
       {0x2ea80445885868e2ULL,
        {0x1.2b1af1eb043f5p+2, 0x1.f96513a8d3f39p+1, 0x1.9a7eb89e932eep+1,
         0x1.439b9b7c27c01p+1, 0x1.01c28fc818215p+1}}},
      {"rotate_2bit_rs",
       {0xb3153e1afbc8fe02ULL,
        {0x1.2c8585d143165p+2, 0x1.01e2feb82d783p+2, 0x1.aa383f7dc491bp+1,
         0x1.53ac46d6a2fc3p+1, 0x1.0c8282523417dp+1}}},
      {"rotate_2bit_topk",
       {0xa27a0cc5343fd361ULL,
        {0x1.3ae120f23732cp+2, 0x1.3312876970b87p+2, 0x1.2a2b2d2ade06dp+2,
         0x1.1ed8f3afdd603p+2, 0x1.118256d0eb66ep+2}}},
  };
  static const Golden missing;
  for (const auto& [case_name, golden] : goldens) {
    if (case_name == name) return golden;
  }
  return missing;
}

TrainConfig trainer_config(const TrainerCase& param) {
  TrainConfig config;
  config.model_name = param.model;
  config.embedding_rank = 8;
  config.num_nodes = 2;
  config.batch_size = 200;
  config.max_epochs = 5;
  config.lr.base_lr = 0.01;
  config.lr.tolerance = 6;
  config.compute_final_metrics = false;
  config.seed = 4242;
  // All-gather so quantization and selection are actually on the wire;
  // sample selection (4 sampled, 1 used) drives the blocked hard-negative
  // scoring path as well.
  config.strategy.comm = CommMode::kAllGather;
  config.strategy.quant = param.quant;
  config.strategy.selection = param.selection;
  if (param.selection == SelectionMode::kTopK) {
    // Tight enough to actually drop rows at batch 200, with error
    // feedback so the dropped mass flows through later steps too.
    config.strategy.topk_k = 24;
    config.strategy.selection_residual = true;
  }
  config.strategy.negatives_sampled = 4;
  config.strategy.negatives_used = 1;
  return config;
}

class TrainerBlockEquivalence : public testing::TestWithParam<TrainerCase> {};

TEST_P(TrainerBlockEquivalence, BlockedPathIsByteIdentical) {
  const std::string name = case_name(GetParam());
  const Golden& expected = expected_golden(name);
  ASSERT_FALSE(expected.losses.empty()) << name << ": no golden";
  TrainConfig config = trainer_config(GetParam());
  for (const int host_threads : {1, 4}) {
    config.host_threads = host_threads;
    const Golden actual =
        golden_of(DistributedTrainer(tiny_dataset(), config).train());
    EXPECT_EQ(actual, expected)
        << name << " host_threads=" << host_threads
        << "\n  actual: " << render(actual)
        << "\nexpected: " << render(expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsQuantSelection, TrainerBlockEquivalence,
    testing::ValuesIn([] {
      std::vector<TrainerCase> cases;
      for (const char* model : kModels) {
        for (const QuantMode quant :
             {QuantMode::kNone, QuantMode::kOneBit, QuantMode::kTwoBit}) {
          for (const SelectionMode selection :
               {SelectionMode::kNone, SelectionMode::kBernoulli,
                SelectionMode::kTopK}) {
            cases.push_back({model, quant, selection});
          }
        }
      }
      return cases;
    }()),
    [](const testing::TestParamInfo<TrainerCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace dynkge::core
