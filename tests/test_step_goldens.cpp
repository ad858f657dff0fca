// Byte goldens of the per-triple training loops: the federated client's
// local SGD, the Hogwild trainer, the streaming incremental refresh and a
// replayed DeltaIngestor stream. Each golden pins the FNV-1a of the final
// model and the exact per-epoch (per-round, per-batch) loss. The values
// were recorded with the hash-map (ModelGrads) step of every loop; any
// rework of how a step scores, accumulates or applies its gradient rows
// must reproduce them bit for bit.
//
// The dataset carries self-loop (h == t) training triples, and the
// streamed deltas include one, so the aliased-row path is exercised too.
//
// To re-record after an intentional numeric change, run this binary and
// paste the "actual" lines printed by the failing cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/federated.hpp"
#include "core/hogwild_trainer.hpp"
#include "kge/model_factory.hpp"
#include "kge/synthetic.hpp"
#include "stream/delta_ingestor.hpp"
#include "stream/refresh.hpp"
#include "stream/snapshot_store.hpp"

namespace dynkge::core {
namespace {

using kge::EntityId;
using kge::Triple;
using kge::TripleList;

constexpr EntityId kSelfLoops[] = {3, 58, 141};

// 203 = 7 * 29: divisible by neither 3 nor 4 clients.
const kge::Dataset& golden_dataset() {
  static const kge::Dataset dataset = [] {
    kge::SyntheticSpec spec;
    spec.num_entities = 203;
    spec.num_relations = 13;
    spec.num_triples = 2400;
    spec.num_latent_types = 4;
    spec.seed = 17;
    const kge::Dataset base = kge::generate_synthetic(spec);
    TripleList train(base.train().begin(), base.train().end());
    for (const EntityId e : kSelfLoops) train.push_back({e, e % 13, e});
    return kge::Dataset(base.num_entities(), base.num_relations(),
                        std::move(train),
                        TripleList(base.valid().begin(), base.valid().end()),
                        TripleList(base.test().begin(), base.test().end()));
  }();
  return dataset;
}

/// What a golden pins: final model bytes and the per-epoch loss log.
struct Golden {
  std::uint64_t model_fnv = 0;
  std::vector<double> losses;

  bool operator==(const Golden&) const = default;
};

std::uint64_t fnv1a(std::uint64_t hash, std::span<const float> values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t model_fnv(const kge::KgeModel& model) {
  const std::uint64_t hash =
      fnv1a(0xcbf29ce484222325ULL, model.entities().flat());
  return fnv1a(hash, model.relations().flat());
}

/// The golden as a C++ initializer (hexfloats, so it round-trips).
std::string render(const Golden& golden) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{0x%016llxULL, {",
                static_cast<unsigned long long>(golden.model_fnv));
  std::string out = buf;
  for (std::size_t i = 0; i < golden.losses.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%a", i == 0 ? "" : ", ",
                  golden.losses[i]);
    out += buf;
  }
  return out + "}}";
}

enum class Run { kFederatedTopK, kHogwild, kRefreshUniform,
                 kRefreshHardMining, kIngestReplay };

const char* name_of(Run run) {
  switch (run) {
    case Run::kFederatedTopK: return "federated_topk_P3";
    case Run::kHogwild: return "hogwild_1thread";
    case Run::kRefreshUniform: return "refresh_uniform";
    case Run::kRefreshHardMining: return "refresh_hard_mining";
    case Run::kIngestReplay: return "ingest_replay";
  }
  return "?";
}

Golden run_federated(const std::string& model, int host_threads) {
  FederatedConfig config;
  config.model_name = model;
  config.embedding_rank = 8;
  config.negatives = 2;
  config.lr.base_lr = 0.05;
  config.lr.tolerance = 15;
  config.seed = 4242;
  config.policy.num_clients = 3;
  config.policy.local_epochs = 1;
  config.policy.rounds = 3;
  config.strategy.selection = SelectionMode::kTopK;
  config.strategy.selection_residual = true;
  config.strategy.topk_k = 40;
  config.valid_max_triples = 100;
  config.compute_final_metrics = false;
  config.host_threads = host_threads;
  const FederatedReport report =
      FederatedTrainer(golden_dataset(), config).train();
  Golden golden;
  golden.model_fnv = model_fnv(*report.model);
  for (const FederatedRoundRecord& round : report.round_log) {
    golden.losses.push_back(round.mean_loss);
  }
  return golden;
}

Golden run_hogwild(const std::string& model) {
  HogwildConfig config;
  config.model_name = model;
  config.embedding_rank = 8;
  config.num_threads = 1;
  config.negatives = 2;
  config.max_epochs = 3;
  config.lr.base_lr = 0.05;
  config.lr.max_scale = 1;
  config.lr.tolerance = 10;
  config.compute_final_metrics = false;
  config.valid_max_triples = 100;
  config.seed = 4242;
  const HogwildReport report =
      HogwildTrainer(golden_dataset(), config).train();
  Golden golden;
  golden.model_fnv = model_fnv(*report.model);
  for (const HogwildEpochRecord& epoch : report.epoch_log) {
    golden.losses.push_back(epoch.mean_loss);
  }
  return golden;
}

std::unique_ptr<kge::KgeModel> base_model(const std::string& name) {
  const kge::Dataset& data = golden_dataset();
  auto model = kge::make_model(name, data.num_entities(),
                               data.num_relations(), 8);
  model->set_init_scale(0.1f);
  util::Rng rng(4242);
  model->init(rng);
  return model;
}

/// `count` streamed triples drawn from `rng`, the first a self-loop.
TripleList stream_deltas(util::Rng& rng, std::size_t count) {
  const kge::Dataset& data = golden_dataset();
  TripleList deltas = {{kSelfLoops[1], 4, kSelfLoops[1]}};
  while (deltas.size() < count) {
    deltas.push_back(
        {static_cast<EntityId>(rng.next_below(data.num_entities())),
         static_cast<kge::RelationId>(rng.next_below(data.num_relations())),
         static_cast<EntityId>(rng.next_below(data.num_entities()))});
  }
  return deltas;
}

/// Four successive refreshes (versions 2..5) of 64 deltas each; the loss
/// log holds (mean loss, drift, row updates) per refresh.
Golden run_refresh(const std::string& name, bool hard_mining) {
  auto model = base_model(name);
  stream::RefreshParams params;
  params.seed = 2024;
  params.weight_decay = 1e-6;
  if (hard_mining) params.negatives_used = 2;
  util::Rng rng(404);
  Golden golden;
  for (std::uint64_t version = 2; version <= 5; ++version) {
    const TripleList deltas = stream_deltas(rng, 64);
    const stream::RefreshResult result = stream::incremental_refresh(
        *model, deltas, version, params,
        hard_mining ? &golden_dataset() : nullptr);
    golden.losses.push_back(result.mean_loss);
    golden.losses.push_back(result.drift);
    golden.losses.push_back(static_cast<double>(result.row_updates));
  }
  golden.model_fnv = model_fnv(*model);
  return golden;
}

/// A 320-delta stream through a DeltaIngestor (batches of 64, filtered
/// sampling against the dataset); the loss log holds each batch's loss.
Golden run_ingest(const std::string& name) {
  stream::SnapshotStore store;
  store.init(std::shared_ptr<const kge::KgeModel>(base_model(name)));
  stream::IngestConfig config;
  config.batch_size = 64;
  config.dataset = &golden_dataset();
  config.refresh.seed = 2024;
  stream::DeltaIngestor ingestor(store, config);
  util::Rng rng(505);
  Golden golden;
  for (int batch = 0; batch < 5; ++batch) {
    ingestor.submit_batch(stream_deltas(rng, 64));
    golden.losses.push_back(ingestor.stats().last_mean_loss);
  }
  golden.model_fnv = model_fnv(*store.acquire());
  return golden;
}

Golden run(Run run, const std::string& model, int host_threads) {
  switch (run) {
    case Run::kFederatedTopK: return run_federated(model, host_threads);
    case Run::kHogwild: return run_hogwild(model);
    case Run::kRefreshUniform: return run_refresh(model, false);
    case Run::kRefreshHardMining: return run_refresh(model, true);
    case Run::kIngestReplay: return run_ingest(model);
  }
  return {};
}

struct GoldenCase {
  Run run;
  const char* model;
  Golden expected;
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {Run::kFederatedTopK, "complex",
       {0x30a3f2d216043906ULL,
        {0x1.62e599623e0d2p-1, 0x1.62e5d65585f51p-1, 0x1.62e2aefc4f06cp-1}}},
      {Run::kFederatedTopK, "distmult",
       {0x28230555f239a504ULL,
        {0x1.62e1b7f9c4b4bp-1, 0x1.62df122b46b5ep-1, 0x1.62dc1f8ad9173p-1}}},
      {Run::kFederatedTopK, "transe",
       {0xc4681a018389286cULL,
        {0x1.3652b0ea9ebdcp+0, 0x1.9030df712f004p-1, 0x1.4238f577e99cp-1}}},
      {Run::kFederatedTopK, "rotate",
       {0x81591251aae94427ULL,
        {0x1.411e63acd697bp+1, 0x1.f65d11c70d958p+0, 0x1.9f14fac3a462ep+0}}},
      {Run::kHogwild, "complex",
       {0x0cd8a9fb814d378aULL,
        {0x1.62e705ba08d46p-1, 0x1.62e413b51150ap-1, 0x1.62e1a71473a29p-1}}},
      {Run::kHogwild, "distmult",
       {0x966dd267faf42aaaULL,
        {0x1.62dc1bb22f412p-1, 0x1.62e128616b299p-1, 0x1.62d389863d8bp-1}}},
      {Run::kHogwild, "transe",
       {0x637b028cc46cf648ULL,
        {0x1.f1698debdc7f2p-1, 0x1.0a2794bcbc4b7p-1, 0x1.d2e477b31a182p-2}}},
      {Run::kHogwild, "rotate",
       {0x87467673ff7c4bf8ULL,
        {0x1.435156e0107d3p+1, 0x1.2678c099b2fe1p+0, 0x1.97d4ab2a6f474p-1}}},
      {Run::kRefreshUniform, "complex",
       {0x95d6ea88d1f92091ULL,
        {0x1.629638497511p-1, 0x1.8bb150f494a57p+1, 0x1.7cp+7,
         0x1.628a874bf004cp-1, 0x1.9271d0b82824ap+1, 0x1.9p+7,
         0x1.6242e5dfb805dp-1, 0x1.8a3557102efd5p+1, 0x1.6cp+7,
         0x1.625f2613f94cap-1, 0x1.9a0d6dc481289p+1, 0x1.94p+7}}},
      {Run::kRefreshUniform, "rotate",
       {0x85cbf6f7aaed5087ULL,
        {0x1.d1cbb3a5003b3p+2, 0x1.c84d9ab93f60cp+1, 0x1.7cp+7,
         0x1.b398d788202bap+2, 0x1.cb8f3a0c5459dp+1, 0x1.9p+7,
         0x1.930346e54a58ap+2, 0x1.bc739234e3d0fp+1, 0x1.6cp+7,
         0x1.73be376197848p+2, 0x1.cfa65bd28359p+1, 0x1.94p+7}}},
      {Run::kRefreshHardMining, "complex",
       {0xeffd6e41ef47d27bULL,
        {0x1.62ae9f7948278p-1, 0x1.95ec7af60a1ddp+1, 0x1.7cp+7,
         0x1.62c3a4f5840fcp-1, 0x1.9c6090596d786p+1, 0x1.9p+7,
         0x1.62a604a5d16e7p-1, 0x1.8dd93ab321a25p+1, 0x1.6cp+7,
         0x1.62c29dcba6a47p-1, 0x1.a412f9c6074c1p+1, 0x1.94p+7}}},
      {Run::kRefreshHardMining, "rotate",
       {0x841f14a73280fea9ULL,
        {0x1.92da80f8ef653p+2, 0x1.a6c3d70e0f80cp+1, 0x1.7cp+7,
         0x1.84b20e6974108p+2, 0x1.a749100754cc8p+1, 0x1.9p+7,
         0x1.769c8c9816897p+2, 0x1.974d8daa2dab3p+1, 0x1.6cp+7,
         0x1.61961cd5ec6d1p+2, 0x1.baa3768a1d756p+1, 0x1.94p+7}}},
      {Run::kIngestReplay, "complex",
       {0xf74f3bf564ae02ddULL,
        {0x1.628966500e5cap-1, 0x1.62987148e1633p-1, 0x1.626740e1145f5p-1,
         0x1.62958d92403c2p-1, 0x1.62678b448fd9bp-1}}},
  };
  return cases;
}

TEST(StepGoldens, DatasetHasSelfLoopTrainingTriples) {
  const auto train = golden_dataset().train();
  EXPECT_TRUE(std::any_of(train.begin(), train.end(), [](const Triple& t) {
    return t.head == t.tail;
  }));
}

class StepGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StepGolden, ByteIdenticalAtHostThreads1And4) {
  const GoldenCase& golden = golden_cases()[GetParam()];
  // Only the federated trainer runs on the host pool.
  const std::vector<int> pools =
      golden.run == Run::kFederatedTopK ? std::vector<int>{1, 4}
                                        : std::vector<int>{1};
  for (const int host_threads : pools) {
    const Golden actual = run(golden.run, golden.model, host_threads);
    ASSERT_FALSE(actual.losses.empty());
    EXPECT_EQ(actual, golden.expected)
        << name_of(golden.run) << " " << golden.model
        << " host_threads=" << host_threads
        << "\n  actual: " << render(actual)
        << "\nexpected: " << render(golden.expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, StepGolden,
    ::testing::Range<std::size_t>(0, golden_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      const GoldenCase& golden = golden_cases()[info.param];
      return std::string(name_of(golden.run)) + "_" + golden.model;
    });

}  // namespace
}  // namespace dynkge::core
