// Byte goldens of the gradient exchange. Small distributed and federated
// runs on a synthetic graph record the FNV-1a of the final model and the
// exact per-epoch (per-round) mean loss and modeled communication
// seconds. The values below were recorded with the original
// gather-then-merge-everywhere exchange; any rework of how payloads are
// gathered, checksummed, decoded or merged must reproduce them bit for
// bit, at every host pool size.
//
// To re-record after an intentional numeric change, run this binary and
// paste the "actual" lines printed by the failing cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "core/federated.hpp"
#include "core/trainer.hpp"
#include "kge/synthetic.hpp"

namespace dynkge::core {
namespace {

// 203 = 7 * 29: divisible by neither 3 nor 4 ranks.
const kge::Dataset& golden_dataset() {
  static const kge::Dataset dataset = kge::generate_synthetic([] {
    kge::SyntheticSpec spec;
    spec.num_entities = 203;
    spec.num_relations = 13;
    spec.num_triples = 2400;
    spec.num_latent_types = 4;
    spec.seed = 17;
    return spec;
  }());
  return dataset;
}

/// What a golden pins: final model bytes and the per-epoch log.
struct Golden {
  std::uint64_t model_fnv = 0;
  std::vector<std::pair<double, double>> epochs;  ///< (mean loss, comm s)

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
  for (std::size_t i = 0; i < golden.epochs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s{%a, %a}", i == 0 ? "" : ", ",
                  golden.epochs[i].first, golden.epochs[i].second);
    out += buf;
  }
  return out + "}}";
}

enum class Run { kAllReduceChecksums, kRs1BitRpSs, kAllGather2BitEf,
                 kParameterServer, kFederatedTopK };

const char* name_of(Run run) {
  switch (run) {
    case Run::kAllReduceChecksums: return "allreduce_checksums";
    case Run::kRs1BitRpSs: return "rs_1bit_rp_ss";
    case Run::kAllGather2BitEf: return "allgather_2bit_ef";
    case Run::kParameterServer: return "parameter_server";
    case Run::kFederatedTopK: return "federated_topk";
  }
  return "?";
}

Golden run_distributed(Run run, int ranks, int host_threads) {
  TrainConfig config;
  config.embedding_rank = 8;
  config.num_nodes = ranks;
  config.batch_size = 150;
  config.max_epochs = 3;
  config.lr.base_lr = 0.01;
  config.lr.tolerance = 10;
  config.compute_final_metrics = false;
  config.valid_max_triples = 100;
  config.seed = 4242;
  config.host_threads = host_threads;
  // An empty schedule arms wire checksums on every collective.
  comm::FaultInjector checksums({});
  switch (run) {
    case Run::kAllReduceChecksums:
      config.strategy = StrategyConfig::baseline_allreduce();
      config.fault_injector = &checksums;
      break;
    case Run::kRs1BitRpSs:
      config.strategy = StrategyConfig::rs_1bit_rp_ss(4, 1);
      break;
    case Run::kAllGather2BitEf:
      config.strategy = StrategyConfig::baseline_allgather();
      config.strategy.quant = QuantMode::kTwoBit;
      config.strategy.error_feedback = true;
      break;
    case Run::kParameterServer:
      config.strategy = StrategyConfig::baseline_parameter_server();
      break;
    case Run::kFederatedTopK:
      break;
  }
  const TrainReport report =
      DistributedTrainer(golden_dataset(), config).train();
  Golden golden;
  golden.model_fnv = model_fnv(*report.model);
  for (const EpochRecord& epoch : report.epoch_log) {
    golden.epochs.emplace_back(epoch.mean_loss, epoch.comm_seconds);
  }
  return golden;
}

Golden run_federated(int clients, int host_threads) {
  FederatedConfig config;
  config.embedding_rank = 8;
  config.negatives = 2;
  config.lr.base_lr = 0.05;
  config.lr.tolerance = 15;
  config.seed = 4242;
  config.policy.num_clients = clients;
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
    golden.epochs.emplace_back(round.mean_loss, round.comm_seconds);
  }
  return golden;
}

struct GoldenCase {
  Run run;
  int ranks;
  Golden expected;
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {Run::kAllReduceChecksums, 3,
       {0x075a75c0bd8e8d27ULL,
        {{0x1.62e7b5ce2021fp-1, 0x1.7b58378fe9609p-14},
         {0x1.6109b05230e89p-1, 0x1.7b58378fe9611p-14},
         {0x1.562fc6849fd58p-1, 0x1.7b58378fe9602p-14}}}},
      {Run::kAllReduceChecksums, 4,
       {0x09c034529e9653dfULL,
        {{0x1.62e677ed80117p-1, 0x1.7ae1d645ddb4fp-14},
         {0x1.60e2c1cd77b15p-1, 0x1.7ae1d645ddb56p-14},
         {0x1.5580c85c9b58p-1, 0x1.7ae1d645ddb54p-14}}}},
      {Run::kRs1BitRpSs, 3,
       {0x1a945bd29c50b562ULL,
        {{0x1.632717410861ap-1, 0x1.3a8ae7e65de17p-15},
         {0x1.6303c36db7677p-1, 0x1.3a23d39eecf84p-15},
         {0x1.628c8ee7e4b1ep-1, 0x1.396f7021e7608p-15}}}},
      {Run::kRs1BitRpSs, 4,
       {0xa1f58241956cc8c7ULL,
        {{0x1.6330bba30d1d9p-1, 0x1.85c62ef72f0e2p-15},
         {0x1.6312471710194p-1, 0x1.8569d7772f3d6p-15},
         {0x1.629136728c87p-1, 0x1.846a4a8611fb8p-15}}}},
      {Run::kAllGather2BitEf, 3,
       {0x8b78f6322be9d29dULL,
        {{0x1.62e9d3cbe4c48p-1, 0x1.7308eb73f2644p-15},
         {0x1.6156cc1442657p-1, 0x1.72b674d464dd4p-15},
         {0x1.5744423e70ef2p-1, 0x1.7322b085ce9e8p-15}}}},
      {Run::kAllGather2BitEf, 4,
       {0xeef3f0c640123decULL,
        {{0x1.62ee78682abecp-1, 0x1.8e4bb468bac51p-15},
         {0x1.61467c15aa3f7p-1, 0x1.8e7f3e8c73398p-15},
         {0x1.57e56133dddcbp-1, 0x1.8e8eb4ca5dc28p-15}}}},
      {Run::kParameterServer, 3,
       {0x075a75c0bd8e8d27ULL,
        {{0x1.62e7b5ce2021fp-1, 0x1.be35613418229p-14},
         {0x1.6109b05230e89p-1, 0x1.be613038db52ap-14},
         {0x1.562fc6849fd58p-1, 0x1.bf1f06a2d3cc8p-14}}}},
      {Run::kParameterServer, 4,
       {0x09c034529e9653dfULL,
        {{0x1.62e677ed80117p-1, 0x1.8e0589234c2ccp-14},
         {0x1.60e2c1cd77b15p-1, 0x1.8d1be3b49083p-14},
         {0x1.5580c85c9b58p-1, 0x1.8ce17a58e198cp-14}}}},
      {Run::kFederatedTopK, 3,
       {0x1b1dcea6975242b4ULL,
        {{0x1.62e34cda30a7cp-1, 0x1.4cd02010012f2p-16},
         {0x1.62e381cc3a939p-1, 0x1.4fc779b7e3172p-16},
         {0x1.62e547032b84dp-1, 0x1.503c4c6f40ecp-16}}}},
      {Run::kFederatedTopK, 4,
       {0xf872f8d42917a391ULL,
        {{0x1.62e63e7a50316p-1, 0x1.b9ce9853f448fp-16},
         {0x1.62e2ac5751845p-1, 0x1.bdaf976a91da8p-16},
         {0x1.62e24cb83ea56p-1, 0x1.bdea00c640c5p-16}}}},
  };
  return cases;
}

class ExchangeGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExchangeGolden, ByteIdenticalAtHostThreads1And4) {
  const GoldenCase& golden = golden_cases()[GetParam()];
  for (const int host_threads : {1, 4}) {
    const Golden actual =
        golden.run == Run::kFederatedTopK
            ? run_federated(golden.ranks, host_threads)
            : run_distributed(golden.run, golden.ranks, host_threads);
    ASSERT_FALSE(actual.epochs.empty());
    EXPECT_EQ(actual, golden.expected)
        << name_of(golden.run) << " P=" << golden.ranks
        << " host_threads=" << host_threads
        << "\n  actual: " << render(actual)
        << "\nexpected: " << render(golden.expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, ExchangeGolden,
    ::testing::Range<std::size_t>(0, 10),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      const GoldenCase& golden = golden_cases()[info.param];
      return std::string(name_of(golden.run)) + "_P" +
             std::to_string(golden.ranks);
    });

}  // namespace
}  // namespace dynkge::core
