#include "core/grad_exchange.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace dynkge::core {
namespace {

constexpr std::int32_t kEntities = 100;
constexpr std::int32_t kRelations = 20;
constexpr std::int32_t kWidth = 8;

/// Deterministic per-rank gradient: rank r touches entity rows
/// {r, r+1, 10} and relation row {r % kRelations}.
kge::ModelGrads rank_grads(int rank) {
  kge::ModelGrads grads(kWidth, kWidth);
  for (const std::int32_t id :
       {rank, rank + 1, std::int32_t{10}}) {
    auto row = grads.entity.accumulate(id);
    for (std::int32_t i = 0; i < kWidth; ++i) {
      row[i] = static_cast<float>(rank + 1) * 0.125f * (i + 1);
    }
  }
  auto rel = grads.relation.accumulate(rank % kRelations);
  for (std::int32_t i = 0; i < kWidth; ++i) rel[i] = 1.0f;
  return grads;
}

/// This rank's private copy of the shared merge result: every part, in
/// owner (= ascending id) order. Taken between exchanges, when the parts
/// are stable.
kge::ModelGrads snapshot(const MergedGrads& merged,
                         std::int32_t entity_width = kWidth,
                         std::int32_t relation_width = kWidth) {
  kge::ModelGrads out(entity_width, relation_width);
  for (const kge::ModelGrads& part : merged.parts) {
    for (const auto& [from, to] :
         {std::pair{&part.entity, &out.entity},
          std::pair{&part.relation, &out.relation}}) {
      for (const std::int32_t id : from->sorted_ids()) {
        const auto row = from->row(id);
        std::copy(row.begin(), row.end(), to->accumulate(id).begin());
      }
    }
  }
  return out;
}

class GradExchangeP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, GradExchangeP, ::testing::Values(1, 2, 4, 8));

TEST_P(GradExchangeP, AllGatherMergeMatchesManualSum) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allgather();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    kge::ModelGrads local = rank_grads(comm.rank());
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;
    util::Rng rng(1);
    exchange.exchange(local, plan, rng);
    const kge::ModelGrads merged = snapshot(shared);

    // Row 10 is touched by every rank: expected value is the average of
    // all ranks' contributions.
    float expected = 0.0f;
    for (int r = 0; r < ranks; ++r) expected += (r + 1) * 0.125f;
    expected /= static_cast<float>(ranks);
    ASSERT_TRUE(merged.entity.has(10));
    EXPECT_NEAR(merged.entity.row(10)[0], expected, 1e-6);

    // Rank-exclusive rows survive scaled by 1/ranks.
    if (ranks > 2) {
      ASSERT_TRUE(merged.entity.has(0));
      EXPECT_NEAR(merged.entity.row(0)[0], 0.125f / ranks, 1e-6);
    }
  });
}

TEST_P(GradExchangeP, AllReduceAndAllGatherAgreeNumerically) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allreduce();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    util::Rng rng(1);

    kge::ModelGrads local_a = rank_grads(comm.rank());
    ExchangePlan reduce_plan;
    reduce_plan.transport = Transport::kAllReduce;
    exchange.exchange(local_a, reduce_plan, rng);
    const kge::ModelGrads merged_a = snapshot(shared);

    kge::ModelGrads local_b = rank_grads(comm.rank());
    ExchangePlan gather_plan;
    gather_plan.transport = Transport::kAllGather;
    exchange.exchange(local_b, gather_plan, rng);
    const kge::ModelGrads merged_b = snapshot(shared);

    ASSERT_EQ(merged_a.entity.sorted_ids(), merged_b.entity.sorted_ids());
    for (const std::int32_t id : merged_a.entity.sorted_ids()) {
      const auto a = merged_a.entity.row(id);
      const auto b = merged_b.entity.row(id);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FLOAT_EQ(a[i], b[i]);
      }
    }
  });
}

TEST_P(GradExchangeP, MergedResultIdenticalOnAllRanks) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  std::vector<std::vector<float>> row10(ranks);
  cluster.run([&](comm::Communicator& comm) {
    StrategyConfig strategy = StrategyConfig::rs_1bit();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    kge::ModelGrads local = rank_grads(comm.rank());
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;
    util::Rng rng(comm.rank() + 1);  // rank-distinct randomness
    exchange.exchange(local, plan, rng);
    const kge::ModelGrads merged = snapshot(shared);
    const auto row = merged.entity.row(10);
    row10[comm.rank()].assign(row.begin(), row.end());
  });
  for (int r = 1; r < ranks; ++r) EXPECT_EQ(row10[r], row10[0]);
}

TEST_P(GradExchangeP, AllReduceChargesDenseCost) {
  const int ranks = GetParam();
  if (ranks < 2) GTEST_SKIP();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allreduce();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    kge::ModelGrads local = rank_grads(comm.rank());
    ExchangePlan plan;
    plan.transport = Transport::kAllReduce;
    util::Rng rng(1);
    const auto result = exchange.exchange(local, plan, rng);

    // Dense bytes: full entity matrix + full relation matrix.
    const std::size_t expected =
        static_cast<std::size_t>(kEntities) * kWidth * sizeof(float) +
        static_cast<std::size_t>(kRelations) * kWidth * sizeof(float);
    EXPECT_EQ(result.bytes_on_wire, expected);
    EXPECT_GT(result.comm_seconds, 0.0);
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kAllReduce).calls, 2u);
  });
}

TEST_P(GradExchangeP, QuantizationShrinksGatherBytes) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    util::Rng rng(1);
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;

    StrategyConfig raw = StrategyConfig::baseline_allgather();
    GradExchange raw_exchange(comm, raw, kEntities, kWidth, kRelations,
                              kWidth, shared);
    kge::ModelGrads local_a = rank_grads(comm.rank());
    const auto raw_result = raw_exchange.exchange(local_a, plan, rng);

    StrategyConfig quant = StrategyConfig::baseline_allgather();
    quant.quant = QuantMode::kOneBit;
    GradExchange quant_exchange(comm, quant, kEntities, kWidth, kRelations,
                                kWidth, shared);
    kge::ModelGrads local_b = rank_grads(comm.rank());
    const auto quant_result = quant_exchange.exchange(local_b, plan, rng);

    EXPECT_LT(quant_result.bytes_on_wire, raw_result.bytes_on_wire / 2);
  });
}

TEST_P(GradExchangeP, SkippingRelationsMovesFewerBytes) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allgather();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    util::Rng rng(1);
    ExchangePlan with_relations;
    with_relations.transport = Transport::kAllGather;
    with_relations.exchange_relations = true;
    kge::ModelGrads local_a = rank_grads(comm.rank());
    const auto with = exchange.exchange(local_a, with_relations, rng);

    ExchangePlan without;
    without.transport = Transport::kAllGather;
    without.exchange_relations = false;
    kge::ModelGrads local_b = rank_grads(comm.rank());
    const auto skip = exchange.exchange(local_b, without, rng);
    const kge::ModelGrads merged = snapshot(shared);

    EXPECT_LT(skip.bytes_on_wire, with.bytes_on_wire);
    EXPECT_TRUE(merged.relation.empty());
  });
}

TEST_P(GradExchangeP, ParameterServerAgreesWithAllReduceNumerically) {
  // All three transports are different *timings* of the same merge: the
  // resulting averaged gradient must be bit-identical.
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy =
        StrategyConfig::baseline_parameter_server();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    util::Rng rng(1);

    kge::ModelGrads local_a = rank_grads(comm.rank());
    ExchangePlan ps_plan;
    ps_plan.transport = Transport::kParameterServer;
    exchange.exchange(local_a, ps_plan, rng);
    const kge::ModelGrads merged_a = snapshot(shared);

    kge::ModelGrads local_b = rank_grads(comm.rank());
    ExchangePlan reduce_plan;
    reduce_plan.transport = Transport::kAllReduce;
    exchange.exchange(local_b, reduce_plan, rng);
    const kge::ModelGrads merged_b = snapshot(shared);

    ASSERT_EQ(merged_a.entity.sorted_ids(), merged_b.entity.sorted_ids());
    for (const std::int32_t id : merged_a.entity.sorted_ids()) {
      const auto a = merged_a.entity.row(id);
      const auto b = merged_b.entity.row(id);
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
    }
  });
}

TEST_P(GradExchangeP, ParameterServerChargesGatherPlusBroadcast) {
  const int ranks = GetParam();
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy =
        StrategyConfig::baseline_parameter_server();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    kge::ModelGrads local = rank_grads(comm.rank());
    ExchangePlan plan;
    plan.transport = Transport::kParameterServer;
    util::Rng rng(1);
    exchange.exchange(local, plan, rng);
    // One gatherv + one broadcast per exchanged matrix (entity, relation).
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kGatherV).calls, 2u);
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kBroadcast).calls, 2u);
    EXPECT_EQ(comm.stats().of(comm::CollectiveKind::kAllReduce).calls, 0u);
  });
}

TEST(GradExchange, ParameterServerCostGrowsLinearlyWithRanks) {
  // The paper's motivation for synchronous collectives: the server link
  // carries every worker's traffic, so modeled time grows ~linearly in
  // the number of workers (ring all-reduce saturates instead).
  const auto ps_time = [](int ranks) {
    double seconds = 0.0;
    comm::Cluster cluster(ranks);
    MergedGrads shared(ranks);
    cluster.run([&](comm::Communicator& comm) {
      const StrategyConfig strategy =
          StrategyConfig::baseline_parameter_server();
      GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                            kWidth, shared);
      kge::ModelGrads local = rank_grads(comm.rank());
      ExchangePlan plan;
      plan.transport = Transport::kParameterServer;
      util::Rng rng(1);
      const auto result = exchange.exchange(local, plan, rng);
      if (comm.rank() == 0) seconds = result.comm_seconds;
    });
    return seconds;
  };
  const double t2 = ps_time(2);
  const double t8 = ps_time(8);
  EXPECT_GT(t8, 2.5 * t2);
}

TEST(GradExchange, ErrorFeedbackCompensatesQuantization) {
  // With mean-scale 1-bit quantization (a contraction), error feedback
  // makes the *accumulated* transmitted gradient track the accumulated
  // true gradient: residuals stay bounded while the no-feedback variant
  // keeps losing the same per-step error.
  comm::Cluster cluster(1);
  MergedGrads shared(1);
  cluster.run([&](comm::Communicator& comm) {
    StrategyConfig strategy = StrategyConfig::baseline_allgather();
    strategy.quant = QuantMode::kOneBit;
    strategy.one_bit_scale = OneBitScale::kMean;
    strategy.error_feedback = true;
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    util::Rng rng(3);

    // Constant true gradient, many steps.
    std::vector<double> transmitted(kWidth, 0.0);
    const int kSteps = 400;
    for (int step = 0; step < kSteps; ++step) {
      kge::ModelGrads local(kWidth, kWidth);
      auto row = local.entity.accumulate(5);
      for (std::int32_t i = 0; i < kWidth; ++i) {
        row[i] = 0.01f * static_cast<float>(i + 1);
      }
      ExchangePlan plan;
      plan.transport = Transport::kAllGather;
      exchange.exchange(local, plan, rng);
      const kge::ModelGrads merged = snapshot(shared);
      const auto out = merged.entity.row(5);
      for (std::int32_t i = 0; i < kWidth; ++i) transmitted[i] += out[i];
    }
    // Accumulated transmission approximates accumulated truth within a
    // bounded residual (<= one quantization step per component).
    for (std::int32_t i = 0; i < kWidth; ++i) {
      const double truth = 0.01 * (i + 1) * kSteps;
      EXPECT_NEAR(transmitted[i] / truth, 1.0, 0.1) << "component " << i;
    }
  });
}

TEST(GradExchange, EmptyGradientsExchangeCleanly) {
  comm::Cluster cluster(4);
  MergedGrads shared(4);
  cluster.run([&](comm::Communicator& comm) {
    const StrategyConfig strategy = StrategyConfig::baseline_allgather();
    GradExchange exchange(comm, strategy, kEntities, kWidth, kRelations,
                          kWidth, shared);
    kge::ModelGrads local(kWidth, kWidth);  // nothing touched
    ExchangePlan plan;
    plan.transport = Transport::kAllGather;
    util::Rng rng(1);
    const auto result = exchange.exchange(local, plan, rng);
    const kge::ModelGrads merged = snapshot(shared);
    EXPECT_EQ(result.entity_rows_merged, 0u);
    EXPECT_TRUE(merged.entity.empty());
  });
}

// ---- owner-computes merge equivalence ---------------------------------
//
// The exchange decodes each row once, on the rank that owns its id range,
// instead of on every rank. These cases pin it against a reference that
// does what every rank used to do: decode all P payloads in rank order
// into one gradient, then average. Rows, row counts, bytes and modeled
// seconds must all be equal.

constexpr std::int32_t kOddEntities = 101;  // divisible by no P below
constexpr std::int32_t kOddRelations = 11;
constexpr std::int32_t kEntityWidth = 6;    // partial 1- and 2-bit bytes
constexpr std::int32_t kRelationWidth = 5;

enum class Layout {
  kSpread,      ///< rows across all owner ranges, range boundaries included
  kEmptyRank,   ///< as kSpread, but the last rank sends nothing
  kOneOwner,    ///< every row in one owner's range
};

struct MergeCase {
  int ranks;
  QuantMode quant;
  Transport transport;
  Layout layout;
};

std::string case_name(const ::testing::TestParamInfo<MergeCase>& info) {
  const MergeCase& c = info.param;
  const char* quant = c.quant == QuantMode::kNone     ? "raw"
                      : c.quant == QuantMode::kOneBit ? "1bit"
                                                      : "2bit";
  const char* transport = c.transport == Transport::kAllReduce ? "allreduce"
                          : c.transport == Transport::kAllGather
                              ? "allgather"
                              : "ps";
  const char* layout = c.layout == Layout::kSpread      ? "spread"
                       : c.layout == Layout::kEmptyRank ? "emptyrank"
                                                        : "oneowner";
  std::string name = "P";
  name += std::to_string(c.ranks);
  for (const char* part : {quant, transport, layout}) {
    name += '_';
    name += part;
  }
  return name;
}

std::vector<MergeCase> merge_cases() {
  std::vector<MergeCase> cases;
  for (const int ranks : {1, 2, 3, 4, 8}) {
    for (const QuantMode quant :
         {QuantMode::kNone, QuantMode::kOneBit, QuantMode::kTwoBit}) {
      for (const Transport transport :
           {Transport::kAllReduce, Transport::kAllGather,
            Transport::kParameterServer}) {
        for (const Layout layout :
             {Layout::kSpread, Layout::kEmptyRank, Layout::kOneOwner}) {
          cases.push_back({ranks, quant, transport, layout});
        }
      }
    }
  }
  return cases;
}

/// Rank `rank`'s ids in [0, num_ids) for a layout.
std::vector<std::int32_t> layout_ids(const MergeCase& c, int rank,
                                     std::int32_t num_ids) {
  std::vector<std::int32_t> ids;
  if (c.layout == Layout::kEmptyRank && rank == c.ranks - 1) return ids;
  if (c.layout == Layout::kOneOwner) {
    // The middle owner's range [lo, hi), both ends included.
    const int owner = c.ranks / 2;
    const auto lo = static_cast<std::int32_t>(
        static_cast<std::int64_t>(owner) * num_ids / c.ranks);
    const auto hi = static_cast<std::int32_t>(
        static_cast<std::int64_t>(owner + 1) * num_ids / c.ranks);
    for (std::int32_t id = lo; id < hi; id += 1 + rank % 2) ids.push_back(id);
    return ids;
  }
  // Every owner boundary and its left neighbour, plus a rank-specific
  // sample of the rest.
  for (int q = 0; q <= c.ranks; ++q) {
    const auto bound = static_cast<std::int32_t>(
        static_cast<std::int64_t>(q) * num_ids / c.ranks);
    if (bound < num_ids) ids.push_back(bound);
    if (bound > 0) ids.push_back(bound - 1);
  }
  util::Rng rng(util::derive_seed(0x1D5u, rank, num_ids));
  for (int k = 0; k < num_ids / 3; ++k) {
    ids.push_back(static_cast<std::int32_t>(rng.next_below(num_ids)));
  }
  return ids;
}

kge::ModelGrads case_grads(const MergeCase& c, int rank) {
  kge::ModelGrads grads(kEntityWidth, kRelationWidth);
  util::Rng values(util::derive_seed(0xF1u, rank));
  for (const auto& [grad, num_ids] :
       {std::pair{&grads.entity, kOddEntities},
        std::pair{&grads.relation, kOddRelations}}) {
    for (const std::int32_t id : layout_ids(c, rank, num_ids)) {
      for (float& v : grad->accumulate(id)) {
        v += static_cast<float>(values.next_double(-1.0, 1.0));
      }
    }
  }
  return grads;
}

/// The pre-owner-computes merge of one matrix: every payload decoded in
/// rank order into one gradient, then averaged.
kge::SparseGrad reference_merge(
    const std::vector<std::vector<std::byte>>& payloads,
    const RowCodec& codec) {
  kge::SparseGrad merged(codec.width());
  for (const auto& payload : payloads) {
    codec.decode_accumulate(payload, merged);
  }
  const float inv_ranks = 1.0f / static_cast<float>(payloads.size());
  for (const std::int32_t id : merged.sorted_ids()) {
    for (float& v : merged.row(id)) v *= inv_ranks;
  }
  return merged;
}

void expect_bit_equal(const kge::SparseGrad& actual,
                      const kge::SparseGrad& expected, const char* what) {
  ASSERT_EQ(actual.sorted_ids(), expected.sorted_ids()) << what;
  for (const std::int32_t id : expected.sorted_ids()) {
    const auto a = actual.row(id);
    const auto e = expected.row(id);
    EXPECT_EQ(std::memcmp(a.data(), e.data(), e.size_bytes()), 0)
        << what << " row " << id;
  }
}

class OwnerMergeP : public ::testing::TestWithParam<MergeCase> {};

TEST_P(OwnerMergeP, BitEqualToRankOrderMergeOnEveryRank) {
  const MergeCase c = GetParam();
  const int ranks = c.ranks;
  StrategyConfig strategy = StrategyConfig::baseline_allgather();
  strategy.quant = c.quant;
  const bool row_based = c.transport != Transport::kAllReduce;
  const QuantMode wire = row_based ? c.quant : QuantMode::kNone;
  const RowCodec entity_codec(wire, strategy.one_bit_scale, kEntityWidth);
  const RowCodec relation_codec(wire, strategy.one_bit_scale,
                                kRelationWidth);

  // Each rank records the payloads it will send (encoded with a copy of
  // the exchange's RNG), its view of the merged result, and its result.
  std::vector<std::vector<std::byte>> entity_payloads(ranks);
  std::vector<std::vector<std::byte>> relation_payloads(ranks);
  std::vector<kge::ModelGrads> views(ranks);
  std::vector<ExchangeResult> results(ranks);
  comm::Cluster cluster(ranks);
  MergedGrads shared(ranks);
  cluster.run([&](comm::Communicator& comm) {
    const int rank = comm.rank();
    GradExchange exchange(comm, strategy, kOddEntities, kEntityWidth,
                          kOddRelations, kRelationWidth, shared);
    kge::ModelGrads local = case_grads(c, rank);
    util::Rng rng(util::derive_seed(0xE7u, rank));
    util::Rng replay = rng;
    entity_codec.encode_grad(local.entity, entity_payloads[rank], replay);
    relation_codec.encode_grad(local.relation, relation_payloads[rank],
                               replay);
    ExchangePlan plan;
    plan.transport = c.transport;
    results[rank] = exchange.exchange(local, plan, rng);
    views[rank] = snapshot(shared, kEntityWidth, kRelationWidth);
  });

  const kge::SparseGrad entity =
      reference_merge(entity_payloads, entity_codec);
  const kge::SparseGrad relation =
      reference_merge(relation_payloads, relation_codec);

  // Modeled traffic and time, replayed from the payload sizes: every
  // gather aligns the clocks to the cluster max, then charges.
  const comm::CostModel model;
  std::vector<double> clock(ranks, 0.0);
  std::vector<std::size_t> bytes(ranks, 0);
  for (const auto& [payloads, merged, codec, dense] :
       {std::tuple{&entity_payloads, &entity, &entity_codec,
                   std::size_t{kOddEntities} * kEntityWidth * sizeof(float)},
        std::tuple{&relation_payloads, &relation, &relation_codec,
                   std::size_t{kOddRelations} * kRelationWidth *
                       sizeof(float)}}) {
    std::size_t total = 0;
    for (const auto& payload : *payloads) total += payload.size();
    const double aligned = *std::max_element(clock.begin(), clock.end());
    const std::size_t merged_bytes =
        merged->num_rows() * codec->bytes_per_row();
    for (int r = 0; r < ranks; ++r) {
      const std::size_t own = (*payloads)[r].size();
      clock[r] = aligned;
      switch (c.transport) {
        case Transport::kAllGather:
          clock[r] += model.allgatherv_time(ranks, total, own);
          bytes[r] += own;
          break;
        case Transport::kAllReduce:
          clock[r] += model.allreduce_time(ranks, dense);
          bytes[r] += dense;
          break;
        case Transport::kParameterServer:
          clock[r] += model.gatherv_time(ranks, total, own);
          clock[r] += model.broadcast_time(ranks, merged_bytes);
          bytes[r] += own + merged_bytes;
          break;
      }
    }
  }

  for (int r = 0; r < ranks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    expect_bit_equal(views[r].entity, entity, "entity");
    expect_bit_equal(views[r].relation, relation, "relation");
    EXPECT_EQ(results[r].entity_rows_merged, entity.num_rows());
    EXPECT_EQ(results[r].entity_rows_sent,
              case_grads(c, r).entity.num_rows());
    EXPECT_EQ(results[r].bytes_on_wire, bytes[r]);
    EXPECT_EQ(results[r].comm_seconds, clock[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, OwnerMergeP,
                         ::testing::ValuesIn(merge_cases()), case_name);

}  // namespace
}  // namespace dynkge::core
