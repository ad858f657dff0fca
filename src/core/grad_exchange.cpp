#include "core/grad_exchange.hpp"

#include <algorithm>
#include <cstring>
#include <ranges>
#include <stdexcept>

namespace dynkge::core {
namespace {

/// Index of the first encoded row of `slot` whose id is >= `id`. Encoded
/// rows are fixed-size and in ascending id order (RowCodec::encode_grad),
/// so this is a binary search over row indices.
std::size_t first_row_at_or_after(std::span<const std::byte> slot,
                                  std::size_t row_bytes, std::int64_t id) {
  const auto rows = std::views::iota(std::size_t{0}, slot.size() / row_bytes);
  return *std::ranges::partition_point(rows, [&](std::size_t row) {
    std::int32_t row_id;
    std::memcpy(&row_id, slot.data() + row * row_bytes, sizeof(row_id));
    return row_id < id;
  });
}

/// Rows of one matrix (entity or relation) over all parts.
std::size_t merged_rows(const MergedGrads& merged,
                        kge::SparseGrad kge::ModelGrads::*matrix) {
  std::size_t rows = 0;
  for (const kge::ModelGrads& part : merged.parts) {
    rows += (part.*matrix).num_rows();
  }
  return rows;
}

}  // namespace

GradExchange::GradExchange(comm::Communicator& comm,
                           const StrategyConfig& strategy,
                           std::int32_t num_entities,
                           std::int32_t entity_width,
                           std::int32_t num_relations,
                           std::int32_t relation_width, MergedGrads& merged,
                           obs::TraceWriter* trace, int trace_tid)
    : comm_(comm),
      strategy_(strategy),
      merged_(merged),
      num_entities_(num_entities),
      num_relations_(num_relations),
      trace_(trace),
      trace_tid_(trace_tid),
      entity_codec_(strategy.quant, strategy.one_bit_scale, entity_width),
      relation_codec_(strategy.quant, strategy.one_bit_scale, relation_width),
      raw_entity_codec_(QuantMode::kNone, strategy.one_bit_scale,
                        entity_width),
      raw_relation_codec_(QuantMode::kNone, strategy.one_bit_scale,
                          relation_width),
      entity_dense_bytes_(static_cast<std::size_t>(num_entities) *
                          static_cast<std::size_t>(entity_width) *
                          sizeof(float)),
      relation_dense_bytes_(static_cast<std::size_t>(num_relations) *
                            static_cast<std::size_t>(relation_width) *
                            sizeof(float)) {
  // The parts are shaped by their owners inside the first gather (see
  // merge_owned), never here: a sibling may still be reading them.
  if (merged.parts.size() != static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument(
        "GradExchange: MergedGrads needs one part per rank");
  }
}

void GradExchange::apply_error_feedback(
    kge::SparseGrad& local,
    std::unordered_map<std::int32_t, std::vector<float>>& residual,
    const RowCodec& codec, util::Rng& rng) {
  // Fold stored residuals into this step's gradient, then store the new
  // quantization error. Residuals for rows not touched this step stay
  // put and flow in whenever the row next appears. No rows are created or
  // erased inside the loop, so the cached slot list (and the arena
  // offsets in it) stays valid throughout.
  quantized_scratch_.resize(static_cast<std::size_t>(codec.width()));
  const std::span<float> quantized(quantized_scratch_);
  for (const kge::SparseGrad::SlotRef& slot : local.sorted_slots()) {
    auto row = local.row_at(slot.offset);
    const auto it = residual.find(slot.id);
    if (it != residual.end()) {
      for (std::size_t i = 0; i < row.size(); ++i) row[i] += it->second[i];
    }
    codec.quantized_values(row, quantized, codec_scratch_, rng);
    auto& stored = residual[slot.id];
    stored.resize(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      stored[i] = row[i] - quantized[i];
    }
  }
}

void GradExchange::merge_owned(comm::Slots slots, std::int32_t num_ids,
                               const RowCodec& codec,
                               kge::SparseGrad& owned) const {
  const int rank = comm_.rank();
  const int num_ranks = comm_.size();
  const std::size_t row_bytes = codec.bytes_per_row();
  // Rank q owns ids [floor(q * num_ids / P), floor((q + 1) * num_ids / P)).
  const auto owner_begin = [&](int q) {
    return static_cast<std::int64_t>(q) * num_ids / num_ranks;
  };
  if (owned.width() != codec.width()) {
    owned = kge::SparseGrad(codec.width());  // first use of this part
  } else {
    owned.clear();
  }
  {
    const obs::TraceSpan span(trace_, "quantize.decode", trace_tid_);
    for (const std::span<const std::byte> slot : slots) {
      if (slot.size() % row_bytes != 0) {
        throw std::invalid_argument(
            "GradExchange: payload is not a whole number of rows");
      }
      // The first and last owners also take any id outside [0, num_ids).
      const std::size_t begin =
          rank == 0 ? 0
                    : first_row_at_or_after(slot, row_bytes,
                                            owner_begin(rank));
      const std::size_t end =
          rank == num_ranks - 1
              ? slot.size() / row_bytes
              : first_row_at_or_after(slot, row_bytes,
                                      owner_begin(rank + 1));
      codec.decode_accumulate(
          slot.subspan(begin * row_bytes, (end - begin) * row_bytes), owned);
    }
  }
  // Cluster average: divide the rank sum by P. This also refreshes the
  // part's sorted-slot cache inside the owner's window, so readers after
  // the release barrier only ever read it.
  const float inv_ranks = 1.0f / static_cast<float>(num_ranks);
  for (const kge::SparseGrad::SlotRef& slot : owned.sorted_slots()) {
    for (float& v : owned.row_at(slot.offset)) v *= inv_ranks;
  }
}

std::size_t GradExchange::exchange_matrix(
    kge::SparseGrad& local, kge::SparseGrad kge::ModelGrads::*part,
    std::int32_t num_ids, const RowCodec& codec, Transport transport,
    std::size_t dense_bytes,
    std::unordered_map<std::int32_t, std::vector<float>>* residual,
    util::Rng& rng) {
  if (transport != Transport::kAllReduce && residual != nullptr &&
      codec.mode() != QuantMode::kNone) {
    apply_error_feedback(local, *residual, codec, rng);
  }

  std::vector<std::byte>& encoded = encode_scratch_;
  {
    const obs::TraceSpan span(trace_, "quantize.encode", trace_tid_);
    codec.encode_grad(local, encoded, rng);
  }

  // The in-process transport is always a gather of encoded rows; what
  // differs per mode is the *modeled* collective the clock is charged for:
  //  - all-gather: the real encoded volume, charged by the collective;
  //  - all-reduce: the dense matrix a ring all-reduce would carry;
  //  - parameter server: workers push rows to the server (gatherv — the
  //    server link carries every worker's volume, the bottleneck the
  //    paper's introduction describes), which merges and broadcasts the
  //    merged rows back.
  std::size_t total_encoded = 0;
  {
    const obs::TraceSpan span(trace_,
                              transport == Transport::kAllGather
                                  ? "exchange.allgather"
                              : transport == Transport::kAllReduce
                                  ? "exchange.allreduce"
                                  : "exchange.param_server",
                              trace_tid_);
    kge::ModelGrads& mine =
        merged_.parts[static_cast<std::size_t>(comm_.rank())];
    comm_.allgatherv(
        encoded,
        [&](comm::Slots slots) {
          for (const auto slot : slots) total_encoded += slot.size();
          // The entity gather opens every exchange: drop both matrices of
          // this rank's part, so a relation part that is not exchanged
          // this time reads as empty.
          if (part == &kge::ModelGrads::entity) mine.clear();
          merge_owned(slots, num_ids, codec, mine.*part);
        },
        /*charge_cost=*/transport == Transport::kAllGather);
  }

  switch (transport) {
    case Transport::kAllGather:
      return encoded.size();
    case Transport::kAllReduce:
      comm_.charge(comm::CollectiveKind::kAllReduce, dense_bytes,
                   dense_bytes);
      return dense_bytes;
    case Transport::kParameterServer: {
      comm_.charge(comm::CollectiveKind::kGatherV, total_encoded,
                   encoded.size());
      const std::size_t merged_bytes =
          merged_rows(merged_, part) * codec.bytes_per_row();
      comm_.charge(comm::CollectiveKind::kBroadcast, merged_bytes,
                   merged_bytes);
      return encoded.size() + merged_bytes;
    }
  }
  return encoded.size();
}

ExchangeResult GradExchange::exchange(kge::ModelGrads& local,
                                      const ExchangePlan& plan,
                                      util::Rng& rng) {
  ExchangeResult result;
  const double sim_before = comm_.sim_now();

  // On all-reduce epochs the values travel at full precision (a dense
  // ring all-reduce reduces in transit; quantized codes cannot be summed),
  // so quantization only takes effect on the row-based transports
  // (all-gather, parameter server) — which is why quantization shifts the
  // dynamic selector toward all-gather.
  const bool row_based = plan.transport != Transport::kAllReduce;
  const RowCodec& entity_codec =
      row_based ? entity_codec_ : raw_entity_codec_;
  const RowCodec& relation_codec =
      row_based ? relation_codec_ : raw_relation_codec_;

  result.entity_rows_sent = local.entity.num_rows();
  result.bytes_on_wire += exchange_matrix(
      local.entity, &kge::ModelGrads::entity, num_entities_, entity_codec,
      plan.transport, entity_dense_bytes_,
      strategy_.error_feedback ? &entity_residual_ : nullptr, rng);

  if (plan.exchange_relations) {
    result.bytes_on_wire += exchange_matrix(
        local.relation, &kge::ModelGrads::relation, num_relations_,
        relation_codec, plan.transport, relation_dense_bytes_,
        strategy_.error_feedback ? &relation_residual_ : nullptr, rng);
  }

  result.entity_rows_merged = merged_rows(merged_, &kge::ModelGrads::entity);
  result.comm_seconds = comm_.sim_now() - sim_before;
  return result;
}

}  // namespace dynkge::core
