// The fundamental knowledge-graph record: {head entity, relation, tail
// entity}, e.g. {New Delhi, capital of, India}.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace dynkge::kge {

using EntityId = std::int32_t;
using RelationId = std::int32_t;

struct Triple {
  EntityId head = 0;
  RelationId relation = 0;
  EntityId tail = 0;

  friend bool operator==(const Triple&, const Triple&) = default;
};

using TripleList = std::vector<Triple>;

/// Deterministic Fisher-Yates shuffle (the trainers' epoch order).
inline void shuffle_triples(TripleList& triples, util::Rng& rng) {
  for (std::size_t i = triples.size(); i > 1; --i) {
    std::swap(triples[i - 1], triples[rng.next_below(i)]);
  }
}

/// Pack a triple into one 64-bit key (21 bits per field — supports up to
/// two million entities/relations, comfortably beyond FB250K's 240K/9.3K).
constexpr std::uint64_t pack_triple(EntityId head, RelationId relation,
                                    EntityId tail) noexcept {
  constexpr std::uint64_t kMask = (1ULL << 21) - 1;
  return ((static_cast<std::uint64_t>(head) & kMask) << 42) |
         ((static_cast<std::uint64_t>(relation) & kMask) << 21) |
         (static_cast<std::uint64_t>(tail) & kMask);
}

constexpr std::uint64_t pack_triple(const Triple& t) noexcept {
  return pack_triple(t.head, t.relation, t.tail);
}

struct TripleHash {
  std::size_t operator()(const Triple& t) const noexcept {
    return std::hash<std::uint64_t>{}(pack_triple(t));
  }
};

}  // namespace dynkge::kge
