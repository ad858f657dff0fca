// Byte goldens: the FNV-1a of a model's parameter bytes plus a log of
// exact doubles, rendered as a C++ initializer (hexfloats, so it
// round-trips) for a failing case to print the line to paste.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kge/model.hpp"

namespace dynkge::test_support {

/// FNV-1a over the entity bytes, then the relation bytes.
std::uint64_t model_fnv(const kge::KgeModel& model);

/// Final model bytes and a loss log (per epoch, round or batch).
struct Golden {
  std::uint64_t model_fnv = 0;
  std::vector<double> losses;

  bool operator==(const Golden&) const = default;
};

/// `golden` as a C++ initializer: {0x...ULL, {hexfloat, ...}}.
std::string render(const Golden& golden);

}  // namespace dynkge::test_support
