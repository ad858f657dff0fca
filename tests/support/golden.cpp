#include "support/golden.hpp"

#include <cstdio>
#include <span>

namespace dynkge::test_support {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::span<const float> values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

std::uint64_t model_fnv(const kge::KgeModel& model) {
  const std::uint64_t hash =
      fnv1a(0xcbf29ce484222325ULL, model.entities().flat());
  return fnv1a(hash, model.relations().flat());
}

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

}  // namespace dynkge::test_support
