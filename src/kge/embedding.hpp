// Embedding storage and sparse gradient accumulation.
//
// An EmbeddingMatrix is a dense row-major [rows x width] float matrix: one
// row per entity or relation. A SparseGrad holds the gradient rows touched
// by one batch — for KGE training only a tiny fraction of rows is non-zero
// per step, which is precisely the structure the paper's communication
// strategies exploit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace dynkge::kge {

class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(std::int32_t rows, std::int32_t width)
      : rows_(rows), width_(width) {
    if (rows <= 0 || width <= 0) {
      throw std::invalid_argument("EmbeddingMatrix: non-positive shape");
    }
    data_.assign(static_cast<std::size_t>(rows) * width, 0.0f);
  }

  std::int32_t rows() const { return rows_; }
  std::int32_t width() const { return width_; }
  std::size_t size_bytes() const { return data_.size() * sizeof(float); }

  std::span<float> row(std::int32_t r) {
    return {data_.data() + static_cast<std::size_t>(r) * width_,
            static_cast<std::size_t>(width_)};
  }
  std::span<const float> row(std::int32_t r) const {
    return {data_.data() + static_cast<std::size_t>(r) * width_,
            static_cast<std::size_t>(width_)};
  }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  /// Uniform init in [-scale, scale] — ComplEx's standard initialization
  /// scheme (scaled by 1/sqrt(width) by the caller).
  void init_uniform(util::Rng& rng, float scale) {
    for (auto& v : data_) {
      v = static_cast<float>(rng.next_double(-scale, scale));
    }
  }

  /// Gaussian init with standard deviation sigma.
  void init_normal(util::Rng& rng, float sigma) {
    for (auto& v : data_) {
      v = static_cast<float>(rng.next_normal(0.0, sigma));
    }
  }

 private:
  std::int32_t rows_ = 0;
  std::int32_t width_ = 0;
  std::vector<float> data_;
};

/// Accumulates gradient rows for one optimizer step. Rows are created on
/// first touch; iteration order is made deterministic by sorting ids.
class SparseGrad {
 public:
  SparseGrad() = default;
  explicit SparseGrad(std::int32_t width) : width_(width) {
    if (width <= 0) {
      throw std::invalid_argument("SparseGrad: non-positive width");
    }
  }

  std::int32_t width() const { return width_; }
  std::size_t num_rows() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  bool has(std::int32_t id) const { return slots_.count(id) != 0; }

  /// Row for `id`, created zero-filled on first touch.
  std::span<float> accumulate(std::int32_t id) {
    return row_at(accumulate_offset(id));
  }

  /// Arena offset of the row for `id`, created zero-filled on first touch.
  /// Offsets — unlike the spans accumulate() returns — stay valid across
  /// later row creations, so the blocked gradient path records offsets
  /// while the arena is still growing and resolves pointers once per
  /// batch afterwards.
  std::size_t accumulate_offset(std::int32_t id) {
    const auto [it, inserted] = slots_.try_emplace(id, arena_.size());
    if (inserted) {
      arena_.resize(arena_.size() + width_, 0.0f);
      ids_dirty_ = true;
    }
    return it->second;
  }

  /// Existing row for `id`; throws if absent.
  std::span<const float> row(std::int32_t id) const {
    return row_at(offset_of(id));
  }
  std::span<float> row(std::int32_t id) { return row_at(offset_of(id)); }

  /// (id, arena offset) of a live row; see sorted_slots().
  struct SlotRef {
    std::int32_t id;
    std::size_t offset;
  };

  /// Rows in ascending id order with their arena offsets (cached;
  /// invalidated by new rows and erases). The blocked kernels iterate this
  /// instead of sorted_ids() + row(id), replacing one hash lookup per row
  /// with a direct arena access.
  const std::vector<SlotRef>& sorted_slots() const {
    refresh_caches();
    return sorted_slots_;
  }

  /// Row at an arena offset taken from sorted_slots(). Valid until the
  /// next accumulate() that grows the arena, or clear().
  std::span<const float> row_at(std::size_t offset) const {
    return {arena_.data() + offset, static_cast<std::size_t>(width_)};
  }
  std::span<float> row_at(std::size_t offset) {
    return {arena_.data() + offset, static_cast<std::size_t>(width_)};
  }

  /// Row ids in ascending order (cached; invalidated by new rows).
  const std::vector<std::int32_t>& sorted_ids() const {
    refresh_caches();
    return sorted_ids_;
  }

  /// Drop all rows but keep allocations for reuse across batches.
  void clear() {
    slots_.clear();
    arena_.clear();
    sorted_ids_.clear();
    sorted_slots_.clear();
    ids_dirty_ = false;
  }

  /// Remove a row (used by the random-selection strategy when a gradient
  /// vector is dropped from communication).
  void erase(std::int32_t id) {
    const auto it = slots_.find(id);
    if (it == slots_.end()) return;
    // The arena slot is abandoned, not compacted; clear() reclaims it. The
    // row count and iteration exclude it immediately.
    slots_.erase(it);
    ids_dirty_ = true;
  }

 private:
  std::size_t offset_of(std::int32_t id) const {
    const auto it = slots_.find(id);
    if (it == slots_.end()) {
      throw std::out_of_range("SparseGrad: row absent");
    }
    return it->second;
  }

  void refresh_caches() const {
    if (!ids_dirty_) return;
    sorted_slots_.clear();
    sorted_slots_.reserve(slots_.size());
    for (const auto& [id, offset] : slots_) {
      sorted_slots_.push_back({id, offset});
    }
    std::sort(sorted_slots_.begin(), sorted_slots_.end(),
              [](const SlotRef& a, const SlotRef& b) { return a.id < b.id; });
    sorted_ids_.clear();
    sorted_ids_.reserve(sorted_slots_.size());
    for (const SlotRef& slot : sorted_slots_) sorted_ids_.push_back(slot.id);
    ids_dirty_ = false;
  }

  std::int32_t width_ = 0;
  std::unordered_map<std::int32_t, std::size_t> slots_;
  std::vector<float> arena_;
  mutable std::vector<std::int32_t> sorted_ids_;
  mutable std::vector<SlotRef> sorted_slots_;
  mutable bool ids_dirty_ = false;
};

}  // namespace dynkge::kge
