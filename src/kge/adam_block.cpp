// The Adam element loop, and every entry point that applies it.
//
// This translation unit is compiled with -fno-math-errno (value-safe: only
// libm's errno side effect is dropped) so the per-element loop — which
// carries a double sqrt — vectorizes. It is the only Adam body in the
// library: the per-row form (update_row, for callers whose moments are
// indexed apart from the parameter matrix) and the blocked forms
// (update_rows*) all run adam_row.
//
// Determinism contract (DESIGN.md "Blocked training kernels"): the
// blocked forms visit rows in ascending id order — the order a caller
// walking sorted_ids() with update_row would — and every form runs the
// same per-element arithmetic, so parameters, moments, and their bytes
// are identical between them. The only differences are mechanical:
// sorted_slots() replaces one hash lookup per row with a direct arena
// access, and the step-state checks and config loads are hoisted out of
// the row loop. The pre-blocked scalar body is kept as a test reference
// (tests/support) that the kernel tests and bench compare against.

#include <cmath>
#include <stdexcept>

#include "kge/adam.hpp"
#include "kge/kernel_dispatch.hpp"

namespace dynkge::kge {
namespace {

DYNKGE_KERNEL_CLONES
void adam_row(const float* __restrict g, float* __restrict p,
              float* __restrict m, float* __restrict v, std::size_t n,
              float b1, float b2, float wd, double lr, double bias1,
              double bias2, double epsilon) {
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i] + wd * p[i];
    m[i] = b1 * m[i] + (1.0f - b1) * gi;
    v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
    const double m_hat = m[i] / bias1;
    const double v_hat = v[i] / bias2;
    p[i] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + epsilon));
  }
}

}  // namespace

void RowAdam::update_row(std::int32_t moment_row, std::span<const float> grad,
                         std::span<float> p) {
  if (step_ == 0) {
    throw std::logic_error("RowAdam::update_row before begin_step");
  }
  auto m = m_.row(moment_row);
  auto v = v_.row(moment_row);
  if (grad.size() != p.size() || p.size() != m.size()) {
    throw std::invalid_argument("RowAdam: gradient width mismatch");
  }
  adam_row(grad.data(), p.data(), m.data(), v.data(), p.size(),
           static_cast<float>(config_.beta1),
           static_cast<float>(config_.beta2),
           static_cast<float>(config_.weight_decay), config_.learning_rate,
           bias1_, bias2_, config_.epsilon);
}

void RowAdam::update_rows(const SparseGrad& grads, EmbeddingMatrix& params) {
  if (step_ == 0) {
    throw std::logic_error("RowAdam::update_rows before begin_step");
  }
  if (grads.width() != params.width()) {
    throw std::invalid_argument("RowAdam: gradient width mismatch");
  }
  const auto n = static_cast<std::size_t>(params.width());
  const auto b1 = static_cast<float>(config_.beta1);
  const auto b2 = static_cast<float>(config_.beta2);
  const auto wd = static_cast<float>(config_.weight_decay);
  const double lr = config_.learning_rate;
  for (const SparseGrad::SlotRef& slot : grads.sorted_slots()) {
    adam_row(grads.row_at(slot.offset).data(), params.row(slot.id).data(),
             m_.row(slot.id).data(), v_.row(slot.id).data(), n, b1, b2, wd,
             lr, bias1_, bias2_, config_.epsilon);
  }
}

void RowAdam::update_rows_scaled(SparseGrad& grads, float scale,
                                 EmbeddingMatrix& params) {
  if (step_ == 0) {
    throw std::logic_error("RowAdam::update_rows_scaled before begin_step");
  }
  // Scale in place first — the same two-statement shape as the scalar
  // relation-partition path (scale loop, then update), so the float
  // rounding sequence is identical.
  for (const SparseGrad::SlotRef& slot : grads.sorted_slots()) {
    for (float& x : grads.row_at(slot.offset)) x *= scale;
  }
  update_rows(grads, params);
}

}  // namespace dynkge::kge
