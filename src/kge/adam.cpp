#include "kge/adam.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace dynkge::kge {

RowAdam::RowAdam(std::int32_t rows, std::int32_t width, AdamConfig config)
    : config_(config), m_(rows, width), v_(rows, width) {}

void RowAdam::begin_step() {
  ++step_;
  bias1_ = 1.0 - std::pow(config_.beta1, static_cast<double>(step_));
  bias2_ = 1.0 - std::pow(config_.beta2, static_cast<double>(step_));
}

void RowAdam::restore(std::int64_t step, EmbeddingMatrix m,
                      EmbeddingMatrix v) {
  if (step < 0) {
    throw std::invalid_argument("RowAdam::restore: negative step");
  }
  if (m.rows() != m_.rows() || m.width() != m_.width() ||
      v.rows() != v_.rows() || v.width() != v_.width()) {
    throw std::invalid_argument(
        "RowAdam::restore: moment shape mismatch (optimizer is " +
        std::to_string(m_.rows()) + "x" + std::to_string(m_.width()) +
        ", checkpoint has " + std::to_string(m.rows()) + "x" +
        std::to_string(m.width()) + ")");
  }
  step_ = step;
  bias1_ = 1.0 - std::pow(config_.beta1, static_cast<double>(step_));
  bias2_ = 1.0 - std::pow(config_.beta2, static_cast<double>(step_));
  m_ = std::move(m);
  v_ = std::move(v);
}

void RowAdam::update_row(std::int32_t row, std::span<const float> grad,
                         EmbeddingMatrix& params) {
  update_row(row, grad, params.row(row));
}

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
  const auto b1 = static_cast<float>(config_.beta1);
  const auto b2 = static_cast<float>(config_.beta2);
  const auto wd = static_cast<float>(config_.weight_decay);
  const double lr = config_.learning_rate;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const float g = grad[i] + wd * p[i];
    m[i] = b1 * m[i] + (1.0f - b1) * g;
    v[i] = b2 * v[i] + (1.0f - b2) * g * g;
    const double m_hat = m[i] / bias1_;
    const double v_hat = v[i] / bias2_;
    p[i] -= static_cast<float>(lr * m_hat /
                               (std::sqrt(v_hat) + config_.epsilon));
  }
}

}  // namespace dynkge::kge
