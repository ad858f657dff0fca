// Blocked training kernels for the four built-in KGE models.
//
// This translation unit is compiled with -fno-math-errno (value-safe: IEEE
// results are unchanged, only the errno side effect of libm calls is
// dropped), which is what lets GCC vectorize loops containing std::sqrt.
// The scalar reference path in *_model.cpp keeps the default flags so the
// kernel benchmark compares against genuinely pre-overhaul codegen.
//
// Determinism contract (DESIGN.md "Blocked training kernels"):
//
//  * Scoring: one independent double accumulation chain per triple, each
//    chain's per-element expression copied verbatim from score(). The
//    4-wide forms interleave four chains for instruction-level
//    parallelism; interleaving independent chains does not reassociate
//    any of them, so every score is bit-identical to the scalar path.
//
//  * Gradients: work items are processed strictly in order. For h != t
//    the three gradient rows are distinct memory, so each element is
//    accumulated exactly once per item and the __restrict kernels below
//    are free to vectorize; the arithmetic per element is copied verbatim
//    from accumulate_gradients. For h == t (gh aliases gt) the scalar
//    statement interleaving is load-bearing, so those items fall back to
//    the virtual scalar path.
//
//  * RotatE: cos/sin of the relation phases are computed once per unique
//    relation per block (same input -> same libm value, so caching is
//    byte-safe) instead of once per triple, into per-thread scratch that
//    is reused across blocks.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "kge/complex_model.hpp"
#include "kge/kernel_dispatch.hpp"
#include "kge/distmult_model.hpp"
#include "kge/rotate_model.hpp"
#include "kge/transe_model.hpp"
#include "util/span_math.hpp"

namespace dynkge::kge {
namespace {

// ---- ComplEx ---------------------------------------------------------

DYNKGE_KERNEL_CLONES
void complex_score4(const float* const eh[4], const float* const er[4],
                    const float* const et[4], std::int32_t k,
                    double out[4]) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (std::int32_t i = 0; i < k; ++i) {
    {
      const double h_re = eh[0][i], h_im = eh[0][k + i];
      const double r_re = er[0][i], r_im = er[0][k + i];
      const double t_re = et[0][i], t_im = et[0][k + i];
      acc0 += h_re * r_re * t_re + h_im * r_re * t_im + h_re * r_im * t_im -
              h_im * r_im * t_re;
    }
    {
      const double h_re = eh[1][i], h_im = eh[1][k + i];
      const double r_re = er[1][i], r_im = er[1][k + i];
      const double t_re = et[1][i], t_im = et[1][k + i];
      acc1 += h_re * r_re * t_re + h_im * r_re * t_im + h_re * r_im * t_im -
              h_im * r_im * t_re;
    }
    {
      const double h_re = eh[2][i], h_im = eh[2][k + i];
      const double r_re = er[2][i], r_im = er[2][k + i];
      const double t_re = et[2][i], t_im = et[2][k + i];
      acc2 += h_re * r_re * t_re + h_im * r_re * t_im + h_re * r_im * t_im -
              h_im * r_im * t_re;
    }
    {
      const double h_re = eh[3][i], h_im = eh[3][k + i];
      const double r_re = er[3][i], r_im = er[3][k + i];
      const double t_re = et[3][i], t_im = et[3][k + i];
      acc3 += h_re * r_re * t_re + h_im * r_re * t_im + h_re * r_im * t_im -
              h_im * r_im * t_re;
    }
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

DYNKGE_KERNEL_CLONES
void complex_grad(const float* __restrict eh, const float* __restrict er,
                  const float* __restrict et, float* __restrict gh,
                  float* __restrict gr, float* __restrict gt, float c,
                  std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    const float h_re = eh[i], h_im = eh[k + i];
    const float r_re = er[i], r_im = er[k + i];
    const float t_re = et[i], t_im = et[k + i];
    gh[i] += c * (r_re * t_re + r_im * t_im);
    gh[k + i] += c * (r_re * t_im - r_im * t_re);
    gr[i] += c * (h_re * t_re + h_im * t_im);
    gr[k + i] += c * (h_re * t_im - h_im * t_re);
    gt[i] += c * (h_re * r_re - h_im * r_im);
    gt[k + i] += c * (h_im * r_re + h_re * r_im);
  }
}

// ---- TransE ----------------------------------------------------------

/// util::l1_translation4 compiled under the kernel dispatch (inlining into
/// a cloned body specializes the header inline per ISA).
DYNKGE_KERNEL_CLONES
void transe_l1_4(const float* const eh[4], const float* const er[4],
                 const float* const et[4], std::int32_t k, double out[4]) {
  util::l1_translation4(eh, er, et, k, out);
}

DYNKGE_KERNEL_CLONES
void transe_grad(const float* __restrict eh, const float* __restrict er,
                 const float* __restrict et, float* __restrict gh,
                 float* __restrict gr, float* __restrict gt, float coeff,
                 std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    const float d = eh[i] + er[i] - et[i];
    const float s = d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f);
    gh[i] += coeff * -s;
    gr[i] += coeff * -s;
    gt[i] += coeff * s;
  }
}

// ---- DistMult --------------------------------------------------------

/// util::trilinear_dot4 compiled under the kernel dispatch.
DYNKGE_KERNEL_CLONES
void distmult_score4(const float* const eh[4], const float* const er[4],
                     const float* const et[4], std::int32_t k,
                     double out[4]) {
  util::trilinear_dot4(eh, er, et, k, out);
}

DYNKGE_KERNEL_CLONES
void distmult_grad(const float* __restrict eh, const float* __restrict er,
                   const float* __restrict et, float* __restrict gh,
                   float* __restrict gr, float* __restrict gt, float coeff,
                   std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    gh[i] += coeff * er[i] * et[i];
    gr[i] += coeff * eh[i] * et[i];
    gt[i] += coeff * eh[i] * er[i];
  }
}

// ---- RotatE ----------------------------------------------------------

/// cos/sin of each relation's phase row, computed once per unique relation
/// per block. Doubles, matching the scalar path's
/// `const double c = std::cos(phases[i])` exactly. One cache per thread,
/// reused across calls: a per-relation slot index stamped with the call's
/// generation stands in for a per-call hash map, so a steady-state call
/// allocates nothing.
class RotatePhaseCache {
 public:
  /// The calling thread's cache, emptied for a block of `block_size`
  /// items. Room for every relation the block can name is reserved up
  /// front, so get() pointers stay stable for the call.
  static RotatePhaseCache& begin(std::int32_t k, std::int32_t num_relations,
                                 std::size_t block_size) {
    thread_local RotatePhaseCache cache;
    const auto relations = static_cast<std::size_t>(num_relations);
    cache.k_ = k;
    ++cache.generation_;
    if (cache.slots_.size() < relations) cache.slots_.resize(relations);
    cache.data_.clear();
    cache.data_.reserve(2 * static_cast<std::size_t>(k) *
                        std::min(block_size, relations));
    return cache;
  }

  /// [cos_0..cos_{k-1}, sin_0..sin_{k-1}] for relation r.
  const double* get(RelationId r, std::span<const float> phases) {
    auto& [generation, offset] = slots_[static_cast<std::size_t>(r)];
    if (generation != generation_) {
      generation = generation_;
      offset = data_.size();
      data_.resize(offset + 2 * static_cast<std::size_t>(k_));
      for (std::int32_t i = 0; i < k_; ++i) {
        data_[offset + i] = std::cos(phases[i]);
        data_[offset + k_ + i] = std::sin(phases[i]);
      }
    }
    return data_.data() + offset;
  }

 private:
  std::int32_t k_ = 0;
  std::uint64_t generation_ = 0;
  /// (generation that filled it, offset into data_), by relation id.
  std::vector<std::pair<std::uint64_t, std::size_t>> slots_;
  std::vector<double> data_;
};

DYNKGE_KERNEL_CLONES
double rotate_distance(const float* eh, const float* et, const double* cs,
                       std::int32_t k) {
  double distance = 0.0;
  for (std::int32_t i = 0; i < k; ++i) {
    const double c = cs[i];
    const double s = cs[k + i];
    const double d_re = eh[i] * c - eh[k + i] * s - et[i];
    const double d_im = eh[i] * s + eh[k + i] * c - et[k + i];
    distance += std::sqrt(d_re * d_re + d_im * d_im + RotatEModel::kEpsilon);
  }
  return distance;
}

DYNKGE_KERNEL_CLONES
void rotate_grad(const float* __restrict eh, const float* __restrict et,
                 const double* __restrict cs, float* __restrict gh,
                 float* __restrict gr, float* __restrict gt, float coeff,
                 std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    const double c = cs[i];
    const double s = cs[k + i];
    const double h_re = eh[i], h_im = eh[k + i];
    const double d_re = h_re * c - h_im * s - et[i];
    const double d_im = h_re * s + h_im * c - et[k + i];
    const double m =
        std::sqrt(d_re * d_re + d_im * d_im + RotatEModel::kEpsilon);
    const double gd_re = -d_re / m * coeff;
    const double gd_im = -d_im / m * coeff;

    gh[i] += static_cast<float>(gd_re * c + gd_im * s);
    gh[k + i] += static_cast<float>(-gd_re * s + gd_im * c);
    gt[i] += static_cast<float>(-gd_re);
    gt[k + i] += static_cast<float>(-gd_im);
    gr[i] += static_cast<float>(gd_re * (-h_re * s - h_im * c) +
                                gd_im * (h_re * c - h_im * s));
  }
}

/// The 4-wide scoring loop shared by ComplEx, DistMult and TransE:
/// score4(eh, er, et, out) scores four consecutive triples from their
/// gathered rows; a remainder of < 4 triples goes through score().
template <typename Score4>
void score_block4(const KgeModel& model, std::span<const Triple> triples,
                  std::span<double> out, Score4 score4) {
  const EmbeddingMatrix& entities = model.entities();
  const EmbeddingMatrix& relations = model.relations();
  std::size_t j = 0;
  for (; j + 4 <= triples.size(); j += 4) {
    const float* eh[4];
    const float* er[4];
    const float* et[4];
    for (int q = 0; q < 4; ++q) {
      eh[q] = entities.row(triples[j + q].head).data();
      er[q] = relations.row(triples[j + q].relation).data();
      et[q] = entities.row(triples[j + q].tail).data();
    }
    score4(eh, er, et, out.data() + j);
  }
  for (; j < triples.size(); ++j) {
    out[j] = model.score(triples[j].head, triples[j].relation, triples[j].tail);
  }
}

/// The gradient-block loop of every model: grad(w) runs the __restrict
/// kernel for h != t; aliased rows (h == t) take the scalar path.
template <typename Grad>
void grad_block(const KgeModel& model, std::span<const GradWork> work,
                ModelGrads& grads, Grad grad) {
  for (const GradWork& w : work) {
    if (w.h == w.t) {
      model.accumulate_gradients(w.h, w.r, w.t, w.coeff, grads);
    } else {
      grad(w);
    }
  }
}

}  // namespace

// ---- ComplEx ---------------------------------------------------------

void ComplExModel::score_triples_block(std::span<const Triple> triples,
                                       std::span<double> out) const {
  score_block4(*this, triples, out, [&](auto eh, auto er, auto et, double* o) {
    complex_score4(eh, er, et, rank_, o);
  });
}

void ComplExModel::accumulate_gradients_block(std::span<const GradWork> work,
                                              ModelGrads& grads) const {
  grad_block(*this, work, grads, [&](const GradWork& w) {
    complex_grad(entities_.row(w.h).data(), relations_.row(w.r).data(),
                 entities_.row(w.t).data(), w.gh, w.gr, w.gt, w.coeff, rank_);
  });
}

// ---- DistMult --------------------------------------------------------

void DistMultModel::score_triples_block(std::span<const Triple> triples,
                                        std::span<double> out) const {
  score_block4(*this, triples, out, [&](auto eh, auto er, auto et, double* o) {
    distmult_score4(eh, er, et, rank_, o);
  });
}

void DistMultModel::accumulate_gradients_block(std::span<const GradWork> work,
                                               ModelGrads& grads) const {
  grad_block(*this, work, grads, [&](const GradWork& w) {
    distmult_grad(entities_.row(w.h).data(), relations_.row(w.r).data(),
                  entities_.row(w.t).data(), w.gh, w.gr, w.gt, w.coeff,
                  rank_);
  });
}

// ---- TransE ----------------------------------------------------------

void TransEModel::score_triples_block(std::span<const Triple> triples,
                                      std::span<double> out) const {
  score_block4(*this, triples, out, [&](auto eh, auto er, auto et, double* o) {
    double l1[4];
    transe_l1_4(eh, er, et, rank_, l1);
    for (int q = 0; q < 4; ++q) o[q] = gamma_ - l1[q];
  });
}

void TransEModel::accumulate_gradients_block(std::span<const GradWork> work,
                                             ModelGrads& grads) const {
  grad_block(*this, work, grads, [&](const GradWork& w) {
    transe_grad(entities_.row(w.h).data(), relations_.row(w.r).data(),
                entities_.row(w.t).data(), w.gh, w.gr, w.gt, w.coeff, rank_);
  });
}

// ---- RotatE ----------------------------------------------------------

void RotatEModel::score_triples_block(std::span<const Triple> triples,
                                      std::span<double> out) const {
  const std::int32_t k = rank_;
  RotatePhaseCache& cache =
      RotatePhaseCache::begin(k, num_relations(), triples.size());
  // The distance chains carry a sqrt each, so the win here is the phase
  // cache plus 4 independent chains hiding the sqrt latency.
  std::size_t j = 0;
  for (; j + 4 <= triples.size(); j += 4) {
    const float* eh[4];
    const float* et[4];
    const double* cs[4];
    for (int q = 0; q < 4; ++q) {
      const Triple& triple = triples[j + q];
      eh[q] = entities_.row(triple.head).data();
      et[q] = entities_.row(triple.tail).data();
      cs[q] = cache.get(triple.relation, relations_.row(triple.relation));
    }
    for (int q = 0; q < 4; ++q) {
      out[j + q] = gamma_ - rotate_distance(eh[q], et[q], cs[q], k);
    }
  }
  for (; j < triples.size(); ++j) {
    const Triple& triple = triples[j];
    const double* cs =
        cache.get(triple.relation, relations_.row(triple.relation));
    out[j] = gamma_ - rotate_distance(entities_.row(triple.head).data(),
                                      entities_.row(triple.tail).data(), cs,
                                      k);
  }
}

void RotatEModel::accumulate_gradients_block(std::span<const GradWork> work,
                                             ModelGrads& grads) const {
  RotatePhaseCache& cache =
      RotatePhaseCache::begin(rank_, num_relations(), work.size());
  // The h == t fallback recomputes cos/sin; same inputs, same values.
  grad_block(*this, work, grads, [&](const GradWork& w) {
    rotate_grad(entities_.row(w.h).data(), entities_.row(w.t).data(),
                cache.get(w.r, relations_.row(w.r)), w.gh, w.gr, w.gt,
                w.coeff, rank_);
  });
}

}  // namespace dynkge::kge
