// Training-kernel regression bench: the scalar reference forms of the
// training step (tests/support) vs the production kernels, on the
// FB250K stand-in.
//
// Two configurations bracket the hot path:
//   baseline  — 1 negative per positive (paper's FB250K baseline):
//               gradient accumulation + Adam dominate.
//   combined  — SS 1:5 negatives (the sample selection of the paper's
//               best stack): hard-negative candidate scoring dominates,
//               which is the forward path the blocked kernels batch.
//
// For each configuration, one pass over the training triples in batches
// (negatives drawn per batch, then forward/backward, then Adam on every
// touched row) runs twice from the same model and RNG seed: once with the
// scalar reference (per-positive select_hard_negatives, one score() and
// accumulate_gradients() call per example, per-row scalar Adam) and once
// with the production forms (select_hard_negatives_block,
// kge::accumulate_batch, RowAdam::update_rows). Trials alternate which
// pass runs first; the row reports the median thread-CPU seconds of each,
// their median same-run ratio, and whether every trial's two models ended
// byte-identical. The configuration's blocked_throughput comes from a real
// DistributedTrainer run at 8 simulated ranks: positives retired per
// compute-CPU second — CPU time, not wall time, so the number means the
// same thing on a loaded CI runner and a quiet laptop.
//
// A third row times the per-triple plain-SGD step of the federated and
// Hogwild trainers the same way: one pass over the training triples (each
// followed by its uniform corruptions, as a federated client trains) with
// the reference hash-map step and one with kge::SgdStep.
//
// --bench-json <file> writes the machine-readable results consumed by
// tools/check_bench.py (the CI gate against BENCH_train.baseline.json).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/hard_negatives.hpp"
#include "harness/harness.hpp"
#include "kge/adam.hpp"
#include "kge/batch_pass.hpp"
#include "kge/model_factory.hpp"
#include "kge/negative_sampler.hpp"
#include "kge/sgd_step.hpp"
#include "support/reference.hpp"
#include "util/argparse.hpp"
#include "util/json_writer.hpp"
#include "util/thread_clock.hpp"

using namespace dynkge;

namespace {

constexpr int kTrials = 5;

bool models_identical(const kge::KgeModel& a, const kge::KgeModel& b) {
  const auto ea = a.entities().flat();
  const auto eb = b.entities().flat();
  const auto ra = a.relations().flat();
  const auto rb = b.relations().flat();
  return ea.size() == eb.size() && ra.size() == rb.size() &&
         std::memcmp(ea.data(), eb.data(), ea.size_bytes()) == 0 &&
         std::memcmp(ra.data(), rb.data(), ra.size_bytes()) == 0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// A reference pass against a production pass, over kTrials alternating
/// trials.
struct Comparison {
  double reference_cpu_seconds = 0.0;  ///< median over trials
  double candidate_cpu_seconds = 0.0;  ///< median over trials
  double speedup = 0.0;                ///< median per-trial ratio
  bool byte_identical = true;
};

/// Each pass trains a fresh clone of `initial` and returns the thread-CPU
/// seconds of its timed part.
template <typename ReferencePass, typename CandidatePass>
Comparison compare(const kge::KgeModel& initial, ReferencePass reference_pass,
                   CandidatePass candidate_pass) {
  Comparison row;
  std::vector<double> reference_seconds, candidate_seconds, ratios;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto reference = kge::clone_model(initial);
    auto candidate = kge::clone_model(initial);
    double reference_cpu = 0.0;
    double candidate_cpu = 0.0;
    if (trial % 2 == 0) {
      reference_cpu = reference_pass(*reference);
      candidate_cpu = candidate_pass(*candidate);
    } else {
      candidate_cpu = candidate_pass(*candidate);
      reference_cpu = reference_pass(*reference);
    }
    row.byte_identical =
        row.byte_identical && models_identical(*reference, *candidate);
    reference_seconds.push_back(reference_cpu);
    candidate_seconds.push_back(candidate_cpu);
    ratios.push_back(candidate_cpu > 0.0 ? reference_cpu / candidate_cpu
                                         : 0.0);
  }
  row.reference_cpu_seconds = median(reference_seconds);
  row.candidate_cpu_seconds = median(candidate_seconds);
  row.speedup = median(ratios);
  return row;
}

std::unique_ptr<kge::KgeModel> initial_model(
    const kge::Dataset& dataset, const bench::HarnessOptions& options,
    util::Rng& rng) {
  auto model = kge::make_model(options.model, dataset.num_entities(),
                               dataset.num_relations(), options.rank);
  model->set_init_scale(0.1f);
  model->init(rng);
  return model;
}

/// One epoch of the training step over `dataset.train()` in batches of
/// config.batch_size, scalar reference vs production kernels.
Comparison run_pass_row(const kge::Dataset& dataset,
                        const bench::HarnessOptions& options,
                        const core::TrainConfig& config) {
  constexpr double kCoeffFloor = 1e-7;  // the trainer's underflow floor
  const kge::NegativeSampler sampler(dataset);
  const auto positives = dataset.train();
  const std::size_t batch = config.batch_size;
  const int sampled = config.strategy.negatives_sampled;
  const int used = config.strategy.negatives_used;
  kge::AdamConfig adam;
  adam.learning_rate = config.lr.base_lr;
  adam.weight_decay = config.weight_decay;
  util::Rng init_rng(options.seed);
  const auto initial = initial_model(dataset, options, init_rng);

  // Both passes walk the same batches with the same negative-draw stream.
  const auto batch_scale = [&](std::size_t size) {
    return 1.0f /
           static_cast<float>(size * (1 + static_cast<std::size_t>(used)));
  };
  const auto reference_pass = [&](kge::KgeModel& model) {
    util::Rng rng(options.seed + 1);
    reference::RowAdam entity_opt(model.num_entities(),
                                  model.entities().width(), adam);
    reference::RowAdam relation_opt(model.num_relations(),
                                    model.relations().width(), adam);
    kge::ModelGrads grads = model.make_grads();
    kge::TripleList negatives;
    std::vector<std::size_t> offsets;
    const double start = util::thread_cpu_seconds();
    for (std::size_t begin = 0; begin < positives.size(); begin += batch) {
      const auto step = positives.subspan(
          begin, std::min(batch, positives.size() - begin));
      negatives.clear();
      offsets.assign(1, 0);
      for (const kge::Triple& positive : step) {
        reference::select_hard_negatives(model, sampler, positive, sampled,
                                         used, rng, negatives);
        offsets.push_back(negatives.size());
      }
      grads.clear();
      reference::accumulate_batch(model, step, negatives, offsets,
                                  batch_scale(step.size()), kCoeffFloor,
                                  grads);
      entity_opt.begin_step();
      relation_opt.begin_step();
      for (const std::int32_t id : grads.entity.sorted_ids()) {
        entity_opt.update_row(id, grads.entity.row(id), model.entities());
      }
      for (const std::int32_t id : grads.relation.sorted_ids()) {
        relation_opt.update_row(id, grads.relation.row(id),
                                model.relations());
      }
    }
    return util::thread_cpu_seconds() - start;
  };
  const auto production_pass = [&](kge::KgeModel& model) {
    util::Rng rng(options.seed + 1);
    kge::RowAdam entity_opt(model.num_entities(), model.entities().width(),
                            adam);
    kge::RowAdam relation_opt(model.num_relations(),
                              model.relations().width(), adam);
    kge::ModelGrads grads = model.make_grads();
    kge::TripleList negatives;
    std::vector<std::size_t> offsets;
    core::HardNegativeScratch hn_scratch;
    kge::BatchScratch batch_scratch;
    const double start = util::thread_cpu_seconds();
    for (std::size_t begin = 0; begin < positives.size(); begin += batch) {
      const auto step = positives.subspan(
          begin, std::min(batch, positives.size() - begin));
      negatives.clear();
      offsets.assign(1, 0);
      core::select_hard_negatives_block(model, sampler, step, sampled, used,
                                        rng, negatives, offsets,
                                        hn_scratch);
      grads.clear();
      kge::accumulate_batch(model, step, negatives, offsets,
                            batch_scale(step.size()), kCoeffFloor, grads,
                            batch_scratch);
      entity_opt.begin_step();
      relation_opt.begin_step();
      entity_opt.update_rows(grads.entity, model.entities());
      relation_opt.update_rows(grads.relation, model.relations());
    }
    return util::thread_cpu_seconds() - start;
  };
  return compare(*initial, reference_pass, production_pass);
}

/// The per-triple plain-SGD step: reference hash-map step vs SgdStep.
Comparison run_step_row(const kge::Dataset& dataset,
                        const bench::HarnessOptions& options,
                        std::size_t& steps) {
  constexpr float kLearningRate = 0.05f;
  constexpr float kDecay = 1e-6f;

  // One example stream for every pass: each positive, then its
  // corruptions, labels +1 / -1.
  const kge::NegativeSampler sampler(dataset);
  util::Rng rng(options.seed);
  std::vector<std::pair<kge::Triple, int>> examples;
  for (const kge::Triple& positive : dataset.train()) {
    examples.emplace_back(positive, +1);
    for (int n = 0; n < options.baseline_negatives; ++n) {
      examples.emplace_back(sampler.corrupt(positive, rng), -1);
    }
  }
  steps = examples.size();
  const auto initial = initial_model(dataset, options, rng);
  return compare(
      *initial,
      [&](kge::KgeModel& model) {
        kge::ModelGrads grads = model.make_grads();
        const double start = util::thread_cpu_seconds();
        for (const auto& [triple, label] : examples) {
          reference::sgd_step(model, grads, triple, label, kLearningRate,
                              kDecay);
        }
        return util::thread_cpu_seconds() - start;
      },
      [&](kge::KgeModel& model) {
        kge::SgdStep step(model, kDecay);
        const double start = util::thread_cpu_seconds();
        for (const auto& [triple, label] : examples) {
          step(triple, label, kLearningRate);
        }
        return util::thread_cpu_seconds() - start;
      });
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::parse_options(argc, argv, "fb250k", {8});
  const util::ArgParser extra(argc, argv);
  const std::string bench_json = extra.get_string("bench-json", "");
  // Fixed short runs: throughput needs identical work per path, not
  // convergence. Overridable the usual way (--max-epochs / --rank).
  if (!extra.has_flag("max-epochs")) options.max_epochs = 4;
  if (!extra.has_flag("rank")) options.rank = 32;
  // Default to the acceptance regime: fb250k_mini at 8 simulated ranks.
  if (!extra.has_flag("scale")) options.scale = "mini";

  const kge::Dataset dataset = bench::make_dataset(options);
  bench::print_banner(
      "Training kernels: scalar reference vs blocked (batched) hot path",
      "blocked kernels change throughput only — models are byte-identical "
      "to the scalar reference step",
      options, dataset);

  const int ranks = static_cast<int>(options.nodes.back());
  struct Config {
    const char* name;
    core::StrategyConfig strategy;
  };
  const Config configs[] = {
      {"baseline",
       core::StrategyConfig::baseline_allreduce(options.baseline_negatives)},
      {"combined",
       core::StrategyConfig::drs_1bit_rp_ss(options.ss_sampled,
                                            options.ss_used)},
  };

  util::Table table({"config", "path", "epochs", "compute_cpu_s",
                     "positives_per_cpu_s", "speedup", "byte_identical"});
  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("train");
  json.key("dataset").value(options.dataset + "/" + options.scale);
  json.key("nodes").value(static_cast<std::int64_t>(ranks));
  json.key("rank").value(static_cast<std::int64_t>(options.rank));

  bool all_identical = true;
  // Two table rows and the JSON fields of one comparison; `work` is the
  // positives (or steps) one pass retires.
  const auto report = [&](const char* name, const char* reference,
                          const char* candidate, const Comparison& row,
                          double work) {
    all_identical = all_identical && row.byte_identical;
    const char* identical = row.byte_identical ? "yes" : "NO";
    table.begin_row()
        .add(name)
        .add(reference)
        .add(std::int64_t{1})
        .add(row.reference_cpu_seconds, 3)
        .add(work / row.reference_cpu_seconds, 0)
        .add(1.0, 2)
        .add(identical);
    table.begin_row()
        .add(name)
        .add(candidate)
        .add(std::int64_t{1})
        .add(row.candidate_cpu_seconds, 3)
        .add(work / row.candidate_cpu_seconds, 0)
        .add(row.speedup, 2)
        .add(identical);
    json.key("reference_cpu_seconds").value(row.reference_cpu_seconds);
    json.key("speedup").value(row.speedup);
    json.key("byte_identical").value(row.byte_identical);
  };

  const auto positives = static_cast<double>(dataset.train().size());
  for (const Config& config : configs) {
    core::TrainConfig train = bench::make_config(options, ranks);
    train.strategy = config.strategy;
    train.max_epochs = options.max_epochs;
    // Plateau stops would let runs retire different epoch counts on
    // measurement noise; pin the work instead.
    train.lr.tolerance = options.max_epochs + 1;
    train.compute_final_metrics = false;
    train.valid_max_triples = 50;

    json.key(config.name).begin_object();
    const Comparison pass = run_pass_row(dataset, options, train);
    report(config.name, "reference", "blocked", pass, positives);
    json.key("blocked_pass_cpu_seconds").value(pass.candidate_cpu_seconds);

    const core::TrainReport trained = bench::run_experiment(dataset, train);
    const double throughput =
        trained.compute_cpu_seconds > 0.0
            ? positives * trained.epochs / trained.compute_cpu_seconds
            : 0.0;
    table.begin_row()
        .add(config.name)
        .add("trainer")
        .add(static_cast<std::int64_t>(trained.epochs))
        .add(trained.compute_cpu_seconds, 3)
        .add(throughput, 0)
        .add("-")
        .add("-");
    json.key("blocked_cpu_seconds").value(trained.compute_cpu_seconds);
    json.key("blocked_throughput").value(throughput);
    json.key("epochs").value(static_cast<std::int64_t>(trained.epochs));
    json.end_object();
  }

  std::size_t steps = 0;
  const Comparison step = run_step_row(dataset, options, steps);
  json.key("sgd_step").begin_object();
  report("sgd_step", "hash-map", "SgdStep", step,
         static_cast<double>(steps));
  json.key("step_cpu_seconds").value(step.candidate_cpu_seconds);
  json.key("steps").value(static_cast<std::int64_t>(steps));
  json.end_object();

  json.key("byte_identical").value(all_identical);
  json.end_object();

  bench::emit(table,
              "Scalar reference vs blocked training step, per-triple SGD "
              "step",
              options.csv);

  if (!bench_json.empty()) {
    std::ofstream out(bench_json);
    out << json.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "[bench] failed to write %s\n",
                   bench_json.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s\n", bench_json.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "[bench] FAIL: the blocked pass or SgdStep diverged from "
                 "its reference\n");
    return 1;
  }
  return 0;
}
