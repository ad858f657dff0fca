// Training-kernel regression bench: scalar reference path vs the blocked
// kernels (batched scoring, GradWork gradient blocks, blocked Adam) on the
// FB250K stand-in at 8 simulated ranks.
//
// Two configurations bracket the hot path:
//   baseline  — all-reduce, 1 negative per positive (paper's FB250K
//               baseline): gradient accumulation + Adam dominate.
//   combined  — DRS + 1-bit + RP + SS 1:5 (the paper's best stack):
//               hard-negative candidate scoring dominates, which is the
//               forward path the blocked kernels batch.
//
// For each configuration both paths train the same job; the bench asserts
// the final models are byte-identical (the blocked path's core contract)
// and reports epoch throughput as positives retired per compute-CPU
// second — CPU time, not wall time, so the number means the same thing on
// a loaded CI runner and a quiet laptop.
//
// A third row times the per-triple plain-SGD step of the federated and
// Hogwild trainers: one pass over the training triples (each followed by
// its uniform corruptions, as a federated client trains) with a copy of
// the ModelGrads step those trainers used before kge::SgdStep, and one
// with SgdStep. Trials alternate which pass runs first; the row reports
// the median thread-CPU seconds of each, their same-run ratio, and
// whether every trial's two models ended byte-identical.
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

#include "harness/harness.hpp"
#include "kge/loss.hpp"
#include "kge/model_factory.hpp"
#include "kge/negative_sampler.hpp"
#include "kge/sgd_step.hpp"
#include "util/argparse.hpp"
#include "util/json_writer.hpp"
#include "util/thread_clock.hpp"

using namespace dynkge;

namespace {

struct PathResult {
  double compute_cpu_seconds = 0.0;
  double wall_seconds = 0.0;
  int epochs = 0;
  double throughput = 0.0;  ///< positives / compute-CPU-second
  core::TrainReport report;
};

PathResult run_path(const kge::Dataset& dataset, core::TrainConfig config,
                    bool block_kernels) {
  config.block_kernels = block_kernels;
  PathResult result;
  result.report = bench::run_experiment(dataset, std::move(config));
  result.compute_cpu_seconds = result.report.compute_cpu_seconds;
  result.wall_seconds = result.report.wall_seconds;
  result.epochs = result.report.epochs;
  const double positives =
      static_cast<double>(dataset.train().size()) * result.epochs;
  result.throughput = result.compute_cpu_seconds > 0.0
                          ? positives / result.compute_cpu_seconds
                          : 0.0;
  return result;
}

bool models_identical(const kge::KgeModel& a, const kge::KgeModel& b) {
  const auto ea = a.entities().flat();
  const auto eb = b.entities().flat();
  const auto ra = a.relations().flat();
  const auto rb = b.relations().flat();
  return ea.size() == eb.size() && ra.size() == rb.size() &&
         std::memcmp(ea.data(), eb.data(), ea.size_bytes()) == 0 &&
         std::memcmp(ra.data(), rb.data(), ra.size_bytes()) == 0;
}

/// The per-triple step of the federated and Hogwild trainers before
/// kge::SgdStep, verbatim: a hash-map ModelGrads cleared, filled and
/// walked in sorted id order on every step.
void reference_sgd_step(kge::KgeModel& model, kge::ModelGrads& grads,
                        const kge::Triple& triple, int label,
                        float learning_rate, float decay) {
  const auto lg = kge::logistic_loss(
      model.score(triple.head, triple.relation, triple.tail), label);
  grads.clear();
  model.accumulate_gradients(triple.head, triple.relation, triple.tail,
                             static_cast<float>(lg.dscore), grads);
  for (const auto& [grad, params] :
       {std::pair{&grads.entity, &model.entities()},
        std::pair{&grads.relation, &model.relations()}}) {
    for (const std::int32_t id : grad->sorted_ids()) {
      auto row = params->row(id);
      const auto g = grad->row(id);
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] -= learning_rate * (g[i] + decay * row[i]);
      }
    }
  }
}

struct StepRow {
  std::size_t steps = 0;
  double reference_cpu_seconds = 0.0;  ///< median over trials
  double step_cpu_seconds = 0.0;       ///< median over trials
  double speedup = 0.0;                ///< median per-trial ratio
  bool byte_identical = true;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

StepRow run_step_row(const kge::Dataset& dataset,
                     const bench::HarnessOptions& options) {
  constexpr int kTrials = 5;
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
  auto initial = kge::make_model(options.model, dataset.num_entities(),
                                 dataset.num_relations(), options.rank);
  initial->set_init_scale(0.1f);
  initial->init(rng);

  StepRow row;
  row.steps = examples.size();
  std::vector<double> reference_seconds, step_seconds, ratios;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto reference = kge::clone_model(*initial);
    auto stepped = kge::clone_model(*initial);
    double reference_cpu = 0.0;
    double step_cpu = 0.0;
    const auto reference_pass = [&] {
      kge::ModelGrads grads = reference->make_grads();
      const util::ThreadCpuTimer timer(reference_cpu);
      for (const auto& [triple, label] : examples) {
        reference_sgd_step(*reference, grads, triple, label, kLearningRate,
                           kDecay);
      }
    };
    const auto step_pass = [&] {
      kge::SgdStep step(*stepped, kDecay);
      const util::ThreadCpuTimer timer(step_cpu);
      for (const auto& [triple, label] : examples) {
        step(triple, label, kLearningRate);
      }
    };
    if (trial % 2 == 0) {
      reference_pass();
      step_pass();
    } else {
      step_pass();
      reference_pass();
    }
    row.byte_identical =
        row.byte_identical && models_identical(*reference, *stepped);
    reference_seconds.push_back(reference_cpu);
    step_seconds.push_back(step_cpu);
    ratios.push_back(step_cpu > 0.0 ? reference_cpu / step_cpu : 0.0);
  }
  row.reference_cpu_seconds = median(reference_seconds);
  row.step_cpu_seconds = median(step_seconds);
  row.speedup = median(ratios);
  return row;
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
      "blocked kernels change throughput only — final embeddings are "
      "byte-identical to the scalar path under every strategy",
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
  for (const Config& config : configs) {
    core::TrainConfig train = bench::make_config(options, ranks);
    train.strategy = config.strategy;
    train.max_epochs = options.max_epochs;
    // Plateau stops would let the two paths retire different epoch counts
    // on measurement noise; pin the work instead.
    train.lr.tolerance = options.max_epochs + 1;
    train.compute_final_metrics = false;
    train.valid_max_triples = 50;

    const PathResult scalar = run_path(dataset, train, false);
    const PathResult blocked = run_path(dataset, train, true);
    const bool identical =
        models_identical(*scalar.report.model, *blocked.report.model);
    all_identical = all_identical && identical;
    const double speedup = scalar.compute_cpu_seconds > 0.0
                               ? scalar.compute_cpu_seconds /
                                     blocked.compute_cpu_seconds
                               : 0.0;

    table.begin_row()
        .add(config.name)
        .add("scalar")
        .add(static_cast<std::int64_t>(scalar.epochs))
        .add(scalar.compute_cpu_seconds, 3)
        .add(scalar.throughput, 0)
        .add(1.0, 2)
        .add(identical ? "yes" : "NO");
    table.begin_row()
        .add(config.name)
        .add("blocked")
        .add(static_cast<std::int64_t>(blocked.epochs))
        .add(blocked.compute_cpu_seconds, 3)
        .add(blocked.throughput, 0)
        .add(speedup, 2)
        .add(identical ? "yes" : "NO");

    json.key(config.name).begin_object();
    json.key("scalar_cpu_seconds").value(scalar.compute_cpu_seconds);
    json.key("blocked_cpu_seconds").value(blocked.compute_cpu_seconds);
    json.key("scalar_throughput").value(scalar.throughput);
    json.key("blocked_throughput").value(blocked.throughput);
    json.key("speedup").value(speedup);
    json.key("epochs").value(static_cast<std::int64_t>(blocked.epochs));
    json.key("byte_identical").value(identical);
    json.end_object();
  }

  const StepRow step = run_step_row(dataset, options);
  all_identical = all_identical && step.byte_identical;
  const auto steps = static_cast<double>(step.steps);
  table.begin_row()
      .add("sgd_step")
      .add("hash-map")
      .add(std::int64_t{1})
      .add(step.reference_cpu_seconds, 3)
      .add(steps / step.reference_cpu_seconds, 0)
      .add(1.0, 2)
      .add(step.byte_identical ? "yes" : "NO");
  table.begin_row()
      .add("sgd_step")
      .add("SgdStep")
      .add(std::int64_t{1})
      .add(step.step_cpu_seconds, 3)
      .add(steps / step.step_cpu_seconds, 0)
      .add(step.speedup, 2)
      .add(step.byte_identical ? "yes" : "NO");
  json.key("sgd_step").begin_object();
  json.key("steps").value(static_cast<std::int64_t>(step.steps));
  json.key("reference_cpu_seconds").value(step.reference_cpu_seconds);
  json.key("step_cpu_seconds").value(step.step_cpu_seconds);
  json.key("speedup").value(step.speedup);
  json.key("byte_identical").value(step.byte_identical);
  json.end_object();

  json.key("byte_identical").value(all_identical);
  json.end_object();

  bench::emit(table, "Scalar vs blocked training kernels, per-triple SGD step",
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
                 "[bench] FAIL: blocked path or SgdStep diverged from its "
                 "reference\n");
    return 1;
  }
  return 0;
}
