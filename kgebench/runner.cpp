// kgebench_run — runs one benchmark workload against the dynkge libraries.
//
//   kgebench_run --workload W --inputs DIR --work DIR --seed N
//                --seconds S --trace 0|1
//
// Workloads:
//   train-dense      DistributedTrainer, 4 ranks, dense all-reduce baseline,
//                    a checkpoint every epoch, wire checksums on
//   train-sparse     DistributedTrainer, 4 ranks, RS + 1-bit + RP + SS 1-of-8
//                    over all-gather; no checkpoints, no checksums
//   train-federated  FederatedTrainer, 4 clients, Top-K deltas over the
//                    parameter-server exchange
//   serve-churn      InferenceService from a checkpoint: one closed-loop
//                    reader of top-10 batches and one open-loop delta writer
//
// After an untimed warm-up job, the training workloads repeat a fixed job
// (fixed epochs, plateau stop off), cycling through 5 or 10 training
// seeds, until the jobs have taken --seconds; the serving workload runs
// its two loops for --seconds. With
// --trace 1 the run alternates untraced and traced units,
// attaches obs::TelemetrySinks to the traced ones, records the benchmark's
// own calls into each module as spans on a separate track, and writes the
// trace to WORK/trace.json when it ends.
//
// The last line of stdout is one JSON object: the correctness verdict,
// ops attempted/failed, the final-model fingerprints and raw metric values
// (run.py turns them into the reported metrics).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/fault.hpp"
#include "core/federated.hpp"
#include "core/strategy_config.hpp"
#include "core/trainer.hpp"
#include "kge/evaluator.hpp"
#include "kge/tsv_loader.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "stream/delta.hpp"
#include "stream/delta_ingestor.hpp"
#include "util/json_writer.hpp"
#include "util/thread_clock.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dynkge;

// ---- fixed workload parameters ---------------------------------------

constexpr int kRanks = 4;             // ranks / clients, one host thread each
constexpr int kEpochs = 3;            // epochs per distributed training job
constexpr int kRounds = 10;           // rounds (1 local epoch) per federated job
constexpr int kRank = 32;             // ComplEx rank
// Set-ups per process; median reported. A set-up is short and runs on one
// thread, and one thread's speed on this kind of shared host changes from
// second to second (0.06 s vs 0.12 s for the same load), so the samples
// are spread over the run: a few before the first job, then one after
// each job (training) or the rest after the churn phase (serve-churn).
constexpr std::size_t kSetupRepeats = 11;
constexpr int kSetupsBefore = 3;
// Training seeds per untraced run. One model's mrr varies by up to 40%
// across seeds on train-sparse (a 3-epoch model is early in training), so
// quality metrics pool this many models, each ranking its share of the
// test split. Pooling 5 left train-sparse's mrr and tca spreading 19% and
// 4% across run seeds, so it pools 10; its ~2 s jobs fill a run with 10.
int models_for(const std::string& workload) {
  return workload == "train-sparse" ? 10 : 5;
}
constexpr std::size_t kEvalTriples = 2000;  // test prefix ranked for mrr
constexpr std::size_t kTcaTriples = 2000;   // valid/test prefix for tca
constexpr int kBenchTid = 1000;       // trace track of the benchmark's spans

// serve-churn. Reads come in the batches of the repo's serve benchmark
// (`dynkge serve-bench --batch 32` in CI) and deltas are ingested in
// `dynkge serve`'s default batch (--delta-batch 64, also the CI row). The
// write rate reproduces that CI row's mix of 400 deltas per 1500 reads: at
// 2400 deltas/s the reader answered 8.4k-10.7k queries/s, 0.22-0.29
// deltas per read (4-vCPU KVM host, three 5 s runs per rate; 2000/s gave
// 0.16-0.18, 2800/s 0.36-0.39).
constexpr int kServeThreads = 2;
constexpr std::size_t kReadBatch = 32;
constexpr double kDeltaRate = 2400.0;  // deltas per second (open loop)
constexpr std::size_t kDeltaBatch = 64;
// The cache serves an entry for at most this many publishes after the
// version it was computed from (`dynkge serve --max-version-lag` default).
// Entity-keyed invalidation alone leaves a documented gap (a touched
// entity that would newly enter a cached top-k); the lag bounds it.
constexpr std::uint64_t kCacheVersionLag = 8;
constexpr std::size_t kWarmupBatches = 64;
// Query pools in queries.txt. With Zipf (1.0) over 256 queries, the few
// hottest queries decide the hit ratio, so one pool's read_qps varies by
// about 20% across seeds; the reader moves to the next pool every fifth of
// a churn phase.
constexpr std::size_t kQueryPools = 5;
constexpr std::size_t kVerifyQueries = 256;

// ---- small helpers ---------------------------------------------------

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a over the entity then relation matrices.
std::uint64_t fingerprint(const kge::KgeModel& model) {
  const auto entities = model.entities().flat();
  const auto relations = model.relations().flat();
  return fnv1a(relations.data(), relations.size_bytes(),
               fnv1a(entities.data(), entities.size_bytes()));
}

struct Args {
  std::string workload;
  std::string inputs;
  std::string work;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// What a run reports: verdict, op accounting and raw values by name.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::uint64_t> fingerprints;  // final embeddings, per model
  std::map<std::string, double> values;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Telemetry for one traced unit: a fresh registry; the trace writer is
/// shared by the whole run so spans accumulate.
struct Telemetry {
  obs::MetricsRegistry metrics;
  obs::TelemetrySinks sinks(obs::TraceWriter* trace) {
    obs::TelemetrySinks s;
    s.metrics = &metrics;
    s.trace = trace;
    return s;
  }
  double counter(const std::string& name) {
    return static_cast<double>(metrics.counter(name).value());
  }
};

/// Records an exact per-unit value; every traced unit must repeat it.
void record_exact(Result& result, const std::string& name, double value) {
  const auto [it, inserted] = result.values.emplace(name, value);
  if (!inserted && it->second != value) {
    result.check(false, name + " differs between identical units");
  }
}

// ---- training workloads ------------------------------------------------

struct JobOutcome {
  double wall = 0.0;
  double cpu = 0.0;
  double tt = 0.0;
  double comm_modeled = 0.0;
  double compute_cpu = 0.0;
  double speedup = 0.0;
  double step_p50_ms = 0.0;  // traced distributed jobs only
  double step_p99_ms = 0.0;
  bool consistent = false;
  std::shared_ptr<kge::KgeModel> model;
};

/// A base learning rate (the CLI's default for each trainer) with the
/// plateau schedule off.
core::PlateauConfig fixed_schedule(double base_lr) {
  core::PlateauConfig lr;
  lr.base_lr = base_lr;
  lr.tolerance = 1 << 30;  // no reduction, no plateau stop: fixed epochs
  return lr;
}

class TrainingWorkload {
 public:
  TrainingWorkload(const Args& args, const kge::Dataset& dataset)
      : args_(args),
        dataset_(dataset),
        pool_(std::make_shared<util::ThreadPool>(kRanks)) {}

  /// Build the job's trainer without running it (part of set-up).
  void construct() const {
    if (args_.workload == "train-federated") {
      const core::FederatedTrainer trainer(dataset_, federated_config({}, 0));
    } else {
      const core::DistributedTrainer trainer(dataset_, train_config({}, nullptr, 0));
    }
  }

  /// One untimed job of a single epoch (round) of the timed job's kind,
  /// checkpoint and checksums included: the first job of a process pays
  /// for thread start-up and first-touch page faults of every buffer,
  /// which later jobs reuse.
  void warm_up() const {
    if (args_.workload == "train-federated") {
      core::FederatedConfig config = federated_config({}, 0);
      config.policy.rounds = 1;
      core::FederatedTrainer(dataset_, config).train();
    } else {
      comm::FaultInjector checksums({});
      core::TrainConfig config = train_config(
          {}, args_.workload == "train-dense" ? &checksums : nullptr, 0);
      config.max_epochs = 1;
      core::DistributedTrainer(dataset_, config).train();
    }
  }

  /// Positive examples one job trains on (each epoch / local epoch visits
  /// every training triple once across the ranks / clients).
  double positives() const {
    return static_cast<double>(dataset_.train().size()) *
           (args_.workload == "train-federated" ? kRounds : kEpochs);
  }

  /// One job training model `model` (of models()) of the run's seed.
  JobOutcome run(int model, Telemetry* telemetry, obs::TraceWriter* trace,
                 Result& result) {
    const obs::TelemetrySinks sinks =
        telemetry != nullptr ? telemetry->sinks(trace) : obs::TelemetrySinks{};
    const std::string ckpt_dir = args_.work + "/ckpt";
    std::filesystem::remove_all(ckpt_dir);
    JobOutcome out;
    if (args_.workload == "train-federated") {
      core::FederatedTrainer trainer(dataset_, federated_config(sinks, model));
      const double cpu0 = process_cpu(), t0 = now();
      core::FederatedReport report;
      {
        const obs::TraceSpan span(trace, "bench.train", kBenchTid);
        report = trainer.train();
      }
      out.wall = now() - t0;
      out.cpu = process_cpu() - cpu0;
      out.tt = report.total_sim_seconds;
      for (const auto& round : report.round_log) {
        out.comm_modeled += round.comm_seconds;
      }
      out.consistent = report.replicas_consistent;
      out.model = report.model;
      if (telemetry != nullptr) {
        record_exact(result, "federated.rounds",
                     telemetry->counter("federated.rounds"));
        record_exact(result, "federated.bytes_on_wire",
                     telemetry->counter("federated.bytes_on_wire"));
        double bytes = 0.0;
        for (const auto& round : report.round_log) {
          bytes += static_cast<double>(round.bytes_on_wire);
        }
        record_exact(result, "comm.ps.bytes", bytes);
        record_exact(result, "comm.ps.modeled_s", out.comm_modeled);
      }
    } else {
      comm::FaultInjector checksums({});  // empty schedule arms checksums
      core::DistributedTrainer trainer(
          dataset_, train_config(sinks,
                                 args_.workload == "train-dense" ? &checksums : nullptr,
                                 model));
      const double cpu0 = process_cpu(), t0 = now();
      core::TrainReport report;
      {
        const obs::TraceSpan span(trace, "bench.train", kBenchTid);
        report = trainer.train();
      }
      out.wall = now() - t0;
      out.cpu = process_cpu() - cpu0;
      out.tt = report.total_sim_seconds;
      out.comm_modeled = report.comm_stats.total_modeled_seconds();
      out.compute_cpu = report.compute_cpu_seconds;
      out.speedup = report.host_speedup();
      out.consistent = report.replicas_consistent;
      out.model = report.model;
      if (telemetry != nullptr) {
        const auto& step = telemetry->metrics.histogram("train.step_compute_seconds");
        out.step_p50_ms = step.quantile_seconds(0.50) * 1e3;
        out.step_p99_ms = step.quantile_seconds(0.99) * 1e3;
        record_distributed_counters(report, *telemetry, ckpt_dir, result);
      }
    }
    return out;
  }

 private:
  std::uint64_t train_seed(int model) const {
    return args_.seed * static_cast<std::uint64_t>(models_for(args_.workload)) +
           static_cast<std::uint64_t>(model);
  }

  core::TrainConfig train_config(const obs::TelemetrySinks& sinks,
                                 comm::FaultInjector* faults, int model) const {
    core::TrainConfig config;
    config.model_name = "complex";
    config.embedding_rank = kRank;
    config.num_nodes = kRanks;
    config.host_pool = pool_;  // one pool for every job of the run
    config.max_epochs = kEpochs;
    config.lr = fixed_schedule(0.01);
    config.seed = train_seed(model);
    config.compute_final_metrics = false;  // the benchmark evaluates itself
    config.telemetry = sinks;
    if (args_.workload == "train-dense") {
      config.strategy = core::StrategyConfig::baseline_allreduce(1);
      config.checkpoint.dir = args_.work + "/ckpt";
      config.checkpoint.every = 1;
      config.fault_injector = faults;
    } else {
      config.strategy = core::StrategyConfig::rs_1bit_rp_ss(8, 1);
    }
    return config;
  }

  core::FederatedConfig federated_config(const obs::TelemetrySinks& sinks,
                                         int model) const {
    core::FederatedConfig config;
    config.model_name = "complex";
    config.embedding_rank = kRank;
    config.lr = fixed_schedule(0.05);
    config.seed = train_seed(model);
    config.negatives = 4;  // the CLI's default, like the learning rate
    config.strategy = core::StrategyConfig::topk(4096, config.negatives);
    config.policy.num_clients = kRanks;
    config.policy.local_epochs = 1;
    config.policy.rounds = kRounds;
    config.host_pool = pool_;
    config.compute_final_metrics = false;
    config.telemetry = sinks;
    return config;
  }

  void record_distributed_counters(const core::TrainReport& report,
                                   Telemetry& telemetry,
                                   const std::string& ckpt_dir,
                                   Result& result) const {
    const double steps = telemetry.counter("train.steps");
    record_exact(result, "core.steps", steps);
    record_exact(result, "core.exchange.bytes_on_wire",
                 telemetry.counter("train.bytes_on_wire"));
    const double scored = telemetry.counter("train.ss_candidates_scored");
    const double kept = telemetry.counter("train.ss_candidates_kept");
    record_exact(result, "core.hard_negatives.scored", scored);
    record_exact(result, "core.hard_negatives.kept_ratio",
                 scored > 0.0 ? kept / scored : 0.0);
    // Rows before / after selection: the report's rank-0 per-step means
    // times the steps of each epoch.
    const double steps_per_epoch =
        steps / (static_cast<double>(kRanks) * report.epoch_log.size());
    double rows_in = 0.0, rows_sent = 0.0;
    for (const auto& epoch : report.epoch_log) {
      rows_in += std::round(epoch.rows_before_selection * steps_per_epoch);
      rows_sent += std::round(epoch.rows_sent * steps_per_epoch);
    }
    record_exact(result, "core.grad_select.rows_in", rows_in);
    record_exact(result, "core.grad_select.rows_sent", rows_sent);
    record_exact(result, "core.grad_select.kept_ratio",
                 rows_in > 0.0 ? rows_sent / rows_in : 0.0);
    // Checkpoint bytes: every snapshot of a job has the size of the last.
    const double writes = report.checkpoints_written;
    double bytes = 0.0;
    if (writes > 0) {
      for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir)) {
        if (entry.path().extension() == ".dkgs") {
          bytes = static_cast<double>(entry.file_size());
        }
      }
    }
    record_exact(result, "kge.checkpoint.writes", writes);
    record_exact(result, "kge.checkpoint.bytes", writes * bytes);
    const auto& cs = report.comm_stats;
    const auto kind = [&](const char* name,
                          std::initializer_list<comm::CollectiveKind> kinds) {
      double bytes_sum = 0.0, modeled = 0.0;
      for (const auto k : kinds) {
        bytes_sum += static_cast<double>(cs.of(k).bytes);
        modeled += cs.of(k).modeled_seconds;
      }
      record_exact(result, std::string("comm.") + name + ".bytes", bytes_sum);
      record_exact(result, std::string("comm.") + name + ".modeled_s", modeled);
    };
    kind("allreduce", {comm::CollectiveKind::kAllReduce});
    kind("allgather", {comm::CollectiveKind::kAllGatherV});
    kind("ps", {comm::CollectiveKind::kGatherV, comm::CollectiveKind::kBroadcast});
  }

  const Args& args_;
  const kge::Dataset& dataset_;
  std::shared_ptr<util::ThreadPool> pool_;
};

/// The benchmark's own evaluation of final models, pooled over models:
/// model k of n ranks every n-th triple of a fixed test prefix from k, one
/// triple per Evaluator::link_prediction call, so each call is one timed
/// link-prediction read. kRanks reader threads share a model's calls: on
/// one thread the per-call time followed that thread's speed, which on a
/// shared host changes from second to second (read_qps spread 13-25%
/// across run seeds). Each model's calls form one read phase; read_qps
/// and read_p99_ms are medians over the phases, so a host stall during
/// one phase moves them less (read_p99_ms pooled over phases spread 33%
/// on train-dense). tca is the mean of each model's tca on a fixed prefix.
struct Evaluation {
  double rr_sum = 0.0;
  double rankings = 0.0;
  double tca_sum = 0.0;
  int models = 0;
  std::vector<double> latencies;  // ms per link_prediction call
  std::vector<double> phase_qps;  // calls per wall second, per phase
  std::vector<double> phase_p99;  // ms, per phase

  void add(const kge::KgeModel& model, const kge::Dataset& dataset,
           std::size_t share, std::size_t shares, Result& result) {
    const kge::Evaluator evaluator(dataset);
    const auto test = dataset.test().first(std::min(kEvalTriples, dataset.test().size()));
    std::vector<std::size_t> mine;
    for (std::size_t i = share; i < test.size(); i += shares) mine.push_back(i);
    std::vector<kge::RankingMetrics> ranked(mine.size());
    std::vector<double> call_ms(mine.size());
    const double t0 = now();
    std::vector<std::thread> readers;
    for (int r = 0; r < kRanks; ++r) {
      readers.emplace_back([&, r] {
        for (std::size_t j = static_cast<std::size_t>(r); j < mine.size(); j += kRanks) {
          const double c0 = now();
          ranked[j] = evaluator.link_prediction(model, test.subspan(mine[j], 1));
          call_ms[j] = (now() - c0) * 1e3;
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
    phase_qps.push_back(static_cast<double>(mine.size()) / (now() - t0));
    phase_p99.push_back(quantile(call_ms, 0.99));
    // Summed in triple order, so mrr repeats exactly.
    for (std::size_t j = 0; j < mine.size(); ++j) {
      const kge::RankingMetrics& m = ranked[j];
      ++result.attempted;
      latencies.push_back(call_ms[j]);
      rr_sum += m.mrr * static_cast<double>(m.evaluated);
      rankings += static_cast<double>(m.evaluated);
      result.check(m.evaluated == 2, "link prediction ranked " +
                                         std::to_string(m.evaluated) + " sides, not 2");
    }
    const double tca = evaluator.triple_classification_accuracy(model, 7, kTcaTriples);
    result.check(tca > 0.0 && tca <= 100.0, "tca outside (0, 100]");
    tca_sum += tca;
    ++models;
  }

  void report(Result& result) const {
    result.check(rr_sum > 0.0, "no test triple ranked above last");
    result.values["mrr"] = rr_sum / rankings;
    result.values["tca"] = tca_sum / models;
  }
};

void run_training(const Args& args, obs::TraceWriter* trace, Result& result) {
  const std::string graph = args.inputs + "/graph";
  std::vector<double> setups;
  std::unique_ptr<kge::Dataset> dataset;
  std::unique_ptr<TrainingWorkload> workload;
  // One set-up: load the graph and construct the trainer.
  const auto set_up = [&](std::unique_ptr<kge::Dataset>& data,
                          std::unique_ptr<TrainingWorkload>& work) {
    const double t0 = now();
    {
      const obs::TraceSpan span(trace, "bench.load", kBenchTid);
      data = std::make_unique<kge::Dataset>(kge::load_openke(graph));
    }
    work = std::make_unique<TrainingWorkload>(args, *data);
    work->construct();
    setups.push_back(now() - t0);
  };
  // A set-up whose objects are dropped: the run keeps its warm trainer.
  const auto sample_set_up = [&] {
    std::unique_ptr<kge::Dataset> data;
    std::unique_ptr<TrainingWorkload> work;
    set_up(data, work);
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up(dataset, workload);
  workload->warm_up();
  // The memory peak of set-up and a warm-up epoch that touches every
  // buffer of the job. It was 138-141 MB on train-dense over six runs;
  // after the first timed job it was 157-177 MB, and later jobs add more
  // allocator fragmentation, which varies with thread timing.
  if (!args.trace) result.values["peak_rss_mb"] = peak_rss_mb();

  // Jobs until they have taken --seconds. An untraced run cycles through
  // the models' training seeds (at least one job each) and evaluates each
  // model once, outside that time. A traced run alternates untraced and
  // traced jobs of model 0, so its traced jobs must repeat exact counters.
  const int models = models_for(args.workload);
  std::vector<JobOutcome> plain, traced;
  Evaluation eval;
  std::map<int, std::uint64_t> prints;  // final embeddings per model
  double measured = 0.0;
  for (int job = 0;; ++job) {
    const bool traced_job = args.trace && job % 2 == 1;
    const bool enough = measured >= args.seconds &&
                        (args.trace ? traced.size() >= 1 : plain.size() >= static_cast<std::size_t>(models));
    if (enough && (!args.trace || !traced_job)) break;
    const int model = args.trace ? 0 : job % models;
    std::unique_ptr<Telemetry> telemetry;
    if (traced_job) telemetry = std::make_unique<Telemetry>();
    ++result.attempted;
    JobOutcome out;
    try {
      out = workload->run(model, telemetry.get(), traced_job ? trace : nullptr, result);
    } catch (const std::exception& e) {
      ++result.failed;  // the jobs repeat: the next would throw too
      result.check(false, std::string("train() threw: ") + e.what());
      break;
    }
    measured += out.wall;
    const std::uint64_t print = fingerprint(*out.model);
    const auto [first, fresh] = prints.emplace(model, print);
    if (!out.consistent || first->second != print) {
      ++result.failed;
      result.check(out.consistent, "replicas_consistent == false");
      result.check(first->second == print,
                   "final embeddings differ between jobs of one training seed");
    }
    if (!args.trace && fresh) {
      eval.add(*out.model, *dataset, static_cast<std::size_t>(model),
               static_cast<std::size_t>(models), result);
    }
    (traced_job ? traced : plain).push_back(std::move(out));
    sample_set_up();
  }
  while (setups.size() < kSetupRepeats) sample_set_up();
  result.values["setup_s"] = median(setups);
  if (plain.empty()) return;
  for (const auto& [model, print] : prints) result.fingerprints.push_back(print);

  const auto collect = [](const std::vector<JobOutcome>& jobs,
                          const std::function<double(const JobOutcome&)>& f) {
    std::vector<double> v;
    for (const auto& job : jobs) v.push_back(f(job));
    return v;
  };
  const double positives = workload->positives();
  result.values["train_pos_per_s"] =
      median(collect(plain, [&](const JobOutcome& j) { return positives / j.wall; }));
  result.values["tt_sim_s"] = median(collect(plain, [](const JobOutcome& j) { return j.tt; }));
  result.values["host_cpu_s"] = median(collect(plain, [](const JobOutcome& j) { return j.cpu; }));
  // Every positive of a job becomes visible when train() returns the model,
  // so a job's p99 visibility is its wall time; report the median job's.
  result.values["update_visible_p99_ms"] =
      median(collect(plain, [](const JobOutcome& j) { return j.wall; })) * 1e3;
  result.values["host.rank_compute_cpu_s"] =
      median(collect(plain, [](const JobOutcome& j) { return j.compute_cpu; }));
  result.values["host.sim_overhead_cpu_s"] =
      args.workload == "train-federated"
          ? 0.0
          : median(collect(plain, [](const JobOutcome& j) { return j.cpu - j.compute_cpu; }));
  result.values["host.speedup"] =
      median(collect(plain, [](const JobOutcome& j) { return j.speedup; }));
  result.values["sim.compute_s"] =
      median(collect(plain, [](const JobOutcome& j) { return j.tt - j.comm_modeled; }));
  if (args.trace) {
    result.values["jobs.traced"] = static_cast<double>(traced.size());
    result.values["core.step.compute_p50_ms"] =
        median(collect(traced, [](const JobOutcome& j) { return j.step_p50_ms; }));
    result.values["core.step.compute_p99_ms"] =
        median(collect(traced, [](const JobOutcome& j) { return j.step_p99_ms; }));
    result.values["obs.trace_overhead_ratio"] =
        median(collect(traced, [](const JobOutcome& j) { return j.wall; })) /
            median(collect(plain, [](const JobOutcome& j) { return j.wall; })) -
        1.0;
    return;
  }

  eval.report(result);
  result.values["read_qps"] = median(eval.phase_qps);
  result.values["read_p50_ms"] = quantile(eval.latencies, 0.50);
  result.values["read_p99_ms"] = median(eval.phase_p99);
}

// ---- serve-churn ---------------------------------------------------------

struct ServeInputs {
  std::unique_ptr<kge::Dataset> dataset;
  std::unique_ptr<serve::InferenceService> service;
  std::unique_ptr<stream::DeltaIngestor> ingestor;
  kge::TripleList deltas;
  // The versions the cache may still serve: the current one and the
  // kCacheVersionLag before it. Written by a publish observer on the
  // writer thread; read after the writer has been joined.
  std::shared_ptr<std::vector<stream::PinnedModel>> recent;
};

struct ChurnOutcome {
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t null_reads = 0;
  std::vector<double> read_ms;       // client-side batch latency
  std::vector<double> visible_ms;    // due time -> publish, per delta
  std::vector<double> late_ms;       // writer lateness, per delta
  std::uint64_t deltas = 0;
  std::uint64_t shed_deltas = 0;
  std::vector<double> refresh_ms;    // wall of each submit() that published
  double writer_cpu = 0.0;           // thread CPU inside submit()/flush()
  serve::CacheStats warm;             // cache counters after the warm-up
};

std::vector<serve::TopKQuery> load_queries(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<serve::TopKQuery> queries;
  int dir = 0, entity = 0, relation = 0;
  while (in >> dir >> entity >> relation) {
    serve::TopKQuery q;
    q.direction = dir == 0 ? serve::Direction::kTail : serve::Direction::kHead;
    q.entity = entity;
    q.relation = relation;
    q.k = 10;
    queries.push_back(q);
  }
  return queries;
}

ServeInputs serve_setup(const Args& args, const obs::TelemetrySinks& sinks,
                        obs::TraceWriter* bench_trace) {
  ServeInputs in;
  {
    const obs::TraceSpan span(bench_trace, "bench.load", kBenchTid);
    in.dataset = std::make_unique<kge::Dataset>(
        kge::load_openke(args.inputs + "/graph"));
  }
  serve::ServiceConfig config;
  config.num_threads = kServeThreads;
  config.cache_max_version_lag = kCacheVersionLag;
  config.metrics = sinks.metrics;
  config.trace = sinks.trace;
  in.service = serve::InferenceService::from_checkpoint(
      args.inputs + "/model.dkge", in.dataset.get(), config);
  in.service->store().set_telemetry(sinks);
  in.recent = std::make_shared<std::vector<stream::PinnedModel>>(
      1, in.service->store().acquire());
  in.service->store().add_publish_observer(
      [recent = in.recent, store = &in.service->store()](
          std::uint64_t, const std::vector<kge::EntityId>&) {
        recent->push_back(store->acquire());
        if (recent->size() > kCacheVersionLag + 1) recent->erase(recent->begin());
      });
  stream::IngestConfig ingest;
  ingest.batch_size = kDeltaBatch;
  ingest.refresh.seed = args.seed;
  ingest.admission = &in.service->admission();
  ingest.dataset = in.dataset.get();
  ingest.telemetry = sinks;
  in.ingestor = std::make_unique<stream::DeltaIngestor>(in.service->store(), ingest);
  in.deltas = stream::load_delta_file(args.inputs + "/deltas.txt",
                                      in.dataset->num_entities(),
                                      in.dataset->num_relations())
                  .triples;
  return in;
}

/// Warm the cache single-threaded, then run the closed-loop reader on this
/// thread against the open-loop writer thread for `seconds`.
ChurnOutcome run_churn(ServeInputs& in, const std::vector<serve::TopKQuery>& queries,
                       double seconds, obs::TraceWriter* bench_trace) {
  ChurnOutcome out;
  serve::InferenceService& service = *in.service;
  const std::size_t pool_size = queries.size() / kQueryPools;
  const auto batch_at = [&](std::size_t b, std::size_t pool) {
    const std::size_t begin = pool * pool_size + (b * kReadBatch) % (pool_size - kReadBatch);
    return std::span<const serve::TopKQuery>(queries).subspan(begin, kReadBatch);
  };
  for (std::size_t b = 0; b < kWarmupBatches; ++b) service.topk_batch(batch_at(b, 0));
  out.warm = service.snapshot().cache;

  // Publishes arrive on the writer thread (submit() flushes inline). The
  // observer outlives this call, so it owns what it writes.
  struct Seen {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> at{0.0};
  };
  const auto seen_publish = std::make_shared<Seen>();
  service.store().add_publish_observer(
      [seen_publish](std::uint64_t, const std::vector<kge::EntityId>&) {
        seen_publish->at.store(now());
        seen_publish->count.fetch_add(1);
      });

  const std::uint64_t total_deltas = std::llround(kDeltaRate * seconds);
  const double cpu0 = process_cpu();
  const double start = now();
  const double end = start + seconds;
  std::thread writer([&] {
    std::vector<double> pending_due;
    std::uint64_t seen = seen_publish->count.load();
    const auto timed = [&](const std::function<void()>& call) {
      const double c0 = util::thread_cpu_seconds(), t0 = now();
      call();
      const double wall = now() - t0;
      out.writer_cpu += util::thread_cpu_seconds() - c0;
      if (seen_publish->count.load() != seen) {
        // A full batch: the call refreshed and published kDeltaBatch deltas.
        if (pending_due.size() == kDeltaBatch) out.refresh_ms.push_back(wall * 1e3);
        seen = seen_publish->count.load();
        const double at = seen_publish->at.load();
        for (const double due : pending_due) out.visible_ms.push_back((at - due) * 1e3);
        pending_due.clear();
      }
    };
    for (std::uint64_t i = 0; i < total_deltas; ++i) {
      const double due = start + static_cast<double>(i) / kDeltaRate;
      const double wait = due - now();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      out.late_ms.push_back((now() - due) * 1e3);
      pending_due.push_back(due);
      const kge::Triple& delta = in.deltas[i % in.deltas.size()];
      bool accepted = true;
      timed([&] {
        const obs::TraceSpan span(bench_trace, "bench.ingest.submit", kBenchTid + 1);
        accepted = in.ingestor->submit(delta);
      });
      ++out.deltas;
      if (!accepted) {
        ++out.shed_deltas;
        pending_due.erase(std::find(pending_due.begin(), pending_due.end(), due));
      }
    }
    timed([&] {
      const obs::TraceSpan span(bench_trace, "bench.ingest.flush", kBenchTid + 1);
      in.ingestor->flush();
    });
  });
  for (std::size_t b = kWarmupBatches; now() < end; ++b) {
    const auto pool = std::min(kQueryPools - 1, static_cast<std::size_t>(
                                                    (now() - start) * kQueryPools / seconds));
    const auto batch = batch_at(b, pool);
    const double t0 = now();
    std::vector<serve::QueryCache::ResultPtr> results;
    {
      const obs::TraceSpan span(bench_trace, "bench.topk_batch", kBenchTid);
      results = service.topk_batch(batch);
    }
    out.read_ms.push_back((now() - t0) * 1e3);
    out.reads += batch.size();
    for (const auto& r : results) out.null_reads += r == nullptr;
  }
  writer.join();
  out.wall = now() - start;
  out.cpu = process_cpu() - cpu0;
  return out;
}

/// Brute-force top-k: score every entity, drop known facts, sort by
/// (score desc, id asc).
serve::TopKResult brute_force(const kge::KgeModel& model, const kge::Dataset& dataset,
                              const serve::TopKQuery& q) {
  std::vector<double> scores(static_cast<std::size_t>(model.num_entities()));
  const bool tail = q.direction == serve::Direction::kTail;
  if (tail) {
    model.score_all_tails(q.entity, q.relation, scores);
  } else {
    model.score_all_heads(q.relation, q.entity, scores);
  }
  serve::TopKResult all;
  for (kge::EntityId e = 0; e < model.num_entities(); ++e) {
    if (q.filter_known && (tail ? dataset.contains(q.entity, q.relation, e)
                                : dataset.contains(e, q.relation, q.entity))) {
      continue;
    }
    all.push_back({e, scores[static_cast<std::size_t>(e)]});
  }
  const auto k = std::min<std::size_t>(static_cast<std::size_t>(q.k), all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                    [](const serve::ScoredEntity& a, const serve::ScoredEntity& b) {
                      return a.score != b.score ? a.score > b.score : a.entity < b.entity;
                    });
  all.resize(k);
  return all;
}

/// Re-answer a seeded sample of the read stream through the service. Each
/// answer must equal a brute-force scan of a version the cache may serve:
/// the current one, or one at most kCacheVersionLag publishes older (an
/// entry computed before a publish whose invalidation did not drop it).
/// An answer from an older version counts in serve.verify.lagged_reads;
/// one that matches no such version is a failed op.
void verify_reads(ServeInputs& in, const std::vector<serve::TopKQuery>& queries,
                  std::uint64_t seed, Result& result) {
  std::uint64_t state = seed ^ 0x5EEDF00DULL;
  std::vector<serve::TopKQuery> sample;
  for (std::size_t i = 0; i < kVerifyQueries; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    sample.push_back(queries[(state >> 33) % queries.size()]);
  }
  const std::vector<stream::PinnedModel>& recent = *in.recent;
  const stream::PinnedModel& current = recent.back();
  result.check(current.version == in.service->store().current_version(),
               "publish observer missed the current version");
  std::uint64_t lagged = 0, mismatched = 0;
  for (std::size_t begin = 0; begin < sample.size(); begin += kReadBatch) {
    const auto batch = std::span<const serve::TopKQuery>(sample).subspan(
        begin, std::min(kReadBatch, sample.size() - begin));
    const auto answers = in.service->topk_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++result.attempted;
      const auto matches = [&](const stream::PinnedModel& pin) {
        return *answers[i] == brute_force(*pin.model, *in.dataset, batch[i]);
      };
      if (answers[i] != nullptr && matches(current)) continue;
      if (answers[i] != nullptr && std::any_of(recent.begin(), recent.end() - 1, matches)) {
        ++lagged;
        continue;
      }
      ++result.failed;
      ++mismatched;
    }
  }
  result.values["serve.verify.lagged_reads"] = static_cast<double>(lagged);
  result.values["serve.verify.failed_reads"] = static_cast<double>(mismatched);
  result.check(mismatched == 0,
               std::to_string(mismatched) + " of " + std::to_string(sample.size()) +
                   " re-answered reads match a full scan of none of the last " +
                   std::to_string(recent.size()) + " versions");
}

void run_serve(const Args& args, obs::TraceWriter* trace, Result& result) {
  const auto queries = load_queries(args.inputs + "/queries.txt");
  std::vector<double> setups;
  const auto sample_set_up = [&] {
    const double t0 = now();
    serve_setup(args, {}, trace);
    setups.push_back(now() - t0);
  };
  for (int i = 0; i < kSetupsBefore; ++i) sample_set_up();

  // Units: one untraced churn phase, or with --trace four quarter-length
  // phases alternating untraced / traced, each on a fresh service.
  const int units = args.trace ? 4 : 1;
  const double unit_seconds = args.seconds / units;
  std::vector<ChurnOutcome> plain, traced;
  std::vector<std::array<double, 4>> phase_stats;  // traced phases' cache stats
  ServeInputs last;
  for (int u = 0; u < units; ++u) {
    const bool traced_unit = args.trace && u % 2 == 1;
    Telemetry telemetry;
    ServeInputs in = serve_setup(
        args, traced_unit ? telemetry.sinks(trace) : obs::TelemetrySinks{}, nullptr);
    ChurnOutcome out = run_churn(in, queries, unit_seconds,
                                 traced_unit ? trace : nullptr);
    result.attempted += out.reads + out.deltas;
    result.failed += out.null_reads + out.shed_deltas;
    result.check(out.null_reads == 0, std::to_string(out.null_reads) + " reads shed");
    result.check(out.shed_deltas == 0, std::to_string(out.shed_deltas) + " deltas shed");
    const stream::IngestStats ingest = in.ingestor->stats();
    record_exact(result, "serve.cache.warm_lookups",
                 static_cast<double>(out.warm.hits + out.warm.misses));
    record_exact(result, "serve.cache.warm_hits", static_cast<double>(out.warm.hits));
    record_exact(result, "stream.batches", static_cast<double>(ingest.batches));
    record_exact(result, "stream.deltas_ingested", static_cast<double>(ingest.submitted));
    record_exact(result, "stream.deltas_shed", static_cast<double>(ingest.shed));
    record_exact(result, "stream.touched_entities", static_cast<double>(ingest.touched_rows));
    const std::uint64_t print = fingerprint(*in.service->store().acquire().model);
    if (u == 0) result.fingerprints = {print};
    result.check(print == result.fingerprints.front(),
                 "served model differs between identical churn phases");
    if (traced_unit) {
      // Cache activity of the churn phase itself, warm-up excluded.
      const serve::ServiceSnapshot snap = in.service->snapshot();
      const double hits = static_cast<double>(snap.cache.hits - out.warm.hits);
      const double misses = static_cast<double>(snap.cache.misses - out.warm.misses);
      phase_stats.push_back(
          {hits / std::max(1.0, hits + misses),
           static_cast<double>(snap.cache.evictions - out.warm.evictions),
           static_cast<double>(snap.cache.invalidated_entries -
                               out.warm.invalidated_entries),
           static_cast<double>(snap.shed)});
    }
    (traced_unit ? traced : plain).push_back(std::move(out));
    last = std::move(in);
  }
  verify_reads(last, queries, args.seed, result);
  while (setups.size() < kSetupRepeats) sample_set_up();
  result.values["setup_s"] = median(setups);

  if (args.trace) {
    const char* names[] = {"serve.cache.hit_ratio", "serve.cache.evictions",
                           "serve.cache.invalidated_entries", "serve.shed"};
    for (std::size_t i = 0; i < 4; ++i) {
      std::vector<double> column;
      for (const auto& stats : phase_stats) column.push_back(stats[i]);
      result.values[names[i]] = median(column);
    }
    std::vector<double> late;
    for (const auto& unit : plain) late.insert(late.end(), unit.late_ms.begin(), unit.late_ms.end());
    result.values["gen.writer_late_p99_ms"] = quantile(late, 0.99);
    // Wall per read, traced over untraced.
    double plain_reads = 0, plain_wall = 0, traced_reads = 0, traced_wall = 0;
    for (const auto& unit : plain) plain_reads += unit.reads, plain_wall += unit.wall;
    for (const auto& unit : traced) traced_reads += unit.reads, traced_wall += unit.wall;
    result.values["obs.trace_overhead_ratio"] =
        (traced_wall / traced_reads) / (plain_wall / plain_reads) - 1.0;
    result.values["units.traced"] = static_cast<double>(traced.size());
    return;
  }
  const ChurnOutcome& churn = plain.front();
  result.values["read_qps"] = static_cast<double>(churn.reads) / churn.wall;
  result.values["read_p50_ms"] = quantile(churn.read_ms, 0.50);
  result.values["read_p99_ms"] = quantile(churn.read_ms, 0.99);
  result.values["update_visible_p99_ms"] = quantile(churn.visible_ms, 0.99);
  result.values["host_cpu_s"] = churn.cpu;
  // The streaming refresh is this workload's training step: positives
  // (delta x refresh pass) per wall second of the median submit() that
  // refreshed and published a full batch, and a one-node TT with no
  // modeled communication (the thread CPU of every ingest call).
  result.values["train_pos_per_s"] =
      kDeltaBatch * stream::RefreshParams{}.steps / (median(churn.refresh_ms) * 1e-3);
  result.values["tt_sim_s"] = churn.writer_cpu;

  Evaluation eval;
  eval.add(*last.service->store().acquire().model, *last.dataset, 0, 1, result);
  eval.report(result);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--inputs") args.inputs = value;
    else if (flag == "--work") args.work = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value != "0";
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload.empty() || args.inputs.empty() || args.work.empty()) {
    throw std::invalid_argument(
        "usage: kgebench_run --workload W --inputs DIR --work DIR --seed N "
        "--seconds S --trace 0|1");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const bool training = args.workload == "train-dense" ||
                        args.workload == "train-sparse" ||
                        args.workload == "train-federated";
  if (!training && args.workload != "serve-churn") {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  std::filesystem::create_directories(args.work);
  std::unique_ptr<obs::TraceWriter> trace;
  if (args.trace) {
    trace = std::make_unique<obs::TraceWriter>();
    trace->set_thread_name(kBenchTid, "bench");
  }
  Result result;
  try {
    if (training) {
      run_training(args, trace.get(), result);
    } else {
      run_serve(args, trace.get(), result);
    }
  } catch (const std::exception& e) {
    std::cerr << "kgebench_run: " << e.what() << "\n";
    return 1;
  }
  result.values.emplace("peak_rss_mb", peak_rss_mb());
  if (trace != nullptr) trace->write(args.work + "/trace.json");

  util::JsonWriter json;
  json.begin_object();
  json.kv("workload", args.workload);
  json.kv("correct", result.errors.empty() && result.failed == 0);
  json.kv("attempted", static_cast<std::size_t>(result.attempted));
  json.kv("failed", static_cast<std::size_t>(result.failed));
  std::string prints;
  for (const std::uint64_t f : result.fingerprints) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(f));
    prints += (prints.empty() ? "" : ",") + std::string(hex);
  }
  json.kv("fingerprint", prints);
  json.key("errors").begin_array();
  for (const auto& e : result.errors) json.value(e);
  json.end_array();
  json.key("values").begin_object();
  for (const auto& [name, value] : result.values) json.kv(name, value);
  json.end_object();
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}
