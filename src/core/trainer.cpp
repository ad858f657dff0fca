#include "core/trainer.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "comm/recovery.hpp"
#include "core/comm_selector.hpp"
#include "core/grad_exchange.hpp"
#include "core/grad_select.hpp"
#include "core/hard_negatives.hpp"
#include "core/relation_partition.hpp"
#include "kge/adam.hpp"
#include "kge/batch_pass.hpp"
#include "kge/checkpoint_dir.hpp"
#include "kge/model_factory.hpp"
#include "kge/serialize.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_clock.hpp"

namespace dynkge::core {
namespace {

using comm::Communicator;
using comm::ScalarOp;
using kge::Triple;
using kge::TripleList;
using util::Rng;
using util::ThreadCpuTimer;

/// Loss-gradient coefficients below this are treated as exactly zero, the
/// same saturation float32 frameworks exhibit (sigmoid(y*phi) rounds to 1
/// once y*phi > ~16, zeroing the example's gradient). This is what makes
/// the number of non-zero gradient rows *decrease* as training converges
/// (paper figure 2) and the all-gather volume shrink late in training.
constexpr double kCoeffUnderflow = 1e-7;

// Residual blobs (the RESD section payload) are encoded by
// kge::encode_residual_maps: this trainer packs 4 maps per rank (entity
// selector, relation selector, exchange entity, exchange relation).
using kge::decode_residual_maps;
using kge::encode_residual_maps;
using kge::ResidualMap;

/// Append gathered float payloads, in rank order, to `out`.
void append_floats(comm::Slots slots, std::vector<float>& out) {
  for (const auto slot : slots) {
    const std::size_t offset = out.size();
    out.resize(offset + slot.size() / sizeof(float));
    if (!slot.empty()) {
      std::memcpy(out.data() + offset, slot.data(), slot.size());
    }
  }
}

void check_resume_field(const std::string& field, const std::string& expected,
                        const std::string& found) {
  if (expected != found) {
    throw std::invalid_argument(
        "TrainConfig::checkpoint.resume: snapshot was written by a "
        "different run (" +
        field + ": this run has '" + expected + "', snapshot has '" + found +
        "')");
  }
}

}  // namespace

DistributedTrainer::DistributedTrainer(const kge::Dataset& dataset,
                                       TrainConfig config)
    : dataset_(dataset), config_(std::move(config)) {
  if (config_.num_nodes < 1) {
    throw std::invalid_argument("TrainConfig: num_nodes must be >= 1");
  }
  if (config_.batch_size < 1) {
    throw std::invalid_argument("TrainConfig: batch_size must be >= 1");
  }
  if (config_.max_epochs < 1) {
    throw std::invalid_argument("TrainConfig: max_epochs must be >= 1");
  }
  if (config_.host_threads < 0) {
    throw std::invalid_argument(
        "TrainConfig: host_threads must be >= 0 (0 = hardware concurrency)");
  }
  if (config_.strategy.comm == CommMode::kDynamic &&
      config_.strategy.dynamic_probe_interval < 2) {
    // Surface the CommModeSelector contract at config time instead of from
    // inside a rank program (see comm_selector.cpp for the rationale).
    throw std::invalid_argument(
        "TrainConfig: dynamic comm mode requires dynamic_probe_interval >= 2");
  }
  const auto& s = config_.strategy;
  if (s.negatives_sampled < 1 || s.negatives_used < 1 ||
      s.negatives_used > s.negatives_sampled) {
    throw std::invalid_argument(
        "TrainConfig: require 1 <= negatives_used <= negatives_sampled");
  }
  if (config_.fault_retry_limit < 1) {
    throw std::invalid_argument(
        "TrainConfig: fault retry limit must be >= 1 (--fault-retry-limit)");
  }
  if (config_.fault_backoff_base <= 0.0) {
    throw std::invalid_argument(
        "TrainConfig: fault backoff base must be > 0 (--fault-backoff-base)");
  }
  if (config_.elastic.max_rank_failures < 0) {
    throw std::invalid_argument(
        "TrainConfig: max rank failures must be >= 0 (--max-rank-failures)");
  }
  if (config_.collective_deadline < 0.0) {
    throw std::invalid_argument(
        "TrainConfig: collective deadline must be >= 0 "
        "(--collective-deadline)");
  }
  if (config_.checkpoint.keep < 1) {
    throw std::invalid_argument(
        "TrainConfig: checkpoint keep must be >= 1 (--checkpoint-keep)");
  }
  const std::string& on_error = config_.checkpoint.on_error;
  if (on_error != "fail" && on_error != "skip" && on_error != "retry") {
    throw std::invalid_argument(
        "TrainConfig: checkpoint error policy must be fail, skip, or retry "
        "(--checkpoint-on-error), got '" + on_error + "'");
  }
  if (s.selection == SelectionMode::kTopK || s.dynamic_topk_arm) {
    validate_topk_k(s.topk_k, dataset_.num_entities(), "TrainConfig");
  }
  if (s.dynamic_topk_arm && s.comm != CommMode::kDynamic) {
    throw std::invalid_argument(
        "TrainConfig: the Top-K probe arm requires the dynamic comm mode "
        "(--drs-topk-arm needs --strategy drs*)");
  }
}

TrainReport DistributedTrainer::train() {
  const util::Stopwatch wall;
  const obs::TelemetrySinks& tel = config_.telemetry;
  comm::ElasticPolicy policy;
  policy.enabled = config_.elastic.enabled;
  policy.max_rank_failures = config_.elastic.max_rank_failures;

  // ---- checkpoint / resume setup (host side, once per train()) ---------
  const TrainConfig::CheckpointConfig& ckpt = config_.checkpoint;
  std::unique_ptr<kge::TrainingSnapshot> resume_state;
  if (!ckpt.dir.empty()) {
    if (ckpt.every < 1) {
      throw std::invalid_argument(
          "TrainConfig::checkpoint: every must be >= 1");
    }
    ::mkdir(ckpt.dir.c_str(), 0755);  // EEXIST is fine
    if (ckpt.resume) {
      // Scan the directory newest-first, falling back past corrupt
      // candidates to the next-older valid snapshot (checkpoint_dir.hpp).
      kge::ResumeScan scan = kge::load_newest_valid_snapshot(ckpt.dir);
      for (const kge::RejectedSnapshot& r : scan.rejected) {
        DYNKGE_LOG_INFO("resume: skipping corrupt snapshot " << r.path
                                                             << ": "
                                                             << r.error);
      }
      if (scan.found) {
        resume_state = std::make_unique<kge::TrainingSnapshot>(
            std::move(scan.snapshot));
        validate_resume_snapshot(*resume_state, config_.num_nodes);
        DYNKGE_LOG_INFO("resuming from "
                        << scan.path << " at epoch "
                        << std::min(resume_state->trainer.next_epoch,
                                    config_.max_epochs));
      }
    }
  }

  // The rank programs execute concurrently on a host thread pool — shared
  // across train() calls when the config provides one, otherwise scoped to
  // this call and sized by host_threads; one pool serves every attempt of
  // the supervision loop below. Wall time scales with min(num_nodes,
  // cores); the simulated clock is unaffected.
  std::shared_ptr<util::ThreadPool> pool = config_.host_pool;
  if (pool == nullptr) {
    const std::size_t threads =
        config_.host_threads > 0
            ? static_cast<std::size_t>(config_.host_threads)
            : util::ThreadPool::hardware_threads();
    pool = std::make_shared<util::ThreadPool>(threads);
  }

  // ---- supervision loop ------------------------------------------------
  // Each iteration is one cluster attempt. A permanent rank failure
  // unwinds here as RankFailedError; within the elastic budget the world
  // shrinks to the survivors, state rolls back to the newest in-run
  // snapshot (per-epoch, in memory — no checkpoint dir needed), and the
  // poisoned epoch is replayed at the smaller world size. The replay is
  // byte-identical to a fresh run at the new world size resumed from the
  // same snapshot: every restored quantity is keyed on the new rank index
  // and the poisoned epoch's partial work is discarded entirely.
  comm::RecoveryObserver observer(tel);
  int world = config_.num_nodes;
  int rank_failures = 0;
  int recoveries = 0;
  double recovery_seconds = 0.0;
  for (;;) {
    std::string live_snapshot;
    try {
      TrainReport report =
          run_attempt(world, resume_state.get(), *pool,
                      policy.enabled ? &live_snapshot : nullptr);
      report.rank_failures = rank_failures;
      report.recoveries = recoveries;
      report.recovery_seconds = recovery_seconds;
      report.wall_seconds = wall.seconds();
      return report;
    } catch (const comm::RankFailedError& error) {
      const comm::RecoveryPlan plan =
          comm::plan_recovery(error, world, policy, rank_failures);
      observer.on_failure(plan);
      if (plan.action == comm::RecoveryAction::kFailFast) {
        DYNKGE_LOG_ERROR("unrecoverable rank failure: " << plan.describe());
        throw;
      }
      DYNKGE_LOG_WARN("recovering from rank failure: " << plan.describe());
      const util::Stopwatch rebuild;
      {
        const obs::TraceSpan span(tel.trace, "recovery.rebuild",
                                  config_.num_nodes);
        // Roll back to the newest epoch snapshot this attempt produced;
        // if the crash predated the first one, fall back to the attempt's
        // own starting state (disk snapshot or cold start).
        if (!live_snapshot.empty()) {
          resume_state = std::make_unique<kge::TrainingSnapshot>(
              kge::deserialize_snapshot(live_snapshot,
                                        "elastic recovery snapshot"));
        }
        rank_failures += static_cast<int>(plan.failed_ranks.size());
        recoveries += 1;
        world = plan.new_world;
        if (config_.elastic.test_kill_in_recovery >= 1 &&
            recoveries == config_.elastic.test_kill_in_recovery) {
          // Harness hook: the host dies mid-rebuild; --resume must then
          // recover from the last disk snapshot (tests/kill_restart.py).
          ::raise(SIGKILL);
        }
      }
      recovery_seconds += rebuild.seconds();
      const int resume_epoch =
          resume_state != nullptr ? resume_state->trainer.next_epoch : 0;
      observer.on_recovered(plan, rebuild.seconds(), resume_epoch);
      DYNKGE_LOG_INFO("recovered: replaying epoch "
                      << resume_epoch << " at world size " << world);
    }
  }
}

void DistributedTrainer::validate_resume_snapshot(
    const kge::TrainingSnapshot& snapshot, int world_size) const {
  const kge::TrainerSnapshot& t = snapshot.trainer;
  check_resume_field("model", config_.model_name, t.model_name);
  check_resume_field("strategy", config_.strategy.label(), t.strategy_label);
  check_resume_field("embedding_rank",
                     std::to_string(config_.embedding_rank),
                     std::to_string(t.embedding_rank));
  // World size must match exactly — except in elastic mode, where a
  // snapshot from a *larger* world is resumable by a shrunk one
  // (shrink-resume: restored state is keyed on the new, smaller rank
  // indices; see DESIGN.md section 8).
  if (!(config_.elastic.enabled && t.num_nodes > world_size)) {
    check_resume_field("num_nodes", std::to_string(world_size),
                       std::to_string(t.num_nodes));
  }
  check_resume_field("seed", std::to_string(config_.seed),
                     std::to_string(t.seed));
  check_resume_field("num_entities", std::to_string(dataset_.num_entities()),
                     std::to_string(snapshot.model->entities().rows()));
  check_resume_field("num_relations",
                     std::to_string(dataset_.num_relations()),
                     std::to_string(snapshot.model->relations().rows()));
  // The per-rank RNG streams are re-derived, not stored; the stored seeds
  // exist to verify the derivation contract still holds. Under
  // shrink-resume only the surviving rank indices matter.
  const int verify_ranks = std::min(world_size, t.num_nodes);
  for (int r = 0; r < verify_ranks; ++r) {
    const std::uint64_t expected =
        util::derive_seed(config_.seed, r, t.next_epoch, 0xE0u);
    if (snapshot.rank_rng_seeds[static_cast<std::size_t>(r)] != expected) {
      throw std::invalid_argument(
          "TrainConfig::checkpoint.resume: snapshot RNG stream for rank " +
          std::to_string(r) +
          " does not match this build's seed derivation");
    }
  }
}

TrainReport DistributedTrainer::run_attempt(int world_size,
                                            const kge::TrainingSnapshot* resume,
                                            util::ThreadPool& pool,
                                            std::string* live_snapshot) {
  const int num_nodes = world_size;
  const StrategyConfig& strategy = config_.strategy;
  const obs::TelemetrySinks& tel = config_.telemetry;

  // Track layout: tid = rank for the simulated ranks, tid = num_nodes for
  // host-side (pre-cluster) work.
  if (tel.trace != nullptr) {
    for (int r = 0; r < num_nodes; ++r) {
      tel.trace->set_thread_name(r, "rank " + std::to_string(r));
    }
    tel.trace->set_thread_name(num_nodes, "host");
  }

  // ---- Partition the training triples (host side, deterministic) ------
  TripleList train_triples(dataset_.train().begin(), dataset_.train().end());
  Rng shuffle_rng(util::derive_seed(config_.seed, 0x5u));
  kge::shuffle_triples(train_triples, shuffle_rng);

  std::vector<TripleList> shards;
  RelationPartition relation_partition;
  if (strategy.relation_partition) {
    const obs::TraceSpan span(tel.trace, "relation_partition.setup",
                              num_nodes);
    relation_partition = partition_by_relation(
        train_triples, num_nodes, dataset_.num_relations());
    shards = relation_partition.shards;
  } else {
    shards = partition_uniform(train_triples, num_nodes);
  }

  std::size_t max_shard = 0;
  for (const auto& shard : shards) max_shard = std::max(max_shard, shard.size());
  // Every rank must run the same number of synchronized steps per epoch.
  const std::size_t steps_per_epoch =
      std::max<std::size_t>(1, (max_shard + config_.batch_size - 1) /
                                   config_.batch_size);

  // ---- checkpoint bookkeeping -----------------------------------------
  // Validation, mkdir, and the disk load all happened in train(); `resume`
  // arrives pre-validated (or null for a cold start).
  const TrainConfig::CheckpointConfig& ckpt = config_.checkpoint;
  const bool checkpoint_enabled = !ckpt.dir.empty();
  const std::string snapshot_file =
      checkpoint_enabled ? ckpt.dir + "/snapshot.dkgs" : std::string();
  const int start_epoch =
      resume != nullptr ? std::min(resume->trainer.next_epoch,
                                   config_.max_epochs)
                        : 0;

  TrainReport report;
  report.strategy_label = strategy.label();
  report.model_name = config_.model_name;
  report.num_nodes = num_nodes;
  report.start_epoch = start_epoch;
  if (resume != nullptr) {
    report.epochs = start_epoch;
    report.total_sim_seconds = resume->trainer.total_sim_seconds;
    report.final_val_accuracy = resume->trainer.final_val_accuracy;
    report.converged = resume->scheduler.stopped;
    if (tel.metrics != nullptr) tel.metrics->counter("train.resumes").add(1);
  }
  report.host_threads = static_cast<int>(pool.size());

  comm::Cluster cluster(num_nodes, config_.network);
  if (config_.fault_injector != nullptr) {
    if (tel.metrics != nullptr) {
      config_.fault_injector->set_metrics(tel.metrics);
    }
    cluster.set_fault_injector(config_.fault_injector);
  }

  // Owner-computes gradient merge target, shared by the ranks (see
  // core/grad_exchange.hpp).
  MergedGrads merged(num_nodes);

  cluster.run([&](Communicator& comm) {
    const int rank = comm.rank();
    if (config_.trace_communication && rank == 0) comm.enable_trace();
    // Per-rank accumulator slot for measured compute seconds; reduced in
    // fixed rank order after the final barrier (the value is a timing
    // measurement and varies run to run, but the reduction order never
    // does).
    double rank_compute_seconds = 0.0;
    const auto charge_compute = [&](double seconds) {
      comm.sim_add_compute(seconds);
      rank_compute_seconds += seconds;
    };
    Rng init_rng(util::derive_seed(config_.seed, 0x1417u));  // same all ranks
    auto model =
        kge::make_model(config_.model_name, dataset_.num_entities(),
                        dataset_.num_relations(), config_.embedding_rank);
    model->set_init_scale(config_.init_scale);
    model->init(init_rng);
    if (config_.warm_start != nullptr) {
      const auto& source = *config_.warm_start;
      if (source.entities().rows() != model->entities().rows() ||
          source.entities().width() != model->entities().width() ||
          source.relations().rows() != model->relations().rows() ||
          source.relations().width() != model->relations().width()) {
        throw std::invalid_argument(
            "TrainConfig::warm_start: parameter shapes do not match");
      }
      model->entities() = source.entities();
      model->relations() = source.relations();
    }

    kge::AdamConfig adam_config;
    adam_config.weight_decay = config_.weight_decay;
    kge::RowAdam entity_opt(dataset_.num_entities(),
                            model->entities().width(), adam_config);
    kge::RowAdam relation_opt(dataset_.num_relations(),
                              model->relations().width(), adam_config);

    GradExchange exchange(comm, strategy, dataset_.num_entities(),
                          model->entities().width(), dataset_.num_relations(),
                          model->relations().width(), merged, tel.trace,
                          rank);
    CommModeSelector selector(strategy.comm, strategy.dynamic_probe_interval,
                              strategy.dynamic_topk_arm);
    PlateauScheduler scheduler(config_.lr, num_nodes);
    const kge::NegativeSampler sampler(dataset_);
    const kge::Evaluator evaluator(dataset_);

    TripleList shard = shards[rank];
    kge::ModelGrads local = model->make_grads();
    // Batch scratch, reused across steps so the steady-state hot path
    // stops allocating.
    TripleList negatives;
    std::vector<std::size_t> negative_offsets;
    HardNegativeScratch hn_scratch;
    kge::BatchScratch batch_scratch;
    const auto topk_k = static_cast<std::size_t>(strategy.topk_k);
    GradSelector entity_selector(strategy.selection,
                                 strategy.selection_residual, topk_k);
    GradSelector relation_selector(strategy.selection,
                                   strategy.selection_residual, topk_k);

    // ---- resume: restore every piece of state a fresh run would have ---
    if (resume != nullptr) {
      const kge::TrainingSnapshot& snap = *resume;
      model->entities() = snap.model->entities();
      model->relations() = snap.model->relations();
      entity_opt.restore(snap.entity_opt.step, snap.entity_opt.m,
                         snap.entity_opt.v);
      relation_opt.restore(snap.relation_opt.step, snap.relation_opt.m,
                           snap.relation_opt.v);
      scheduler.restore({snap.scheduler.lr, snap.scheduler.best_metric,
                         snap.scheduler.stale_epochs,
                         snap.scheduler.stopped});
      selector.restore({snap.comm_selector.switched,
                        snap.comm_selector.last_allreduce_time,
                        snap.comm_selector.epochs_recorded,
                        snap.comm_selector.allreduce_epochs,
                        snap.comm_selector.committed_arm,
                        snap.comm_selector.base_probe_time,
                        snap.comm_selector.topk_probe_time});
      auto residuals = decode_residual_maps(
          snap.rank_residuals[static_cast<std::size_t>(rank)], 4);
      entity_selector.restore_residuals(std::move(residuals[0]));
      relation_selector.restore_residuals(std::move(residuals[1]));
      exchange.restore_residuals(std::move(residuals[2]),
                                 std::move(residuals[3]));
      // The shard shuffle is cumulative (each epoch shuffles the previous
      // epoch's order in place), so replay the completed epochs' shuffles
      // to put the shard in the exact order the next epoch expects.
      for (int epoch = 0; epoch < start_epoch; ++epoch) {
        Rng replay_rng(util::derive_seed(config_.seed, rank, epoch, 0xE0u));
        kge::shuffle_triples(shard, replay_rng);
      }
    }
    // Snapshots written by earlier runs count toward the persistent total.
    int checkpoints_total =
        resume != nullptr ? resume->trainer.checkpoints_written : 0;
    // Disk-fault budget (test hook) and last-good retention tracking; rank
    // 0 is the sole writer, so only its copies are ever consulted.
    int disk_faults_left =
        ckpt.test_disk_fault_at_epoch >= 0 ? ckpt.test_disk_fault_attempts : 0;
    std::string last_good_history;

    // Registry instruments are resolved once per rank (find-or-create
    // takes a mutex); recording through the cached pointers is a relaxed
    // atomic per event.
    obs::Counter* m_steps = nullptr;
    obs::Counter* m_bytes = nullptr;
    obs::Counter* m_rows_sent = nullptr;
    obs::Counter* m_ss_scored = nullptr;
    obs::Counter* m_ss_kept = nullptr;
    obs::LatencyHistogram* m_step_seconds = nullptr;
    if (tel.metrics != nullptr) {
      m_steps = &tel.metrics->counter("train.steps");
      m_bytes = &tel.metrics->counter("train.bytes_on_wire");
      m_rows_sent = &tel.metrics->counter("train.entity_rows_sent");
      m_ss_scored = &tel.metrics->counter("train.ss_candidates_scored");
      m_ss_kept = &tel.metrics->counter("train.ss_candidates_kept");
      m_step_seconds = &tel.metrics->histogram("train.step_compute_seconds");
    }

    for (int epoch = start_epoch; epoch < config_.max_epochs; ++epoch) {
      // Epoch-scoped fault addressing (kind@RANK@eEPOCH): tells the
      // injector which epoch this rank's upcoming collectives belong to.
      comm.set_fault_epoch(epoch);
      // A snapshot taken at the plateau stop restores as already-stopped;
      // running even one more epoch would diverge from the uninterrupted
      // run.
      if (scheduler.should_stop()) {
        if (rank == 0) report.converged = true;
        break;
      }
      const double sim_epoch_start = comm.sim_now();
      const double comm_epoch_start = comm.stats().total_modeled_seconds();
      const bool probe_epoch = selector.is_probe(epoch);
      const Transport transport = selector.transport_for(epoch);
      // With the Top-K arm the selection varies per epoch (dense on
      // baseline epochs, the scheduled arm on probes, the committed arm
      // after the switch); otherwise this is just strategy.selection.
      const SelectionMode epoch_selection =
          selector.selection_for(epoch, strategy.selection);
      const obs::TraceSpan epoch_span(tel.trace, "epoch", rank);

      Rng epoch_rng(util::derive_seed(config_.seed, rank, epoch, 0xE0u));
      kge::shuffle_triples(shard, epoch_rng);

      double loss_sum = 0.0;
      std::size_t loss_count = 0;
      double rows_before_sum = 0.0, rows_sent_sum = 0.0, rows_merged_sum = 0.0;
      std::size_t epoch_bytes = 0;
      std::size_t ss_scored_sum = 0, ss_kept_sum = 0;

      const double lr = scheduler.lr();
      entity_opt.set_learning_rate(lr);
      relation_opt.set_learning_rate(lr);

      for (std::size_t step = 0; step < steps_per_epoch; ++step) {
        // ---- gradient computation (measured compute) ------------------
        double compute_seconds = 0.0;
        {
          ThreadCpuTimer timer(compute_seconds);
          local.clear();
          const std::size_t begin =
              std::min(step * config_.batch_size, shard.size());
          const std::size_t end =
              std::min(begin + config_.batch_size, shard.size());

          // Examples this rank trains on: positives + selected negatives.
          const std::size_t local_examples =
              (end - begin) *
              (1 + static_cast<std::size_t>(strategy.negatives_used));
          const float inv_examples =
              local_examples == 0 ? 0.0f
                                  : 1.0f / static_cast<float>(local_examples);

          // Strategy 5 first, for the whole batch: the model is static
          // during gradient accumulation (gradients go to `local`, not the
          // parameters) and scoring consumes no RNG, so selecting every
          // positive's negatives up front is bit-identical to interleaving
          // selection with the loss pass — and gives the trace one clean
          // hard-negative span per step.
          negatives.clear();
          negative_offsets.assign(1, 0);
          const auto positives =
              std::span<const Triple>(shard).subspan(begin, end - begin);
          {
            const obs::TraceSpan span(tel.trace, "hard_negatives", rank);
            ss_scored_sum += select_hard_negatives_block(
                *model, sampler, positives, strategy.negatives_sampled,
                strategy.negatives_used, epoch_rng, negatives,
                negative_offsets, hn_scratch);
          }
          ss_kept_sum += negatives.size();

          {
            const obs::TraceSpan span(tel.trace, "forward_backward", rank);
            loss_sum = kge::accumulate_batch(
                *model, positives, negatives, negative_offsets, inv_examples,
                kCoeffUnderflow, local, batch_scratch, loss_sum);
          }
          loss_count += local_examples;

          // ---- strategy 2: gradient-row selection ----------------------
          rows_before_sum += static_cast<double>(local.entity.num_rows());
          if (epoch_selection != SelectionMode::kNone) {
            const obs::TraceSpan span(tel.trace, "grad_select", rank);
            entity_selector.apply(local.entity, epoch_rng, epoch_selection);
            if (!strategy.relation_partition) {
              relation_selector.apply(local.relation, epoch_rng,
                                      epoch_selection);
            }
          }
        }
        charge_compute(compute_seconds);

        // ---- strategies 1 & 3: synchronize gradients ------------------
        ExchangePlan plan;
        plan.transport = transport;
        plan.exchange_relations = !strategy.relation_partition;
        const ExchangeResult xresult =
            exchange.exchange(local, plan, epoch_rng);
        rows_sent_sum += static_cast<double>(xresult.entity_rows_sent);
        rows_merged_sum += static_cast<double>(xresult.entity_rows_merged);
        epoch_bytes += xresult.bytes_on_wire;

        // ---- optimizer step (measured compute) ------------------------
        double update_seconds = 0.0;
        {
          ThreadCpuTimer timer(update_seconds);
          const obs::TraceSpan span(tel.trace, "adam_update", rank);
          entity_opt.begin_step();
          relation_opt.begin_step();
          // The merged gradient is read part by part in owner order,
          // which is ascending id order.
          for (const kge::ModelGrads& part : merged.parts) {
            entity_opt.update_rows(part.entity, model->entities());
          }
          // Strategy 4: relation rows update from the local full-precision
          // gradient (this rank is their only writer), scaled to match the
          // merged-gradient averaging; otherwise from the merged cluster
          // average like entity rows.
          if (strategy.relation_partition) {
            relation_opt.update_rows_scaled(
                local.relation, 1.0f / static_cast<float>(num_nodes),
                model->relations());
          } else {
            for (const kge::ModelGrads& part : merged.parts) {
              relation_opt.update_rows(part.relation, model->relations());
            }
          }
        }
        charge_compute(update_seconds);

        if (m_steps != nullptr) {
          m_steps->add(1);
          m_bytes->add(xresult.bytes_on_wire);
          m_rows_sent->add(xresult.entity_rows_sent);
          m_step_seconds->record(compute_seconds + update_seconds);
        }
      }

      // ---- validation --------------------------------------------------
      // Without relation partition every replica is complete, so rank 0
      // validates and the result is shared. Under relation partition a
      // rank only holds fresh relation rows for the relations it owns, so
      // validation is *distributed*: each rank scores the validation
      // triples of its own relations and the accuracies are combined as a
      // pair-weighted average.
      double val_accuracy = 0.0;
      std::optional<obs::TraceSpan> val_span;
      val_span.emplace(tel.trace, "validation", rank);
      if (strategy.relation_partition) {
        double val_seconds = 0.0;
        double weighted = 0.0, pairs = 0.0;
        {
          ThreadCpuTimer timer(val_seconds);
          const auto valid = dataset_.valid();
          const std::size_t limit =
              config_.valid_max_triples == 0
                  ? valid.size()
                  : std::min(valid.size(), config_.valid_max_triples);
          const auto [lo, hi] = relation_partition.relation_range[rank];
          TripleList mine;
          for (std::size_t i = 0; i < limit; ++i) {
            if (valid[i].relation >= lo && valid[i].relation < hi) {
              mine.push_back(valid[i]);
            }
          }
          const auto [accuracy, count] = evaluator.validation_accuracy_subset(
              *model, mine, util::derive_seed(config_.seed, epoch, 0xACCu));
          weighted = accuracy * static_cast<double>(count);
          pairs = static_cast<double>(count);
        }
        charge_compute(val_seconds);
        const double weighted_sum =
            comm.allreduce_scalar(weighted, ScalarOp::kSum);
        const double pair_sum = comm.allreduce_scalar(pairs, ScalarOp::kSum);
        val_accuracy = pair_sum > 0.0 ? weighted_sum / pair_sum : 0.0;
      } else {
        if (rank == 0) {
          double val_seconds = 0.0;
          {
            ThreadCpuTimer timer(val_seconds);
            val_accuracy = evaluator.validation_accuracy(
                *model, util::derive_seed(config_.seed, epoch, 0xACCu),
                config_.valid_max_triples);
          }
          charge_compute(val_seconds);
        }
        val_accuracy = comm.allreduce_scalar(val_accuracy, ScalarOp::kMax);
      }
      val_span.reset();

      // ---- epoch accounting (cluster maxima) ---------------------------
      const double epoch_comm = comm.allreduce_scalar(
          comm.stats().total_modeled_seconds() - comm_epoch_start,
          ScalarOp::kMax);
      const double epoch_sim = comm.allreduce_scalar(
          comm.sim_now() - sim_epoch_start, ScalarOp::kMax);
      const double cluster_loss =
          comm.allreduce_scalar(loss_sum, ScalarOp::kSum) /
          std::max(1.0, comm.allreduce_scalar(
                            static_cast<double>(loss_count), ScalarOp::kSum));

      // The all-reduce baseline the selector will compare a probe against
      // — captured before record_epoch overwrites it, and logged so the
      // offline strategy audit (obs/analysis) can re-derive the decision
      // without replaying the selector. -1 until the first all-reduce
      // epoch is recorded.
      const double probe_baseline = selector.state().last_allreduce_time;
      selector.record_epoch(epoch, epoch_comm);
      scheduler.observe(val_accuracy);

      // ---- telemetry: one structured event per (epoch, rank) -----------
      // Emitted after record_epoch so `switched_to_allgather` reflects the
      // decision this epoch's probe produced. Loss/accuracy/times are the
      // allreduced cluster values, identical on every rank.
      if (tel.events != nullptr) {
        util::JsonWriter json;
        json.begin_object()
            .kv("epoch", epoch)
            .kv("rank", rank)
            .kv("comm_mode", to_string(strategy.comm))
            .kv("transport", to_string(transport))
            .kv("probe", probe_epoch)
            .kv("probe_baseline_seconds", probe_baseline)
            .kv("switched_to_allgather", selector.switched_to_allgather())
            .kv("selection", to_string(epoch_selection))
            .kv("keep_rate", rows_before_sum > 0.0
                                 ? rows_sent_sum / rows_before_sum
                                 : 1.0)
            .kv("quant", to_string(strategy.quant))
            .kv("bytes_on_wire", epoch_bytes)
            .kv("ss_candidates_scored", ss_scored_sum)
            .kv("ss_candidates_kept", ss_kept_sum)
            .kv("loss", cluster_loss)
            .kv("lr", lr)
            .kv("val_accuracy", val_accuracy)
            .kv("sim_seconds", epoch_sim)
            .kv("comm_seconds", epoch_comm)
            .end_object();
        tel.events->write_line(json.str());
      }
      if (m_ss_scored != nullptr) {
        m_ss_scored->add(ss_scored_sum);
        m_ss_kept->add(ss_kept_sum);
      }
      if (tel.metrics != nullptr && rank == 0) {
        tel.metrics->counter("train.epochs").add(1);
        tel.metrics->gauge("train.loss").set(cluster_loss);
        tel.metrics->gauge("train.val_accuracy").set(val_accuracy);
        tel.metrics->gauge("train.lr").set(lr);
        tel.metrics->histogram("train.epoch_sim_seconds").record(epoch_sim);
        tel.metrics->histogram("train.epoch_comm_seconds").record(epoch_comm);
      }

      if (rank == 0) {
        EpochRecord record;
        record.epoch = epoch;
        record.used_allgather = transport == Transport::kAllGather;
        record.sim_seconds = epoch_sim;
        record.comm_seconds = epoch_comm;
        record.val_accuracy = val_accuracy;
        record.mean_loss = cluster_loss;
        record.lr = lr;
        record.nonzero_entity_rows =
            rows_merged_sum / static_cast<double>(steps_per_epoch);
        record.rows_before_selection =
            rows_before_sum / static_cast<double>(steps_per_epoch);
        record.rows_sent =
            rows_sent_sum / static_cast<double>(steps_per_epoch);
        report.epoch_log.push_back(record);
        report.total_sim_seconds += epoch_sim;
        report.epochs = epoch + 1;
        report.final_val_accuracy = val_accuracy;
        DYNKGE_LOG_DEBUG("epoch " << epoch << " val=" << val_accuracy
                                  << " loss=" << cluster_loss
                                  << " lr=" << lr);
      }

      // ---- checkpoint (every N epochs, at convergence, and at the cap) --
      // All collectives here are charge-free and the clocks are already
      // aligned by the epoch-accounting allreduces above, so writing (or
      // not writing) snapshots leaves the simulated timeline — and hence
      // the DRS decisions and final embeddings — bit-identical. In elastic
      // mode a snapshot is built after *every* epoch; the sealed bytes go
      // to the host-side live buffer (rank 0 is the sole writer, and the
      // cohort join orders that write before the supervisor reads it).
      const bool live_due = live_snapshot != nullptr;
      const bool disk_due =
          checkpoint_enabled &&
          ((epoch + 1) % ckpt.every == 0 ||
           epoch + 1 == config_.max_epochs || scheduler.should_stop());
      if (disk_due || live_due) {
        const obs::TraceSpan ckpt_span(tel.trace, "checkpoint.write", rank);

        // Residual maps are rank-private; gather every rank's blob (only
        // rank 0, the snapshot writer, keeps a copy).
        const std::string local_blob = encode_residual_maps(
            {&entity_selector.residuals(), &relation_selector.residuals(),
             &exchange.entity_residuals(), &exchange.relation_residuals()});
        std::vector<std::string> blobs;
        comm.allgatherv(
            std::as_bytes(std::span<const char>(local_blob.data(),
                                                local_blob.size())),
            [&](comm::Slots slots) {
              if (rank != 0) return;
              for (const auto slot : slots) {
                blobs.emplace_back(
                    reinterpret_cast<const char*>(slot.data()), slot.size());
              }
            },
            /*charge_cost=*/false);

        // Under relation partition rank 0's non-owned relation rows and
        // Adam moments are stale (each rank only updates the relations it
        // owns), so the owners contribute theirs.
        std::vector<float> rel_gathered;
        if (strategy.relation_partition) {
          const auto [lo, hi] = relation_partition.relation_range[rank];
          const std::size_t width =
              static_cast<std::size_t>(model->relations().width());
          std::vector<float> mine;
          mine.reserve(3 * static_cast<std::size_t>(hi - lo) * width);
          const kge::KgeModel& frozen = *model;
          for (const kge::EmbeddingMatrix* matrix :
               {&frozen.relations(), &relation_opt.moment1(),
                &relation_opt.moment2()}) {
            for (kge::RelationId r = lo; r < hi; ++r) {
              const auto row = matrix->row(r);
              mine.insert(mine.end(), row.begin(), row.end());
            }
          }
          comm.allgatherv(
              std::as_bytes(std::span<const float>(mine)),
              [&](comm::Slots slots) {
                if (rank == 0) append_floats(slots, rel_gathered);
              },
              /*charge_cost=*/false);
        }

        if (disk_due) ++checkpoints_total;
        if (rank == 0) {
          kge::TrainingSnapshot snap;
          // A copy: relation-row overlays must not touch the live replica.
          snap.model = kge::clone_model(*model);
          snap.entity_opt = {entity_opt.step(), entity_opt.moment1(),
                             entity_opt.moment2()};
          snap.relation_opt = {relation_opt.step(), relation_opt.moment1(),
                               relation_opt.moment2()};
          if (strategy.relation_partition) {
            // Overlay each owner's fresh rows into the snapshot copies.
            const std::size_t width =
                static_cast<std::size_t>(model->relations().width());
            std::size_t offset = 0;
            for (int r = 0; r < num_nodes; ++r) {
              const auto [lo, hi] = relation_partition.relation_range[r];
              for (kge::EmbeddingMatrix* matrix :
                   {&snap.model->relations(), &snap.relation_opt.m,
                    &snap.relation_opt.v}) {
                for (kge::RelationId rel = lo; rel < hi; ++rel) {
                  std::copy_n(rel_gathered.begin() +
                                  static_cast<std::ptrdiff_t>(offset),
                              width, matrix->row(rel).begin());
                  offset += width;
                }
              }
            }
          }
          snap.trainer.next_epoch = epoch + 1;
          snap.trainer.num_nodes = num_nodes;
          snap.trainer.seed = config_.seed;
          snap.trainer.model_name = config_.model_name;
          snap.trainer.embedding_rank = config_.embedding_rank;
          snap.trainer.strategy_label = strategy.label();
          snap.trainer.total_sim_seconds = report.total_sim_seconds;
          snap.trainer.final_val_accuracy = report.final_val_accuracy;
          snap.trainer.checkpoints_written = checkpoints_total;
          const auto scheduler_state = scheduler.state();
          snap.scheduler = {scheduler_state.lr, scheduler_state.best_metric,
                            scheduler_state.stale_epochs,
                            scheduler_state.stopped};
          const auto selector_state = selector.state();
          snap.comm_selector = {selector_state.switched,
                                selector_state.last_allreduce_time,
                                selector_state.epochs_recorded,
                                selector_state.allreduce_epochs,
                                selector_state.committed_arm,
                                selector_state.base_probe_time,
                                selector_state.topk_probe_time};
          snap.rank_rng_seeds.reserve(num_nodes);
          for (int r = 0; r < num_nodes; ++r) {
            snap.rank_rng_seeds.push_back(
                util::derive_seed(config_.seed, r, epoch + 1, 0xE0u));
          }
          snap.rank_residuals = std::move(blobs);

          const std::string sealed = kge::serialize_snapshot(snap);
          if (live_due) *live_snapshot = sealed;
          if (disk_due) {
            kge::SnapshotWriteOptions write_options;
            if (epoch == ckpt.test_kill_at_epoch) {
              write_options.test_kill_after_bytes = ckpt.test_kill_mid_write;
            }
            // Degradation policy (--checkpoint-on-error): "fail" rethrows,
            // "retry" gets fault_retry_limit attempts with a fresh temp
            // file each time, and "skip" (or retry exhaustion) logs the
            // error, keeps the previous snapshot as the resume point, and
            // lets training continue. The write is host-side and
            // charge-free either way, so the simulated timeline — and the
            // final embeddings — are untouched by a failing disk.
            const int max_attempts =
                ckpt.on_error == "retry" ? config_.fault_retry_limit : 1;
            bool written = false;
            std::string write_error;
            for (int attempt = 0; attempt < max_attempts && !written;
                 ++attempt) {
              write_options.test_write_errno =
                  (disk_faults_left > 0 &&
                   ckpt.test_disk_fault_at_epoch >= 0 &&
                   epoch >= ckpt.test_disk_fault_at_epoch)
                      ? ENOSPC
                      : 0;
              if (write_options.test_write_errno != 0) --disk_faults_left;
              try {
                kge::write_snapshot_bytes(sealed, snapshot_file,
                                          write_options);
                written = true;
              } catch (const std::exception& error) {
                write_error = error.what();
                if (ckpt.on_error == "fail") throw;
              }
            }
            if (written) {
              report.checkpoints_written += 1;
              if (tel.metrics != nullptr) {
                tel.metrics->counter("train.checkpoints_written").add(1);
              }
              if (ckpt.keep > 1) {
                // History copy of the same sealed bytes, then prune the
                // oldest copies beyond the budget — never the last good.
                const std::string history_file =
                    ckpt.dir + "/snapshot-e" + std::to_string(epoch) +
                    ".dkgs";
                kge::write_snapshot_bytes(sealed, history_file);
                last_good_history = history_file;
                kge::prune_snapshots(ckpt.dir, ckpt.keep, last_good_history);
              }
            } else {
              // Degraded: the run keeps training; the previous snapshot
              // stays the resume point.
              checkpoints_total -= 1;
              DYNKGE_LOG_INFO("checkpoint write failed at epoch "
                              << epoch << " (" << ckpt.on_error
                              << "): " << write_error);
              if (tel.metrics != nullptr) {
                tel.metrics->counter("train.checkpoint_write_failures")
                    .add(1);
              }
              if (tel.events != nullptr) {
                util::JsonWriter json;
                json.begin_object()
                    .kv("event", "checkpoint_error")
                    .kv("epoch", epoch)
                    .kv("policy", ckpt.on_error)
                    .kv("error", write_error)
                    .end_object();
                tel.events->write_line(json.str());
              }
            }
            if (written && epoch == ckpt.test_kill_at_epoch) {
              // Harness hook: die *after* the snapshot is durable (the
              // mid-write variant never reaches this point).
              ::raise(SIGKILL);
            }
          }
        }
        if (live_due) {
          // Publication barrier: without it a sibling could crash in epoch
          // e+1 and abort rank 0 while it is still sealing epoch e's
          // snapshot, making the state recovery rolls back to depend on
          // host thread timing. Charge-free, so the simulated timeline is
          // untouched; only the collective count differs from a
          // non-elastic run (relevant solely to index-addressed fault
          // specs — epoch addressing is unaffected).
          const char token = 0;
          comm.allgatherv(
              std::as_bytes(std::span<const char>(&token, 1)),
              [](comm::Slots) {}, /*charge_cost=*/false);
        }
      }

      if (scheduler.should_stop()) {
        if (rank == 0) report.converged = true;
        break;
      }
    }
    comm.set_fault_epoch(-1);

    // ---- verify the replica-consistency invariant ----------------------
    {
      // FNV-1a over the entity matrix bytes; identical replicas produce
      // identical hashes, so cluster-min == cluster-max.
      const auto flat = model->entities().flat();
      const std::uint64_t hash = kge::fnv1a(flat.data(), flat.size_bytes());
      const auto as_double = static_cast<double>(hash >> 11);
      const double lo = comm.allreduce_scalar(as_double, ScalarOp::kMin);
      const double hi = comm.allreduce_scalar(as_double, ScalarOp::kMax);
      if (rank == 0) report.replicas_consistent = (lo == hi);
    }

    // ---- reduce the per-rank compute slots (fixed rank order) ----------
    {
      const double cluster_compute =
          comm.allreduce_scalar(rank_compute_seconds, ScalarOp::kSum);
      if (rank == 0) report.compute_cpu_seconds = cluster_compute;
    }

    // ---- reassemble relation rows under relation partition ------------
    if (strategy.relation_partition) {
      const auto [lo, hi] = relation_partition.relation_range[rank];
      const std::size_t width = model->relations().width();
      std::vector<float> mine;
      mine.reserve(static_cast<std::size_t>(hi - lo) * width);
      for (kge::RelationId r = lo; r < hi; ++r) {
        const auto row = model->relations().row(r);
        mine.insert(mine.end(), row.begin(), row.end());
      }
      std::vector<float> gathered;
      comm.allgatherv(std::as_bytes(std::span<const float>(mine)),
                      [&](comm::Slots slots) {
                        append_floats(slots, gathered);
                      });
      // Ranges are contiguous ascending, so the rank-ordered concatenation
      // is the full relation matrix.
      if (gathered.size() == model->relations().flat().size()) {
        std::copy(gathered.begin(), gathered.end(),
                  model->relations().flat().begin());
      }
    }

    if (rank == 0) {
      report.allreduce_fraction = selector.allreduce_fraction();
      report.comm_stats = comm.stats();
      if (config_.trace_communication) report.comm_trace = comm.trace();
      if (config_.compute_final_metrics) {
        report.tca = evaluator.triple_classification_accuracy(
            *model, util::derive_seed(config_.seed, 0x7CAu));
        kge::EvalOptions eval_options;
        eval_options.filtered = true;
        eval_options.max_triples = config_.eval_max_triples;
        report.ranking =
            evaluator.link_prediction(*model, dataset_.test(), eval_options);
      }
      report.model = std::move(model);
    }
  }, pool);

  return report;
}

}  // namespace dynkge::core
