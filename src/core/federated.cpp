#include "core/federated.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "comm/recovery.hpp"
#include "core/grad_exchange.hpp"
#include "core/grad_select.hpp"
#include "core/relation_partition.hpp"
#include "kge/model_factory.hpp"
#include "kge/negative_sampler.hpp"
#include "kge/serialize.hpp"
#include "kge/sgd_step.hpp"
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

/// Rows a client's local epochs touched, in first-touch order: the rows
/// of the round's delta.
struct TouchedRows {
  std::vector<std::uint8_t> seen;
  std::vector<std::int32_t> ids;

  explicit TouchedRows(std::int32_t rows)
      : seen(static_cast<std::size_t>(rows), 0) {}

  void mark(std::int32_t id) {
    if (seen[static_cast<std::size_t>(id)] != 0) return;
    seen[static_cast<std::size_t>(id)] = 1;
    ids.push_back(id);
  }

  /// out[id] = local[id] - global[id] for every touched id, then reset.
  void take_delta(const kge::EmbeddingMatrix& local,
                  const kge::EmbeddingMatrix& global, kge::SparseGrad& out) {
    for (const std::int32_t id : ids) {
      const auto local_row = local.row(id);
      std::transform(local_row.begin(), local_row.end(),
                     global.row(id).begin(), out.accumulate(id).begin(),
                     std::minus<>());
      seen[static_cast<std::size_t>(id)] = 0;
    }
    ids.clear();
  }
};

}  // namespace

FederatedTrainer::FederatedTrainer(const kge::Dataset& dataset,
                                   FederatedConfig config)
    : dataset_(dataset), config_(std::move(config)) {
  comm::validate_federated_policy(config_.policy);
  if (config_.negatives < 1) {
    throw std::invalid_argument(
        "FederatedConfig: negatives must be >= 1 (--negatives)");
  }
  const StrategyConfig& s = config_.strategy;
  if (s.dynamic_topk_arm) {
    throw std::invalid_argument(
        "FederatedConfig: the dynamic Top-K arm belongs to the distributed "
        "trainer (--drs-topk-arm); federated runs pick one selection");
  }
  if (s.selection == SelectionMode::kTopK) {
    validate_topk_k(s.topk_k, dataset_.num_entities(), "FederatedConfig");
  }
  if (!config_.active_clients.empty()) {
    const auto& roster = config_.active_clients;
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (roster[i] < 0 || roster[i] >= config_.policy.num_clients) {
        throw std::invalid_argument(
            "FederatedConfig: active client id " + std::to_string(roster[i]) +
            " is outside [0, " + std::to_string(config_.policy.num_clients) +
            ")");
      }
      if (i > 0 && roster[i] <= roster[i - 1]) {
        throw std::invalid_argument(
            "FederatedConfig: active_clients must be strictly ascending");
      }
    }
  }
}

void FederatedTrainer::validate_resume(const FederatedSnapshot& snapshot,
                                       const std::vector<int>& active) const {
  if (snapshot.clients.size() != snapshot.client_residuals.size()) {
    throw std::invalid_argument(
        "FederatedSnapshot: clients/client_residuals size mismatch");
  }
  // Survivors of a crash (and explicit shrunk rosters) must all have state
  // in the snapshot; a client the snapshot never saw cannot resume.
  for (const int client : active) {
    if (!std::binary_search(snapshot.clients.begin(), snapshot.clients.end(),
                            client)) {
      throw std::invalid_argument(
          "FederatedSnapshot: active client " + std::to_string(client) +
          " has no state in the resume snapshot");
    }
  }
  const auto probe =
      kge::make_model(config_.model_name, dataset_.num_entities(),
                      dataset_.num_relations(), config_.embedding_rank);
  if (snapshot.entity_params.size() != probe->entities().flat().size() ||
      snapshot.relation_params.size() != probe->relations().flat().size()) {
    throw std::invalid_argument(
        "FederatedSnapshot: parameter shapes do not match this model");
  }
}

FederatedReport FederatedTrainer::train() {
  const util::Stopwatch wall;
  const comm::ElasticPolicy& elastic = config_.policy.elastic;

  std::vector<int> active = config_.active_clients;
  if (active.empty()) {
    active.resize(static_cast<std::size_t>(config_.policy.num_clients));
    for (std::size_t i = 0; i < active.size(); ++i) {
      active[i] = static_cast<int>(i);
    }
  }

  std::shared_ptr<const FederatedSnapshot> resume_state = config_.resume;

  std::shared_ptr<util::ThreadPool> pool = config_.host_pool;
  if (pool == nullptr) {
    const std::size_t threads =
        config_.host_threads > 0
            ? static_cast<std::size_t>(config_.host_threads)
            : util::ThreadPool::hardware_threads();
    pool = std::make_shared<util::ThreadPool>(threads);
  }

  // ---- supervision loop (the distributed trainer's, roster-keyed) ------
  // A client death unwinds as RankFailedError; within the elastic budget
  // the roster shrinks to the survivors (original client ids — shard
  // ownership and RNG streams follow the id, not the rank) and the
  // poisoned round replays from the newest round snapshot.
  comm::RecoveryObserver observer(config_.telemetry);
  int client_failures = 0;
  int recoveries = 0;
  double recovery_seconds = 0.0;
  for (;;) {
    std::shared_ptr<FederatedSnapshot> live;
    try {
      FederatedReport report =
          run_attempt(active, resume_state.get(), *pool, &live);
      report.client_failures = client_failures;
      report.recoveries = recoveries;
      report.recovery_seconds = recovery_seconds;
      report.wall_seconds = wall.seconds();
      return report;
    } catch (const comm::RankFailedError& error) {
      const comm::RecoveryPlan plan = comm::plan_recovery(
          error, static_cast<int>(active.size()), elastic, client_failures);
      observer.on_failure(plan);
      if (plan.action == comm::RecoveryAction::kFailFast) {
        DYNKGE_LOG_ERROR("unrecoverable client failure: " << plan.describe());
        throw;
      }
      DYNKGE_LOG_WARN("recovering from client failure: " << plan.describe());
      const util::Stopwatch rebuild;
      if (live != nullptr) resume_state = live;
      client_failures += static_cast<int>(plan.failed_ranks.size());
      recoveries += 1;
      active = comm::apply_failures(active, plan.failed_ranks);
      recovery_seconds += rebuild.seconds();
      const int resume_round =
          resume_state != nullptr ? resume_state->next_round : 0;
      observer.on_recovered(plan, rebuild.seconds(), resume_round);
      DYNKGE_LOG_INFO("recovered: replaying round "
                      << resume_round << " with " << active.size()
                      << " clients");
    }
  }
}

FederatedReport FederatedTrainer::run_attempt(
    const std::vector<int>& active, const FederatedSnapshot* resume,
    util::ThreadPool& pool, std::shared_ptr<FederatedSnapshot>* live) {
  const StrategyConfig& strategy = config_.strategy;
  const comm::FederatedPolicy& policy = config_.policy;
  const obs::TelemetrySinks& tel = config_.telemetry;
  const int world = static_cast<int>(active.size());

  if (resume != nullptr) validate_resume(*resume, active);

  // ---- shard the private client data (host side, deterministic) --------
  // Partitioned once for the ORIGINAL client count, so client c's shard is
  // the same triples whether or not other clients have since died — a
  // dead client's data simply drops out (it is private to that client).
  TripleList train_triples(dataset_.train().begin(), dataset_.train().end());
  Rng shuffle_rng(util::derive_seed(config_.seed, 0x5u));
  kge::shuffle_triples(train_triples, shuffle_rng);
  const std::vector<TripleList> shards =
      partition_uniform(train_triples, policy.num_clients);

  const int start_round =
      resume != nullptr ? std::min(resume->next_round, policy.rounds) : 0;

  FederatedReport report;
  report.strategy_label = strategy.label();
  report.model_name = config_.model_name;
  report.num_clients = policy.num_clients;
  report.active_clients = world;
  report.rounds = start_round;
  if (resume != nullptr) {
    report.converged = resume->scheduler_stopped;
    if (tel.metrics != nullptr) {
      tel.metrics->counter("federated.resumes").add(1);
    }
  }

  comm::Cluster cluster(world, config_.network);
  if (config_.fault_injector != nullptr) {
    if (tel.metrics != nullptr) {
      config_.fault_injector->set_metrics(tel.metrics);
    }
    cluster.set_fault_injector(config_.fault_injector);
  }

  comm::FederatedObserver round_observer(tel);
  std::shared_ptr<FederatedSnapshot> newest;  // rank 0 writes, post-join read

  // Owner-computes delta merge target, shared by the clients (see
  // core/grad_exchange.hpp).
  MergedGrads merged(world);

  cluster.run([&](Communicator& comm) {
    const int rank = comm.rank();
    const int client = active[static_cast<std::size_t>(rank)];

    // Global model — identical on every client, by construction and then
    // by induction (every round applies the same merged average delta).
    Rng init_rng(util::derive_seed(config_.seed, 0x1417u));
    auto model =
        kge::make_model(config_.model_name, dataset_.num_entities(),
                        dataset_.num_relations(), config_.embedding_rank);
    model->set_init_scale(config_.init_scale);
    model->init(init_rng);
    // Scratch model holding this client's local view during a round.
    auto local_model =
        kge::make_model(config_.model_name, dataset_.num_entities(),
                        dataset_.num_relations(), config_.embedding_rank);

    GradExchange exchange(comm, strategy, dataset_.num_entities(),
                          model->entities().width(),
                          dataset_.num_relations(),
                          model->relations().width(), merged, tel.trace,
                          rank);
    PlateauScheduler scheduler(config_.lr, world);
    const kge::NegativeSampler sampler(dataset_);
    const kge::Evaluator evaluator(dataset_);
    const auto topk_k = static_cast<std::size_t>(strategy.topk_k);
    GradSelector entity_selector(strategy.selection,
                                 strategy.selection_residual, topk_k);
    GradSelector relation_selector(strategy.selection,
                                   strategy.selection_residual, topk_k);

    if (resume != nullptr) {
      std::ranges::copy(resume->entity_params,
                        model->entities().flat().begin());
      std::ranges::copy(resume->relation_params,
                        model->relations().flat().begin());
      scheduler.restore({resume->scheduler_lr, resume->scheduler_best_metric,
                         resume->scheduler_stale_epochs,
                         resume->scheduler_stopped});
      // Residuals are keyed on the ORIGINAL client id, so a survivor picks
      // up exactly the residual mass it parked before the crash.
      const auto it = std::lower_bound(resume->clients.begin(),
                                       resume->clients.end(), client);
      const auto slot =
          static_cast<std::size_t>(it - resume->clients.begin());
      auto residuals =
          kge::decode_residual_maps(resume->client_residuals[slot], 4);
      entity_selector.restore_residuals(std::move(residuals[0]));
      relation_selector.restore_residuals(std::move(residuals[1]));
      exchange.restore_residuals(std::move(residuals[2]),
                                 std::move(residuals[3]));
    }

    kge::SgdStep local_step(*local_model,
                            static_cast<float>(config_.weight_decay));
    kge::ModelGrads delta = model->make_grads();
    TouchedRows touched_entities(dataset_.num_entities());
    TouchedRows touched_relations(dataset_.num_relations());

    for (int round = start_round; round < policy.rounds; ++round) {
      comm.set_fault_epoch(round);
      // A snapshot taken at the plateau stop restores as already-stopped.
      if (scheduler.should_stop()) {
        if (rank == 0) report.converged = true;
        break;
      }
      const double sim_round_start = comm.sim_now();
      const double comm_round_start = comm.stats().total_modeled_seconds();

      // ---- E local epochs of plain SGD on the private shard ------------
      // The shard is reset to its canonical (partition-time) order every
      // round and every shuffle stream is keyed on (seed, client, round,
      // epoch), so no state leaks between rounds — a resumed round replays
      // byte-identically.
      local_model->entities() = model->entities();
      local_model->relations() = model->relations();

      const auto learning_rate = static_cast<float>(scheduler.lr());
      double loss_sum = 0.0;
      TripleList shard = shards[static_cast<std::size_t>(client)];
      // Thread-CPU, like the distributed trainer's compute: clients
      // timesharing a core must not inflate each other's charge.
      const double local_start = util::thread_cpu_seconds();

      const auto sgd_step = [&](const Triple& triple, int label) {
        const kge::SgdStep::Result step =
            local_step(triple, label, learning_rate);
        loss_sum += step.loss;
        for (const std::int32_t id : step.entities()) {
          touched_entities.mark(id);
        }
        touched_relations.mark(step.relation);
      };

      for (int epoch = 0; epoch < policy.local_epochs; ++epoch) {
        Rng epoch_rng(
            util::derive_seed(config_.seed, client, round, epoch, 0xFEDu));
        kge::shuffle_triples(shard, epoch_rng);
        for (const Triple& triple : shard) {
          sgd_step(triple, +1);
          for (int n = 0; n < config_.negatives; ++n) {
            sgd_step(sampler.corrupt(triple, epoch_rng), -1);
          }
        }
      }
      comm.sim_add_compute(util::thread_cpu_seconds() - local_start);

      // ---- delta = local - global for every touched row ----------------
      delta.clear();
      touched_entities.take_delta(local_model->entities(), model->entities(),
                                  delta.entity);
      touched_relations.take_delta(local_model->relations(),
                                   model->relations(), delta.relation);

      // ---- sparsify (with error feedback) and aggregate ----------------
      const std::size_t rows_before =
          delta.entity.num_rows() + delta.relation.num_rows();
      Rng select_rng(util::derive_seed(config_.seed, client, round, 0x5E1u));
      entity_selector.apply(delta.entity, select_rng);
      relation_selector.apply(delta.relation, select_rng);
      const std::size_t rows_kept =
          delta.entity.num_rows() + delta.relation.num_rows();

      ExchangePlan plan;
      plan.transport = Transport::kParameterServer;
      plan.exchange_relations = true;
      Rng exchange_rng(
          util::derive_seed(config_.seed, client, round, 0xE7u));
      const ExchangeResult result =
          exchange.exchange(delta, plan, exchange_rng);

      // Everyone applies the same merged average delta (FedAvg with equal
      // client weights — the uniform partition keeps shards near-equal),
      // reading the owner parts in ascending id order.
      for (const kge::ModelGrads& part : merged.parts) {
        for (const auto& [deltas, params] :
             {std::pair{&part.entity, &model->entities()},
              std::pair{&part.relation, &model->relations()}}) {
          for (const std::int32_t id : deltas->sorted_ids()) {
            auto row = params->row(id);
            const auto d = deltas->row(id);
            for (std::size_t i = 0; i < row.size(); ++i) row[i] += d[i];
          }
        }
      }

      // ---- round accounting (fixed rank order, identical everywhere) ---
      double val_accuracy = 0.0;
      if (rank == 0) {
        val_accuracy = evaluator.validation_accuracy(
            *model, util::derive_seed(config_.seed, round, 0xACCu),
            config_.valid_max_triples);
      }
      val_accuracy = comm.allreduce_scalar(val_accuracy, ScalarOp::kMax);
      const double round_comm = comm.allreduce_scalar(
          comm.stats().total_modeled_seconds() - comm_round_start,
          ScalarOp::kMax);
      const double round_sim = comm.allreduce_scalar(
          comm.sim_now() - sim_round_start, ScalarOp::kMax);
      const std::size_t steps =
          shard.size() * static_cast<std::size_t>(1 + config_.negatives) *
          static_cast<std::size_t>(policy.local_epochs);
      const double mean_loss =
          comm.allreduce_scalar(loss_sum, ScalarOp::kSum) /
          std::max(1.0, comm.allreduce_scalar(static_cast<double>(steps),
                                              ScalarOp::kSum));
      const double round_lr = scheduler.lr();
      scheduler.observe(val_accuracy);

      comm::FederatedRoundStats stats;
      stats.round = round;
      stats.client = client;
      stats.root = rank == 0;
      stats.active_clients = world;
      stats.local_epochs = policy.local_epochs;
      stats.selection = to_string(strategy.selection);
      stats.keep_rate = rows_before == 0
                            ? 1.0
                            : static_cast<double>(rows_kept) /
                                  static_cast<double>(rows_before);
      stats.bytes_on_wire = result.bytes_on_wire;
      stats.mean_loss = mean_loss;
      stats.lr = round_lr;
      stats.val_accuracy = val_accuracy;
      stats.sim_seconds = round_sim;
      stats.comm_seconds = round_comm;
      round_observer.on_round(stats);

      if (rank == 0) {
        FederatedRoundRecord record;
        record.round = round;
        record.active_clients = world;
        record.mean_loss = mean_loss;
        record.val_accuracy = val_accuracy;
        record.lr = round_lr;
        record.selection = stats.selection;
        record.keep_rate = stats.keep_rate;
        record.bytes_on_wire = result.bytes_on_wire;
        record.sim_seconds = round_sim;
        record.comm_seconds = round_comm;
        report.round_log.push_back(record);
        report.rounds = round + 1;
        report.final_val_accuracy = val_accuracy;
        report.total_sim_seconds += round_sim;
      }

      // ---- round snapshot (charge-free) --------------------------------
      // Residual maps are client-private; gather every client's blob so a
      // survivor of the NEXT round's crash can restore its own. Built
      // every round regardless of elastic mode: the collective count stays
      // uniform and the final snapshot doubles as the report's final_state.
      const std::string local_blob = kge::encode_residual_maps(
          {&entity_selector.residuals(), &relation_selector.residuals(),
           &exchange.entity_residuals(), &exchange.relation_residuals()});
      std::vector<std::string> blobs;  // rank 0, the snapshot writer, only
      comm.allgatherv(
          std::as_bytes(
              std::span<const char>(local_blob.data(), local_blob.size())),
          [&](comm::Slots slots) {
            if (rank != 0) return;
            for (const auto slot : slots) {
              blobs.emplace_back(reinterpret_cast<const char*>(slot.data()),
                                 slot.size());
            }
          },
          /*charge_cost=*/false);
      if (rank == 0) {
        auto snap = std::make_shared<FederatedSnapshot>();
        snap->next_round = round + 1;
        snap->entity_params.assign(model->entities().flat().begin(),
                                   model->entities().flat().end());
        snap->relation_params.assign(model->relations().flat().begin(),
                                     model->relations().flat().end());
        const auto scheduler_state = scheduler.state();
        snap->scheduler_lr = scheduler_state.lr;
        snap->scheduler_best_metric = scheduler_state.best_metric;
        snap->scheduler_stale_epochs = scheduler_state.stale_epochs;
        snap->scheduler_stopped = scheduler_state.stopped;
        snap->clients = active;
        snap->client_residuals = std::move(blobs);
        // Rank 0 only throws from collectives, so both writes complete
        // before any crash can unwind this frame; the cohort join orders
        // them before the supervisor (or the caller) reads.
        newest = snap;
        if (live != nullptr) *live = snap;
      }

      if (scheduler.should_stop()) {
        if (rank == 0) report.converged = true;
        break;
      }
    }
    comm.set_fault_epoch(-1);

    // ---- verify the replica-consistency invariant ----------------------
    {
      const auto entities = model->entities().flat();
      const auto relations = model->relations().flat();
      const std::uint64_t hash =
          kge::fnv1a(relations.data(), relations.size_bytes(),
                     kge::fnv1a(entities.data(), entities.size_bytes()));
      const auto as_double = static_cast<double>(hash >> 11);
      const double lo = comm.allreduce_scalar(as_double, ScalarOp::kMin);
      const double hi = comm.allreduce_scalar(as_double, ScalarOp::kMax);
      if (rank == 0) report.replicas_consistent = (lo == hi);
    }

    if (rank == 0) {
      if (config_.compute_final_metrics) {
        report.tca = evaluator.triple_classification_accuracy(
            *model, util::derive_seed(config_.seed, 0x7CAu));
        kge::EvalOptions options;
        options.max_triples = config_.eval_max_triples;
        report.ranking =
            evaluator.link_prediction(*model, dataset_.test(), options);
      }
      report.model = std::move(model);
    }
  }, pool);

  report.final_state = newest;
  return report;
}

}  // namespace dynkge::core
