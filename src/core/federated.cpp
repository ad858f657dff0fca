#include "core/federated.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "comm/recovery.hpp"
#include "core/grad_exchange.hpp"
#include "core/grad_select.hpp"
#include "core/relation_partition.hpp"
#include "kge/loss.hpp"
#include "kge/model_factory.hpp"
#include "kge/negative_sampler.hpp"
#include "kge/serialize.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dynkge::core {
namespace {

using comm::Communicator;
using comm::ScalarOp;
using kge::Triple;
using kge::TripleList;
using util::Rng;

void shuffle_triples(TripleList& triples, Rng& rng) {
  for (std::size_t i = triples.size(); i > 1; --i) {
    std::swap(triples[i - 1], triples[rng.next_below(i)]);
  }
}

/// FNV-1a over a float span (the replica-consistency fingerprint).
std::uint64_t fnv1a(std::span<const float> data, std::uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size_bytes(); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

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
    if (s.topk_k < 1) {
      throw std::invalid_argument(
          "FederatedConfig: Top-K selection requires topk_k >= 1 (--topk-k)");
    }
    if (s.topk_k > dataset_.num_entities()) {
      throw std::invalid_argument(
          "FederatedConfig: topk_k (" + std::to_string(s.topk_k) +
          ") exceeds the entity count (" +
          std::to_string(dataset_.num_entities()) + ") (--topk-k)");
    }
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
  shuffle_triples(train_triples, shuffle_rng);
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
      std::copy(resume->entity_params.begin(), resume->entity_params.end(),
                model->entities().flat().begin());
      std::copy(resume->relation_params.begin(),
                resume->relation_params.end(),
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

    kge::ModelGrads delta = model->make_grads();
    std::vector<std::int32_t> touched_entities;
    std::vector<std::int32_t> touched_relations;
    std::vector<std::uint8_t> entity_touched(
        static_cast<std::size_t>(dataset_.num_entities()), 0);
    std::vector<std::uint8_t> relation_touched(
        static_cast<std::size_t>(dataset_.num_relations()), 0);

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
      std::copy(model->entities().flat().begin(),
                model->entities().flat().end(),
                local_model->entities().flat().begin());
      std::copy(model->relations().flat().begin(),
                model->relations().flat().end(),
                local_model->relations().flat().begin());
      touched_entities.clear();
      touched_relations.clear();

      const auto learning_rate = static_cast<float>(scheduler.lr());
      const auto decay = static_cast<float>(config_.weight_decay);
      double loss_sum = 0.0;
      kge::ModelGrads step_grads = model->make_grads();
      TripleList shard = shards[static_cast<std::size_t>(client)];
      const util::Stopwatch local_clock;

      const auto sgd_step = [&](const Triple& triple, int label) {
        const auto lg = kge::logistic_loss(
            local_model->score(triple.head, triple.relation, triple.tail),
            label);
        loss_sum += lg.loss;
        step_grads.clear();
        local_model->accumulate_gradients(triple.head, triple.relation,
                                          triple.tail,
                                          static_cast<float>(lg.dscore),
                                          step_grads);
        for (const std::int32_t id : step_grads.entity.sorted_ids()) {
          auto row = local_model->entities().row(id);
          const auto g = step_grads.entity.row(id);
          for (std::size_t i = 0; i < row.size(); ++i) {
            row[i] -= learning_rate * (g[i] + decay * row[i]);
          }
          if (!entity_touched[static_cast<std::size_t>(id)]) {
            entity_touched[static_cast<std::size_t>(id)] = 1;
            touched_entities.push_back(id);
          }
        }
        for (const std::int32_t id : step_grads.relation.sorted_ids()) {
          auto row = local_model->relations().row(id);
          const auto g = step_grads.relation.row(id);
          for (std::size_t i = 0; i < row.size(); ++i) {
            row[i] -= learning_rate * (g[i] + decay * row[i]);
          }
          if (!relation_touched[static_cast<std::size_t>(id)]) {
            relation_touched[static_cast<std::size_t>(id)] = 1;
            touched_relations.push_back(id);
          }
        }
      };

      for (int epoch = 0; epoch < policy.local_epochs; ++epoch) {
        Rng epoch_rng(
            util::derive_seed(config_.seed, client, round, epoch, 0xFEDu));
        shuffle_triples(shard, epoch_rng);
        for (const Triple& triple : shard) {
          sgd_step(triple, +1);
          for (int n = 0; n < config_.negatives; ++n) {
            sgd_step(sampler.corrupt(triple, epoch_rng), -1);
          }
        }
      }
      comm.sim_add_compute(local_clock.seconds());

      // ---- delta = local - global for every touched row ----------------
      delta.clear();
      for (const std::int32_t id : touched_entities) {
        auto out = delta.entity.accumulate(id);
        const auto local_row = local_model->entities().row(id);
        const auto global_row = model->entities().row(id);
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = local_row[i] - global_row[i];
        }
        entity_touched[static_cast<std::size_t>(id)] = 0;
      }
      for (const std::int32_t id : touched_relations) {
        auto out = delta.relation.accumulate(id);
        const auto local_row = local_model->relations().row(id);
        const auto global_row = model->relations().row(id);
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = local_row[i] - global_row[i];
        }
        relation_touched[static_cast<std::size_t>(id)] = 0;
      }

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
      std::uint64_t hash = fnv1a(model->entities().flat(),
                                 0xcbf29ce484222325ULL);
      hash = fnv1a(model->relations().flat(), hash);
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
