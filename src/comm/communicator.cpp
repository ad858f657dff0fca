#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

namespace dynkge::comm {
namespace {

/// FNV-1a over a payload, extended over the publishing rank's scalar slot
/// so zero-byte collectives (allreduce_scalar) are covered by the
/// same digest. Zero simulated seconds are charged for this — see
/// DESIGN.md §13 for why that keeps checksummed runs byte-identical.
std::uint64_t integrity_hash(std::span<const std::byte> payload,
                             double scalar) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::byte b : payload) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  std::uint64_t scalar_bits = 0;
  std::memcpy(&scalar_bits, &scalar, sizeof(scalar_bits));
  for (int i = 0; i < 8; ++i) {
    hash ^= (scalar_bits >> (8 * i)) & 0xFFu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Flip the low bit of a double's mantissa (the corruption a flaky link
/// would inflict on a scalar payload).
double flip_low_bit(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1ULL;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

void Barrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborted_.load(std::memory_order_acquire)) throw AbortedError{};
  const std::uint64_t my_generation = generation_;
  if (++waiting_ == num_ranks_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] {
    return generation_ != my_generation ||
           aborted_.load(std::memory_order_acquire);
  });
  // A completed generation releases normally even when an abort raced in
  // after the last arrival — the fault check's verdict protocol
  // (Communicator::check_faults) depends on every released rank getting to
  // act on the verdict slots. Only a wait whose generation never completed
  // turns into AbortedError; the abort still poisons all future entries
  // via the check above.
  if (generation_ == my_generation) throw AbortedError{};
}

void Barrier::abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void Communicator::publish_and_sync(std::span<const std::byte> payload) {
  state_.clock[rank_] = sim_now_;
  state_.slot[rank_] = payload;
  if (injector_ == nullptr) {
    state_.barrier.arrive_and_wait();
    return;
  }

  // Wire-integrity path (armed by attaching any injector, even an empty
  // schedule — the CLI's --wire-checksums). The digest is computed once,
  // over the payload this rank *intends* to send plus its scalar slot,
  // before any corruption; a scheduled kCorrupt fault publishes a
  // bit-flipped copy instead for its first rounds, and only that copy is
  // hashed again. After the publish barrier every rank compares every
  // slot's (intended, received) digest pair over identical shared state,
  // so all ranks reach the same verdict: clean -> proceed, corrupt -> a
  // separator barrier (re-publishing must not race ranks still comparing)
  // and another round, budget exhausted -> the corrupting rank dies with
  // RankFailedError and the rest unwind with AbortedError (aggregated by
  // Cluster::run like any rank death).
  const int corrupt_sends = pending_corrupt_sends_;
  pending_corrupt_sends_ = 0;
  const double clean_scalar = state_.scalar[rank_];
  const std::uint64_t clean_hash = integrity_hash(payload, clean_scalar);
  injector_->record_bytes_hashed(payload.size() + sizeof(double));
  state_.checksum[rank_] = clean_hash;
  const RetryPolicy& policy = injector_->policy();
  double backoff = policy.backoff_seconds;
  int round = 0;
  while (true) {
    if (round < corrupt_sends) {
      injector_->record_corrupted_payload();
      if (!payload.empty()) {
        corrupt_scratch_.assign(payload.begin(), payload.end());
        corrupt_scratch_[0] ^= std::byte{0x01};
        state_.slot[rank_] = corrupt_scratch_;
      } else {
        // Zero-byte payload (scalar collective, empty gather): corrupt the
        // scalar slot instead, restored on retransmit.
        state_.scalar[rank_] = flip_low_bit(clean_scalar);
      }
      state_.received[rank_] =
          integrity_hash(state_.slot[rank_], state_.scalar[rank_]);
      injector_->record_bytes_hashed(payload.size() + sizeof(double));
    } else {
      state_.slot[rank_] = payload;
      state_.scalar[rank_] = clean_scalar;
      state_.received[rank_] = clean_hash;
    }
    state_.barrier.arrive_and_wait();

    bool any_bad = false;
    bool self_bad = false;
    for (int r = 0; r < num_ranks_; ++r) {
      if (state_.received[r] != state_.checksum[r]) {
        any_bad = true;
        if (r == rank_) self_bad = true;
      }
    }
    if (!any_bad) return;

    // Corruption caught. The corrupting rank records detection (once, so
    // corrupted == detected stays exact) and either retransmits or dies.
    if (self_bad) injector_->record_corruption_detected();
    if (round + 1 >= policy.max_attempts) {
      if (self_bad) {
        injector_->record_retransmit_exhausted();
        throw RankFailedError(
            rank_, "corrupted payload at collective #" +
                       std::to_string(collective_index_ - 1) +
                       " persisted through " +
                       std::to_string(policy.max_attempts) + " attempts");
      }
      throw AbortedError{};
    }
    if (self_bad) injector_->record_retransmit(backoff);
    backoff *= policy.backoff_multiplier;
    // Separator: nobody re-publishes until everyone finished comparing.
    state_.barrier.arrive_and_wait();
    ++round;
  }
}

void Communicator::align_clock() {
  double max_clock = sim_now_;
  for (int r = 0; r < num_ranks_; ++r) {
    max_clock = std::max(max_clock, state_.clock[r]);
  }
  sim_now_ = max_clock;
}

double Communicator::allreduce_scalar(double value, ScalarOp op) {
  check_faults();
  state_.scalar[rank_] = value;
  publish_and_sync({});
  align_clock();
  double result = state_.scalar[0];
  for (int r = 1; r < num_ranks_; ++r) {
    const double v = state_.scalar[r];
    switch (op) {
      case ScalarOp::kSum:
        result += v;
        break;
      case ScalarOp::kMin:
        result = std::min(result, v);
        break;
      case ScalarOp::kMax:
        result = std::max(result, v);
        break;
    }
  }
  const double t = model_.allreduce_time(num_ranks_, sizeof(double));
  apply_cost(CollectiveKind::kAllReduce, sizeof(double), t);
  release();
  return result;
}

Slots Communicator::publish_gather(std::span<const std::byte> local) {
  check_faults();
  publish_and_sync(local);
  align_clock();
  return state_.slot;
}

void Communicator::release_gather(std::size_t local_bytes, bool charge_cost) {
  if (charge_cost) {
    std::size_t total = 0;
    for (const auto slot : state_.slot) total += slot.size();
    const double t = model_.allgatherv_time(num_ranks_, total, local_bytes);
    apply_cost(CollectiveKind::kAllGatherV, local_bytes, t);
  }
  release();
}

void Communicator::charge(CollectiveKind kind, std::size_t total_bytes,
                          std::size_t self_bytes) {
  const double t = model_.time_for(kind, num_ranks_, total_bytes, self_bytes);
  apply_cost(kind, self_bytes, t);
}

Cluster::Cluster(int num_ranks, CostModelParams params)
    : num_ranks_(num_ranks), model_(params) {
  if (num_ranks < 1) {
    throw std::invalid_argument("Cluster: num_ranks must be >= 1");
  }
}

void Cluster::run(const std::function<void(Communicator&)>& fn,
                  util::ThreadPool& pool) {
  SharedState state(num_ranks_);
  std::vector<std::exception_ptr> errors(num_ranks_);

  pool.run_cohort(static_cast<std::size_t>(num_ranks_), [&](std::size_t r) {
    Communicator communicator(static_cast<int>(r), num_ranks_, state, model_);
    communicator.set_fault_injector(injector_);
    try {
      fn(communicator);
    } catch (const AbortedError&) {
      // Secondary failure caused by a sibling's abort; ignore.
    } catch (...) {
      errors[r] = std::current_exception();
      state.barrier.abort();
    }
  });

  // Aggregate rank deaths: surface every RankFailedError as one error
  // carrying the full set. Simultaneous crashes are deterministic — the
  // fault check's verdict barrier (Communicator::check_faults) guarantees
  // every victim reaches its own check before any rank unwinds. Any
  // non-rank-death error takes precedence, lowest rank first.
  std::vector<RankFailedError::Failure> failures;
  for (int r = 0; r < num_ranks_; ++r) {
    if (!errors[r]) continue;
    try {
      std::rethrow_exception(errors[r]);
    } catch (const RankFailedError& error) {
      for (const auto& failure : error.failures()) {
        failures.push_back(failure);
      }
    } catch (...) {
      std::rethrow_exception(errors[r]);
    }
  }
  if (!failures.empty()) throw RankFailedError(std::move(failures));
}

void Cluster::run(const std::function<void(Communicator&)>& fn) {
  util::ThreadPool pool(static_cast<std::size_t>(num_ranks_));
  run(fn, pool);
}

}  // namespace dynkge::comm
