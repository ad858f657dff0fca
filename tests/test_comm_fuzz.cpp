// Randomized stress tests for the collectives (allreduce_scalar and the
// zero-copy gather): arbitrary payload sizes (including empty), mixed
// operation sequences, and reference-checked results. Guards the exact
// invariants the trainer depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "comm/communicator.hpp"
#include "util/rng.hpp"

namespace dynkge::comm {
namespace {

using util::Rng;

class CommFuzzP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CommFuzzP, ::testing::Values(2, 3, 5, 8));

TEST_P(CommFuzzP, ScalarReduceRandomValues) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  for (int round = 0; round < 10; ++round) {
    cluster.run([&](Communicator& comm) {
      const auto value_of = [&](int rank) {
        Rng rng(util::derive_seed(7, rank, round));
        return static_cast<double>(rng.next_below(1000)) - 500.0;
      };
      // Reference: every rank's value, reduced in rank order.
      double sum = 0.0, lo = value_of(0), hi = value_of(0);
      for (int r = 0; r < ranks; ++r) {
        sum += value_of(r);
        lo = std::min(lo, value_of(r));
        hi = std::max(hi, value_of(r));
      }
      const double mine = value_of(comm.rank());
      EXPECT_EQ(comm.allreduce_scalar(mine, ScalarOp::kSum), sum);
      EXPECT_EQ(comm.allreduce_scalar(mine, ScalarOp::kMin), lo);
      EXPECT_EQ(comm.allreduce_scalar(mine, ScalarOp::kMax), hi);
    });
  }
}

TEST_P(CommFuzzP, AllGatherVRandomUnevenSizes) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  for (int round = 0; round < 10; ++round) {
    cluster.run([&](Communicator& comm) {
      Rng rng(util::derive_seed(13, comm.rank(), round));
      const std::size_t mine = rng.next_below(64);  // may be zero
      std::vector<std::uint32_t> local(mine);
      for (std::size_t i = 0; i < mine; ++i) {
        local[i] = static_cast<std::uint32_t>(comm.rank() * 1000 + i);
      }
      std::vector<std::vector<std::uint32_t>> slots_seen;
      comm.allgatherv(std::as_bytes(std::span<const std::uint32_t>(local)),
                      [&](Slots slots) {
                        for (const auto slot : slots) {
                          ASSERT_EQ(slot.size() % sizeof(std::uint32_t), 0u);
                          std::vector<std::uint32_t> words(
                              slot.size() / sizeof(std::uint32_t));
                          std::memcpy(words.data(), slot.data(), slot.size());
                          slots_seen.push_back(std::move(words));
                        }
                      });

      // Every rank's slot carries its rank signature in order.
      ASSERT_EQ(slots_seen.size(), static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        for (std::size_t i = 0; i < slots_seen[r].size(); ++i) {
          EXPECT_EQ(slots_seen[r][i],
                    static_cast<std::uint32_t>(r * 1000 + i));
        }
      }
    });
  }
}

TEST_P(CommFuzzP, MixedOperationSequence) {
  // Interleave every collective repeatedly; any slot-reuse bug shows up
  // as cross-talk between operations.
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    Rng rng(util::derive_seed(17, comm.rank()));
    for (int round = 0; round < 30; ++round) {
      // scalar reduction
      EXPECT_DOUBLE_EQ(
          comm.allreduce_scalar(1.0, ScalarOp::kSum),
          static_cast<double>(ranks));
      // charged gather: one byte per rank, carrying the rank id
      const std::byte mine{static_cast<unsigned char>(comm.rank())};
      comm.allgatherv(std::span<const std::byte>(&mine, 1), [&](Slots slots) {
        ASSERT_EQ(slots.size(), static_cast<std::size_t>(ranks));
        for (int r = 0; r < ranks; ++r) {
          ASSERT_EQ(slots[r].size(), 1u);
          EXPECT_EQ(slots[r][0], static_cast<std::byte>(r));
        }
      });
      // uncharged gather of a rank-sized payload (rank 0 sends nothing)
      const std::vector<std::byte> payload(comm.rank(), std::byte{0xEE});
      comm.allgatherv(
          payload,
          [&](Slots slots) {
            for (int r = 0; r < ranks; ++r) {
              EXPECT_EQ(slots[r].size(), static_cast<std::size_t>(r));
            }
          },
          /*charge_cost=*/false);
      // modeled-only collective between the real ones
      comm.charge(CollectiveKind::kBroadcast, 8, 8);
    }
  });
}

TEST_P(CommFuzzP, SimClockIsMonotone) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    // Per-rank streams for compute jitter and gather payload sizes.
    Rng jitter(util::derive_seed(23, comm.rank()));
    Rng sizes(util::derive_seed(29, comm.rank()));
    double last = comm.sim_now();
    for (int round = 0; round < 50; ++round) {
      comm.sim_add_compute(jitter.next_double() * 1e-3);
      const std::vector<std::byte> v(sizes.next_below(100), std::byte{1});
      comm.allgatherv(v, [](Slots) {});
      EXPECT_GE(comm.sim_now(), last);
      last = comm.sim_now();
      comm.allreduce_scalar(1.0, ScalarOp::kMax);
      EXPECT_GE(comm.sim_now(), last);
      last = comm.sim_now();
    }
  });
}

TEST_P(CommFuzzP, ThrowInsideGatherReleasesSiblings) {
  // A consumer that throws between the publish and release barriers (a
  // malformed payload, say) must surface from Cluster::run, with the
  // siblings released from the release barrier instead of deadlocking.
  const int ranks = GetParam();
  Cluster cluster(ranks);
  EXPECT_THROW(cluster.run([&](Communicator& comm) {
                 const std::vector<std::byte> local(4, std::byte{1});
                 comm.allgatherv(local, [&](Slots) {
                   if (comm.rank() == ranks - 1) {
                     throw std::invalid_argument("malformed payload");
                   }
                 });
                 comm.allreduce_scalar(1.0, ScalarOp::kSum);
               }),
               std::invalid_argument);
}

TEST_P(CommFuzzP, StatsBytesMatchPayloads) {
  const int ranks = GetParam();
  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    comm.allreduce_scalar(1.0, ScalarOp::kSum);
    const std::vector<std::byte> raw(64, std::byte{7});
    comm.allgatherv(raw, [](Slots) {});
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllReduce).bytes,
              sizeof(double));
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).bytes, 64u);
  });
}

}  // namespace
}  // namespace dynkge::comm
