#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace dynkge::comm {
namespace {

class CommunicatorP : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, CommunicatorP,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST_P(CommunicatorP, ScalarReductions) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    const double mine = comm.rank() + 1.0;
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ScalarOp::kSum),
                     p * (p + 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ScalarOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_scalar(mine, ScalarOp::kMax),
                     static_cast<double>(p));
  });
}

/// Gather `local` and return a copy of every rank's payload, rank order.
std::vector<std::vector<std::byte>> gather_copies(
    Communicator& comm, std::span<const std::byte> local,
    bool charge_cost = true) {
  std::vector<std::vector<std::byte>> copies;
  comm.allgatherv(
      local,
      [&](Slots slots) {
        for (const auto slot : slots) {
          copies.emplace_back(slot.begin(), slot.end());
        }
      },
      charge_cost);
  return copies;
}

TEST_P(CommunicatorP, AllGatherVHandsOutSlotsInRankOrder) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    // Rank r contributes r+1 bytes with value r.
    const std::vector<std::byte> local(comm.rank() + 1,
                                       static_cast<std::byte>(comm.rank()));
    const auto copies = gather_copies(comm, local);
    ASSERT_EQ(copies.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(copies[r].size(), static_cast<std::size_t>(r + 1));
      for (const std::byte b : copies[r]) {
        EXPECT_EQ(b, static_cast<std::byte>(r));
      }
    }
  });
}

TEST_P(CommunicatorP, AllGatherVIsZeroCopy) {
  // Every slot is a view of its publisher's own buffer, not a copy.
  const int p = GetParam();
  Cluster cluster(p);
  std::vector<const std::byte*> published(p);
  std::vector<std::vector<const std::byte*>> seen(p);
  cluster.run([&](Communicator& comm) {
    const std::vector<std::byte> local(8, std::byte{0x5A});
    published[comm.rank()] = local.data();
    comm.allgatherv(local, [&](Slots slots) {
      for (const auto slot : slots) seen[comm.rank()].push_back(slot.data());
    });
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(seen[r], published);
}

TEST_P(CommunicatorP, AllGatherVEmptyContributions) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    // Odd ranks contribute nothing.
    std::vector<std::byte> local;
    if (comm.rank() % 2 == 0) local.assign(16, std::byte{1});
    const auto copies = gather_copies(comm, local);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(copies[r].size(), r % 2 == 0 ? 16u : 0u);
    }
  });
}

TEST_P(CommunicatorP, SimClockAdvancesWithCollectives) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.sim_now(), 0.0);
    comm.sim_add_compute(1.0);
    comm.allreduce_scalar(1.0, ScalarOp::kSum);
    if (p > 1) {
      EXPECT_GT(comm.sim_now(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(comm.sim_now(), 1.0);
    }
  });
}

TEST_P(CommunicatorP, SimClockAlignsToSlowestRank) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    // Rank p-1 is the straggler: everyone must align to its clock.
    comm.sim_add_compute(comm.rank() == p - 1 ? 5.0 : 0.5);
    gather_copies(comm, {}, /*charge_cost=*/false);
    EXPECT_GE(comm.sim_now(), 5.0);
  });
}

TEST_P(CommunicatorP, StatsAccumulate) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    comm.allreduce_scalar(1.0, ScalarOp::kSum);
    comm.allreduce_scalar(1.0, ScalarOp::kMax);
    const std::vector<std::byte> local(256, std::byte{1});
    gather_copies(comm, local);
    const auto& ar = comm.stats().of(CollectiveKind::kAllReduce);
    EXPECT_EQ(ar.calls, 2u);
    EXPECT_EQ(ar.bytes, 2 * sizeof(double));
    const auto& ag = comm.stats().of(CollectiveKind::kAllGatherV);
    EXPECT_EQ(ag.calls, 1u);
    EXPECT_EQ(ag.bytes, 256u);
  });
}

TEST_P(CommunicatorP, ChargeAddsModeledTimeWithoutSync) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    const double before = comm.sim_now();
    comm.charge(CollectiveKind::kAllReduce, 1 << 20, 0);
    if (p > 1) {
      EXPECT_GT(comm.sim_now(), before);
    }
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllReduce).calls, 1u);
  });
}

TEST_P(CommunicatorP, UnchargedAllGatherMovesDataButNoCost) {
  const int p = GetParam();
  Cluster cluster(p);
  cluster.run([&](Communicator& comm) {
    const std::vector<std::byte> local(4, std::byte{0xAB});
    const auto copies = gather_copies(comm, local, /*charge_cost=*/false);
    EXPECT_EQ(copies.size(), static_cast<std::size_t>(p));
    for (const auto& copy : copies) EXPECT_EQ(copy, local);
    EXPECT_EQ(comm.stats().of(CollectiveKind::kAllGatherV).calls, 0u);
  });
}

TEST_P(CommunicatorP, TraceDisabledByDefault) {
  Cluster cluster(GetParam());
  cluster.run([](Communicator& comm) {
    comm.allreduce_scalar(1.0, ScalarOp::kSum);
    gather_copies(comm, std::vector<std::byte>(4, std::byte{1}));
    EXPECT_TRUE(comm.trace().empty());
  });
}

TEST_P(CommunicatorP, TraceRecordsOrderedTimeline) {
  Cluster cluster(GetParam());
  cluster.run([&](Communicator& comm) {
    comm.enable_trace();
    comm.sim_add_compute(0.5);
    comm.allreduce_scalar(1.0, ScalarOp::kSum);
    comm.charge(CollectiveKind::kBroadcast, 64, 64);
    gather_copies(comm, std::vector<std::byte>(16, std::byte{1}));

    const auto& trace = comm.trace();
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].kind, CollectiveKind::kAllReduce);
    EXPECT_EQ(trace[0].bytes, sizeof(double));
    EXPECT_EQ(trace[1].kind, CollectiveKind::kBroadcast);
    EXPECT_EQ(trace[2].kind, CollectiveKind::kAllGatherV);
    EXPECT_EQ(trace[2].bytes, 16u);
    // Timeline is ordered and starts after the compute segment.
    EXPECT_GE(trace[0].sim_start, 0.5);
    for (const auto& event : trace) {
      EXPECT_LE(event.sim_start, event.sim_end);
    }
    for (std::size_t i = 1; i < trace.size(); ++i) {
      EXPECT_GE(trace[i].sim_start, trace[i - 1].sim_end);
    }
  });
}

TEST(Cluster, RejectsZeroRanks) {
  EXPECT_THROW(Cluster(0), std::invalid_argument);
}

TEST(Cluster, PropagatesRankException) {
  Cluster cluster(4);
  EXPECT_THROW(
      cluster.run([](Communicator& comm) {
        if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
        // Other ranks block on a collective and must be released by abort.
        comm.allreduce_scalar(1.0, ScalarOp::kSum);
        comm.allreduce_scalar(1.0, ScalarOp::kSum);
      }),
      std::runtime_error);
}

TEST(Cluster, ReusableForMultipleRuns) {
  Cluster cluster(3);
  for (int iteration = 0; iteration < 3; ++iteration) {
    cluster.run([&](Communicator& comm) {
      EXPECT_DOUBLE_EQ(comm.allreduce_scalar(1.0, ScalarOp::kSum), 3.0);
    });
  }
}

TEST(Cluster, ManySmallCollectivesStress) {
  Cluster cluster(4);
  cluster.run([](Communicator& comm) {
    for (int i = 0; i < 500; ++i) {
      EXPECT_DOUBLE_EQ(comm.allreduce_scalar(comm.rank(), ScalarOp::kSum),
                       6.0);  // 0+1+2+3
      const std::vector<std::byte> local(8, static_cast<std::byte>(i));
      const auto copies = gather_copies(comm, local);
      for (const auto& copy : copies) EXPECT_EQ(copy, local);
    }
  });
}

}  // namespace
}  // namespace dynkge::comm
