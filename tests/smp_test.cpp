#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "smp/communicator.hpp"

namespace {

using ht::smp::Communicator;

TEST(SmpTest, SingleRankRuns) {
  int visits = 0;
  ht::smp::run_spmd(1, [&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(SmpTest, AllRanksRun) {
  std::atomic<int> visits{0};
  ht::smp::run_spmd(7, [&](Communicator&) { ++visits; });
  EXPECT_EQ(visits.load(), 7);
}

TEST(SmpTest, PointToPointRoundTrip) {
  ht::smp::run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> payload = {1.0, 2.5, -3.0};
      comm.send<double>(1, /*tag=*/7, payload);
      const auto echoed = comm.recv<double>(1, 8);
      ASSERT_EQ(echoed.size(), 3u);
      EXPECT_DOUBLE_EQ(echoed[1], 2.5);
    } else {
      const auto got = comm.recv<double>(0, 7);
      comm.send<double>(0, 8, got);
    }
  });
}

TEST(SmpTest, MessagesArePerTagFifo) {
  ht::smp::run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (double v : {1.0, 2.0, 3.0}) {
        const std::vector<double> m = {v};
        comm.send<double>(1, 1, m);
      }
      const std::vector<double> other = {99.0};
      comm.send<double>(1, 2, other);
    } else {
      // Tag-2 message is retrievable before draining tag-1 queue.
      EXPECT_DOUBLE_EQ(comm.recv<double>(0, 2)[0], 99.0);
      for (double v : {1.0, 2.0, 3.0}) {
        EXPECT_DOUBLE_EQ(comm.recv<double>(0, 1)[0], v);
      }
    }
  });
}

TEST(SmpTest, SelfSendWorks) {
  ht::smp::run_spmd(3, [](Communicator& comm) {
    const std::vector<double> m = {static_cast<double>(comm.rank())};
    comm.send<double>(comm.rank(), 5, m);
    EXPECT_DOUBLE_EQ(comm.recv<double>(comm.rank(), 5)[0], comm.rank());
  });
}

class SmpCollectives : public ::testing::TestWithParam<int> {};

TEST_P(SmpCollectives, AllreduceSum) {
  const int p = GetParam();
  ht::smp::run_spmd(p, [p](Communicator& comm) {
    std::vector<double> v = {1.0, static_cast<double>(comm.rank())};
    comm.allreduce_sum(v);
    EXPECT_DOUBLE_EQ(v[0], p);
    EXPECT_DOUBLE_EQ(v[1], p * (p - 1) / 2.0);
  });
}

TEST_P(SmpCollectives, AllreduceScalars) {
  const int p = GetParam();
  ht::smp::run_spmd(p, [p](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())),
                     p - 1);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum_scalar(1.5), 1.5 * p);
  });
}

TEST_P(SmpCollectives, Allgatherv) {
  const int p = GetParam();
  ht::smp::run_spmd(p, [p](Communicator& comm) {
    // Rank r contributes r+1 copies of r.
    std::vector<double> local(comm.rank() + 1, comm.rank());
    const auto all = comm.allgatherv(local);
    std::size_t expected_size = 0;
    for (int r = 0; r < p; ++r) expected_size += r + 1;
    ASSERT_EQ(all.size(), expected_size);
    std::size_t at = 0;
    for (int r = 0; r < p; ++r) {
      for (int k = 0; k <= r; ++k) EXPECT_DOUBLE_EQ(all[at++], r);
    }
  });
}

TEST_P(SmpCollectives, BarrierOrdersPhases) {
  const int p = GetParam();
  std::atomic<int> phase1{0};
  ht::smp::run_spmd(p, [&](Communicator& comm) {
    ++phase1;
    comm.barrier();
    EXPECT_EQ(phase1.load(), p);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, SmpCollectives,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(SmpTest, AllreduceIsBitIdenticalAcrossRanks) {
  // Rank-order reduction must give identical bits everywhere.
  const int p = 6;
  std::vector<std::vector<double>> results(p);
  ht::smp::run_spmd(p, [&](Communicator& comm) {
    std::vector<double> v(64);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1e-15 * (comm.rank() + 1) + i * 0.1;
    }
    comm.allreduce_sum(v);
    results[comm.rank()] = v;
  });
  for (int r = 1; r < p; ++r) {
    ASSERT_EQ(results[r].size(), results[0].size());
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      EXPECT_EQ(results[r][i], results[0][i]);  // exact comparison
    }
  }
}

TEST(SmpTest, StatsCountPointToPointBytes) {
  ht::smp::run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> m(10, 1.0);
      comm.send<double>(1, 1, m);
      EXPECT_EQ(comm.stats().bytes_sent, 80u);
      EXPECT_EQ(comm.stats().messages_sent, 1u);
    } else {
      comm.recv<double>(0, 1);
      EXPECT_EQ(comm.stats().bytes_received, 80u);
    }
    comm.barrier();
  });
}

TEST(SmpTest, StatsResetAndDelta) {
  ht::smp::run_spmd(2, [](Communicator& comm) {
    std::vector<double> v = {1.0};
    comm.allreduce_sum(v);
    const auto snapshot = comm.stats();
    comm.allreduce_sum(v);
    const auto delta = comm.stats() - snapshot;
    EXPECT_EQ(delta.bytes_sent, snapshot.bytes_sent);
    comm.reset_stats();
    EXPECT_EQ(comm.stats().bytes_sent, 0u);
  });
}

TEST(SmpTest, SingleRankCollectivesMoveNoBytes) {
  ht::smp::run_spmd(1, [](Communicator& comm) {
    std::vector<double> v = {5.0};
    comm.allreduce_sum(v);
    EXPECT_DOUBLE_EQ(v[0], 5.0);
    const auto all = comm.allgatherv(v);
    EXPECT_EQ(all.size(), 1u);
    EXPECT_EQ(comm.stats().bytes_sent, 0u);
    EXPECT_EQ(comm.stats().bytes_received, 0u);
  });
}

TEST(SmpTest, ExceptionInOneRankPropagatesWithoutDeadlock) {
  EXPECT_THROW(ht::smp::run_spmd(4,
                                 [](Communicator& comm) {
                                   if (comm.rank() == 2) {
                                     throw ht::InvalidArgument("rank 2 died");
                                   }
                                   // Other ranks block forever without abort.
                                   comm.recv<double>(3, 99);
                                 }),
               ht::InvalidArgument);
}

TEST(SmpTest, InvalidWorldSizeThrows) {
  EXPECT_THROW(ht::smp::run_spmd(0, [](Communicator&) {}), ht::Error);
}

TEST(SmpTest, InvalidPeerThrows) {
  EXPECT_THROW(ht::smp::run_spmd(2,
                                 [](Communicator& comm) {
                                   std::vector<double> m = {1.0};
                                   comm.send<double>(5, 0, m);
                                 }),
               ht::Error);
}

TEST(SmpTest, ManyRanksStress) {
  // 16 ranks exchanging in a ring, several rounds.
  ht::smp::run_spmd(16, [](Communicator& comm) {
    const int p = comm.size();
    double token = comm.rank();
    for (int round = 0; round < 5; ++round) {
      const std::vector<double> m = {token};
      comm.send<double>((comm.rank() + 1) % p, round, m);
      token = comm.recv<double>((comm.rank() + p - 1) % p, round)[0] + 1.0;
    }
    // Each round adds 1 and shifts by one rank.
    const double expected = (comm.rank() + p - 5) % p + 5.0;
    EXPECT_DOUBLE_EQ(token, expected);
  });
}

}  // namespace
