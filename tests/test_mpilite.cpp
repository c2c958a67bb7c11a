// Core mpilite semantics. These tests are backend-agnostic: the proc CI
// lane re-runs this binary under EPI_MPILITE_BACKEND=shm, where every rank
// above 0 is a forked process. Two consequences shape the style here:
//
//   * gtest EXPECT_* inside a rank body is invisible from a child process,
//     so rank bodies assert by throwing (require below) — the exception
//     ships back through the launcher and fails the test there;
//   * ranks share no address space, so cross-rank observations travel
//     through the communicator (allgatherv) instead of captured variables.
#include "mpilite/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>

namespace epi::mpilite {
namespace {

void require(bool condition, const std::string& what) {
  if (!condition) throw Error("rank assertion failed: " + what);
}

template <typename T>
void require_eq(const T& actual, const T& expected, const std::string& what) {
  if (actual == expected) return;
  std::ostringstream oss;
  oss << "rank assertion failed: " << what;
  if constexpr (std::is_arithmetic_v<T>) {
    oss << " (actual " << actual << ", expected " << expected << ")";
  }
  throw Error(oss.str());
}

TEST(Mpilite, SingleRankRuns) {
  std::atomic<int> calls{0};
  // A 1-rank group always runs rank 0 on the calling thread (both
  // backends), so the captured counter is observable.
  Runtime::run(1, [&](Comm& comm) {
    require_eq(comm.rank(), 0, "rank of a singleton group");
    require_eq(comm.size(), 1, "size of a singleton group");
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(Mpilite, RanksGetDistinctIds) {
  Runtime::run(4, [](Comm& comm) {
    const auto all = comm.allgatherv(std::vector<int>{comm.rank()});
    require_eq(all, std::vector<int>{0, 1, 2, 3}, "gathered rank ids");
  });
}

TEST(Mpilite, PointToPointDelivers) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 5, std::vector<int>{1, 2, 3});
    } else {
      require_eq(comm.recv<int>(0, 5), std::vector<int>{1, 2, 3},
                 "received payload");
    }
  });
}

TEST(Mpilite, MessagesNonOvertakingPerTag) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        comm.send<int>(1, 7, std::vector<int>{i});
      }
    } else {
      for (int i = 0; i < 20; ++i) {
        require_eq(comm.recv<int>(0, 7)[0], i, "FIFO order per tag");
      }
    }
  });
}

TEST(Mpilite, TagsKeepStreamsSeparate) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::vector<int>{111});
      comm.send<int>(1, 2, std::vector<int>{222});
    } else {
      // Receive in reverse tag order: must still match by tag.
      require_eq(comm.recv<int>(0, 2)[0], 222, "tag-2 payload");
      require_eq(comm.recv<int>(0, 1)[0], 111, "tag-1 payload");
    }
  });
}

TEST(Mpilite, EmptyMessageDelivered) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, 3, std::vector<double>{});
    } else {
      require(comm.recv<double>(0, 3).empty(), "empty payload delivered");
    }
  });
}

/// One-element allreduce.
std::int64_t sum_over_ranks(Comm& comm, std::int64_t value) {
  return comm.allreduce(std::span<const std::int64_t>(&value, 1))[0];
}

TEST(Mpilite, AllreduceSum) {
  Runtime::run(3, [](Comm& comm) {
    require_eq(sum_over_ranks(comm, comm.rank() + 1), std::int64_t{6},
               "sum allreduce");  // 1 + 2 + 3
  });
}

TEST(Mpilite, AllreduceVectorElementwise) {
  Runtime::run(2, [](Comm& comm) {
    const std::vector<std::int64_t> mine = {comm.rank(), 10};
    const auto out = comm.allreduce(std::span<const std::int64_t>(mine));
    require_eq(out[0], std::int64_t{1}, "element 0 of vector allreduce");
    require_eq(out[1], std::int64_t{20}, "element 1 of vector allreduce");
  });
}

TEST(Mpilite, AllreduceInt64ExactBeyondDoublePrecision) {
  // (2^53 + 1) is not representable as a double, so a sum routed through
  // double would silently round it. The integer path must not.
  constexpr std::int64_t big = (std::int64_t{1} << 53) + 1;
  Runtime::run(3, [](Comm& comm) {
    require_eq(sum_over_ranks(comm, big), 3 * big,
               "exact int64 sum");  // off by 1+ if rounded
    const std::vector<std::int64_t> mine = {
        big + comm.rank(), -static_cast<std::int64_t>(comm.rank()),
        comm.rank() == 2 ? std::int64_t{1} : std::int64_t{0}};
    const auto out = comm.allreduce(std::span<const std::int64_t>(mine));
    require_eq(out[0], 3 * big + 3, "element 0 of int64 vector allreduce");
    require_eq(out[1], std::int64_t{-3}, "element 1 of int64 vector allreduce");
    require_eq(out[2], std::int64_t{1}, "element 2 of int64 vector allreduce");
  });
}

TEST(Mpilite, AllgathervConcatenatesInRankOrder) {
  Runtime::run(3, [](Comm& comm) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1),
                          comm.rank());
    const auto all = comm.allgatherv(mine);
    require_eq(all, std::vector<int>{0, 1, 1, 2, 2, 2},
               "rank-ordered concatenation");
  });
}

TEST(Mpilite, AlltoallvRoutesPersonalizedMessages) {
  Runtime::run(3, [](Comm& comm) {
    std::vector<std::vector<int>> outbox(3);
    for (int dest = 0; dest < 3; ++dest) {
      outbox[dest] = {comm.rank() * 10 + dest};
    }
    const auto inbox = comm.alltoallv(outbox);
    for (int src = 0; src < 3; ++src) {
      require_eq(inbox[src].size(), std::size_t{1}, "inbox slice size");
      require_eq(inbox[src][0], src * 10 + comm.rank(), "routed payload");
    }
  });
}

TEST(Mpilite, ExceptionOnOneRankPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      Runtime::run(3,
                   [](Comm& comm) {
                     if (comm.rank() == 1) {
                       throw Error("rank 1 failed");
                     }
                     // Other ranks block; the abort must wake them.
                     comm.allgatherv(std::vector<int>{comm.rank()});
                     comm.recv<int>(1, 0);
                   }),
      Error);
}

TEST(Mpilite, BytesSentAccounted) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<std::uint64_t>(1, 0, std::vector<std::uint64_t>{1, 2, 3, 4});
      require_eq(comm.bytes_sent(), std::uint64_t{32}, "sender accounting");
    } else {
      comm.recv<std::uint64_t>(0, 0);
      require_eq(comm.bytes_sent(), std::uint64_t{0}, "receiver accounting");
    }
  });
}

TEST(Mpilite, InvalidRankOrTagThrows) {
  Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      bool threw = false;
      try {
        comm.send<int>(5, 0, std::vector<int>{1});
      } catch (const Error&) {
        threw = true;
      }
      require(threw, "send to out-of-range rank must throw");
      threw = false;
      try {
        comm.send<int>(1, -1, std::vector<int>{1});
      } catch (const Error&) {
        threw = true;
      }
      require(threw, "send with negative tag must throw");
      comm.send<int>(1, 0, std::vector<int>{1});
    } else {
      comm.recv<int>(0, 0);
    }
  });
}

TEST(Mpilite, ManyRanksStress) {
  // Ring pass with 16 ranks exercises mailbox (or shm ring) contention.
  Runtime::run(16, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send<int>(next, 9, std::vector<int>{comm.rank()});
    require_eq(comm.recv<int>(prev, 9)[0], prev, "ring neighbour payload");
  });
}

}  // namespace
}  // namespace epi::mpilite
