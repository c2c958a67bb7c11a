// Seeded-violation tests for the mpilite CommChecker (check.hpp): each of
// the four violation classes must be detected, a deadlock must terminate
// with a report instead of hanging, and a clean run must produce zero
// reports and byte-identical results with the checker on.
#include "mpilite/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "mpilite/comm.hpp"

namespace epi::mpilite {
namespace {

/// Short watchdog patience: the seeded deadlocks below are wedged from the
/// start, so the only wait is the watchdog's own confirmation window.
CheckOptions fast_watchdog() {
  CheckOptions options;
  options.deadlock_timeout_s = 0.25;
  return options;
}

std::size_t count_kind(const std::vector<CheckReport>& reports,
                       CheckKind kind) {
  return static_cast<std::size_t>(
      std::count_if(reports.begin(), reports.end(),
                    [kind](const CheckReport& r) { return r.kind == kind; }));
}

/// One-element allreduce.
std::int64_t sum_over_ranks(Comm& comm, std::int64_t value) {
  return comm.allreduce(std::span<const std::int64_t>(&value, 1))[0];
}

/// An alltoallv that sends every rank (this rank's id).
void exchange_rank_ids(Comm& comm) {
  comm.alltoallv(std::vector<std::vector<int>>(
      static_cast<std::size_t>(comm.size()), std::vector<int>{comm.rank()}));
}

// --- Collective mismatch ----------------------------------------------

TEST(MpiliteCheck, MismatchedCollectivesFlagged) {
  // Rank 0 enters alltoallv while ranks 1 and 2 enter allreduce: the group
  // wedges (the watchdog unhangs it) and the collective histories disagree
  // at position #0.
  const auto reports = Runtime::run_checked(
      3,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          exchange_rank_ids(comm);
        } else {
          sum_over_ranks(comm, 1);
        }
      },
      fast_watchdog());
  EXPECT_GE(count_kind(reports, CheckKind::kCollectiveMismatch), 1u);
  // The mismatch message names both collectives.
  bool described = false;
  for (const CheckReport& r : reports) {
    if (r.kind != CheckKind::kCollectiveMismatch) continue;
    described = r.message.find("alltoallv") != std::string::npos &&
                r.message.find("allreduce") != std::string::npos;
    if (described) break;
  }
  EXPECT_TRUE(described);
}

TEST(MpiliteCheck, ExtraCollectiveOnOneRankFlagged) {
  // Rank 1's extra allgatherv wedges it (rank 0 never contributes); the
  // watchdog unhangs the run and the history-length divergence names the
  // extra call.
  const auto reports = Runtime::run_checked(
      2,
      [](Comm& comm) {
        std::vector<int> mine = {comm.rank()};
        comm.allgatherv(mine);
        if (comm.rank() == 1) comm.allgatherv(mine);
      },
      fast_watchdog());
  EXPECT_FALSE(reports.empty());
}

// --- Message leaks -----------------------------------------------------

TEST(MpiliteCheck, UnreceivedSendReportedAtFinalize) {
  const auto reports = Runtime::run_checked(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 4, std::vector<int>{1, 2, 3});
      comm.send<int>(1, 9, std::vector<int>{4});  // never received
    } else {
      comm.recv<int>(0, 4);
    }
  });
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, CheckKind::kMessageLeak);
  EXPECT_NE(reports[0].message.find("rank 0"), std::string::npos);
  EXPECT_NE(reports[0].message.find("rank 1"), std::string::npos);
  EXPECT_NE(reports[0].message.find("tag 9"), std::string::npos);
}

TEST(MpiliteCheck, LeakCountsMultipleMessagesPerKey) {
  const auto reports = Runtime::run_checked(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 3; ++i) comm.send<int>(1, 2, std::vector<int>{i});
    } else {
      comm.recv<int>(0, 2);  // one of three
    }
  });
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, CheckKind::kMessageLeak);
  EXPECT_NE(reports[0].message.find("2 messages"), std::string::npos);
}

// --- Deadlock ----------------------------------------------------------

TEST(MpiliteCheck, RecvRecvCycleFiresWatchdogInsteadOfHanging) {
  // Two ranks each wait for the other to send first: the classic cycle.
  // Without the checker this hangs forever; with it the watchdog aborts
  // the group and dumps each rank's blocked call site.
  const auto reports = Runtime::run_checked(
      2,
      [](Comm& comm) {
        const int peer = 1 - comm.rank();
        comm.recv<int>(peer, 0);                     // blocks forever
        comm.send<int>(peer, 0, std::vector<int>{1});  // never reached
      },
      fast_watchdog());
  ASSERT_EQ(count_kind(reports, CheckKind::kDeadlock), 2u);
  for (const CheckReport& r : reports) {
    EXPECT_NE(r.message.find("recv(source="), std::string::npos);
    EXPECT_NE(r.message.find("last completed operation"), std::string::npos);
  }
}

TEST(MpiliteCheck, DeadlockDumpNamesBlockedCollective) {
  // One rank finished, the other waits in an allgatherv nobody else will
  // reach: a done rank counts as "never going to help".
  const auto reports = Runtime::run_checked(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) comm.allgatherv(std::vector<int>{0});
      },
      fast_watchdog());
  ASSERT_EQ(count_kind(reports, CheckKind::kDeadlock), 1u);
  bool names_allgatherv = false;
  for (const CheckReport& r : reports) {
    if (r.kind == CheckKind::kDeadlock &&
        r.message.find("allgatherv") != std::string::npos) {
      names_allgatherv = true;
    }
  }
  EXPECT_TRUE(names_allgatherv);
}

TEST(MpiliteCheck, SlowRankIsNotADeadlock) {
  // One rank sends late; the receiver blocks well past the watchdog
  // timeout, but the sender is Running the whole time, so the watchdog
  // must not fire.
  CheckOptions options;
  options.deadlock_timeout_s = 0.1;
  const auto reports = Runtime::run_checked(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
          comm.send<int>(1, 0, std::vector<int>{42});
        } else if (comm.recv<int>(0, 0)[0] != 42) {
          // Throwing, not EXPECT: rank 1 may be a forked process (shm
          // backend), where a gtest failure would be invisible.
          throw Error("late message corrupted");
        }
      },
      options);
  EXPECT_TRUE(reports.empty()) << format_reports(reports);
}

// --- Rank / tag misuse -------------------------------------------------

TEST(MpiliteCheck, SendToOutOfRangeRankReported) {
  const auto reports = Runtime::run_checked(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.send<int>(5, 0, std::vector<int>{1});
  });
  ASSERT_EQ(count_kind(reports, CheckKind::kRankMisuse), 1u);
  bool actionable = false;
  for (const CheckReport& r : reports) {
    if (r.kind == CheckKind::kRankMisuse) {
      actionable = r.message.find("ranks 0..1") != std::string::npos;
    }
  }
  EXPECT_TRUE(actionable);
}

TEST(MpiliteCheck, ReservedAndNegativeTagsReported) {
  const auto negative = Runtime::run_checked(1, [](Comm& comm) {
    comm.send<int>(0, -3, std::vector<int>{1});
  });
  ASSERT_EQ(count_kind(negative, CheckKind::kTagMisuse), 1u);

  const auto reserved = Runtime::run_checked(1, [](Comm& comm) {
    comm.send<int>(0, 1 << 30, std::vector<int>{1});
  });
  ASSERT_EQ(count_kind(reserved, CheckKind::kTagMisuse), 1u);
  EXPECT_NE(reserved[0].message.find("reserved"), std::string::npos);
}

TEST(MpiliteCheck, RecvFromInvalidRankReported) {
  const auto reports = Runtime::run_checked(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.recv<int>(7, 0);
  });
  EXPECT_EQ(count_kind(reports, CheckKind::kRankMisuse), 1u);
}

TEST(MpiliteCheck, SelfSendDiagnosedButStillWorks) {
  // mpilite buffers, so the transfer succeeds and the run is otherwise
  // clean — but the checker warns that this pattern deadlocks under
  // rendezvous-mode MPI.
  std::vector<int> got;
  const auto reports = Runtime::run_checked(1, [&](Comm& comm) {
    comm.send<int>(0, 1, std::vector<int>{9});
    got = comm.recv<int>(0, 1);
  });
  EXPECT_EQ(got, (std::vector<int>{9}));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].kind, CheckKind::kSelfSend);
  EXPECT_EQ(count_kind(reports, CheckKind::kMessageLeak), 0u);
}

// --- Clean runs --------------------------------------------------------

/// A representative workload touching every primitive: point-to-point
/// ring traffic, all collectives, and tag multiplexing. Returns a flat
/// digest so checked/unchecked runs can be compared byte for byte.
std::vector<double> exercise_everything(Comm& comm) {
  std::vector<double> digest;
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  comm.send<int>(next, 11, std::vector<int>{comm.rank() * 100});
  comm.send<int>(next, 12, std::vector<int>{comm.rank() * 1000});
  digest.push_back(comm.recv<int>(prev, 12)[0]);
  digest.push_back(comm.recv<int>(prev, 11)[0]);

  const std::vector<std::int64_t> mine = {comm.rank(), 2};
  for (std::int64_t v : comm.allreduce(std::span<const std::int64_t>(mine)))
    digest.push_back(static_cast<double>(v));

  std::vector<int> contribution(static_cast<std::size_t>(comm.rank()) + 1,
                                comm.rank());
  for (int v : comm.allgatherv(contribution)) digest.push_back(v);

  std::vector<std::vector<int>> outbox(static_cast<std::size_t>(comm.size()));
  for (int d = 0; d < comm.size(); ++d) outbox[d] = {comm.rank() * 10 + d};
  for (const auto& in : comm.alltoallv(outbox))
    for (int v : in) digest.push_back(v);
  return digest;
}

TEST(MpiliteCheck, CleanRunZeroReportsAndByteIdenticalResults) {
  // Every rank's digest is gathered through the communicator: captured
  // per-rank vectors would silently stay empty for forked ranks under the
  // shm backend, and rank 0's body runs on the launching thread in both
  // backends, so its captures are always observable.
  constexpr int kRanks = 4;
  std::vector<double> unchecked;
  Runtime::run(kRanks, [&](Comm& comm) {
    const auto all = comm.allgatherv(exercise_everything(comm));
    if (comm.rank() == 0) unchecked = all;
  });

  std::vector<double> checked;
  const auto reports = Runtime::run_checked(kRanks, [&](Comm& comm) {
    const auto all = comm.allgatherv(exercise_everything(comm));
    if (comm.rank() == 0) checked = all;
  });

  EXPECT_TRUE(reports.empty()) << format_reports(reports);
  ASSERT_FALSE(unchecked.empty());
  ASSERT_EQ(checked.size(), unchecked.size());
  for (std::size_t i = 0; i < checked.size(); ++i) {
    // Byte-identical, not just approximately equal.
    EXPECT_EQ(std::memcmp(&checked[i], &unchecked[i], sizeof(double)), 0)
        << "element " << i;
  }
}

TEST(MpiliteCheck, EnvVarTurnsRunIntoCheckedRun) {
  // EPI_MPILITE_CHECK=1 makes plain Runtime::run throw at finalize when a
  // violation was recorded — the zero-code-change lane used by ci.sh.
  ASSERT_EQ(setenv("EPI_MPILITE_CHECK", "1", 1), 0);
  EXPECT_THROW(
      Runtime::run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       comm.send<int>(1, 0, std::vector<int>{1});  // leaked
                     }
                   }),
      Error);
  // And a clean body runs to completion unchanged.
  EXPECT_NO_THROW(Runtime::run(2, exchange_rank_ids));
  ASSERT_EQ(unsetenv("EPI_MPILITE_CHECK"), 0);
}

TEST(MpiliteCheck, UserExceptionStillPropagatesUnderChecker) {
  EXPECT_THROW(Runtime::run_checked(
                   2,
                   [](Comm& comm) {
                     if (comm.rank() == 1) throw Error("application failure");
                     exchange_rank_ids(comm);
                   },
                   fast_watchdog()),
               Error);
}

}  // namespace
}  // namespace epi::mpilite
