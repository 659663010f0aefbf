//===- tests/core/TheoremTest.cpp -----------------------------------------===//
//
// End-to-end property tests tied to the paper's theorems:
//
//   Theorem 2: the fair search terminates on programs with no infinite
//              GS-conforming fair executions.
//   Theorem 3: the scheduler never reports a false deadlock.
//   Theorem 4: unfair cycles are unrolled at most twice, so fair search
//              depth stays near the program's true depth.
//   Theorem 5: every reachable state of yield count zero is visited.
//   Theorem 6: a reachable fair cycle of yield count <= 1 produces a
//              diverging execution.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"

#include "runtime/Runtime.h"
#include "sync/Atomic.h"
#include "sync/Mutex.h"
#include "sync/TestThread.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/SpinWait.h"

#include <gtest/gtest.h>
#include <memory>

using namespace fsmc;

//===----------------------------------------------------------------------===
// Theorem 2: termination of the fair search.
//===----------------------------------------------------------------------===

struct FairTerminationCase {
  const char *Name;
  int Spinners;
};

/// Prints the case by name. gtest's default byte dump embeds the Name
/// pointer, which moves with address-space randomisation, so the listed
/// (and ctest-discovered) test names would change from run to run.
static void PrintTo(const FairTerminationCase &Case, std::ostream *OS) {
  *OS << Case.Name;
}

class Theorem2Test : public ::testing::TestWithParam<FairTerminationCase> {};

TEST_P(Theorem2Test, FairSearchExhaustsFairTerminatingPrograms) {
  SpinWaitConfig C;
  C.Spinners = GetParam().Spinners;
  CheckerOptions O;
  // The two-spinner search takes ~100s of CPU on a slow host; the budget
  // must leave room for `ctest -j` contention or the theorem assertion
  // below turns into a load-dependent flake.
  O.TimeBudgetSeconds = 280;
  CheckResult R = check(makeSpinWaitProgram(C), O);
  if (R.Stats.TimedOut && !R.foundBug())
    GTEST_SKIP() << "host too slow to finish the search inside the budget; "
                    "a timeout says nothing about divergence";
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_TRUE(R.Stats.SearchExhausted)
      << "fair DFS diverged on a fair-terminating program";
}

INSTANTIATE_TEST_SUITE_P(Spinners, Theorem2Test,
                         ::testing::Values(FairTerminationCase{"one", 1},
                                           FairTerminationCase{"two", 2}),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

//===----------------------------------------------------------------------===
// Theorem 3: no false deadlocks.
//===----------------------------------------------------------------------===

class Theorem3Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem3Test, CorrectLockingNeverReportsDeadlock) {
  // Philosophers with ordered blocking acquisition are deadlock-free; the
  // fair scheduler's priority restrictions must never manufacture one.
  DiningConfig C;
  C.Philosophers = GetParam();
  C.Kind = DiningConfig::Variant::OrderedBlocking;
  CheckerOptions O;
  O.TimeBudgetSeconds = 120;
  CheckResult R = check(makeDiningProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Pass) << "false deadlock or other bug reported";
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

INSTANTIATE_TEST_SUITE_P(Philosophers, Theorem3Test, ::testing::Values(2, 3));

TEST(Theorem3, RealDeadlockStillReported) {
  // The dual direction: genuine deadlocks must not be masked.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::DeadlockProne;
  CheckResult R = check(makeDiningProgram(C), CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Deadlock);
}

//===----------------------------------------------------------------------===
// Theorem 4: unfair cycles unrolled at most twice.
//===----------------------------------------------------------------------===

TEST(Theorem4, FairSearchDepthStaysNearProgramDepth) {
  // Figure 3's program: the only cycle (u's spin loop) is unfair. The
  // fair search may unroll it at most twice, so the deepest execution is
  // within a constant of the straight-line depth; the unfair search keeps
  // unrolling until its depth bound.
  SpinWaitConfig C;
  CheckerOptions Fair;
  CheckResult RF = check(makeSpinWaitProgram(C), Fair);
  ASSERT_TRUE(RF.Stats.SearchExhausted);
  EXPECT_LE(RF.Stats.MaxDepth, 30u)
      << "fair search unrolled the unfair spin cycle more than Theorem 4 "
         "permits";

  CheckerOptions Unfair;
  Unfair.Fair = false;
  Unfair.DepthBound = 60;
  Unfair.RandomTail = false;
  Unfair.DetectDivergence = false;
  CheckResult RU = check(makeSpinWaitProgram(C), Unfair);
  EXPECT_EQ(RU.Stats.MaxDepth, 60u)
      << "the unfair search should unroll the cycle to its depth bound";
  EXPECT_GT(RU.Stats.NonterminatingExecutions, 0u);
}

TEST(Theorem4, FairSearchExploresFarFewerExecutions) {
  SpinWaitConfig C;
  CheckerOptions Fair;
  CheckResult RF = check(makeSpinWaitProgram(C), Fair);

  CheckerOptions Unfair;
  Unfair.Fair = false;
  Unfair.DepthBound = 40;
  Unfair.RandomTail = false;
  Unfair.DetectDivergence = false;
  CheckResult RU = check(makeSpinWaitProgram(C), Unfair);
  EXPECT_LT(4 * RF.Stats.Executions, RU.Stats.Executions)
      << "pruning unfair cycles must shrink the search drastically";
}

//===----------------------------------------------------------------------===
// Theorem 5: all yield-count-zero states are visited.
//===----------------------------------------------------------------------===

namespace {

/// A yield-free program: three threads each do two visible increments of
/// distinct counters. Every reachable state has yield count zero.
TestProgram yieldFreeCounters() {
  TestProgram P;
  P.Name = "yieldfree";
  P.Body = [] {
    auto A = std::make_shared<Atomic<int>>(0, "a");
    auto B = std::make_shared<Atomic<int>>(0, "b");
    auto C = std::make_shared<Atomic<int>>(0, "c");
    Runtime::current().setStateExtractor([A, B, C] {
      return uint64_t(A->raw()) | uint64_t(B->raw()) << 8 |
             uint64_t(C->raw()) << 16;
    });
    TestThread T1([A] {
      A->fetchAdd(1);
      A->fetchAdd(1);
    }, "t1");
    TestThread T2([B] {
      B->fetchAdd(1);
      B->fetchAdd(1);
    }, "t2");
    TestThread T3([C] {
      C->fetchAdd(1);
      C->fetchAdd(1);
    }, "t3");
    T1.join();
    T2.join();
    T3.join();
  };
  return P;
}

} // namespace

TEST(Theorem5, FairSearchCoversAllYieldFreeStates) {
  CheckerOptions Fair;
  Fair.TrackCoverage = true;
  CheckResult RF = check(yieldFreeCounters(), Fair);
  ASSERT_TRUE(RF.Stats.SearchExhausted);

  CheckerOptions Unfair = Fair;
  Unfair.Fair = false;
  CheckResult RU = check(yieldFreeCounters(), Unfair);
  ASSERT_TRUE(RU.Stats.SearchExhausted);

  // On a yield-free program the priority relation stays empty, so the
  // fair search is exactly the unconstrained demonic search.
  EXPECT_EQ(RF.Stats.DistinctStates, RU.Stats.DistinctStates);
  EXPECT_EQ(RF.Stats.Executions, RU.Stats.Executions);
  EXPECT_EQ(RF.Stats.FairEdgeAdditions, 0u)
      << "a yield-free program must never trigger a priority demotion";
}

TEST(Theorem5, StatefulReferenceAgreesWithFairSearch) {
  CheckerOptions Fair;
  Fair.TrackCoverage = true;
  CheckResult RF = check(yieldFreeCounters(), Fair);

  CheckerOptions Reference;
  Reference.Fair = false;
  Reference.StatefulPruning = true;
  CheckResult RS = check(yieldFreeCounters(), Reference);
  ASSERT_TRUE(RS.Stats.SearchExhausted);
  EXPECT_EQ(RF.Stats.DistinctStates, RS.Stats.DistinctStates)
      << "fair search must reach every state the stateful reference finds";
}

//===----------------------------------------------------------------------===
// Theorem 6: fair cycles produce divergence.
//===----------------------------------------------------------------------===

TEST(Theorem6, FairCycleYieldsDivergence) {
  // Figure 1's livelock cycle is fair with yield count 1 per thread; the
  // fair search must generate a diverging execution (reported here as a
  // livelock through the execution bound).
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions O;
  O.ExecutionBound = 200;
  O.TimeBudgetSeconds = 120;
  CheckResult R = check(makeDiningProgram(C), O);
  EXPECT_EQ(R.Kind, Verdict::Livelock);
}
