//===- tests/core/ParallelExplorerTest.cpp --------------------------------===//
//
// Serial-equivalence regression suite for the prefix-sharded parallel
// explorer. The parallel engine's contract is exact: an exhaustive
// search with --jobs N visits the same executions, the same transition
// total and the same state-signature *set* as --jobs 1, and under
// StopOnFirstBug it reports the identical (DFS-smallest) counterexample
// -- same schedule string, message, and failing step. These tests pin
// that contract down for Peterson, DiningPhilosophers and the
// work-stealing queue at small sizes, for every bug class (safety,
// deadlock, livelock), and for a worker exploring from a nonempty
// frozen prefix (the fairness-under-parallelism theorem case).
//
//===----------------------------------------------------------------------===//

#include "core/Explorer.h"
#include "core/Checkpoint.h"
#include "core/ParallelExplorer.h"
#include "core/Schedule.h"
#include "runtime/Runtime.h"
#include "sync/Plain.h"
#include "sync/TestThread.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"

#include <gtest/gtest.h>

using namespace fsmc;

namespace {

const int JobCounts[] = {2, 4, 8};

/// Runs the exhaustive search serially and at each parallel width and
/// asserts the full equivalence contract.
void expectExhaustiveEquivalence(const TestProgram &Program,
                                 CheckerOptions Opts) {
  Opts.ExportStateSignatures = true;
  Opts.Jobs = 1;
  CheckResult Serial = check(Program, Opts);
  ASSERT_TRUE(Serial.Stats.SearchExhausted)
      << "equivalence requires a search that completes";

  for (int Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Opts.Jobs = Jobs;
    CheckResult Par = check(Program, Opts);
    EXPECT_TRUE(Par.Stats.SearchExhausted);
    EXPECT_EQ(Par.Kind, Serial.Kind);
    EXPECT_EQ(Par.Stats.Executions, Serial.Stats.Executions);
    EXPECT_EQ(Par.Stats.Transitions, Serial.Stats.Transitions);
    EXPECT_EQ(Par.Stats.Preemptions, Serial.Stats.Preemptions);
    EXPECT_EQ(Par.Stats.MaxDepth, Serial.Stats.MaxDepth);
    EXPECT_EQ(Par.Stats.DistinctStates, Serial.Stats.DistinctStates);
    EXPECT_EQ(Par.Stats.BugsFound, Serial.Stats.BugsFound);
    // The sorted signature vectors must be identical element-wise: the
    // shards partition the choice tree, so their union is exactly the
    // serial visit set.
    EXPECT_EQ(Par.StateSignatures, Serial.StateSignatures);
  }
}

/// Runs a first-bug search at every width and asserts the identical
/// counterexample is reported.
void expectSameFirstBug(const TestProgram &Program, CheckerOptions Opts) {
  Opts.StopOnFirstBug = true;
  Opts.Jobs = 1;
  CheckResult Serial = check(Program, Opts);
  ASSERT_TRUE(Serial.foundBug());
  ASSERT_TRUE(Serial.Bug.has_value());

  for (int Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Opts.Jobs = Jobs;
    CheckResult Par = check(Program, Opts);
    ASSERT_TRUE(Par.foundBug());
    ASSERT_TRUE(Par.Bug.has_value());
    EXPECT_EQ(Par.Kind, Serial.Kind);
    // The schedule string is the bug's identity: equal schedules mean
    // the exact same execution was reported.
    EXPECT_EQ(Par.Bug->Schedule, Serial.Bug->Schedule);
    EXPECT_EQ(Par.Bug->Message, Serial.Bug->Message);
    EXPECT_EQ(Par.Bug->AtStep, Serial.Bug->AtStep);
  }
}

} // namespace

//===----------------------------------------------------------------------===
// Exhaustive-search equivalence: executions, transitions, state sets.
//===----------------------------------------------------------------------===

TEST(ParallelEquivalence, PetersonContextBounded) {
  PetersonConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  expectExhaustiveEquivalence(makePetersonProgram(C), O);
}

TEST(ParallelEquivalence, DiningPhilosophersFairDfs) {
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  expectExhaustiveEquivalence(makeDiningProgram(C), CheckerOptions());
}

TEST(ParallelEquivalence, DiningPhilosophersOrderedCb) {
  DiningConfig C;
  C.Philosophers = 3;
  C.Kind = DiningConfig::Variant::OrderedBlocking;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 1;
  expectExhaustiveEquivalence(makeDiningProgram(C), O);
}

TEST(ParallelEquivalence, WorkStealQueueContextBounded) {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 1;
  expectExhaustiveEquivalence(makeWsqProgram(C), O);
}

TEST(ParallelEquivalence, CountsAllBugsWhenNotStoppingEarly) {
  // With StopOnFirstBug off the whole tree is enumerated even though it
  // contains bugs; every buggy execution must be counted exactly once
  // across the shards.
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.StopOnFirstBug = false;
  expectExhaustiveEquivalence(makePetersonProgram(C), O);
}

TEST(ParallelEquivalence, OneExecutionEndsWithIdleWorkers) {
  // A tree smaller than the worker count: every other worker waits on an
  // empty pool, and the search must still end when the one execution
  // does.
  TestProgram P;
  P.Name = "no-choices";
  P.Body = [] {};
  expectExhaustiveEquivalence(P, CheckerOptions());
}

TEST(ParallelEquivalence, ThreeExecutionsEndWithIdleWorkers) {
  TestProgram P;
  P.Name = "choose-3";
  P.Body = [] { Runtime::current().chooseInt(3); };
  expectExhaustiveEquivalence(P, CheckerOptions());
}

TEST(ParallelEquivalence, ExecutionCapIsExact) {
  // Each worker claims an execution's slot before running it, so no
  // worker finishes an execution past the cap.
  DiningConfig C;
  C.Philosophers = 3;
  C.Kind = DiningConfig::Variant::Mixed;
  TestProgram P = makeDiningProgram(C);
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  ASSERT_GT(check(P, O).Stats.Executions, 1000u);

  O.MaxExecutions = 1000;
  for (int Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    O.Jobs = Jobs;
    CheckResult R = check(P, O);
    EXPECT_EQ(R.Stats.Executions, 1000u);
    EXPECT_TRUE(R.Stats.ExecutionCapHit);
    EXPECT_FALSE(R.Stats.SearchExhausted);
  }
}

//===----------------------------------------------------------------------===
// First-bug determinism: --jobs N reports the serial counterexample.
//===----------------------------------------------------------------------===

TEST(ParallelFirstBug, SafetyViolationInWorkStealQueue) {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  // Bug1 needs a weak-memory search (workloads/WorkStealQueue.h).
  O.Memory = MemoryModel::Tso;
  expectSameFirstBug(makeWsqProgram(C), O);
}

TEST(ParallelFirstBug, SafetyViolationInPeterson) {
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  expectSameFirstBug(makePetersonProgram(C), CheckerOptions());
}

TEST(ParallelFirstBug, DeadlockInDiningPhilosophers) {
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::DeadlockProne;
  expectSameFirstBug(makeDiningProgram(C), CheckerOptions());
}

TEST(ParallelFirstBug, ReportedScheduleReplaysToTheSameBug) {
  // The parallel bug report must be replayable exactly like a serial
  // one: its schedule is a root-relative choice sequence even when the
  // finding worker ran from a donated prefix.
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  // Bug1 needs a weak-memory search (workloads/WorkStealQueue.h).
  O.Memory = MemoryModel::Tso;
  O.Jobs = 4;
  TestProgram P = makeWsqProgram(C);
  CheckResult R = check(P, O);
  ASSERT_TRUE(R.foundBug());
  CheckerOptions ReplayOpts = O;
  ReplayOpts.Jobs = 1;
  CheckResult Replay = replaySchedule(P, ReplayOpts, R.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, R.Kind);
  EXPECT_EQ(Replay.Stats.Executions, 1u);
  EXPECT_EQ(Replay.Bug->Message, R.Bug->Message);
}

TEST(ParallelFirstBug, BugIndexIsSearchWide) {
  // Branch 0 runs 64 * 64 clean executions and branch 1 fails at once.
  // Serial DFS reaches the bug at execution 4096; a worker that took
  // branch 1 from a split must still report where its execution fell in
  // the whole search, which is after the first one.
  TestProgram P;
  P.Name = "late-bug";
  P.Body = [] {
    if (Runtime::current().chooseInt(2) == 0) {
      Runtime::current().chooseInt(64);
      Runtime::current().chooseInt(64);
    } else {
      checkThat(false, "branch 1 fails");
    }
  };
  CheckerOptions O;
  CheckResult Serial = check(P, O);
  ASSERT_TRUE(Serial.Bug.has_value());
  EXPECT_EQ(Serial.Bug->AtExecution, 4096u);
  for (int Jobs : JobCounts) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    O.Jobs = Jobs;
    CheckResult R = check(P, O);
    ASSERT_TRUE(R.Bug.has_value());
    EXPECT_EQ(R.Bug->Schedule, Serial.Bug->Schedule);
    EXPECT_GE(R.Bug->AtExecution, 1u);
    EXPECT_LT(R.Bug->AtExecution, R.Stats.Executions);
  }
}

TEST(ParallelFirstBug, RaceIndexIsSearchWide) {
  // The same shape, but branch 1 races before it fails, under
  // --races=on. With no preemptions branch 1 is one execution, so the
  // race and the bug come from the same one. A --jobs worker stamps both
  // from the shared execution counter: the race must not count from
  // whichever worker committed its results first.
  TestProgram P;
  P.Name = "late-race";
  P.Body = [] {
    if (Runtime::current().chooseInt(2) == 0) {
      Runtime::current().chooseInt(64);
      Runtime::current().chooseInt(64);
      return;
    }
    auto X = std::make_shared<PlainVar<int>>(0, "x");
    TestThread W([X] { X->store(1); }, "w");
    X->store(2);
    W.join();
    checkThat(false, "branch 1 fails");
  };
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 0;
  O.Races = RaceCheckMode::On;
  for (int Jobs : {1, 2, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    O.Jobs = Jobs;
    CheckResult R = check(P, O);
    ASSERT_TRUE(R.Bug.has_value());
    ASSERT_EQ(R.Incidents.size(), 1u);
    const BugReport &Race = R.Incidents.front();
    EXPECT_EQ(Race.Kind, Verdict::DataRace);
    EXPECT_EQ(Race.Schedule, R.Bug->Schedule);
    EXPECT_EQ(Race.AtExecution, R.Bug->AtExecution);
    if (Jobs == 1) {
      EXPECT_EQ(Race.AtExecution, 4096u);
    }
    EXPECT_GE(Race.AtExecution, 1u);
    EXPECT_LT(Race.AtExecution, R.Stats.Executions);
  }
}

//===----------------------------------------------------------------------===
// Fairness under parallelism: liveness theorems survive sharding.
//===----------------------------------------------------------------------===

TEST(ParallelFairness, FairNonterminationDetectedAtEveryWidth) {
  // Theorem 6 / TheoremTest.FairCycleYieldsDivergence: the Figure 1/2
  // retry cycle is a fair livelock; the parallel search must report the
  // same diverging execution regardless of which worker owns it.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions O;
  O.ExecutionBound = 200;
  expectSameFirstBug(makeDiningProgram(C), O);
}

TEST(ParallelFairness, FairSearchStillExhaustsSpinWait) {
  // Theorem 2: fair termination of the search is a per-subtree property;
  // sharding must not reintroduce divergence. Figure 3's program only
  // fair-terminates because the scheduler lowers the spinner's priority;
  // every shard must inherit that.
  SpinWaitConfig C;
  expectExhaustiveEquivalence(makeSpinWaitProgram(C), CheckerOptions());
}

TEST(ParallelFairness, LivelockFoundFromNonemptyFrozenPrefix) {
  // The worker-level guarantee behind the jobs-level tests: seed an
  // Explorer with a frozen prefix of the livelock schedule and let it
  // search only that subtree -- the fair scheduler and the divergence
  // monitor must still flag the cycle below the preloaded prefix.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::TryLockRetry;
  CheckerOptions O;
  O.ExecutionBound = 200;
  TestProgram P = makeDiningProgram(C);

  CheckResult Serial = check(P, O);
  ASSERT_EQ(Serial.Kind, Verdict::Livelock);
  std::vector<ScheduleChoice> Choices;
  ASSERT_TRUE(decodeSchedule(Serial.Bug->Schedule, Choices));
  ASSERT_GT(Choices.size(), 4u);

  // Freeze the first four choices; the livelock lives in this subtree.
  Choices.resize(4);
  Explorer Sub(P, O);
  Sub.runUnit({Choices, Choices.size()});
  Attempt R = Sub.take();
  ASSERT_TRUE(R.Bug.has_value());
  EXPECT_EQ(R.Bug->Kind, Verdict::Livelock);
  // The reported schedule must still be root-relative and replayable.
  CheckResult Replay = replaySchedule(P, O, R.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::Livelock);
}

TEST(ParallelFairness, FrozenPrefixConfinesTheSearch) {
  // A frozen prefix must shard, not just seed: the subtree explorer may
  // never backtrack above the prefix, so its execution count is that of
  // one subtree, strictly less than the whole tree's.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  CheckerOptions O;
  TestProgram P = makeDiningProgram(C);
  CheckResult Whole = check(P, O);
  ASSERT_TRUE(Whole.Stats.SearchExhausted);

  // The first scheduling point of this workload offers two threads;
  // freezing one choice confines the search to half the tree.
  Explorer Sub(P, O);
  std::vector<ScheduleChoice> Prefix = {{0, 2, true}};
  EXPECT_EQ(Sub.runUnit({Prefix, Prefix.size()}),
            Explorer::UnitEnd::Exhausted);
  Attempt R = Sub.take();
  EXPECT_LT(R.Stats.Executions, Whole.Stats.Executions);
  EXPECT_GE(R.Stats.Executions, 1u);
}

//===----------------------------------------------------------------------===
// Interrupt / resume at parallel widths (docs/ROBUSTNESS.md).
//===----------------------------------------------------------------------===

TEST(ParallelResume, InterruptedParallelSearchResumesToTheSerialTotals) {
  // Interrupt a --jobs 4 search at a checkpoint epoch, then resume the
  // stashed frontier (again at --jobs 4): the chain must reach the same
  // executions, transitions and state-signature set as one uninterrupted
  // serial run.
  PetersonConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.ExportStateSignatures = true;

  CheckResult Serial = check(makePetersonProgram(C), O);
  ASSERT_TRUE(Serial.Stats.SearchExhausted);

  TestProgram P = makePetersonProgram(C);
  std::atomic<bool> Flag{false};
  CheckerOptions Cut = O;
  Cut.Jobs = 4;
  Cut.InterruptFlag = &Flag;
  Cut.CheckpointEvery = 40;
  Cut.CheckpointSink = [&](const CheckpointState &) { Flag.store(true); };
  CheckResult Partial = check(P, Cut);

  CheckResult Final;
  if (Partial.Stats.Interrupted) {
    ASSERT_TRUE(Partial.Resume != nullptr);
    EXPECT_LT(Partial.Stats.Executions, Serial.Stats.Executions);
    CheckerOptions Again = O;
    Again.Jobs = 4;
    Final = resumeCheck(P, Again, *Partial.Resume);
  } else {
    // The whole tree fit before the first epoch boundary -- equivalence
    // still must hold, there was just nothing to resume.
    Final = Partial;
  }
  EXPECT_TRUE(Final.Stats.SearchExhausted);
  EXPECT_EQ(Final.Kind, Serial.Kind);
  EXPECT_EQ(Final.Stats.Executions, Serial.Stats.Executions);
  EXPECT_EQ(Final.Stats.Transitions, Serial.Stats.Transitions);
  EXPECT_EQ(Final.Stats.DistinctStates, Serial.Stats.DistinctStates);
  EXPECT_EQ(Final.StateSignatures, Serial.StateSignatures);
}

TEST(ParallelResume, PeriodicParallelCheckpointIsIndependentlyResumable) {
  // Every periodic checkpoint of an uninterrupted parallel run must be a
  // complete description of the remaining search: resuming the *first*
  // one (serially) and adding nothing else reaches the full totals.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  TestProgram P = makeDiningProgram(C);
  CheckerOptions O;
  O.ExportStateSignatures = true;

  CheckResult Serial = check(P, O);
  ASSERT_TRUE(Serial.Stats.SearchExhausted);

  std::vector<CheckpointState> Checkpoints;
  CheckerOptions Par = O;
  Par.Jobs = 4;
  Par.CheckpointEvery = 15;
  Par.CheckpointSink = [&](const CheckpointState &CK) {
    Checkpoints.push_back(CK);
  };
  CheckResult Full = check(P, Par);
  ASSERT_TRUE(Full.Stats.SearchExhausted);
  EXPECT_EQ(Full.Stats.Executions, Serial.Stats.Executions);
  if (Checkpoints.empty())
    GTEST_SKIP() << "search completed before the first epoch";

  CheckResult Resumed = resumeCheck(P, O, Checkpoints.front());
  EXPECT_TRUE(Resumed.Stats.SearchExhausted);
  EXPECT_EQ(Resumed.Stats.Executions, Serial.Stats.Executions);
  EXPECT_EQ(Resumed.Stats.Transitions, Serial.Stats.Transitions);
  EXPECT_EQ(Resumed.StateSignatures, Serial.StateSignatures);
}
