//===- tests/core/SandboxTest.cpp -----------------------------------------===//
//
// Process-isolation contract (docs/ROBUSTNESS.md): --isolate=batch -- the
// fleet's isolated rung run on its own -- explores the same search as the
// in-process explorer on healthy workloads (same executions, transitions,
// verdict, coverage), and on faulty workloads it harvests process death
// -- SIGSEGV, SIGABRT, a hard spin -- as Verdict::Crash / Verdict::Hang
// incidents with replayable schedules while the search of the remaining
// interleavings completes.
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/Schedule.h"
#include "workloads/CrashFault.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"

#include <gtest/gtest.h>

using namespace fsmc;

namespace {

CheckerOptions isolated() {
  CheckerOptions O;
  O.Isolate = IsolationMode::Batch;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===
// Equivalence with the in-process explorer on healthy workloads.
//===----------------------------------------------------------------------===

TEST(Sandbox, MatchesInProcessSearchOnHealthyWorkload) {
  PetersonConfig C;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.ExportStateSignatures = true;

  CheckResult In = check(P, O);
  ASSERT_TRUE(In.Stats.SearchExhausted);

  CheckerOptions Iso = O;
  Iso.Isolate = IsolationMode::Batch;
  Iso.BatchSize = 7; // Deliberately misaligned with the search size.
  CheckResult Out = check(P, Iso);
  EXPECT_TRUE(Out.Stats.SearchExhausted);
  EXPECT_EQ(Out.Kind, In.Kind);
  EXPECT_EQ(Out.Stats.Executions, In.Stats.Executions);
  EXPECT_EQ(Out.Stats.Transitions, In.Stats.Transitions);
  EXPECT_EQ(Out.Stats.Preemptions, In.Stats.Preemptions);
  EXPECT_EQ(Out.Stats.MaxDepth, In.Stats.MaxDepth);
  EXPECT_EQ(Out.Stats.DistinctStates, In.Stats.DistinctStates);
  EXPECT_EQ(Out.StateSignatures, In.StateSignatures);
  EXPECT_EQ(Out.Stats.Crashes, 0u);
  EXPECT_EQ(Out.Stats.Hangs, 0u);
}

TEST(Sandbox, ReportsTheSameFirstBug) {
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O;

  CheckResult In = check(P, O);
  ASSERT_TRUE(In.foundBug());
  ASSERT_TRUE(In.Bug.has_value());

  CheckerOptions Iso = O;
  Iso.Isolate = IsolationMode::Batch;
  CheckResult Out = check(P, Iso);
  ASSERT_TRUE(Out.foundBug());
  ASSERT_TRUE(Out.Bug.has_value());
  EXPECT_EQ(Out.Kind, In.Kind);
  EXPECT_EQ(Out.Bug->Schedule, In.Bug->Schedule);
  EXPECT_EQ(Out.Bug->Message, In.Bug->Message);
  EXPECT_EQ(Out.Stats.Executions, In.Stats.Executions);
}

TEST(Sandbox, DeadlockVerdictCrossesTheProcessBoundary) {
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::DeadlockProne;
  TestProgram P = makeDiningProgram(C);

  CheckResult In = check(P, CheckerOptions());
  ASSERT_EQ(In.Kind, Verdict::Deadlock);

  CheckResult Out = check(P, isolated());
  EXPECT_EQ(Out.Kind, Verdict::Deadlock);
  ASSERT_TRUE(Out.Bug.has_value());
  EXPECT_EQ(Out.Bug->Schedule, In.Bug->Schedule);
}

//===----------------------------------------------------------------------===
// Crash harvesting.
//===----------------------------------------------------------------------===

TEST(Sandbox, SegfaultIsHarvestedAndSearchCompletes) {
  CrashFaultConfig C;
  C.Kind = CrashFaultConfig::Fault::NullDeref;
  TestProgram P = makeCrashFaultProgram(C);
  CheckResult R = check(P, isolated());

  EXPECT_EQ(R.Kind, Verdict::Crash);
  EXPECT_TRUE(R.foundBug()) << "a workload that dies is buggy";
  EXPECT_GT(R.Stats.Crashes, 0u);
  EXPECT_TRUE(R.Stats.SearchExhausted)
      << "the search must outlive the crashing interleavings";
  EXPECT_GT(R.Stats.Executions, R.Stats.Crashes)
      << "healthy interleavings keep being explored";
  ASSERT_FALSE(R.Incidents.empty());
  for (const BugReport &B : R.Incidents) {
    EXPECT_EQ(B.Kind, Verdict::Crash);
    EXPECT_FALSE(B.Schedule.empty());
  }
}

TEST(Sandbox, CrashFaultSearchIsPinned) {
  // One bad execution costs one execution: every crashing window of the
  // fault variants is harvested and the rest of the tree still runs.
  for (auto Kind : {CrashFaultConfig::Fault::NullDeref,
                    CrashFaultConfig::Fault::Abort}) {
    CrashFaultConfig C;
    C.Kind = Kind;
    CheckResult R = check(makeCrashFaultProgram(C), isolated());
    EXPECT_EQ(R.Kind, Verdict::Crash);
    EXPECT_TRUE(R.Stats.SearchExhausted);
    EXPECT_EQ(R.Stats.Executions, 1707u);
    EXPECT_EQ(R.Stats.Transitions, 20484u);
    EXPECT_EQ(R.Stats.Crashes, 48u);
    EXPECT_EQ(R.Incidents.size(), 48u);
  }
}

TEST(Sandbox, AbortIsHarvested) {
  CrashFaultConfig C;
  C.Kind = CrashFaultConfig::Fault::Abort;
  TestProgram P = makeCrashFaultProgram(C);
  CheckResult R = check(P, isolated());
  EXPECT_EQ(R.Kind, Verdict::Crash);
  EXPECT_GT(R.Stats.Crashes, 0u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

TEST(Sandbox, CrashScheduleReproducesTheCrash) {
  CrashFaultConfig C;
  C.Kind = CrashFaultConfig::Fault::NullDeref;
  TestProgram P = makeCrashFaultProgram(C);
  CheckResult R = check(P, isolated());
  ASSERT_FALSE(R.Incidents.empty());

  // Replaying the harvested schedule (under isolation -- in-process it
  // would kill this test binary) must crash again on the first try.
  CheckResult Replay =
      replaySchedule(P, isolated(), R.Incidents.front().Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::Crash);
  EXPECT_EQ(Replay.Stats.Crashes, 1u);
}

TEST(Sandbox, HangIsKilledByTheWatchdogAndReported) {
  // Finding the hang window by search would cost one watchdog period per
  // hanging interleaving; instead harvest the window from the segv twin
  // (same thread structure, same schedules) and replay it against the
  // hanging variant with a short watchdog.
  CrashFaultConfig Segv;
  Segv.Kind = CrashFaultConfig::Fault::NullDeref;
  CheckResult Windows = check(makeCrashFaultProgram(Segv), isolated());
  ASSERT_FALSE(Windows.Incidents.empty());

  CrashFaultConfig Hang;
  Hang.Kind = CrashFaultConfig::Fault::Hang;
  TestProgram P = makeCrashFaultProgram(Hang);
  CheckerOptions O = isolated();
  O.HangTimeoutSeconds = 0.4;
  CheckResult R = replaySchedule(P, O, Windows.Incidents.front().Schedule);
  EXPECT_EQ(R.Kind, Verdict::Hang);
  EXPECT_EQ(R.Stats.Hangs, 1u);
  ASSERT_FALSE(R.Incidents.empty());
  EXPECT_EQ(R.Incidents.front().Kind, Verdict::Hang);
}

//===----------------------------------------------------------------------===
// Interaction with the rest of the robustness layer.
//===----------------------------------------------------------------------===

TEST(Sandbox, InterruptFlagStopsTheSandboxedSearch) {
  PetersonConfig C;
  TestProgram P = makePetersonProgram(C);
  std::atomic<bool> Flag{true}; // Already set: stop before any batch.
  CheckerOptions O = isolated();
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.InterruptFlag = &Flag;
  CheckResult R = check(P, O);
  EXPECT_TRUE(R.Stats.Interrupted);
  EXPECT_EQ(R.Stats.Executions, 0u);
  ASSERT_TRUE(R.Resume != nullptr);

  // Resuming (without the flag) must complete the search with the same
  // totals as a straight run.
  CheckerOptions Again = O;
  Again.InterruptFlag = nullptr;
  CheckResult Straight = check(P, Again);
  CheckResult Done = resumeCheck(P, Again, *R.Resume);
  EXPECT_TRUE(Done.Stats.SearchExhausted);
  EXPECT_EQ(Done.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Done.Stats.Transitions, Straight.Stats.Transitions);
}

TEST(Sandbox, CrashesAreCountedButDoNotAbortStopOnFirstBugSearches) {
  // StopOnFirstBug refers to workload bugs the checker can attribute; a
  // crash is an incident -- the search continues so an unattended run
  // reports every crashing window, not just the first.
  CrashFaultConfig C;
  C.Kind = CrashFaultConfig::Fault::NullDeref;
  TestProgram P = makeCrashFaultProgram(C);
  CheckerOptions O = isolated();
  O.StopOnFirstBug = true;
  CheckResult R = check(P, O);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_GT(R.Stats.Crashes, 1u);
}
