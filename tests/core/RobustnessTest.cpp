//===- tests/core/RobustnessTest.cpp --------------------------------------===//
//
// Fault-tolerance contract of the robustness layer (docs/ROBUSTNESS.md):
// divergence recovery (a mismatching replay is retried, then discarded --
// never a bug verdict, never a halt), and checkpoint/resume (a search
// interrupted at any execution boundary and resumed from its checkpoint
// reaches exactly the executions, transitions and state-signature set of
// an uninterrupted run, no matter how often it is interrupted).
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Schedule.h"
#include "obs/StatsJson.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

using namespace fsmc;

namespace {

/// A program that is deterministic on its first execution and changes
/// its chooseInt arity on every later one: replay always mismatches.
TestProgram persistentlyNondeterministic() {
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-persistent";
  P.Body = [RunCounter] {
    int Runs = (*RunCounter)++;
    (void)Runtime::current().chooseInt(Runs == 0 ? 2 : 3);
    (void)Runtime::current().chooseInt(2);
  };
  return P;
}

/// The small exhaustive search the checkpoint tests interrupt: Peterson
/// under a context bound, a few hundred executions.
CheckerOptions boundedPetersonOpts() {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.ExportStateSignatures = true;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===
// Divergence recovery.
//===----------------------------------------------------------------------===

TEST(Divergence, RetryBudgetIsConfigurable) {
  CheckerOptions O;
  O.DivergenceRetries = 1;
  CheckResult R = check(persistentlyNondeterministic(), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.DivergenceRetries, 1u);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

TEST(Divergence, ZeroRetriesDiscardsImmediately) {
  CheckerOptions O;
  O.DivergenceRetries = 0;
  CheckResult R = check(persistentlyNondeterministic(), O);
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.DivergenceRetries, 0u);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

TEST(Divergence, ReplayOfMismatchingScheduleIsDivergenceNotBug) {
  // A recorded schedule replayed against a program with a different
  // choice structure must come back Verdict::Divergence -- a checker
  // limitation, not a workload bug (the historic failure mode reported
  // it as a SafetyViolation).
  TestProgram Rec;
  Rec.Name = "recorder";
  Rec.Body = [] {
    (void)Runtime::current().chooseInt(2);
    (void)Runtime::current().chooseInt(2);
  };
  CheckerOptions One;
  One.MaxExecutions = 1;
  CheckResult First = check(Rec, One);
  ASSERT_EQ(First.Kind, Verdict::Pass);

  // Re-derive the schedule of the first execution: both choices 0/2.
  std::string Sched = "fsmc1:0/2;0/2";
  TestProgram Wider;
  Wider.Name = "recorder"; // Same name, different arity.
  Wider.Body = [] {
    (void)Runtime::current().chooseInt(3);
    (void)Runtime::current().chooseInt(2);
  };
  CheckResult R = replaySchedule(Wider, CheckerOptions(), Sched);
  EXPECT_EQ(R.Kind, Verdict::Divergence);
  EXPECT_FALSE(R.foundBug());
  EXPECT_EQ(R.Stats.Executions, 0u);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_EQ(R.Stats.DivergenceRetries, 3u);
}

TEST(Divergence, MismatchInFinalTransitionIsStillCaught) {
  // The mismatch fires inside the program's last transition, after which
  // no scheduling point remains: the execution must still be classified
  // as diverged, not silently counted (and the stale flag must not leak
  // into the next attempt).
  auto RunCounter = std::make_shared<int>(0);
  TestProgram P;
  P.Name = "nondet-tail";
  P.Body = [RunCounter] {
    int Runs = (*RunCounter)++;
    (void)Runtime::current().chooseInt(2);
    (void)Runtime::current().chooseInt(Runs == 0 ? 2 : 3);
  };
  CheckResult R = check(P, CheckerOptions());
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Divergences, 1u);
  EXPECT_TRUE(R.Stats.SearchExhausted);
}

//===----------------------------------------------------------------------===
// Checkpoint encode/decode.
//===----------------------------------------------------------------------===

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  CheckpointState CK;
  CK.Stats.Executions = 123;
  CK.Stats.Transitions = 4567;
  CK.Stats.MaxDepth = 17;
  CK.Stats.Divergences = 2;
  CK.Rng = 0xdeadbeefULL;
  CK.States = {3, 5, 8};
  CK.Frontier.push_back({{{0, 2, true}, {1, 3, true}}, 1});
  CK.Frontier.push_back({{{2, 3, true}}, 1});
  BugReport B;
  B.Kind = Verdict::Deadlock;
  B.Message = "deadlock: blocked threads: a b";
  B.Schedule = "fsmc1:0/2;1/3";
  B.AtExecution = 99;
  B.AtStep = 12;
  CK.Bug = B;

  std::string Text = encodeCheckpoint(CK, "prog x", 42);
  CheckpointState Out;
  std::string Program, Err;
  uint64_t Seed = 0;
  ASSERT_TRUE(decodeCheckpoint(Text, Out, Program, Seed, Err)) << Err;
  EXPECT_EQ(Program, "prog x");
  EXPECT_EQ(Seed, 42u);
  EXPECT_EQ(Out.Rng, CK.Rng);
  EXPECT_EQ(Out.Stats.Executions, CK.Stats.Executions);
  EXPECT_EQ(Out.Stats.Transitions, CK.Stats.Transitions);
  EXPECT_EQ(Out.Stats.MaxDepth, CK.Stats.MaxDepth);
  EXPECT_EQ(Out.Stats.Divergences, CK.Stats.Divergences);
  EXPECT_EQ(Out.States, CK.States);
  ASSERT_EQ(Out.Frontier.size(), CK.Frontier.size());
  for (size_t I = 0; I < CK.Frontier.size(); ++I) {
    EXPECT_EQ(Out.Frontier[I].FrozenLen, CK.Frontier[I].FrozenLen);
    ASSERT_EQ(Out.Frontier[I].Prefix.size(), CK.Frontier[I].Prefix.size());
    for (size_t J = 0; J < CK.Frontier[I].Prefix.size(); ++J) {
      EXPECT_EQ(Out.Frontier[I].Prefix[J].Chosen,
                CK.Frontier[I].Prefix[J].Chosen);
      EXPECT_EQ(Out.Frontier[I].Prefix[J].Num,
                CK.Frontier[I].Prefix[J].Num);
      EXPECT_EQ(Out.Frontier[I].Prefix[J].Backtrack,
                CK.Frontier[I].Prefix[J].Backtrack);
    }
  }
  ASSERT_TRUE(Out.Bug.has_value());
  EXPECT_EQ(Out.Bug->Kind, B.Kind);
  EXPECT_EQ(Out.Bug->Message, B.Message);
  EXPECT_EQ(Out.Bug->Schedule, B.Schedule);
  EXPECT_EQ(Out.Bug->AtExecution, B.AtExecution);
}

TEST(Checkpoint, DecodeRejectsGarbage) {
  CheckpointState CK;
  std::string Program, Err;
  uint64_t Seed = 0;
  EXPECT_FALSE(decodeCheckpoint("not a checkpoint", CK, Program, Seed, Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(decodeCheckpoint("fsmc-ckpt 99\n", CK, Program, Seed, Err));
}

//===----------------------------------------------------------------------===
// Interrupt / resume equivalence.
//===----------------------------------------------------------------------===

namespace {

/// Interrupts the search after roughly \p After executions (using the
/// periodic checkpoint callback as the trigger point), then resumes --
/// repeatedly, until the search completes. Returns the final result.
CheckResult runWithRepeatedInterrupts(const TestProgram &Program,
                                      CheckerOptions Opts, uint64_t After,
                                      int *InterruptsTaken) {
  std::atomic<bool> Flag{false};
  Opts.InterruptFlag = &Flag;
  Opts.CheckpointEvery = After;
  Opts.CheckpointSink = [&](const CheckpointState &) {
    Flag.store(true, std::memory_order_relaxed);
  };

  CheckResult R = check(Program, Opts);
  int Interrupts = 0;
  while (R.Stats.Interrupted) {
    if (!R.Resume) {
      ADD_FAILURE() << "interrupted run must hand back a resume checkpoint";
      break;
    }
    ++Interrupts;
    // Round-trip the checkpoint through its wire format every time: the
    // file a real run writes must carry everything resume needs.
    std::string Text = encodeCheckpoint(*R.Resume, Program.Name, Opts.Seed);
    CheckpointState CK;
    std::string Name, Err;
    uint64_t Seed = 0;
    EXPECT_TRUE(decodeCheckpoint(Text, CK, Name, Seed, Err)) << Err;
    Flag.store(false, std::memory_order_relaxed);
    R = resumeCheck(Program, Opts, CK);
  }
  if (InterruptsTaken)
    *InterruptsTaken = Interrupts;
  return R;
}

} // namespace

TEST(Resume, InterruptedSerialSearchMatchesUninterrupted) {
  PetersonConfig C;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O = boundedPetersonOpts();

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);

  int Interrupts = 0;
  CheckResult Chopped = runWithRepeatedInterrupts(P, O, 25, &Interrupts);
  ASSERT_GT(Interrupts, 2) << "the run must actually have been interrupted";
  EXPECT_TRUE(Chopped.Stats.SearchExhausted);
  EXPECT_EQ(Chopped.Kind, Straight.Kind);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Chopped.Stats.Preemptions, Straight.Stats.Preemptions);
  EXPECT_EQ(Chopped.Stats.DistinctStates, Straight.Stats.DistinctStates);
  EXPECT_EQ(Chopped.StateSignatures, Straight.StateSignatures);
}

TEST(Resume, InterruptedBugSearchStillFindsTheBug) {
  // StopOnFirstBug off: the whole buggy tree is enumerated across the
  // interruptions and the DFS-smallest counterexample survives the
  // checkpoint chain.
  PetersonConfig C;
  C.Kind = PetersonConfig::Variant::FlagAfterCheck;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O = boundedPetersonOpts();
  O.StopOnFirstBug = false;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.foundBug());

  CheckResult Chopped = runWithRepeatedInterrupts(P, O, 20, nullptr);
  ASSERT_TRUE(Chopped.foundBug());
  EXPECT_EQ(Chopped.Kind, Straight.Kind);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.BugsFound, Straight.Stats.BugsFound);
  ASSERT_TRUE(Chopped.Bug.has_value());
  EXPECT_EQ(Chopped.Bug->Schedule, Straight.Bug->Schedule);
  EXPECT_EQ(Chopped.Bug->Message, Straight.Bug->Message);
}

TEST(Resume, ParallelResumeOfSerialCheckpointMatches) {
  // A checkpoint taken by a serial run can be resumed at --jobs N: the
  // driver decomposes the serial DFS stack into frozen subtree prefixes.
  DiningConfig C;
  C.Philosophers = 2;
  C.Kind = DiningConfig::Variant::Mixed;
  TestProgram P = makeDiningProgram(C);
  CheckerOptions O;
  O.ExportStateSignatures = true;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);

  // Interrupt the serial run once, early.
  std::atomic<bool> Flag{false};
  CheckerOptions Cut = O;
  Cut.InterruptFlag = &Flag;
  Cut.CheckpointEvery = 10;
  Cut.CheckpointSink = [&](const CheckpointState &) { Flag.store(true); };
  CheckResult Partial = check(P, Cut);
  ASSERT_TRUE(Partial.Stats.Interrupted);
  ASSERT_TRUE(Partial.Resume != nullptr);

  CheckerOptions Par = O;
  Par.Jobs = 4;
  CheckResult Resumed = resumeCheck(P, Par, *Partial.Resume);
  EXPECT_TRUE(Resumed.Stats.SearchExhausted);
  EXPECT_EQ(Resumed.Kind, Straight.Kind);
  EXPECT_EQ(Resumed.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Resumed.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Resumed.Stats.DistinctStates, Straight.Stats.DistinctStates);
  EXPECT_EQ(Resumed.StateSignatures, Straight.StateSignatures);
}

TEST(Resume, CompletedCheckpointResumesToNoWork) {
  // A checkpoint with an empty frontier (taken exactly at exhaustion)
  // must resume to the recorded totals without running anything.
  CheckpointState CK;
  CK.Stats.Executions = 77;
  CK.Stats.Transitions = 900;
  CK.States = {1, 2, 3};
  TestProgram P = makePetersonProgram(PetersonConfig());
  CheckResult R = resumeCheck(P, CheckerOptions(), CK);
  EXPECT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(R.Stats.Executions, 77u);
  EXPECT_EQ(R.Stats.DistinctStates, 3u);
}

//===----------------------------------------------------------------------===
// Checkpoint/resume under --por=on: sleep sets are a pure function of
// the choice-stack path, so a frontier unit replayed after resume must
// recompute them exactly and reach the same terminal stats -- including
// the POR counters -- as an uninterrupted reduced search.
//===----------------------------------------------------------------------===

TEST(Resume, PorInterruptedSearchMatchesUninterrupted) {
  PetersonConfig C;
  TestProgram P = makePetersonProgram(C);
  CheckerOptions O = boundedPetersonOpts();
  O.Por = true;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);
  ASSERT_GT(Straight.Stats.PorSleepHits, 0u) << "POR never engaged";

  int Interrupts = 0;
  CheckResult Chopped = runWithRepeatedInterrupts(P, O, 25, &Interrupts);
  ASSERT_GT(Interrupts, 1) << "the run must actually have been interrupted";
  EXPECT_TRUE(Chopped.Stats.SearchExhausted);
  EXPECT_EQ(Chopped.Kind, Straight.Kind);
  EXPECT_EQ(Chopped.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Chopped.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Chopped.Stats.PorSleepHits, Straight.Stats.PorSleepHits);
  EXPECT_EQ(Chopped.Stats.PorBranchesPruned, Straight.Stats.PorBranchesPruned);
  EXPECT_EQ(Chopped.Stats.PorFairWakes, Straight.Stats.PorFairWakes);
  EXPECT_EQ(Chopped.StateSignatures, Straight.StateSignatures);
}

TEST(Resume, PorParallelResumeOfSerialCheckpointMatches) {
  // The sharded resume decomposes the interrupted POR'd DFS stack into
  // frozen prefixes whose recorded sleep masks must validate on replay.
  DiningConfig C;
  C.Philosophers = 3;
  C.Kind = DiningConfig::Variant::Mixed;
  TestProgram P = makeDiningProgram(C);
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.Por = true;

  CheckResult Straight = check(P, O);
  ASSERT_TRUE(Straight.Stats.SearchExhausted);
  ASSERT_GT(Straight.Stats.PorSleepHits, 0u) << "POR never engaged";

  std::atomic<bool> Flag{false};
  CheckerOptions Cut = O;
  Cut.InterruptFlag = &Flag;
  Cut.CheckpointEvery = 10;
  Cut.CheckpointSink = [&](const CheckpointState &) { Flag.store(true); };
  CheckResult Partial = check(P, Cut);
  ASSERT_TRUE(Partial.Stats.Interrupted);
  ASSERT_TRUE(Partial.Resume != nullptr);

  // Wire round-trip: the v2 format must carry the POR stat keys.
  std::string Text = encodeCheckpoint(*Partial.Resume, P.Name, O.Seed);
  CheckpointState CK;
  std::string Name, Err;
  uint64_t Seed = 0;
  ASSERT_TRUE(decodeCheckpoint(Text, CK, Name, Seed, Err)) << Err;

  CheckerOptions Par = O;
  Par.Jobs = 4;
  CheckResult Resumed = resumeCheck(P, Par, CK);
  EXPECT_TRUE(Resumed.Stats.SearchExhausted);
  EXPECT_EQ(Resumed.Kind, Straight.Kind);
  EXPECT_EQ(Resumed.Stats.Executions, Straight.Stats.Executions);
  EXPECT_EQ(Resumed.Stats.Transitions, Straight.Stats.Transitions);
  EXPECT_EQ(Resumed.Stats.PorSleepHits, Straight.Stats.PorSleepHits);
  EXPECT_EQ(Resumed.Stats.PorBranchesPruned,
            Straight.Stats.PorBranchesPruned);
  EXPECT_EQ(Resumed.Stats.PorFairWakes, Straight.Stats.PorFairWakes);
}

//===----------------------------------------------------------------------===//
// The SearchStats schema (FSMC_SEARCH_STATS in core/Checker.h): every
// field has a row, and merge, checkpoint and stats-json keep every value.
//===----------------------------------------------------------------------===//

namespace {

/// Converts to any field type: brace-initializing an aggregate with N of
/// these compiles iff it has at least N fields.
struct AnyField {
  template <typename T> operator T() const { return T(); }
};

template <typename T, typename... Fs> constexpr size_t fieldCount() {
  if constexpr (requires { T{Fs{}..., AnyField{}}; })
    return fieldCount<T, Fs..., AnyField>();
  else
    return sizeof...(Fs);
}

} // namespace

TEST(StatsSchema, EveryFieldHasARowThatMergesAndRoundTrips) {
  size_t Rows = 0;
#define COUNT_ROW(...) ++Rows;
  FSMC_SEARCH_STATS(COUNT_ROW)
#undef COUNT_ROW
  ASSERT_EQ(Rows, fieldCount<SearchStats>())
      << "a SearchStats field has no FSMC_SEARCH_STATS row";

  // Distinct nonzero values (flags can only be true).
  SearchStats S;
  uint64_t Next = 1;
#define FILL_ROW(Field, ...) S.Field = decltype(S.Field)(Next++);
  FSMC_SEARCH_STATS(FILL_ROW)
#undef FILL_ROW

  SearchStats Once, Twice;
  mergeSearchStats(Once, S);
  mergeSearchStats(Twice, S);
  mergeSearchStats(Twice, S);
  CheckpointState CK;
  CK.Stats = S;
  CK.Frontier.push_back({});
  CheckpointState Back;
  std::string Name, Err;
  uint64_t Seed = 0;
  ASSERT_TRUE(decodeCheckpoint(encodeCheckpoint(CK, "p", 1), Back, Name, Seed,
                               Err))
      << Err;
  CheckResult R;
  R.Stats = S;
  std::string Json = obs::renderStatsJson(R, obs::StatsJsonInfo());

#define CHECK_ROW(Field, M, Key, JsonRule, Ckpt, C)                            \
  if (stats::M == stats::Sum) {                                                \
    EXPECT_EQ(Once.Field, S.Field) << Key;                                     \
    EXPECT_EQ(Twice.Field, S.Field + S.Field) << Key;                          \
  } else if (stats::M == stats::Max) {                                         \
    EXPECT_EQ(Twice.Field, S.Field) << Key;                                    \
  }                                                                            \
  if (stats::Ckpt != stats::Never) {                                           \
    EXPECT_EQ(Back.Stats.Field, S.Field) << Key;                               \
  }                                                                            \
  if (stats::JsonRule != stats::Never) {                                       \
    EXPECT_NE(Json.find("\"" Key "\": " + std::to_string(uint64_t(S.Field))),  \
              std::string::npos)                                               \
        << Key;                                                                \
  }
  FSMC_SEARCH_STATS(CHECK_ROW)
#undef CHECK_ROW
}
