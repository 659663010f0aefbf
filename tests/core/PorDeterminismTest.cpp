//===- tests/core/PorDeterminismTest.cpp ----------------------------------===//
//
// --por=on variants of the engine's determinism contracts (this suite
// carries the tier1 label so the asan preset's gate runs it):
//
//  * A serial POR'd search is fully deterministic: running it twice
//    produces byte-identical event traces and stats-json. Sleep sets are
//    a pure function of the choice-stack path, so they cannot introduce
//    run-to-run variance.
//
//  * The reduced tree is the same at every --jobs width: prefix shards
//    replay their frozen choices and recompute the donor's sleep state
//    deterministically, so executions, transitions, POR counters, and
//    the tree-scoped event multiset all match the serial run.
//
//  * POR composes with execution-state reuse: recycling runtimes under
//    --por=on stays observationally invisible -- every execution of the
//    search replays to the same events in a fresh checker.
//
//===----------------------------------------------------------------------===//

#include "FreshReplay.h"

#include "core/Checker.h"
#include "obs/EventSink.h"
#include "obs/Observer.h"
#include "obs/StatsJson.h"
#include "obs/TraceValidate.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace fsmc;
using namespace fsmc::obs;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  std::ostringstream S;
  S << F.rdbuf();
  return S.str();
}

CheckResult runWithTrace(const TestProgram &Program, CheckerOptions Opts,
                         const std::string &TracePath) {
  JsonlTraceSink Sink(TracePath);
  EXPECT_TRUE(Sink.valid());
  Observer::Config OC;
  OC.Sink = &Sink;
  Observer Obs(OC);
  Opts.Obs = &Obs;
  CheckResult R = check(Program, Opts);
  Sink.close();
  return R;
}

std::string normalizedStatsJson(const CheckResult &R,
                                const CheckerOptions &Opts) {
  StatsJsonInfo Info;
  Info.Program = "por_determinism";
  Info.Options = &Opts;
  std::string Text = renderStatsJson(R, Info);
  size_t Pos = Text.find("\"seconds\": ");
  EXPECT_NE(Pos, std::string::npos);
  if (Pos != std::string::npos) {
    size_t End = Text.find(',', Pos);
    EXPECT_NE(End, std::string::npos);
    Text.replace(Pos, End - Pos, "\"seconds\": 0");
  }
  return Text;
}

std::vector<std::string> normalizedMultiset(const std::string &Path) {
  std::vector<std::string> Out;
  std::string Err;
  EXPECT_TRUE(loadNormalizedEvents(Path, /*StripWorkerAndTime=*/true,
                                   {"par"}, Out, Err))
      << Err;
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// A workload with real independence (distinct forks), so these runs
/// exercise sleep hits and prunes/wakes, not just the Por=true flag.
TestProgram diningMixed() {
  DiningConfig C;
  C.Philosophers = 3;
  C.Kind = DiningConfig::Variant::Mixed;
  return makeDiningProgram(C);
}

CheckerOptions porOptions() {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.Por = true;
  return O;
}

} // namespace

TEST(PorDeterminism, SerialRunsAreByteIdentical) {
  CheckerOptions O = porOptions();
  const std::string PathA = tempPath("por_serial_a.json");
  const std::string PathB = tempPath("por_serial_b.json");
  CheckResult A = runWithTrace(diningMixed(), O, PathA);
  CheckResult B = runWithTrace(diningMixed(), O, PathB);

  ASSERT_TRUE(A.Stats.SearchExhausted);
  EXPECT_GT(A.Stats.PorSleepHits, 0u) << "POR never engaged; weak test";

  std::string TraceA = slurp(PathA);
  ASSERT_FALSE(TraceA.empty());
  EXPECT_EQ(TraceA, slurp(PathB));
  EXPECT_EQ(normalizedStatsJson(A, O), normalizedStatsJson(B, O));
}

TEST(PorDeterminism, ParallelWidthsAgreeWithSerial) {
  CheckerOptions Serial = porOptions();
  const std::string SerialPath = tempPath("por_jobs1.json");
  CheckResult S = runWithTrace(diningMixed(), Serial, SerialPath);
  ASSERT_TRUE(S.Stats.SearchExhausted);

  CheckerOptions Par = porOptions();
  Par.Jobs = 4;
  const std::string ParPath = tempPath("por_jobs4.json");
  CheckResult P = runWithTrace(diningMixed(), Par, ParPath);
  ASSERT_TRUE(P.Stats.SearchExhausted);

  // Same reduced tree: the sharded search may neither re-explore a
  // branch the serial reduction pruned nor prune one it kept.
  EXPECT_EQ(P.Stats.Executions, S.Stats.Executions);
  EXPECT_EQ(P.Stats.Transitions, S.Stats.Transitions);
  EXPECT_EQ(P.Stats.PorSleepHits, S.Stats.PorSleepHits);
  EXPECT_EQ(P.Stats.PorBranchesPruned, S.Stats.PorBranchesPruned);
  EXPECT_EQ(P.Stats.PorFairWakes, S.Stats.PorFairWakes);

  std::vector<std::string> Expected = normalizedMultiset(SerialPath);
  ASSERT_FALSE(Expected.empty());
  EXPECT_EQ(normalizedMultiset(ParPath), Expected);
}

TEST(PorDeterminism, ComposesWithExecutionStateReuse) {
  CheckerOptions O = porOptions();
  Attempt Whole = test::expectExecutionsMatchFreshReplays(diningMixed(), O);
  CheckResult R = check(diningMixed(), O);
  ASSERT_TRUE(R.Stats.SearchExhausted);
  EXPECT_EQ(Whole.Stats.Executions, R.Stats.Executions);
  EXPECT_EQ(Whole.Stats.PorBranchesPruned, R.Stats.PorBranchesPruned);
  EXPECT_GT(Whole.Stats.PorSleepHits, 0u);
}

TEST(PorDeterminism, BugScheduleStableUnderPor) {
  // Deadlock-prone dining under POR: the recorded schedule and bug
  // position must be identical run to run (the repro contract replay
  // depends on).
  DiningConfig C;
  C.Philosophers = 3;
  C.Kind = DiningConfig::Variant::DeadlockProne;
  CheckerOptions O;
  O.Por = true;
  CheckResult A = check(makeDiningProgram(C), O);
  CheckResult B = check(makeDiningProgram(C), O);
  ASSERT_EQ(A.Kind, Verdict::Deadlock);
  ASSERT_EQ(B.Kind, Verdict::Deadlock);
  ASSERT_TRUE(A.Bug && B.Bug);
  EXPECT_EQ(A.Bug->Schedule, B.Bug->Schedule);
  EXPECT_EQ(A.Bug->AtExecution, B.Bug->AtExecution);
  EXPECT_EQ(A.Stats.Executions, B.Stats.Executions);
}
