//===- tests/core/ReuseDeterminismTest.cpp --------------------------------===//
//
// Pins the invisibility contract of execution-state recycling
// (docs/PERFORMANCE.md): an explorer runs every execution of a search on
// one Runtime rewound by reset(), with pooled fiber stacks, and that must
// be observationally indistinguishable from a fresh Runtime. At jobs=1
// every execution of the search is replayed in a fresh checker and must
// emit the same normalised events (tests/core/FreshReplay.h); at jobs=4,
// where each worker recycles its own Runtime across items, the
// normalised event multiset and stats-json must equal the serial run's.
//
// The stats-json comparison normalizes the one wall-clock field
// ("seconds"), renders without an Observer and echoes the serial run's
// options: per-worker work-stealing counters (items popped, prefixes
// donated) legitimately vary run to run at jobs > 1, while everything
// SearchStats holds must not.
//
//===----------------------------------------------------------------------===//

#include "FreshReplay.h"

#include "core/Checker.h"
#include "obs/EventSink.h"
#include "obs/Observer.h"
#include "obs/StatsJson.h"
#include "obs/TraceValidate.h"
#include "workloads/Peterson.h"
#include "workloads/WorkStealQueue.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace fsmc;
using namespace fsmc::obs;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + Name;
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

/// stats-json with the wall-clock "seconds" value blanked; every other
/// byte must match between reuse on and off.
std::string normalizedStatsJson(const CheckResult &R,
                                const CheckerOptions &Opts) {
  StatsJsonInfo Info;
  Info.Program = "reuse_determinism";
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

TEST(ReuseDeterminism, SerialTraceAndStatsByteIdentical) {
  PetersonConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;

  TestProgram P = makePetersonProgram(C);
  Attempt Whole = test::expectExecutionsMatchFreshReplays(P, O);
  EXPECT_EQ(Whole.Stats.Executions, check(P, O).Stats.Executions);
  EXPECT_FALSE(Whole.Bug.has_value());
}

TEST(ReuseDeterminism, SerialBugTraceByteIdentical) {
  // A bug-finding run exercises the reportBug serialization path (the
  // recycled schedule scratch) on top of the plain exploration loop.
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  // Bug1 needs a weak-memory search (workloads/WorkStealQueue.h); this
  // also pins reuse-determinism of the store-buffer machinery itself.
  O.Memory = MemoryModel::Tso;

  TestProgram P = makeWsqProgram(C);
  Attempt Whole = test::expectExecutionsMatchFreshReplays(P, O);
  CheckResult R = check(P, O);
  ASSERT_TRUE(R.foundBug());
  ASSERT_TRUE(Whole.Bug && R.Bug);
  EXPECT_EQ(Whole.Bug->Schedule, R.Bug->Schedule);
  EXPECT_EQ(Whole.Bug->AtExecution, R.Bug->AtExecution);
  // The bug execution replays to the same bug in a fresh checker.
  CheckResult Replay = replaySchedule(P, O, R.Bug->Schedule);
  ASSERT_TRUE(Replay.Bug);
  EXPECT_EQ(Replay.Kind, R.Kind);
  EXPECT_EQ(Replay.Bug->Message, R.Bug->Message);
  EXPECT_EQ(Replay.Bug->AtStep, R.Bug->AtStep);
  EXPECT_EQ(Replay.Bug->TraceText, R.Bug->TraceText);
}

TEST(ReuseDeterminism, ParallelMultisetAndStatsIdentical) {
  PetersonConfig C;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;

  const std::string SerialPath = tempPath("reuse_jobs1.json");
  const std::string ParPath = tempPath("reuse_jobs4.json");
  CheckResult Serial = runWithTrace(makePetersonProgram(C), O, SerialPath);
  CheckerOptions Par = O;
  Par.Jobs = 4;
  CheckResult P = runWithTrace(makePetersonProgram(C), Par, ParPath);

  ASSERT_TRUE(Serial.Stats.SearchExhausted);
  ASSERT_TRUE(P.Stats.SearchExhausted);
  EXPECT_EQ(P.Stats.Executions, Serial.Stats.Executions);
  EXPECT_EQ(P.Stats.Transitions, Serial.Stats.Transitions);

  std::vector<std::string> Expected = normalizedMultiset(SerialPath);
  ASSERT_FALSE(Expected.empty());
  EXPECT_EQ(normalizedMultiset(ParPath), Expected);
  EXPECT_EQ(normalizedStatsJson(P, O), normalizedStatsJson(Serial, O));
}

} // namespace
