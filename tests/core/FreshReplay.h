//===- tests/core/FreshReplay.h - Search vs fresh replays -------*- C++ -*-===//
//
// The reference for execution-state recycling (docs/PERFORMANCE.md). One
// explorer runs a whole serial search on one recycled Runtime; each
// execution it ran is then replayed by replaySchedule in a fresh checker,
// which builds a fresh Explorer and a freshly constructed Runtime. Every
// replay must emit the same normalised events as its slice of the
// search, and the replays' stats must add up to the search's.
//
//===----------------------------------------------------------------------===//

#ifndef FSMC_TESTS_CORE_FRESHREPLAY_H
#define FSMC_TESTS_CORE_FRESHREPLAY_H

#include "core/Explorer.h"
#include "core/Schedule.h"
#include "obs/EventSink.h"
#include "obs/Observer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace fsmc {
namespace test {

/// Keeps every event, normalised, in arrival order. Normalised means
/// without worker and timestamp, and without the execution index of
/// BugFound and Divergence events: a replay counts its one execution
/// from zero.
class NormalizedEventLog final : public obs::EventSink {
public:
  void event(const obs::ObsEvent &E) override {
    const bool ExecIndex = E.Kind == obs::EventKind::BugFound ||
                           E.Kind == obs::EventKind::Divergence;
    std::ostringstream S;
    S << obs::eventKindName(E.Kind) << " thread=" << E.Thread
      << " dur=" << E.Dur << " op=" << int(E.Op) << " obj=" << E.Object
      << " a=" << (ExecIndex ? 0 : E.ArgA) << " b=" << E.ArgB
      << " detail=" << (E.Detail ? E.Detail : "") << " mass=" << E.Mass;
    Lines.push_back(S.str());
  }
  std::vector<std::string> Lines;
};

/// Runs the serial search of \p Program under \p Opts, replays each of
/// its executions in a fresh checker and compares them as described
/// above. \returns the search's attempt (its unit-local results).
inline Attempt expectExecutionsMatchFreshReplays(const TestProgram &Program,
                                                 CheckerOptions Opts) {
  NormalizedEventLog Search;
  obs::Observer::Config OC;
  OC.Sink = &Search;
  obs::Observer Obs(OC);
  Opts.Obs = &Obs;

  std::vector<size_t> Ends;
  std::vector<std::string> Schedules;
  Explorer E(Program, Opts);
  E.setExecutionHook([&](Explorer &Ex) {
    Ends.push_back(Search.Lines.size());
    Schedules.push_back(encodeSchedule(Ex.currentStackSnapshot()));
    return true;
  });
  E.runUnit(CheckpointUnit());
  Attempt Whole = E.take();
  EXPECT_EQ(Schedules.size(), Whole.Stats.Executions);

  NormalizedEventLog Replay;
  obs::Observer::Config ROC;
  ROC.Sink = &Replay;
  obs::Observer RObs(ROC);
  CheckerOptions ReplayOpts = Opts;
  ReplayOpts.Obs = &RObs;
  SearchStats Sum;
  size_t Begin = 0;
  for (size_t I = 0; I < Schedules.size(); ++I) {
    Replay.Lines.clear();
    CheckResult R = replaySchedule(Program, ReplayOpts, Schedules[I]);
    EXPECT_EQ(R.Stats.Executions, 1u) << "execution " << I;
    std::vector<std::string> Slice(Search.Lines.begin() + long(Begin),
                                   Search.Lines.begin() + long(Ends[I]));
    EXPECT_EQ(Replay.Lines, Slice) << "execution " << I;
    mergeSearchStats(Sum, R.Stats); // Flags and wall time are not merged.
    Begin = Ends[I];
  }
  EXPECT_EQ(Begin, Search.Lines.size());
#define FSMC_EXPECT_SAME(Field, M, Key, Json, Ckpt, C)                         \
  EXPECT_EQ(Sum.Field, Whole.Stats.Field) << #Field;
  FSMC_SEARCH_STATS(FSMC_EXPECT_SAME)
#undef FSMC_EXPECT_SAME
  return Whole;
}

} // namespace test
} // namespace fsmc

#endif // FSMC_TESTS_CORE_FRESHREPLAY_H
