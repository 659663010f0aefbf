//===- core/Checker.cpp ---------------------------------------------------===//

#include "core/Checker.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Fleet.h"
#include "core/ParallelExplorer.h"
#include "obs/Counters.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace fsmc;

const char *fsmc::verdictName(Verdict V) {
  // In Verdict's declaration order.
  static const char *const Names[] = {
      "pass",       "safety violation", "deadlock", "livelock",
      "good samaritan violation",       "divergence", "crash",
      "hang",       "data race"};
  return unsigned(V) < std::size(Names) ? Names[unsigned(V)] : "?";
}

namespace {

template <stats::Merge M, typename T> void mergeField(T &Into, const T &From) {
  if constexpr (M == stats::Sum)
    Into += From;
  else if constexpr (M == stats::Max)
    Into = std::max(Into, From);
}

/// Resolves the Counter column of FSMC_SEARCH_STATS.
namespace fold {
using enum obs::Counter;
constexpr obs::Counter None = NumCounters;
} // namespace fold

} // namespace

void fsmc::mergeSearchStats(SearchStats &Into, const SearchStats &From) {
#define FSMC_MERGE(Field, M, Key, Json, Ckpt, C)                               \
  mergeField<stats::M>(Into.Field, From.Field);
  FSMC_SEARCH_STATS(FSMC_MERGE)
#undef FSMC_MERGE
}

void fsmc::foldStatsDeltaIntoCounters(obs::WorkerCounters *Ctr,
                                      const SearchStats &Prev,
                                      const SearchStats &Now) {
  if (!Ctr)
    return;
#define FSMC_FOLD(Field, M, Key, Json, Ckpt, C)                                \
  if (fold::C != fold::None && Now.Field > Prev.Field)                         \
    Ctr->add(fold::C, uint64_t(Now.Field - Prev.Field));
  FSMC_SEARCH_STATS(FSMC_FOLD)
#undef FSMC_FOLD
  Ctr->maxGauge(obs::Gauge::MaxDepth, Now.MaxDepth);
}

void fsmc::bumpBugClassCounter(obs::WorkerCounters *Ctr, Verdict V) {
  if (!Ctr)
    return;
  switch (V) {
  case Verdict::Deadlock:
    Ctr->add(obs::Counter::Deadlocks);
    break;
  case Verdict::Livelock:
    Ctr->add(obs::Counter::Livelocks);
    break;
  case Verdict::GoodSamaritanViolation:
    Ctr->add(obs::Counter::GoodSamaritanViolations);
    break;
  default:
    break;
  }
}

void fsmc::finalizeRaces(CheckResult &R, const CheckerOptions &Opts) {
  if (Opts.Races == RaceCheckMode::Off)
    return;
  // The within-run dedup already happened in whichever engine collected
  // the incidents; the count only needs to be consistent with them.
  uint64_t RaceIncidents = 0;
  const BugReport *First = nullptr;
  for (const BugReport &I : R.Incidents)
    if (I.Kind == Verdict::DataRace) {
      ++RaceIncidents;
      if (!First)
        First = &I;
    }
  R.Stats.RacesFound = std::max(R.Stats.RacesFound, RaceIncidents);
  if (!First)
    return;
  // Promote here, at the top level only: the engines themselves must keep
  // racy executions indistinguishable from clean ones (same StopOnFirstBug
  // behaviour, same multiset) so --races=on explores exactly what
  // --races=off does. In Fatal mode the race already flowed through the
  // normal bug path and R.Bug is set.
  if (R.Kind == Verdict::Pass) {
    R.Kind = Verdict::DataRace;
    if (!R.Bug)
      R.Bug = *First;
  }
}

CheckResult fsmc::runFrontier(const TestProgram &Program,
                              const CheckerOptions &Opts,
                              const CheckpointState &Frontier) {
  assert(Program.Body && "test program has no body");
  CheckerOptions Effective = Opts;
  // Random walks never exhaust; insist on some budget so the run returns.
  if (Effective.Kind == SearchKind::RandomWalk &&
      Effective.MaxExecutions == 0 && Effective.TimeBudgetSeconds <= 0)
    Effective.MaxExecutions = 10000;
  if (Effective.StatefulPruning || Effective.ExportStateSignatures)
    Effective.TrackCoverage = true;

  // Prefix sharding needs a deterministic frontier (no random walks) and
  // a search independent of visit order (no stateful pruning). Process
  // isolation keeps the frontier in one parent, so it takes random walks,
  // but prune keys cannot cross the fork boundary.
  const bool Shardable = Effective.Kind != SearchKind::RandomWalk &&
                         !Effective.StatefulPruning;
  CheckResult R;
  if (Frontier.Frontier.empty()) {
    // The frontier was taken exactly at exhaustion; nothing to run.
    R.Stats = Frontier.Stats;
    R.Stats.SearchExhausted = true;
    R.Stats.DistinctStates = Frontier.States.size();
    if (Frontier.Bug) {
      R.Bug = Frontier.Bug;
      R.Kind = Frontier.Bug->Kind;
    }
    if (Effective.ExportStateSignatures)
      R.StateSignatures = Frontier.States;
  } else if ((Effective.Isolate == IsolationMode::Batch &&
              !Effective.StatefulPruning) ||
             (Effective.FleetWorkers >= 1 && Shardable)) {
    R = runFleet(Program, Effective, Frontier);
  } else if (Effective.Jobs > 1 && Shardable) {
    R = ParallelExplorer(Program, Effective, Frontier).run();
  } else {
    Explorer E(Program, Effective);
    E.preloadFrontier(Frontier);
    R = E.run();
  }
  finalizeRaces(R, Effective);
  return R;
}

CheckResult fsmc::check(const TestProgram &Program,
                        const CheckerOptions &Opts) {
  CheckpointState Root;
  Root.Frontier.emplace_back(); // The whole choice tree.
  return runFrontier(Program, Opts, Root);
}
