//===- core/Checker.cpp ---------------------------------------------------===//

#include "core/Checker.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/Fleet.h"
#include "core/ParallelExplorer.h"
#include "core/ResultAccumulator.h"
#include "obs/Counters.h"
#include "obs/Observer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>
#include <optional>
#include <utility>

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

/// The serial engine: one Explorer runs the frontier's units in order.
/// Its results reach the accumulator only at unit end, at checkpoint
/// boundaries and on interrupt -- never per execution.
CheckResult runSerial(const TestProgram &Program, const CheckerOptions &Opts,
                      const CheckpointState &Frontier) {
  const auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };
  // No counter shard: the explorer counts live.
  ResultAccumulator Acc(Opts, Frontier);
  Explorer E(Program, Opts);
  E.preloadSeenStates(Frontier.States);
  if (Frontier.Rng)
    E.setRngState(Frontier.Rng);
  // Units are read in place (a replayed livelock schedule is as long as
  // the execution bound); a stopped unit's rest runs before the next one.
  const std::vector<CheckpointUnit> &Todo = Frontier.Frontier;
  size_t Next = 0;
  std::optional<CheckpointUnit> Rest;
  auto checkpoint = [&] {
    std::vector<CheckpointUnit> Units;
    if (Rest)
      Units.push_back(*Rest);
    Units.insert(Units.end(), Todo.begin() + long(Next), Todo.end());
    return Acc.checkpoint(std::move(Units), E.rngState());
  };
  const uint64_t Every = Opts.CheckpointSink ? Opts.CheckpointEvery : 0;
  bool CapHit = false, TimedOut = false, Interrupted = false;
  std::shared_ptr<CheckpointState> Resume;
  while (Rest || Next < Todo.size()) {
    std::optional<CheckpointUnit> Resumed = std::exchange(Rest, std::nullopt);
    // Budgets count across resumed run parts: stop at the next checkpoint
    // boundary or at the cap, whichever comes first.
    const uint64_t Done = Acc.Stats.Executions;
    uint64_t Budget = Every ? (Done / Every + 1) * Every - Done : 0;
    if (Opts.MaxExecutions) {
      uint64_t Left = Opts.MaxExecutions > Done ? Opts.MaxExecutions - Done : 1;
      Budget = Budget ? std::min(Budget, Left) : Left;
    }
    double Seconds = 0;
    if (Opts.TimeBudgetSeconds > 0)
      Seconds = std::max(Opts.TimeBudgetSeconds - Elapsed(), 1e-9);

    Explorer::UnitEnd End =
        E.runUnit(Resumed ? *Resumed : Todo[Next++], Budget, Seconds);
    Attempt A = E.take();
    Acc.commit(A);
    if (!A.Rem.empty())
      Rest = std::move(A.Rem.front()); // A unit leaves at most one rest.

    if (End == Explorer::UnitEnd::Exhausted)
      continue;
    if (End == Explorer::UnitEnd::Budget) {
      // The cap or a checkpoint boundary, reached before the explorer
      // looked at the clock or the interrupt flag. The cap wins.
      CapHit = Opts.MaxExecutions && Acc.Stats.Executions >= Opts.MaxExecutions;
      if (CapHit)
        break;
      if (Opts.TimeBudgetSeconds > 0 && Elapsed() > Opts.TimeBudgetSeconds)
        End = Explorer::UnitEnd::TimedOut;
      else if (Opts.InterruptFlag &&
               Opts.InterruptFlag->load(std::memory_order_relaxed))
        End = Explorer::UnitEnd::Interrupted;
    }
    const bool More = Rest || Next < Todo.size();
    if (End == Explorer::UnitEnd::Interrupted) {
      // Stopping exactly at exhaustion is no interruption.
      if ((Interrupted = More))
        Resume = checkpoint();
      break;
    }
    if (End != Explorer::UnitEnd::Budget) {
      TimedOut = End == Explorer::UnitEnd::TimedOut;
      break; // A bug under StopOnFirstBug, or the time budget.
    }
    if (!More)
      break; // The boundary coincided with exhaustion.
    ++Acc.Stats.Checkpoints;
    if (Opts.Obs)
      Opts.Obs->shard(0).add(obs::Counter::Checkpoints);
    Opts.CheckpointSink(*checkpoint());
  }
  CheckResult R = Acc.finish(CapHit, TimedOut, Interrupted, Elapsed());
  R.Resume = std::move(Resume);
  return R;
}

} // namespace

void fsmc::mergeSearchStats(SearchStats &Into, const SearchStats &From) {
#define FSMC_MERGE(Field, M, Key, Json, Ckpt, C)                               \
  mergeField<stats::M>(Into.Field, From.Field);
  FSMC_SEARCH_STATS(FSMC_MERGE)
#undef FSMC_MERGE
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
    R = runSerial(Program, Effective, Frontier);
  } else if ((Effective.Isolate == IsolationMode::Batch &&
              !Effective.StatefulPruning) ||
             (Effective.FleetWorkers >= 1 && Shardable)) {
    R = runFleet(Program, Effective, Frontier);
  } else if (Effective.Jobs > 1 && Shardable) {
    R = runParallel(Program, Effective, Frontier);
  } else {
    R = runSerial(Program, Effective, Frontier);
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
