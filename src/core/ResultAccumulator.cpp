//===- core/ResultAccumulator.cpp -----------------------------------------===//

#include "core/ResultAccumulator.h"

#include "obs/Counters.h"
#include "obs/SearchProfile.h"

#include <algorithm>

using namespace fsmc;

bool fsmc::dfsBefore(const std::vector<int> &A, const std::vector<int> &B) {
  size_t N = std::min(A.size(), B.size());
  for (size_t I = 0; I < N; ++I)
    if (A[I] != B[I])
      return A[I] < B[I];
  return A.size() < B.size();
}

std::vector<int> fsmc::pathKey(const std::vector<ScheduleChoice> &P) {
  std::vector<int> Key;
  Key.reserve(P.size());
  for (const ScheduleChoice &C : P)
    Key.push_back(C.Chosen);
  return Key;
}

bool BestBug::offer(const BugReport &B) {
  std::vector<ScheduleChoice> Choices;
  if (!decodeSchedule(B.Schedule, Choices))
    Choices.clear();
  std::vector<int> K = pathKey(Choices);
  if (Has && (FirstWins || !dfsBefore(K, Key)))
    return false;
  Has = true;
  Key = std::move(K);
  Bug = B;
  return true;
}

ResultAccumulator::ResultAccumulator(const CheckerOptions &Opts,
                                     const CheckpointState &Base,
                                     obs::WorkerCounters *Ctr)
    : Stats(Base.Stats), Opts(Opts), Ctr(Ctr),
      RaceBase(Base.Stats.RacesFound),
      Seen(Base.States.begin(), Base.States.end()) {
  Stats.TimedOut = Stats.ExecutionCapHit = Stats.SearchExhausted =
      Stats.Interrupted = false;
  Stats.Seconds = 0;
  Best.FirstWins = Opts.Kind == SearchKind::RandomWalk;
  if (Base.Bug)
    Best.offer(*Base.Bug);
}

void ResultAccumulator::commitStatsAndIncidents(
    const SearchStats &S, const std::vector<BugReport> &Incidents) {
  // Attempt stats are unit-local (each attempt starts from zero), so the
  // delta folded into the live counters is the stats themselves.
  foldStatsDeltaIntoCounters(Ctr, SearchStats{}, S);
  mergeSearchStats(Stats, S);
  // Each attempt dedups races only within itself, so the same race
  // arriving from two attempts collapses here. Races found before a
  // checkpoint are not keyed in it, so a resumed run may recount them
  // (docs/RACES.md).
  for (const BugReport &I : Incidents)
    if (I.Kind != Verdict::DataRace || RaceKeys.insert(I.Message).second) {
      if (I.Kind == Verdict::DataRace && Ctr)
        Ctr->add(obs::Counter::RacesFound);
      Races.push_back(I);
    }
  if (Opts.Races != RaceCheckMode::Off)
    Stats.RacesFound = RaceBase + RaceKeys.size();
}

void ResultAccumulator::mergeProfile(
    const std::shared_ptr<obs::SearchProfile> &P) {
  if (!P)
    return;
  if (!Profile)
    Profile = P;
  else
    Profile->merge(*P);
}

void ResultAccumulator::addCrash(BugReport I, bool Replayable) {
  bool Hang = I.Kind == Verdict::Hang;
  ++(Hang ? Stats.Hangs : Stats.Crashes);
  if (Ctr)
    Ctr->add(Hang ? obs::Counter::Hangs : obs::Counter::Crashes);
  I.AtExecution = Stats.Executions;
  (Replayable ? Crashes : Unreplayable).push_back(std::move(I));
}

std::shared_ptr<CheckpointState>
ResultAccumulator::checkpoint(std::vector<CheckpointUnit> Frontier,
                              uint64_t Rng) const {
  auto CK = std::make_shared<CheckpointState>();
  CK->Stats = Stats;
  CK->Stats.DistinctStates = Seen.size();
  CK->Frontier = std::move(Frontier);
  CK->Rng = Rng;
  CK->States.assign(Seen.begin(), Seen.end());
  std::sort(CK->States.begin(), CK->States.end());
  if (Best.Has)
    CK->Bug = Best.Bug;
  return CK;
}

CheckResult ResultAccumulator::finish(bool CapHit, bool TimedOut,
                                      bool Interrupted, double Seconds) {
  CheckResult R;
  R.Stats = Stats;
  R.Stats.DistinctStates = Seen.size();
  R.Stats.ExecutionCapHit = CapHit;
  R.Stats.TimedOut = TimedOut;
  R.Stats.Interrupted = Interrupted;
  // Exhausted iff nothing cut the enumeration short. First-bug pruning
  // mirrors the serial early stop (flag stays clear); a crashed or
  // quarantined subtree counts as explored.
  R.Stats.SearchExhausted = !CapHit && !TimedOut && !Interrupted &&
                            !(Best.Has && Opts.StopOnFirstBug);
  R.Stats.Seconds = Seconds;
  R.Profile = Profile;
  std::sort(Races.begin(), Races.end(),
            [](const BugReport &A, const BugReport &B) {
              return A.Message < B.Message;
            });
  R.Incidents = Crashes;
  R.Incidents.insert(R.Incidents.end(), Unreplayable.begin(),
                     Unreplayable.end());
  R.Incidents.insert(R.Incidents.end(), Races.begin(), Races.end());
  if (Opts.ExportStateSignatures) {
    R.StateSignatures.assign(Seen.begin(), Seen.end());
    std::sort(R.StateSignatures.begin(), R.StateSignatures.end());
  }
  if (Best.Has) {
    R.Kind = Best.Bug.Kind;
    R.Bug = Best.Bug;
  } else if (R.Incidents.size() > Races.size()) {
    // No genuine workload bug: the first crash/hang stands in. Data races
    // never do -- escalating them is finalizeRaces' top-level decision.
    R.Kind = R.Incidents.front().Kind;
    R.Bug = R.Incidents.front();
  } else if (Stats.Divergences > 0 && Stats.Executions == 0) {
    // Nothing ever replayed: not a workload bug (foundBug() is false).
    R.Kind = Verdict::Divergence;
  }
  return R;
}
