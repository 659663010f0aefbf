//===- core/ResultAccumulator.cpp -----------------------------------------===//

#include "core/ResultAccumulator.h"

#include "obs/Counters.h"
#include "obs/SearchProfile.h"

#include <algorithm>

using namespace fsmc;

namespace {

/// Resolves the Counter column of FSMC_SEARCH_STATS.
namespace fold {
using enum obs::Counter;
constexpr obs::Counter None = NumCounters;
} // namespace fold

/// Counts unit-local stats into a live counter shard, so --stats-json
/// counters and the progress line keep working when executions happen in
/// another process. RacesFound has no counter row: commit bumps it per
/// globally novel race.
void foldIntoCounters(obs::WorkerCounters &Ctr, const SearchStats &S) {
#define FSMC_FOLD(Field, M, Key, Json, Ckpt, C)                                \
  if (fold::C != fold::None && S.Field > 0)                                    \
    Ctr.add(fold::C, uint64_t(S.Field));
  FSMC_SEARCH_STATS(FSMC_FOLD)
#undef FSMC_FOLD
  Ctr.maxGauge(obs::Gauge::MaxDepth, S.MaxDepth);
}

} // namespace

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
  std::vector<int> K = schedulePathKey(B.Schedule);
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
      Lookups(Base.States.size() + Base.Stats.StateHits) {
  Seen.reserve(Base.States.size());
  for (uint64_t S : Base.States)
    Seen.insert(S);
  Stats.TimedOut = Stats.ExecutionCapHit = Stats.SearchExhausted =
      Stats.Interrupted = false;
  Stats.Seconds = 0;
  Best.FirstWins = Opts.Kind == SearchKind::RandomWalk;
  if (Base.Bug)
    Best.offer(*Base.Bug);
}

bool ResultAccumulator::commit(Attempt &A) {
  // Attempt-local execution indices become search-wide ones.
  const uint64_t Base = A.SearchWide ? 0 : Stats.Executions;
  if (Ctr)
    foldIntoCounters(*Ctr, A.Stats);
  mergeSearchStats(Stats, A.Stats);
  Lookups += A.States.size() + A.Stats.StateHits;
  for (uint64_t S : A.States)
    Seen.insert(S);
  // An attempt counts hits against its own explorer's table, which may
  // lack signatures other attempts found; the lookup total does not
  // depend on how the search was split.
  Stats.StateHits = Lookups - Seen.size();
  // Each explorer dedups races only within itself, so the same race
  // arriving from two attempts collapses here. Races found before a
  // checkpoint are not keyed in it, so a resumed run may recount them
  // (docs/RACES.md).
  for (BugReport &I : A.Incidents)
    if (I.Kind != Verdict::DataRace || RaceKeys.insert(I.Message).second) {
      if (I.Kind == Verdict::DataRace && Ctr)
        Ctr->add(obs::Counter::RacesFound);
      I.AtExecution += Base;
      Races.push_back(std::move(I));
    }
  if (Opts.Races != RaceCheckMode::Off)
    Stats.RacesFound = RaceBase + RaceKeys.size();
  if (A.Profile) {
    if (!Profile)
      Profile = std::move(A.Profile);
    else
      Profile->merge(*A.Profile);
  }
  if (!A.Bug)
    return false;
  A.Bug->AtExecution += Base;
  if (Ctr && A.Bug->Kind == Verdict::Deadlock)
    Ctr->add(obs::Counter::Deadlocks);
  else if (Ctr && A.Bug->Kind == Verdict::Livelock)
    Ctr->add(obs::Counter::Livelocks);
  else if (Ctr && A.Bug->Kind == Verdict::GoodSamaritanViolation)
    Ctr->add(obs::Counter::GoodSamaritanViolations);
  return Best.offer(*A.Bug);
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
