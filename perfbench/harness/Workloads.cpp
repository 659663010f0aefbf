//===- perfbench/harness/Workloads.cpp - Benchmark workloads --------------===//
//
// Part of the fsmc benchmark harness (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "workloads/Channels.h"
#include "workloads/CrashFault.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/Peterson.h"
#include "workloads/Promise.h"
#include "workloads/WorkStealQueue.h"
#include "workloads/minikernel/Kernel.h"

using namespace fsmc;

namespace perfbench {

namespace {

/// deep-replay stops each check at this many executions.
constexpr uint64_t DeepReplayCap = 500;

CheckerOptions cb2() {
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  return O;
}

Expected bug(Verdict V) {
  Expected E;
  E.Kind = V;
  return E;
}

TestProgram wsq(WsqBug B, bool Racy = false) {
  WsqConfig W;
  W.Stealers = 1;
  W.Tasks = 2;
  W.Bug = B;
  W.RacySize = Racy;
  return makeWsqProgram(W);
}

TestProgram channels(ChannelBug B) {
  ChannelsConfig C;
  C.Bug = B;
  if (B == ChannelBug::LostSignal) {
    C.Producers = 2;
    C.Consumers = 1;
  }
  if (B == ChannelBug::RacyClose || B == ChannelBug::BadCloseFix)
    C.CloseAfter = 1;
  return makeChannelsProgram(C);
}

TestProgram segv() {
  CrashFaultConfig F;
  F.Kind = CrashFaultConfig::Fault::NullDeref;
  return makeCrashFaultProgram(F);
}

Workload deepReplay() {
  Entry E;
  E.Name = "minikernel";
  E.Make = [] {
    return minikernel::makeKernelBootProgram(minikernel::KernelConfig());
  };
  E.Opts = cb2();
  E.Opts.MaxExecutions = DeepReplayCap;
  E.Want.CapHit = true;
  E.Want.Executions = DeepReplayCap;
  E.Want.Transitions = 344012;
  return {"deep-replay", {E}, false, 0.4};
}

Workload wsqTsoPor() {
  Entry E;
  E.Name = "wsq-s1-t3";
  E.Make = [] {
    WsqConfig W;
    W.Stealers = 1;
    W.Tasks = 3;
    return makeWsqProgram(W);
  };
  E.Opts = cb2();
  E.Opts.Memory = MemoryModel::Tso;
  E.Opts.Por = true;
  E.Want.Exhausted = true;
  E.Want.Executions = 68431;
  return {"wsq-tso-por", {E}, false, 4.7};
}

Workload parChannels() {
  Entry E;
  E.Name = "channels-p1-c2-m2";
  E.Make = [] {
    ChannelsConfig C;
    C.Producers = 1;
    C.Consumers = 2;
    C.Messages = 2;
    return makeChannelsProgram(C);
  };
  E.Opts = cb2();
  E.Opts.TrackCoverage = true;
  E.Opts.Jobs = 3;
  E.Want.Exhausted = true;
  E.Want.Executions = 615599;
  E.Want.States = 233;
  return {"par-channels", {E}, false, 9.6};
}

Workload bugHunt() {
  std::vector<Entry> Es;
  auto add = [&](std::string Name, std::function<TestProgram()> Make,
                 CheckerOptions O, Expected Want, bool Kills = false) {
    Entry E;
    E.Name = std::move(Name);
    E.Make = std::move(Make);
    E.Opts = O;
    E.Want = Want;
    E.KillsProcess = Kills;
    Es.push_back(std::move(E));
  };
  CheckerOptions Dfs;

  add("dining3-deadlock",
      [] {
        DiningConfig D;
        D.Philosophers = 3;
        D.Kind = DiningConfig::Variant::DeadlockProne;
        return makeDiningProgram(D);
      },
      Dfs, bug(Verdict::Deadlock));
  {
    CheckerOptions O = cb2();
    O.Memory = MemoryModel::Tso;
    add("wsq-bug1-tso", [] { return wsq(WsqBug::PopReordered); }, O,
        bug(Verdict::SafetyViolation));
  }
  add("wsq-bug2", [] { return wsq(WsqBug::StealNoRestore); }, cb2(),
      bug(Verdict::SafetyViolation));
  add("wsq-bug3", [] { return wsq(WsqBug::PopNoRecheck); }, cb2(),
      bug(Verdict::SafetyViolation));
  add("channels-bug1", [] { return channels(ChannelBug::IfInsteadOfWhile); },
      cb2(), bug(Verdict::SafetyViolation));
  add("channels-bug2", [] { return channels(ChannelBug::LostSignal); },
      cb2(), bug(Verdict::Deadlock));
  add("channels-bug3", [] { return channels(ChannelBug::RacyClose); },
      cb2(), bug(Verdict::Deadlock));
  add("channels-bug4", [] { return channels(ChannelBug::BadCloseFix); },
      cb2(), bug(Verdict::SafetyViolation));
  add("peterson-bug",
      [] {
        PetersonConfig P;
        P.Kind = PetersonConfig::Variant::FlagAfterCheck;
        return makePetersonProgram(P);
      },
      Dfs, bug(Verdict::SafetyViolation));
  add("peterson-livelock",
      [] {
        PetersonConfig P;
        P.Kind = PetersonConfig::Variant::NoTurn;
        return makePetersonProgram(P);
      },
      Dfs, bug(Verdict::Livelock));
  add("promise-livelock",
      [] {
        PromiseConfig P;
        P.StaleReadBug = true;
        return makePromiseProgram(P);
      },
      Dfs, bug(Verdict::Livelock));
  {
    CheckerOptions O;
    O.ExecutionBound = 300;
    add("dining-livelock",
        [] {
          DiningConfig D;
          D.Philosophers = 2;
          D.Kind = DiningConfig::Variant::TryLockRetry;
          return makeDiningProgram(D);
        },
        O, bug(Verdict::Livelock));
  }
  {
    CheckerOptions O = cb2();
    O.Races = RaceCheckMode::Fatal;
    add("wsq-racy", [] { return wsq(WsqBug::None, /*Racy=*/true); }, O,
        bug(Verdict::DataRace));
  }
  {
    CheckerOptions O;
    O.Isolate = IsolationMode::Batch;
    add("crashfault-segv-batch", segv, O, bug(Verdict::Crash),
        /*Kills=*/true);
  }
  {
    // Default quarantine and respawn settings. At the time the benchmark
    // was defined this entry killed the fleet coordinator itself: the
    // respawn budget (2N+2) runs out and the in-process fallback runs a
    // unit that still holds the fault. It stays in the list so the
    // failure shows in failed_share until the fleet is fixed.
    CheckerOptions O;
    O.FleetWorkers = 2;
    add("crashfault-segv-fleet2", segv, O, bug(Verdict::Crash),
        /*Kills=*/true);
  }
  return {"bug-hunt", std::move(Es), true, 5.8};
}

} // namespace

const Entry &fleetSurvivalEntry() {
  static const Entry E = [] {
    // crashfault-segv-fleet2 with a respawn budget large enough that the
    // fleet survives: every faulty unit is quarantined instead.
    Entry E;
    E.Name = "crashfault-segv-fleet2-budget64";
    E.Make = segv;
    E.Opts.FleetWorkers = 2;
    E.Opts.FleetRespawnBudget = 64;
    E.Want = bug(Verdict::Crash);
    E.Want.Quarantined = 18;
    E.KillsProcess = true;
    return E;
  }();
  return E;
}

CheckerOptions Entry::replayOptions() const {
  CheckerOptions O = Opts;
  if (O.FleetWorkers > 0) {
    O.FleetWorkers = 0;
    O.Isolate = IsolationMode::Batch;
  }
  return O;
}

const Workload *findWorkload(const std::string &Name) {
  static const std::vector<Workload> All = {deepReplay(), wsqTsoPor(),
                                            parChannels(), bugHunt()};
  for (const Workload &W : All)
    if (W.Name == Name)
      return &W;
  return nullptr;
}

std::string checkAnswer(const Entry &E, const CheckResult &R) {
  const Expected &W = E.Want;
  std::string Diff;
  auto note = [&](const std::string &What, uint64_t Got, uint64_t Want) {
    Diff += (Diff.empty() ? "" : "; ") + What + " " + std::to_string(Got) +
            " != " + std::to_string(Want);
  };
  if (R.Kind != W.Kind)
    Diff = std::string("verdict ") + verdictName(R.Kind) + " != " +
           verdictName(W.Kind);
  if (W.Exhausted && !R.Stats.SearchExhausted)
    Diff += Diff.empty() ? "search not exhausted" : "; search not exhausted";
  if (W.CapHit && !R.Stats.ExecutionCapHit)
    Diff += Diff.empty() ? "cap not hit" : "; cap not hit";
  if (W.Executions && R.Stats.Executions != W.Executions)
    note("executions", R.Stats.Executions, W.Executions);
  if (W.Transitions && R.Stats.Transitions != W.Transitions)
    note("transitions", R.Stats.Transitions, W.Transitions);
  if (W.States && R.Stats.DistinctStates != W.States)
    note("states", R.Stats.DistinctStates, W.States);
  if (W.Quarantined && R.Stats.FleetQuarantined != W.Quarantined)
    note("quarantined", R.Stats.FleetQuarantined, W.Quarantined);
  return Diff;
}

} // namespace perfbench
