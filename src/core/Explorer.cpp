//===- core/Explorer.cpp --------------------------------------------------===//

#include "core/Explorer.h"

#include "core/Checkpoint.h"
#include "core/Dependence.h"
#include "core/FairScheduler.h"
#include "core/LivenessMonitor.h"
#include "core/Schedule.h"
#include "obs/Explain.h"
#include "obs/Observer.h"
#include "obs/SearchProfile.h"
#include "race/RaceDetector.h"
#include "runtime/StackPool.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace fsmc;

Explorer::Explorer(const TestProgram &Program, const CheckerOptions &Opts)
    : Program(Program), Opts(Opts), Rng(Opts.Seed) {
  Strategy = SearchStrategy::create(this->Opts);
  if (this->Opts.Obs) {
    Obs = this->Opts.Obs;
    Ctr = &Obs->shard(0);
  }
  if (this->Opts.ProfileSearch) {
    Result.Profile = std::make_shared<obs::SearchProfile>();
    Prof = Result.Profile.get();
  }
}

void Explorer::setObsWorker(unsigned Worker, uint64_t StartClock) {
  if (!Obs)
    return;
  ObsWorker = Worker;
  Ctr = &Obs->shard(Worker);
  ObsClock = StartClock;
}

void Explorer::emitEvent(obs::ObsEvent E) {
  E.Worker = ObsWorker;
  Obs->sink()->event(E);
}

Explorer::~Explorer() = default;

bool Explorer::timeExceeded() const {
  if (Opts.TimeBudgetSeconds <= 0)
    return false;
  auto Elapsed = std::chrono::steady_clock::now() - StartTime;
  return std::chrono::duration<double>(Elapsed).count() >
         Opts.TimeBudgetSeconds;
}

Tid Explorer::nthMember(ThreadSet S, int Idx) {
  for (Tid T : S) {
    if (Idx == 0)
      return T;
    --Idx;
  }
  assert(false && "choice index out of range");
  return -1;
}

int Explorer::pickIndex(int N, bool Backtrack, bool PickRandom,
                        uint64_t SleepMask, uint64_t FlushMask) {
  assert(N >= 1 && "empty choice");
  if (N == 1)
    return 0; // Forced moves never enter the stack.
  if (Cursor < Stack.size()) {
    ChoiceRec &R = Stack[Cursor];
    // A Num mismatch means the test program diverged from its own replay:
    // it is nondeterministic beyond scheduling and chooseInt. Under POR a
    // sleep-mask mismatch is the same class of failure -- the recomputed
    // sleep set disagrees with the recorded one, so the schedule was
    // recorded under a different POR mode (or dependence relation) and
    // replaying it would explore a different interleaving. A flush-mask
    // mismatch likewise: the recomputed flush-agent candidates disagree
    // with the recorded ones, so the schedule was recorded under a
    // different memory model. (The flush check is unconditional -- both
    // masks are zero under --memory=sc, so sc-on-sc replay is
    // unaffected.) Either way the attempt is abandoned
    // (ExecEnd::Diverged) with the stack untouched, so the driver can
    // retry the prefix before discarding it.
    if (R.Num != N || (Opts.Por && R.SleepMask != SleepMask) ||
        R.FlushMask != FlushMask) {
      ReplayMismatch = true;
      MismatchIdx = Cursor;
      ++Cursor;
      return 0;
    }
    ++Cursor;
    if (StreamCb)
      StreamCb(R.Chosen, R.Num, R.Backtrack, R.SleepMask, R.FlushMask);
    return R.Chosen;
  }
  int Chosen = PickRandom ? Rng.nextBelow(N) : 0;
  Stack.push_back(
      {Chosen, N, Backtrack, /*Donated=*/false, SleepMask, FlushMask});
  ++Cursor;
  if (StreamCb)
    StreamCb(Chosen, N, Backtrack, SleepMask, FlushMask);
  return Chosen;
}

bool Explorer::advanceStack() {
  if (Opts.Kind == SearchKind::RandomWalk) {
    // Random walks never backtrack; each execution starts fresh and stops
    // via MaxExecutions / TimeBudget.
    Stack.resize(FrozenLen);
    return true;
  }
  // Records below FrozenLen belong to this shard's fixed prefix; popping
  // past them would wander into another worker's subtree.
  while (Stack.size() > FrozenLen) {
    ChoiceRec &R = Stack.back();
    if (R.Backtrack && !R.Donated && R.Chosen + 1 < R.Num) {
      ++R.Chosen;
      return true;
    }
    Stack.pop_back();
  }
  return loadNextUnit();
}

bool Explorer::loadNextUnit() {
  if (!Units || NextUnit == Units->size())
    return false;
  const CheckpointUnit &U = (*Units)[NextUnit++];
  Stack.clear();
  for (const ScheduleChoice &C : U.Prefix)
    Stack.push_back({C.Chosen, C.Num, C.Backtrack, /*Donated=*/false,
                     C.SleepMask, C.FlushMask});
  FrozenLen = U.FrozenLen;
  return true;
}

void Explorer::preloadSchedule(const std::vector<ScheduleChoice> &Choices,
                               bool Frozen) {
  assert(Stack.empty() && "preloadSchedule must precede run()");
  for (const ScheduleChoice &C : Choices)
    Stack.push_back({C.Chosen, C.Num, C.Backtrack, /*Donated=*/false,
                     C.SleepMask, C.FlushMask});
  if (Frozen)
    FrozenLen = Stack.size();
}

void Explorer::preloadScheduleFrozenPrefix(
    const std::vector<ScheduleChoice> &Choices, size_t FrozenPrefixLen) {
  assert(FrozenPrefixLen <= Choices.size() && "frozen prefix too long");
  preloadSchedule(Choices, /*Frozen=*/false);
  FrozenLen = FrozenPrefixLen;
}

void Explorer::preloadFrontier(const CheckpointState &From) {
  assert(Stack.empty() && Result.Stats.Executions == 0 &&
         "preloadFrontier must precede run()");
  Result.Stats = From.Stats;
  Result.Stats.TimedOut = false;
  Result.Stats.ExecutionCapHit = false;
  Result.Stats.SearchExhausted = false;
  Result.Stats.Interrupted = false;
  Result.Stats.Seconds = 0;
  EstMassSum = From.Stats.EstimateMass;
  EstMassComp = 0;
  preloadSeenStates(From.States);
  if (From.Bug) {
    Result.Bug = *From.Bug;
    Result.Kind = From.Bug->Kind;
  }
  if (From.Rng)
    Rng.setState(From.Rng);
  Units = &From.Frontier;
  NextUnit = 0;
  loadNextUnit();
}

void Explorer::preloadSeenStates(const std::vector<uint64_t> &States) {
  SeenStates.reserve(SeenStates.size() + States.size());
  for (uint64_t S : States)
    SeenStates.insert(S);
}

std::vector<ScheduleChoice> Explorer::currentStackSnapshot() const {
  std::vector<ScheduleChoice> Out;
  Out.reserve(Stack.size());
  for (const ChoiceRec &R : Stack)
    Out.push_back({R.Chosen, R.Num, R.Backtrack, R.SleepMask, R.FlushMask});
  return Out;
}

std::optional<std::vector<ScheduleChoice>> Explorer::nextFrontier() {
  if (!advanceStack())
    return std::nullopt;
  return currentStackSnapshot();
}

void Explorer::setChoiceStream(
    std::function<void(int Chosen, int Num, bool Backtrack,
                       uint64_t SleepMask, uint64_t FlushMask)>
        CB) {
  StreamCb = std::move(CB);
}

std::shared_ptr<CheckpointState> Explorer::makeCheckpointState() const {
  auto CK = std::make_shared<CheckpointState>();
  CK->Stats = Result.Stats;
  CK->Stats.Interrupted = false; // Flags describe a run, not a checkpoint.
  CK->Stats.DistinctStates = SeenStates.size();
  CK->Rng = Rng.state();
  CheckpointUnit U;
  U.Prefix = currentStackSnapshot();
  U.FrozenLen = FrozenLen;
  CK->Frontier.push_back(std::move(U));
  if (Units)
    CK->Frontier.insert(CK->Frontier.end(), Units->begin() + long(NextUnit),
                        Units->end());
  CK->States.assign(SeenStates.begin(), SeenStates.end());
  std::sort(CK->States.begin(), CK->States.end());
  CK->Bug = Result.Bug; // Only set under StopOnFirstBug=false.
  return CK;
}

void Explorer::setExecutionHook(std::function<bool(Explorer &)> H) {
  Hook = std::move(H);
}

size_t Explorer::splitWork(std::vector<std::vector<ScheduleChoice>> &Out,
                           size_t MaxItems) {
  size_t Donated = 0;
  // Base is maintained incrementally as the shared prefix Stack[0..I):
  // one append per record scanned, so a donation batch costs
  // O(stack + donated-prefix bytes) instead of re-walking the whole
  // prefix for every donating record (which made deep-stack donation
  // quadratic).
  std::vector<ScheduleChoice> Base;
  Base.reserve(Stack.size());
  for (size_t J = 0; J < FrozenLen && J < Stack.size(); ++J)
    Base.push_back({Stack[J].Chosen, Stack[J].Num, Stack[J].Backtrack,
                    Stack[J].SleepMask, Stack[J].FlushMask});
  for (size_t I = FrozenLen; I < Stack.size() && Donated < MaxItems; ++I) {
    ChoiceRec &R = Stack[I];
    if (R.Backtrack && !R.Donated && R.Chosen + 1 < R.Num) {
      // Partial donation of a record is not representable (Donated is
      // all-or-nothing), so give away the record's whole remainder even
      // if that overshoots MaxItems by a few siblings.
      for (int Alt = R.Chosen + 1; Alt < R.Num; ++Alt) {
        std::vector<ScheduleChoice> Prefix;
        Prefix.reserve(Base.size() + 1);
        Prefix.assign(Base.begin(), Base.end());
        // The sleep and flush masks describe the choice point, not the
        // branch taken, so every donated sibling inherits them verbatim;
        // the worker replaying the prefix recomputes and validates both.
        Prefix.push_back({Alt, R.Num, R.Backtrack, R.SleepMask, R.FlushMask});
        if (Ctr)
          Ctr->add(obs::Counter::DonationBytes,
                   Prefix.size() * sizeof(ScheduleChoice));
        Out.push_back(std::move(Prefix));
        ++Donated;
      }
      R.Donated = true;
    }
    Base.push_back(
        {R.Chosen, R.Num, R.Backtrack, R.SleepMask, R.FlushMask});
  }
  return Donated;
}

std::vector<int> Explorer::consumedPathKey() const {
  std::vector<int> Key;
  size_t N = Cursor < Stack.size() ? Cursor : Stack.size();
  Key.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Key.push_back(Stack[I].Chosen);
  return Key;
}

void Explorer::reportBug(Verdict V, std::string Msg, const Runtime &RT,
                         uint64_t Step) {
  ++Result.Stats.BugsFound;
  if (Ctr) {
    Ctr->add(obs::Counter::BugsFound);
    if (V == Verdict::Deadlock)
      Ctr->add(obs::Counter::Deadlocks);
    else if (V == Verdict::Livelock)
      Ctr->add(obs::Counter::Livelocks);
    else if (V == Verdict::GoodSamaritanViolation)
      Ctr->add(obs::Counter::GoodSamaritanViolations);
    if (Obs->sink()) {
      obs::ObsEvent E;
      E.Kind = obs::EventKind::BugFound;
      E.Thread = RT.failureTid();
      E.Ts = ObsClock;
      E.ArgA = Result.Stats.Executions;
      E.ArgB = Step;
      E.Detail = verdictName(V);
      emitEvent(E);
    }
  }
  if (Result.Bug)
    return; // Keep the first counterexample.
  BugReport B;
  B.Kind = V;
  B.Message = std::move(Msg);
  B.TraceText = CurTrace.render(RT, 120);
  // Stats.Executions counts completed executions, so during the buggy one
  // it equals the 0-based index (and stays correct across resumed run
  // parts, where a base count is preloaded).
  B.AtExecution = Result.Stats.Executions;
  B.AtStep = Step;
  // Serialize the consumed choice prefix so the schedule can be replayed.
  SchedScratch.clear();
  for (size_t I = 0; I < Cursor && I < Stack.size(); ++I)
    SchedScratch.push_back({Stack[I].Chosen, Stack[I].Num,
                            Stack[I].Backtrack, Stack[I].SleepMask,
                            Stack[I].FlushMask});
  B.Schedule = encodeSchedule(SchedScratch);
  Result.Bug = std::move(B);
  Result.Kind = V;
}

void Explorer::harvestRaces(const RaceDetector &D, const Runtime &RT) {
  Result.Stats.RacesChecked += D.checks();
  if (Ctr && D.checks())
    Ctr->add(obs::Counter::RacesChecked, D.checks());
  for (const RaceReport &R : D.races()) {
    if (!RaceKeys.insert(R.Message).second)
      continue; // The same race, surfaced by another interleaving.
    ++Result.Stats.RacesFound;
    if (Ctr)
      Ctr->add(obs::Counter::RacesFound);
    BugReport B;
    B.Kind = Verdict::DataRace;
    B.Message = R.Message;
    B.TraceText = R.Detail + CurTrace.render(RT, 120);
    B.AtExecution = Result.Stats.Executions;
    B.AtStep = CurSteps;
    SchedScratch.clear();
    for (size_t I = 0; I < Cursor && I < Stack.size(); ++I)
      SchedScratch.push_back({Stack[I].Chosen, Stack[I].Num,
                              Stack[I].Backtrack, Stack[I].SleepMask,
                              Stack[I].FlushMask});
    B.Schedule = encodeSchedule(SchedScratch);
    Result.Incidents.push_back(std::move(B));
  }
}

void Explorer::creditEstimateMass() {
  if (!Opts.Estimate)
    return;
  // Knuth weighted-backtrack mass of the completed path: the product of
  // 1/branch-factor over its consumed backtrackable records. Donated
  // records are included -- their untried siblings carry the same
  // per-sibling factor on the workers exploring them, so the global
  // masses still partition the tree and sum to 1.0 at exhaustion.
  // Random-tail records (Backtrack=false) are not tree branches and
  // contribute nothing.
  double P = 1.0;
  for (size_t I = 0, N = std::min(Cursor, Stack.size()); I < N; ++I)
    if (Stack[I].Backtrack)
      P /= double(Stack[I].Num);
  // Neumaier-compensated sum: leaf masses span many orders of magnitude,
  // and the exactness of the exhausted-run estimate depends on the sum
  // landing within an ulp of 1.0.
  double T = EstMassSum + P;
  if (std::abs(EstMassSum) >= std::abs(P))
    EstMassComp += (EstMassSum - T) + P;
  else
    EstMassComp += (P - T) + EstMassSum;
  EstMassSum = T;
  Result.Stats.EstimateMass = EstMassSum + EstMassComp;
  if (Ctr)
    Ctr->addEstimateMass(P);
}

int Explorer::chooseInt(int N) {
  // Data choices in the random tail (or random walks) are random and not
  // backtrack points, matching the treatment of scheduling choices there.
  bool InTail = Opts.DepthBound > 0 && CurSteps >= Opts.DepthBound;
  bool Random = Opts.Kind == SearchKind::RandomWalk || InTail;
  // A fresh (non-replayed) backtrackable data choice is a branch point of
  // the choice tree; Cursor >= ReplayLen means pickIndex will push.
  if (Prof && N >= 2 && !Random && Cursor >= ReplayLen)
    Prof->noteChoose(N, CurSteps);
  return pickIndex(N, /*Backtrack=*/!Random, /*PickRandom=*/Random);
}

Explorer::ExecEnd Explorer::runOneExecution() {
  Cursor = 0;
  ReplayLen = Stack.size();
  CurSteps = 0;
  CurTrace.clear();

  // Hoisted observability state: with no observer, Ctr is null and every
  // hook below is one predictable-false branch.
  const bool TraceT = Obs && Obs->traceTransitions();
  const bool TimeSteps = Ctr && Obs->stepTiming();
  const uint64_t ExecStartClock = ObsClock;
  uint64_t LastEdgeAdds = 0, LastEdgeRemovals = 0;

  // Phase self-timing (Observer::Config::PhaseTiming): two clock reads
  // per execution plus one pair per coverage lookup; the replay bucket
  // closes when the cursor first leaves the recorded prefix. ReplayDone
  // stays true with timing off, so the per-transition check is one
  // always-true bool test.
  const bool PhaseT = Ctr && Obs->phaseTiming();
  std::chrono::steady_clock::time_point PhaseStart, ReplayEndT;
  bool ReplayDone = true;
  uint64_t SnapNs = 0;
  // Snapshot ns accumulated before the replay bucket closed: coverage
  // lookups inside the prefix belong to the snapshot bucket, not replay.
  uint64_t SnapNsReplay = 0;

  // A fresh detector per execution, like every other piece of per-
  // execution state: the stateless search replays establish all clocks
  // from scratch each time.
  std::optional<RaceDetector> RaceD;
  Runtime::Options RTOpts;
  RTOpts.Ctr = Ctr;
  RTOpts.Memory = Opts.Memory;
  if (Opts.Races != RaceCheckMode::Off) {
    RaceD.emplace();
    RTOpts.Race = &*RaceD;
  }
  // The execution's world: recycled from the previous execution when
  // ReuseExecutionState is on (reset() rewinds it to a logically fresh
  // state, keeping thread records and pooled fiber stacks), else built
  // and torn down per execution -- the measured-baseline slow path.
  std::optional<Runtime> LocalRT;
  if (Opts.ReuseExecutionState) {
    if (!OwnPool && !ExternalPool)
      OwnPool = std::make_unique<StackPool>();
    RTOpts.Pool = ExternalPool ? ExternalPool : OwnPool.get();
    if (PersistentRT)
      PersistentRT->reset(RTOpts);
    else
      PersistentRT = std::make_unique<Runtime>(*this, RTOpts);
  } else {
    LocalRT.emplace(*this, RTOpts);
  }
  Runtime &RT = LocalRT ? *LocalRT : *PersistentRT;
  FairScheduler FS(Opts.YieldK);
  LivenessMonitor Monitor(Opts.GoodSamaritanBound);
  Monitor.beginExecution();
  Strategy->beginExecution();
  RT.start(Program.Body);
  if (PhaseT) {
    PhaseStart = std::chrono::steady_clock::now();
    ReplayDone = ReplayLen == 0;
    if (ReplayDone)
      ReplayEndT = PhaseStart;
  }

  Tid Prev = -1;
  int Preemptions = 0;
  bool CutAtDepth = Opts.DepthBound > 0 && !Opts.RandomTail;
  // Sleep-set POR state: threads whose pending operation need not be
  // scheduled here because an equivalent interleaving (same Mazurkiewicz
  // trace) is explored on an already-visited branch.
  ThreadSet Sleep;

  // Runs on every way out of the execution; \p EndDetail is the stable
  // wire name of the end class for the ExecutionEnd trace event.
  // \p HarvestRaces is cleared on the exits that do not count as an
  // execution (divergence, mid-execution interrupt): their attempts are
  // re-run, and harvesting them would double-count checks and break the
  // resumed run's equivalence with an uninterrupted one.
  auto finishStats = [&](const char *EndDetail, bool HarvestRaces = true) {
    if (Explain)
      Explain->EndDetail = EndDetail;
    if (PhaseT) {
      auto Now = std::chrono::steady_clock::now();
      if (!ReplayDone) {
        ReplayEndT = Now; // The whole execution was replay.
        ReplayDone = true;
        SnapNsReplay = SnapNs;
      }
      auto Ns = [](std::chrono::steady_clock::time_point A,
                   std::chrono::steady_clock::time_point B) {
        return uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(B - A)
                .count());
      };
      uint64_t ReplayNs = Ns(PhaseStart, ReplayEndT);
      uint64_t ExecNs = Ns(ReplayEndT, Now);
      uint64_t SnapExec = SnapNs - SnapNsReplay;
      Ctr->addPhaseNs(obs::Phase::Replay,
                      ReplayNs - std::min(ReplayNs, SnapNsReplay));
      Ctr->addPhaseNs(obs::Phase::Execute,
                      ExecNs - std::min(ExecNs, SnapExec));
      if (SnapNs)
        Ctr->addPhaseNs(obs::Phase::Snapshot, SnapNs);
    }
    if (RT.threadCount() > Result.Stats.MaxThreads)
      Result.Stats.MaxThreads = RT.threadCount();
    if (RT.syncOpCount() > Result.Stats.MaxSyncOps)
      Result.Stats.MaxSyncOps = RT.syncOpCount();
    if (CurSteps > Result.Stats.MaxDepth)
      Result.Stats.MaxDepth = CurSteps;
    // Unconditional like FairEdgeAdditions: diverged attempts did enqueue
    // and flush, and the totals describe work done, not executions
    // counted. Both stay zero under --memory=sc.
    Result.Stats.BufferedStores += RT.bufferedStoreCount();
    Result.Stats.StoreFlushes += RT.storeFlushCount();
    Result.Stats.FairEdgeAdditions += FS.edgeAdditions();
    if (Ctr) {
      Ctr->add(obs::Counter::FairEdgeAdds, FS.edgeAdditions());
      Ctr->add(obs::Counter::FairEdgeRemovals, FS.edgeRemovals());
      Ctr->maxGauge(obs::Gauge::MaxDepth, Result.Stats.MaxDepth);
      if (Obs->sink()) {
        obs::ObsEvent E;
        E.Kind = obs::EventKind::ExecutionEnd;
        E.Ts = ExecStartClock;
        E.Dur = CurSteps;
        E.ArgA = CurSteps;
        E.Detail = EndDetail;
        if (Opts.Estimate) {
          // The leaf mass this path contributes to the tree-size
          // estimate, mirrored into the trace so Perfetto can show which
          // subtrees carry the estimator's weight.
          double P = 1.0;
          for (size_t I = 0, N = std::min(Cursor, Stack.size()); I < N; ++I)
            if (Stack[I].Backtrack)
              P /= double(Stack[I].Num);
          E.Mass = P;
        }
        emitEvent(E);
      }
    }
    if (RaceD && HarvestRaces) {
      if (PhaseT) {
        auto T0 = std::chrono::steady_clock::now();
        harvestRaces(*RaceD, RT);
        Ctr->addPhaseNs(
            obs::Phase::RaceCheck,
            uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - T0)
                         .count()));
      } else {
        harvestRaces(*RaceD, RT);
      }
    }
  };

  while (true) {
    ThreadSet ES = RT.enabledSet();
    if (ES.empty()) {
      if (RT.liveSet().empty()) {
        finishStats("terminated");
        return ExecEnd::Terminated;
      }
      finishStats("bug");
      // Theorem 3: under fairness the schedulable set is empty only when
      // ES is, so this is a genuine deadlock, never a false one.
      if (Explain)
        for (Tid B : RT.liveSet()) {
          const PendingOp P = RT.pendingOf(B);
          obs::ExplainBlocked BB;
          BB.Thread = B;
          BB.ThreadName = RT.threadName(B);
          BB.Op = P.Kind;
          if (P.ObjectId >= 0)
            BB.Object = RT.objectName(P.ObjectId);
          Explain->Blocked.push_back(std::move(BB));
        }
      std::string Blocked;
      for (Tid T : RT.liveSet())
        Blocked += " " + RT.threadName(T);
      reportBug(Verdict::Deadlock, "deadlock: blocked threads:" + Blocked,
                RT, CurSteps);
      return ExecEnd::Bug;
    }

    ThreadSet Allowed = Opts.Fair ? FS.allowed(ES) : ES;

    SchedContext C;
    C.Enabled = ES;
    C.Allowed = Allowed;
    C.Prev = Prev;
    C.PrevEnabled = Prev >= 0 && ES.contains(Prev);
    C.PrevAllowed = Prev >= 0 && Allowed.contains(Prev);
    C.PrevAtYield = Prev >= 0 && RT.yieldPending(Prev);
    C.Step = CurSteps;
    C.PreemptionsUsed = Preemptions;

    CandidateSet Cands = Strategy->candidates(C);
    assert(!Cands.Set.empty() && "strategy returned no candidates");
    assert(Cands.Set.isSubsetOf(Allowed) &&
           "strategy candidates must respect the priority order");
    if (Opts.DepthBound > 0 && CurSteps >= Opts.DepthBound) {
      // Past the depth bound: random, non-branching picks (Section 4.2.1).
      Cands.Backtrack = false;
      Cands.PickRandom = true;
    }
    uint64_t SleepMaskHere = 0;
    if (Opts.Por) {
      ThreadSet Sleeping = Cands.Set & Sleep;
      if (!Sleeping.empty()) {
        Result.Stats.PorSleepHits += Sleeping.size();
        if (Ctr)
          Ctr->add(obs::Counter::PorSleepHits, Sleeping.size());
        if (Prof)
          // Attribute the filtered candidates to the op class they would
          // have performed: where the reduction is earning its keep.
          for (Tid S : Sleeping)
            Prof->notePorSleep(unsigned(RT.pendingOf(S).Kind));
        Cands.Set -= Sleeping;
        if (Cands.Set.empty()) {
          if (Opts.Fair) {
            // Fairness-interaction rule (docs/POR.md): under the fair
            // scheduler the sleepers are the only fairness-allowed
            // choices left, and dropping them would discard schedules
            // the fairness guarantee (Theorem 1) depends on -- so they
            // are woken, never dropped. Without fairness the classical
            // prune below is sound: the subtree only permutes moves an
            // already-explored sibling branch covers.
            Cands.Set = Sleeping;
            Sleep -= Sleeping;
            Result.Stats.PorFairWakes += Sleeping.size();
            if (Ctr)
              Ctr->add(obs::Counter::PorFairWakes, Sleeping.size());
          } else {
            // Every schedulable move sleeps: this state's subtree is
            // covered by an equivalent interleaving elsewhere. Not a
            // deadlock. The pruned path's estimator mass is credited
            // here, at the prune site, so the subtree the reduction cuts
            // can never drop out of the weighted-backtrack sum.
            finishStats("por_pruned");
            ++Result.Stats.PorBranchesPruned;
            if (Ctr)
              Ctr->add(obs::Counter::PorBranchesPruned);
            creditEstimateMass();
            return ExecEnd::Pruned;
          }
        }
      }
      SleepMaskHere = Sleep.rawBits();
    }

    // Flush-agent bits of the candidate set (--memory=tso|pso): recorded
    // on the stack and in schedules so replay under a different memory
    // model -- where the same choice indices would name different
    // threads -- diverges instead of silently exploring another
    // interleaving. Always zero under sc, so sc output is unchanged.
    uint64_t FlushMaskHere = 0;
    if (Opts.Memory != MemoryModel::Sc)
      FlushMaskHere = Cands.Set.rawBits() &
                      ~((uint64_t(1) << Runtime::FlushBase) - 1);

    bool Replaying = Cursor < ReplayLen;
    if (!ReplayDone && !Replaying) {
      ReplayEndT = std::chrono::steady_clock::now();
      ReplayDone = true;
      SnapNsReplay = SnapNs;
    }
    int Idx = pickIndex(Cands.Set.size(), Cands.Backtrack, Cands.PickRandom,
                        SleepMaskHere, FlushMaskHere);
    if (ReplayMismatch) {
      // Nondeterminism beyond scheduling/chooseInt. A mismatch can only
      // fire in the replay region, so the stack is exactly as it was at
      // the start of the execution: the driver retries it verbatim up to
      // Opts.DivergenceRetries times before discarding the subtree.
      finishStats("diverged", /*HarvestRaces=*/false);
      return ExecEnd::Diverged;
    }
    Tid T = nthMember(Cands.Set, Idx);

    // Preemption accounting (Section 4): switching away from an enabled
    // previous thread costs one preemption unless the fair scheduler
    // excluded it (PrevAllowed false) or it sits at a voluntary yield.
    if (T != Prev && C.PrevEnabled && C.PrevAllowed && !C.PrevAtYield) {
      ++Preemptions;
      ++Result.Stats.Preemptions;
      if (Ctr)
        Ctr->add(obs::Counter::Preemptions);
    }

    const PendingOp Op = RT.pendingOf(T); // Copy: step() replaces it.
    bool WasYield = Op.isYield();
    CurTrace.record(
        {T, Op.Kind, Op.ObjectId, Op.Aux, RT.annotationOf(T), WasYield});
    // "Others enabled" feeds the good-samaritan monitor, which reasons
    // about *program* threads: a flush agent being enabled (someone's
    // buffer is non-empty) must not turn a spinning thread into a
    // violator. Gated on the memory model -- under sc the high tids are
    // ordinary threads and masking them would be wrong.
    ThreadSet RealES = ES;
    if (Opts.Memory != MemoryModel::Sc)
      RealES = ES & ThreadSet::firstN(Runtime::FlushBase);
    bool OthersEnabled = !(RealES - ThreadSet::singleton(T)).empty();

    if (Prof && !Replaying && Cands.Backtrack && Cands.Set.size() >= 2) {
      // A fresh scheduling branch point: attribute the alternatives it
      // opened to the executed operation's class and object.
      Prof->noteBranch(unsigned(Op.Kind), Cands.Set.size(), CurSteps);
      if (Op.ObjectId >= 0)
        Prof->noteObject(RT.objectName(Op.ObjectId), Cands.Set.size());
    }
    if (Explain) {
      obs::ExplainStep S;
      S.Thread = T;
      S.ThreadName = RT.threadName(T);
      S.Op = Op.Kind;
      if (Op.ObjectId >= 0)
        S.Object = RT.objectName(Op.ObjectId);
      S.Annotation = RT.annotationOf(T);
      S.WasYield = WasYield;
      S.EnabledMask = ES.rawBits();
      S.SleepMask = SleepMaskHere;
      S.Choices = Cands.Set.size();
      S.ChosenIdx = Idx;
      Explain->Steps.push_back(std::move(S));
    }

    if (Opts.Por && Cands.Backtrack) {
      // Siblings tried before this choice (indices < Idx) have fully
      // explored subtrees; their moves sleep below this transition.
      int K = 0;
      for (Tid Sib : Cands.Set) {
        if (K++ >= Idx)
          break;
        // Fairness-interaction rule (docs/POR.md): yield transitions are
        // never put to sleep under the fair scheduler. Yields commute
        // with every operation, so a sleeping yield would sleep forever
        // -- but Algorithm 1's priority bookkeeping depends on *which*
        // thread executes the yield, so commuted branches are not
        // fair-equivalent and may not stand in for each other.
        if (Opts.Fair && RT.yieldPending(Sib))
          continue;
        Sleep.insert(Sib);
      }
    }

    StepStatus St;
    if (TimeSteps) {
      auto T0 = std::chrono::steady_clock::now();
      St = RT.step(T);
      Ctr->addLatencyNs(uint64_t(std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - T0)
                                     .count()));
    } else {
      St = RT.step(T);
    }
    ++CurSteps;
    ++Result.Stats.Transitions;
    if (Ctr) {
      ++ObsClock;
      Ctr->add(obs::Counter::Transitions);
      Ctr->addOp(unsigned(Op.Kind));
      if (Replaying)
        Ctr->add(obs::Counter::ReplaySteps);
      if (TraceT) {
        obs::ObsEvent E; // Kind defaults to Transition.
        E.Thread = T;
        E.Ts = ObsClock - 1;
        E.Dur = 1;
        E.Op = Op.Kind;
        E.Object = Op.ObjectId;
        E.ArgA = CurSteps - 1;
        emitEvent(E);
      }
    }

    if (ReplayMismatch) {
      // A chooseInt inside this transition mismatched its recording. The
      // whole execution is poisoned -- later choices were misapplied --
      // so divergence outranks anything the transition appeared to do,
      // including failing an assertion or ending the program.
      finishStats("diverged", /*HarvestRaces=*/false);
      return ExecEnd::Diverged;
    }

    if (St == StepStatus::Failed) {
      finishStats("bug");
      reportBug(Verdict::SafetyViolation, RT.failureMessage(), RT, CurSteps);
      return ExecEnd::Bug;
    }

    if (RaceD && Opts.Races == RaceCheckMode::Fatal &&
        !RaceD->races().empty()) {
      // Fatal mode: a race ends the execution like a safety violation
      // (finishStats already harvested it as an incident too).
      finishStats("bug");
      reportBug(Verdict::DataRace, RaceD->races().front().Message, RT,
                CurSteps);
      return ExecEnd::Bug;
    }

    ThreadSet ESAfter = RT.enabledSet();
    if (Opts.Fair)
      FS.onTransition(T, ES, ESAfter, WasYield);

    if (TraceT && Opts.Fair) {
      // Priority-edge churn as instant events at this transition's tick;
      // removal (line 13) happens before addition (line 25).
      uint64_t RemD = FS.edgeRemovals() - LastEdgeRemovals;
      uint64_t AddD = FS.edgeAdditions() - LastEdgeAdds;
      LastEdgeRemovals = FS.edgeRemovals();
      LastEdgeAdds = FS.edgeAdditions();
      if (RemD) {
        obs::ObsEvent E;
        E.Kind = obs::EventKind::FairEdgeRemove;
        E.Thread = T;
        E.Ts = ObsClock - 1;
        E.ArgA = RemD;
        E.ArgB = CurSteps - 1;
        emitEvent(E);
      }
      if (AddD) {
        obs::ObsEvent E;
        E.Kind = obs::EventKind::FairEdgeAdd;
        E.Thread = T;
        E.Ts = ObsClock - 1;
        E.ArgA = AddD;
        E.ArgB = CurSteps - 1;
        emitEvent(E);
      }
    }

    if (Opts.Por) {
      // Wake every sleeper whose pending move conflicts with the executed
      // operation: the orders now differ in observable effect. The
      // dependence oracle (core/Dependence.h) is tid-aware -- a sleeping
      // Join(t) wakes on any transition executed by t, and on nothing
      // else t-related.
      Sleep.erase(T);
      for (Tid S : Sleep)
        if (!RT.liveSet().contains(S) ||
            !independentTransitions(S, RT.pendingOf(S), T, Op))
          Sleep.erase(S);
    }

    // Flush agents are exempt from liveness accounting: they never yield
    // by design, so feeding their transitions to the monitor would trip
    // the eager good-samaritan bound on behalf of a pseudo-thread the
    // workload cannot fix.
    if (!Runtime::isFlushAgent(T))
      Monitor.onTransition(T, WasYield, OthersEnabled);
    if (Opts.DetectDivergence && Monitor.eagerGsViolator() >= 0) {
      Tid V = Monitor.eagerGsViolator();
      finishStats("bug");
      reportBug(Verdict::GoodSamaritanViolation,
                "good samaritan violation: thread " + RT.threadName(V) +
                    " ran " + std::to_string(Opts.GoodSamaritanBound) +
                    " transitions without yielding while other threads "
                    "were enabled",
                RT, CurSteps);
      return ExecEnd::Bug;
    }

    if (Opts.TrackCoverage || Opts.StatefulPruning) {
      std::chrono::steady_clock::time_point SnapT0;
      if (PhaseT)
        SnapT0 = std::chrono::steady_clock::now();
      uint64_t Sig = RT.stateSignature();
      if (SeenStates.insert(Sig)) {
        if (LogStates)
          StateLog.push_back(Sig);
      } else {
        ++Result.Stats.StateHits;
      }
      if (PhaseT)
        SnapNs += uint64_t(std::chrono::duration_cast<
                               std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - SnapT0)
                               .count());
      // Pruning decisions are made only beyond the replayed prefix; the
      // prefix's states were inserted by the earlier execution that
      // explored it.
      if (Opts.StatefulPruning && Cursor >= ReplayLen) {
        // The visited key must be finite for the reference search to
        // terminate on cyclic state spaces: include the preemption budget
        // only when a context bound caps it. Under a context bound the
        // continuation also depends on which thread just ran (switching
        // away from it is what costs), so the key includes it too --
        // otherwise the reference search prunes paths whose futures
        // differ and undercounts the total.
        uint64_t Key = Sig;
        if (Opts.Kind == SearchKind::ContextBounded) {
          Key ^= hashU64(0x5157ULL + uint64_t(Preemptions));
          Tid NewPrev = St == StepStatus::Finished ? -1 : T;
          Key ^= hashU64(0xc0117e87ULL * uint64_t(NewPrev + 2));
        }
        if (!PruneKeys.insert(Key)) {
          finishStats("pruned");
          ++Result.Stats.PrunedExecutions;
          if (Ctr)
            Ctr->add(obs::Counter::StatefulPrunes);
          creditEstimateMass(); // At the prune site; see the POR prune.
          return ExecEnd::Pruned;
        }
      }
    }

    if (CutAtDepth && CurSteps >= Opts.DepthBound) {
      finishStats("abandoned");
      ++Result.Stats.NonterminatingExecutions;
      if (Ctr)
        Ctr->add(obs::Counter::NonterminatingExecutions);
      return ExecEnd::Abandoned;
    }

    uint64_t Cap = Opts.ExecutionBound;
    if (Opts.DepthBound > 0 && Opts.RandomTail)
      Cap = Opts.DepthBound + Opts.RandomTailCap;
    if (Cap > 0 && CurSteps >= Cap) {
      if (Opts.DetectDivergence) {
        finishStats("bug");
        auto Div = LivenessMonitor::classifyDivergence(CurTrace, Cap / 2);
        if (Obs && Obs->sink()) {
          obs::ObsEvent E;
          E.Kind = obs::EventKind::Divergence;
          E.Ts = ObsClock;
          E.ArgA = Result.Stats.Executions;
          E.ArgB = CurSteps;
          E.Detail = Div.IsGoodSamaritan ? "good_samaritan" : "livelock";
          emitEvent(E);
        }
        reportBug(Div.IsGoodSamaritan ? Verdict::GoodSamaritanViolation
                                      : Verdict::Livelock,
                  Div.Summary, RT, CurSteps);
        return ExecEnd::Bug;
      }
      finishStats("abandoned");
      ++Result.Stats.NonterminatingExecutions;
      if (Ctr)
        Ctr->add(obs::Counter::NonterminatingExecutions);
      return ExecEnd::Abandoned;
    }

    if ((CurSteps & 0xfff) == 0) {
      if (Opts.InterruptFlag &&
          Opts.InterruptFlag->load(std::memory_order_relaxed)) {
        finishStats("abandoned", /*HarvestRaces=*/false);
        return ExecEnd::Interrupted;
      }
      if (timeExceeded()) {
        finishStats("abandoned");
        Result.Stats.TimedOut = true;
        return ExecEnd::Abandoned;
      }
    }

    Prev = (St == StepStatus::Finished) ? -1 : T;
  }
}

CheckResult Explorer::run() {
  StartTime = std::chrono::steady_clock::now();
  int RetriesLeft = Opts.DivergenceRetries;
  for (CurExecution = 0;; ++CurExecution) {
    ExecEnd End = runOneExecution();

    if (End == ExecEnd::Interrupted) {
      // Mid-execution interrupt: the attempt does not count. Drop its
      // fresh pushes so the resume frontier re-runs it from the top.
      Stack.resize(ReplayLen);
      Result.Stats.Interrupted = true;
      Result.Resume = makeCheckpointState();
      break;
    }

    if (End == ExecEnd::Diverged) {
      // Replay mismatch: not an execution. Retry the identical prefix
      // (transient nondeterminism often clears); after the retry budget,
      // charge one divergence and discard the subtree at the mismatch.
      ReplayMismatch = false;
      if (RetriesLeft > 0) {
        --RetriesLeft;
        ++Result.Stats.DivergenceRetries;
        if (Ctr)
          Ctr->add(obs::Counter::DivergenceRetries);
        continue;
      }
      RetriesLeft = Opts.DivergenceRetries;
      ++Result.Stats.Divergences;
      if (Ctr)
        Ctr->add(obs::Counter::Divergences);
      if (MismatchIdx < Stack.size())
        Stack.resize(MismatchIdx);
      if (timeExceeded()) {
        Result.Stats.TimedOut = true;
        break;
      }
      if (!(Stack.size() > FrozenLen ? advanceStack() : loadNextUnit())) {
        Result.Stats.SearchExhausted = true;
        break;
      }
      continue;
    }

    ++Result.Stats.Executions;
    RetriesLeft = Opts.DivergenceRetries;
    if (Ctr)
      Ctr->add(obs::Counter::Executions);
    // Pruned executions (POR and stateful) credited their estimator mass
    // at the prune site, where the cursor still framed the pruned node;
    // every other completed execution credits here. Nothing changes the
    // stack or cursor between a prune return and this point, so the
    // split is value-identical to crediting everything here -- it just
    // makes "pruned subtrees keep their mass" hold by construction.
    if (End != ExecEnd::Pruned)
      creditEstimateMass();

    // The hook runs on every execution (it is also how the parallel
    // driver counts executions against the shared budget); its stop
    // request is honored after the local stop conditions so a bug or
    // local budget still reports with the usual flags.
    bool HookStop = Hook && !Hook(*this);
    if (End == ExecEnd::Bug && Opts.StopOnFirstBug)
      break;
    if (Result.Stats.TimedOut)
      break;
    if (Opts.MaxExecutions && Result.Stats.Executions >= Opts.MaxExecutions) {
      Result.Stats.ExecutionCapHit = true;
      break;
    }
    if (timeExceeded()) {
      Result.Stats.TimedOut = true;
      break;
    }
    if (HookStop)
      break;
    if (Opts.InterruptFlag &&
        Opts.InterruptFlag->load(std::memory_order_relaxed)) {
      // Clean boundary: advance past the finished execution first so the
      // resume frontier holds exactly the unexplored remainder.
      if (advanceStack()) {
        Result.Stats.Interrupted = true;
        Result.Resume = makeCheckpointState();
      } else {
        Result.Stats.SearchExhausted = true;
      }
      break;
    }
    if (!advanceStack()) {
      Result.Stats.SearchExhausted = true;
      break;
    }
    if (Opts.CheckpointEvery && Opts.CheckpointSink &&
        Result.Stats.Executions % Opts.CheckpointEvery == 0) {
      ++Result.Stats.Checkpoints;
      if (Ctr)
        Ctr->add(obs::Counter::Checkpoints);
      Opts.CheckpointSink(*makeCheckpointState());
    }
  }
  if (Result.Kind == Verdict::Pass && Result.Stats.Divergences > 0 &&
      Result.Stats.Executions == 0)
    // Nothing ever replayed: the whole request (typically a single
    // --replay) diverged. Not a workload bug -- foundBug() is false.
    Result.Kind = Verdict::Divergence;
  Result.Stats.DistinctStates = SeenStates.size();
  if (Opts.ExportStateSignatures) {
    Result.StateSignatures.assign(SeenStates.begin(), SeenStates.end());
    std::sort(Result.StateSignatures.begin(), Result.StateSignatures.end());
  }
  auto Elapsed = std::chrono::steady_clock::now() - StartTime;
  Result.Stats.Seconds = std::chrono::duration<double>(Elapsed).count();
  return Result;
}
