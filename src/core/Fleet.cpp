//===- core/Fleet.cpp - Supervised multi-process exploration --------------===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
// Process layout: the coordinator (this file's runFleet) forks
// FleetWorkers long-lived children, each running fleetWorkerMain in a
// blocking read loop on its "down" pipe. One unit is outstanding per
// worker at a time, so the down pipe never fills and coordinator writes
// never block. The isolated rung instead forks one short-lived child per
// batch (isolatedChildMain) and supervises it with a watchdog. All
// records use the core/Wire.h framing; fork without exec means
// trivially-copyable payloads cross as raw bytes.
//
// The exactness invariant everything rests on: an attempt commits with
// ONE atomic UnitDone record carrying its stats, bug, incidents, coverage
// and remainder units. A worker that dies mid-attempt therefore commits
// nothing, and re-running the same unit on another worker reproduces the
// identical deterministic attempt. (An isolated child also streams an
// ExecDone record per execution, its bug and races ahead of it, so a
// death inside execution N+1 commits exactly executions 1..N.) Committed
// stats plus pending units always describe exactly the remaining search,
// which is why verdicts and incident sets match --jobs=N even under
// FSMC_FLEET_CHAOS fault injection.
//
//===----------------------------------------------------------------------===//

#include "core/Fleet.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/ResultAccumulator.h"
#include "core/Wire.h"
#include "core/WorkLease.h"
#include "obs/Observer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fsmc;
using wire::FrameParser;
using wire::WireReader;
using wire::WireWriter;
using wire::writeRecord;

namespace {

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

// Coordinator -> worker.
enum DownTag : uint8_t {
  TagUnit = 1,     // lease id, budget, time budget, frozen len, prefix
  TagStop = 2,     // finish the current attempt early, commit the remainder
  TagBestBug = 3,  // DFS-smallest bug key so far (first-bug pruning)
  TagShutdown = 4, // exit once idle
};

// Worker / isolated child -> coordinator.
enum UpTag : uint8_t {
  TagUnitDone = 16, // the one atomic commit record per attempt
  TagHeartbeat = 17,
  TagExecDone = 18, // isolated child: progress after each execution
  TagIncident = 19, // isolated child: a race, ahead of its ExecDone
  TagChoice = 20,   // isolated probe: one resolved choice
  TagBug = 21,      // isolated child: its first bug, ahead of its ExecDone
};

void putBug(WireWriter &W, const BugReport &B) {
  W.u8(uint8_t(B.Kind));
  W.str(B.Message);
  W.str(B.TraceText);
  W.str(B.Schedule);
  W.u64(B.AtExecution);
  W.u64(B.AtStep);
}

BugReport getBug(WireReader &R) {
  BugReport B;
  B.Kind = Verdict(R.u8());
  B.Message = R.str();
  B.TraceText = R.str();
  B.Schedule = R.str();
  B.AtExecution = R.u64();
  B.AtStep = R.u64();
  return B;
}

/// A UnitDone record: the lease id, then the attempt.
void putAttempt(WireWriter &W, uint64_t LeaseId, const Attempt &A) {
  W.u64(LeaseId);
  W.u8(A.TimedOut ? 1 : 0);
  W.u64(A.Rng);
  W.stats(A.Stats);
  W.u8(A.Bug ? 1 : 0);
  if (A.Bug)
    putBug(W, *A.Bug);
  W.u32(uint32_t(A.Incidents.size()));
  for (const BugReport &I : A.Incidents)
    putBug(W, I);
  W.states(A.States.data(), A.States.size());
  W.u32(uint32_t(A.Rem.size()));
  for (const CheckpointUnit &U : A.Rem) {
    W.u32(uint32_t(U.FrozenLen));
    W.choices(U.Prefix);
  }
}

bool getAttempt(WireReader R, uint64_t &LeaseId, Attempt &A) {
  LeaseId = R.u64();
  A.TimedOut = R.u8() != 0;
  A.Rng = R.u64();
  A.Stats = R.stats();
  if (R.u8())
    A.Bug = getBug(R);
  uint32_t NInc = R.u32();
  for (uint32_t I = 0; I < NInc && R.Ok; ++I)
    A.Incidents.push_back(getBug(R));
  A.States = R.states();
  uint32_t NRem = R.u32();
  for (uint32_t I = 0; I < NRem && R.Ok; ++I) {
    CheckpointUnit U;
    U.FrozenLen = R.u32();
    U.Prefix = R.choices();
    if (U.FrozenLen > U.Prefix.size())
      R.Ok = false;
    A.Rem.push_back(std::move(U));
  }
  return R.Ok;
}

//===----------------------------------------------------------------------===//
// Chaos fault injection (FSMC_FLEET_CHAOS=kill:<n>,hang:<n>; test-only)
//===----------------------------------------------------------------------===//

/// Armed workers self-destruct after this many lifetime executions --
/// late enough to be mid-attempt, early enough for small test searches.
constexpr uint64_t ChaosTriggerExecs = 3;

struct ChaosSpec {
  int Kills = 0; // next N spawned workers SIGKILL themselves
  int Hangs = 0; // following N spawned workers hang (stop heartbeating)
};

ChaosSpec parseChaos(const char *Env) {
  ChaosSpec C;
  const char *K = Env ? std::strstr(Env, "kill:") : nullptr;
  const char *H = Env ? std::strstr(Env, "hang:") : nullptr;
  C.Kills = K ? std::max(0, std::atoi(K + 5)) : 0;
  C.Hangs = H ? std::max(0, std::atoi(H + 5)) : 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Worker side
//===----------------------------------------------------------------------===//

struct WorkerConfig {
  const TestProgram *Program = nullptr;
  CheckerOptions Opts; // stripped attempt options (no Obs, no budgets)
  double HeartbeatPeriod = 0.1;
  uint64_t KillAfter = 0; // chaos: SIGKILL self after N lifetime execs
  uint64_t HangAfter = 0; // chaos: hang (no heartbeats) after N execs
};

struct IssuedUnit {
  uint64_t LeaseId = 0;
  uint64_t Budget = 0;
  double TimeBudget = 0;
  uint32_t FrozenLen = 0;
  std::vector<ScheduleChoice> Prefix;
};

/// The worker's view of the down pipe: one FrameParser shared between the
/// idle read loop and the mid-attempt control pump, so records survive
/// arbitrary fragmentation across both.
struct WorkerCtl {
  int DownFd = -1;
  FrameParser Frames;
  std::deque<IssuedUnit> Units;
  bool StopReq = false;
  bool Shutdown = false;
  bool HaveBest = false;
  std::vector<int> BestKey;

  void onRecord(uint8_t Tag, WireReader R) {
    switch (Tag) {
    case TagUnit: {
      IssuedUnit U;
      U.LeaseId = R.u64();
      U.Budget = R.u64();
      U.TimeBudget = R.f64();
      U.FrozenLen = R.u32();
      U.Prefix = R.choices();
      if (R.Ok)
        Units.push_back(std::move(U));
      break;
    }
    case TagStop:
      StopReq = true;
      break;
    case TagBestBug: {
      uint32_t N = R.u32();
      std::vector<int> Key;
      Key.reserve(N);
      for (uint32_t I = 0; I < N && R.Ok; ++I)
        Key.push_back(int(R.u32()));
      if (R.Ok) {
        HaveBest = true;
        BestKey = std::move(Key);
      }
      break;
    }
    case TagShutdown:
      Shutdown = true;
      break;
    }
  }

  /// Drains whatever is readable; with \p Block, waits for at least one
  /// byte first. EOF or a read error means the coordinator is gone -- the
  /// worker has nothing left to live for.
  void pump(bool Block) {
    for (;;) {
      struct pollfd P = {DownFd, POLLIN, 0};
      int R = ::poll(&P, 1, Block ? -1 : 0);
      if (R < 0) {
        if (errno == EINTR)
          continue;
        _exit(0);
      }
      if (R == 0)
        return;
      char Buf[4096];
      ssize_t N = ::read(DownFd, Buf, sizeof Buf);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        _exit(0);
      }
      if (N == 0)
        _exit(0); // coordinator closed the pipe
      Frames.feed(Buf, size_t(N),
                  [&](uint8_t Tag, WireReader Rd) { onRecord(Tag, Rd); });
      Block = false; // got something; finish draining and return
    }
  }
};

/// The worker process: loop forever running issued units on one Explorer,
/// and commit each attempt with a single UnitDone record.
[[noreturn]] void fleetWorkerMain(const WorkerConfig &Cfg, int DownFd,
                                  int UpFd) {
  // The coordinator owns interrupt policy; workers die by pipe EOF,
  // TagShutdown, or SIGKILL. SIGPIPE must not kill a worker whose
  // coordinator vanished mid-write.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);

  WorkerCtl Ctl;
  Ctl.DownFd = DownFd;
  uint64_t LifetimeExecs = 0;
  // One explorer for every attempt. Its coverage table holds committed
  // signatures plus the running attempt's: a lost attempt kills it too.
  Explorer E(*Cfg.Program, Cfg.Opts);
  IssuedUnit U;
  uint64_t Done = 0;
  std::vector<std::vector<ScheduleChoice>> Remainder;
  auto LastBeat = std::chrono::steady_clock::now();
  bool SentBeat = false;

  E.setExecutionHook([&](Explorer &Ex) {
    ++Done;
    ++LifetimeExecs;
    // Fault injection: die or go silent mid-attempt, before anything
    // is committed -- exactly the failure the recovery path must mask.
    if (Cfg.KillAfter && LifetimeExecs >= Cfg.KillAfter)
      ::kill(::getpid(), SIGKILL);
    if (Cfg.HangAfter && LifetimeExecs >= Cfg.HangAfter)
      for (;;)
        ::pause();
    auto NowT = std::chrono::steady_clock::now();
    if (!SentBeat ||
        std::chrono::duration<double>(NowT - LastBeat).count() >=
            Cfg.HeartbeatPeriod) {
      WireWriter W;
      W.u64(U.LeaseId);
      W.u64(LifetimeExecs);
      if (!writeRecord(UpFd, TagHeartbeat, W))
        _exit(0);
      LastBeat = NowT;
      SentBeat = true;
    }
    Ctl.pump(/*Block=*/false);
    if (Ctl.HaveBest && Cfg.Opts.StopOnFirstBug) {
      // Everything still unexplored in this unit is DFS-after the path
      // just consumed; if that path is already at-or-after the best
      // bug, nothing here can improve it. Drop the rest.
      if (!dfsBefore(Ex.consumedPathKey(), Ctl.BestKey))
        return false;
    }
    if (Ctl.StopReq || Ctl.Shutdown || Done >= U.Budget) {
      Ex.splitWork(Remainder, SIZE_MAX);
      return false;
    }
    return true;
  });

  for (;;) {
    Ctl.pump(/*Block=*/Ctl.Units.empty());
    if (Ctl.Units.empty()) {
      if (Ctl.Shutdown)
        _exit(0);
      continue;
    }
    U = std::move(Ctl.Units.front());
    Ctl.Units.pop_front();
    Ctl.StopReq = false; // a stale Stop must not kill the fresh attempt
    Done = 0;
    Remainder.clear();
    SentBeat = false;

    // Attempts start their PRNG from the seed, whoever runs them.
    E.setRngState(Cfg.Opts.Seed);
    E.runUnit({std::move(U.Prefix), U.FrozenLen}, /*Budget=*/0,
              U.TimeBudget);
    Attempt A = E.take();
    for (std::vector<ScheduleChoice> &P : Remainder) {
      size_t N = P.size();
      A.Rem.push_back({std::move(P), N});
    }
    WireWriter W;
    putAttempt(W, U.LeaseId, A);
    if (!writeRecord(UpFd, TagUnitDone, W))
      _exit(0);
    if (Ctl.Shutdown)
      _exit(0);
  }
}

//===----------------------------------------------------------------------===//
// The isolated rung: one forked child per batch
//===----------------------------------------------------------------------===//

/// What an isolated batch or probe child starts from; assembled before
/// fork so the child only reads memory it inherited.
struct IsolatedInput {
  const TestProgram *Program = nullptr;
  CheckerOptions Opts; ///< Stripped attempt options.
  CheckpointUnit Unit;
  uint64_t Budget = 0;  ///< Executions in this batch.
  double Seconds = 0;   ///< Time budget of this batch (0 = none).
  const U64Set *States = nullptr; ///< Coverage so far.
  uint64_t Rng = 0;
  /// Probe mode: stream every choice as it resolves, so the stack of an
  /// execution that never finishes is known outside the process.
  bool Probe = false;
};

/// Runs one batch of the unit inside the forked child: an ExecDone record
/// per finished execution (its bug and races ahead of it, so they commit
/// and are discarded with it), then the UnitDone record. Never returns.
[[noreturn]] void isolatedChildMain(const IsolatedInput &In, int Fd) {
  Explorer E(*In.Program, In.Opts);
  E.preloadSeenStates(
      std::vector<uint64_t>(In.States->begin(), In.States->end()));
  E.setRngState(In.Rng);
  if (In.Probe)
    E.setChoiceStream([&](int Chosen, int Num, bool Backtrack,
                          uint64_t SleepMask, uint64_t FlushMask) {
      WireWriter W;
      W.choices({{Chosen, Num, Backtrack, SleepMask, FlushMask}});
      writeRecord(Fd, TagChoice, W);
    });
  size_t StatesSent = 0, IncidentsSent = 0;
  bool BugSent = false, PipeOk = true;
  E.setExecutionHook([&](Explorer &Ex) {
    const Attempt &P = Ex.pending();
    if (P.Bug && !BugSent) {
      WireWriter W;
      putBug(W, *P.Bug);
      writeRecord(Fd, TagBug, W);
      BugSent = true;
    }
    for (; IncidentsSent < P.Incidents.size(); ++IncidentsSent) {
      WireWriter W;
      putBug(W, P.Incidents[IncidentsSent]);
      writeRecord(Fd, TagIncident, W);
    }
    WireWriter W;
    W.stats(P.Stats);
    W.u64(Ex.rngState());
    W.choices(Ex.currentStackSnapshot());
    W.states(P.States.data() + StatesSent, P.States.size() - StatesSent);
    StatesSent = P.States.size();
    PipeOk = writeRecord(Fd, TagExecDone, W);
    return PipeOk; // Parent gone -> stop quietly.
  });

  // A batch boundary (or the global cap; the coordinator re-derives which)
  // leaves the rest of the unit as the remainder: the next path, same
  // frozen prefix.
  E.runUnit(In.Unit, In.Budget, In.Seconds);
  if (!PipeOk)
    _exit(0);
  WireWriter W;
  putAttempt(W, /*LeaseId=*/0, E.take());
  writeRecord(Fd, TagUnitDone, W);
  _exit(0);
}

/// Everything one isolated child reported, in arrival order.
struct ChildReport {
  bool HaveExec = false; ///< The fields below are as of the last ExecDone.
  SearchStats ExecStats;
  uint64_t ExecRng = 0;
  std::vector<ScheduleChoice> LastStack;
  std::vector<uint64_t> StatesDelta; ///< Accumulated across ExecDones.
  // The first bug and the races in arrival order; what arrived before
  // the last ExecDone is committable when the child dies mid-execution.
  std::optional<BugReport> Bug;
  bool BugAtLastExec = false;
  std::vector<BugReport> Races;
  size_t RacesAtLastExec = 0;
  std::optional<Attempt> Done; ///< The UnitDone of a clean finish.
  std::vector<ScheduleChoice> Streamed; ///< Probe choices.
  bool Malformed = false;

  void onRecord(uint8_t Tag, WireReader R) {
    switch (Tag) {
    case TagExecDone: {
      ExecStats = R.stats();
      ExecRng = R.u64();
      LastStack = R.choices();
      std::vector<uint64_t> Delta = R.states();
      if (!R.Ok)
        break;
      StatesDelta.insert(StatesDelta.end(), Delta.begin(), Delta.end());
      HaveExec = true;
      BugAtLastExec = Bug.has_value();
      RacesAtLastExec = Races.size();
      return;
    }
    case TagBug: {
      BugReport B = getBug(R);
      if (!R.Ok)
        break;
      Bug = std::move(B);
      return;
    }
    case TagIncident: {
      BugReport B = getBug(R);
      if (!R.Ok)
        break;
      Races.push_back(std::move(B));
      return;
    }
    case TagUnitDone: {
      Attempt A;
      uint64_t LeaseId;
      if (!getAttempt(R, LeaseId, A))
        break;
      Done = std::move(A);
      return;
    }
    case TagChoice: {
      std::vector<ScheduleChoice> C = R.choices();
      if (!R.Ok)
        break;
      Streamed.insert(Streamed.end(), C.begin(), C.end());
      return;
    }
    default:
      break;
    }
    Malformed = true;
  }
};

/// How an isolated child ended, from the coordinator's point of view.
struct ChildExit {
  bool HangKilled = false;      ///< Watchdog fired.
  bool InterruptKilled = false; ///< Coordinator-side InterruptFlag.
  int Status = 0;               ///< As reported by waitpid.
};

/// Forks an isolated child for \p In and supervises it: reads records
/// until EOF, SIGKILLs it when the watchdog or the interrupt flag fires,
/// and reaps it. False when fork/pipe itself failed (no child ran).
bool runIsolatedChild(const IsolatedInput &In, const CheckerOptions &Opts,
                      ChildReport &Rep, ChildExit &Ex) {
  int P[2];
  if (::pipe(P) != 0)
    return false;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(P[0]);
    ::close(P[1]);
    return false;
  }
  if (Pid == 0) {
    // The coordinator owns SIGINT handling, and a vanished coordinator
    // must surface as EPIPE, not a signal. _exit (never exit) on every
    // path so fork-duplicated stdio buffers are not flushed twice.
    ::signal(SIGINT, SIG_IGN);
    ::signal(SIGTERM, SIG_IGN);
    ::signal(SIGPIPE, SIG_IGN);
    ::close(P[0]);
    isolatedChildMain(In, P[1]);
  }
  ::close(P[1]);
  FrameParser Frames;
  auto LastActivity = std::chrono::steady_clock::now();
  bool Killed = false;
  for (;;) {
    if (!Killed && Opts.InterruptFlag &&
        Opts.InterruptFlag->load(std::memory_order_relaxed)) {
      ::kill(Pid, SIGKILL);
      Killed = Ex.InterruptKilled = true;
    }
    struct pollfd Pfd = {P[0], POLLIN, 0};
    int N = ::poll(&Pfd, 1, 100);
    if (N < 0 && errno != EINTR)
      break;
    if (N > 0) {
      char Chunk[16384];
      ssize_t R = ::read(P[0], Chunk, sizeof(Chunk));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        break; // EOF: the child closed its end (exit or death).
      Frames.feed(Chunk, size_t(R),
                  [&](uint8_t Tag, WireReader Rd) { Rep.onRecord(Tag, Rd); });
      LastActivity = std::chrono::steady_clock::now();
      continue;
    }
    // Silence. A child that stopped making progress is hung.
    if (!Killed && Opts.HangTimeoutSeconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      LastActivity)
                .count() > Opts.HangTimeoutSeconds) {
      ::kill(Pid, SIGKILL);
      Killed = Ex.HangKilled = true;
    }
  }
  ::close(P[0]);
  while (::waitpid(Pid, &Ex.Status, 0) < 0 && errno == EINTR)
    ;
  return true;
}

/// Explorer's DFS advance on a serialized stack: bump the deepest
/// backtrackable record with an untried alternative, popping exhausted
/// ones, never descending into the frozen region. Random walks never
/// backtrack; their next path is the bare frozen prefix.
bool advancePrefix(std::vector<ScheduleChoice> &P, size_t FrozenLen,
                   bool RandomWalk) {
  if (RandomWalk) {
    P.resize(FrozenLen);
    return true;
  }
  while (P.size() > FrozenLen) {
    ScheduleChoice &R = P.back();
    if (R.Backtrack && R.Chosen + 1 < R.Num) {
      ++R.Chosen;
      return true;
    }
    P.pop_back();
  }
  return false;
}

std::string describeExit(const ChildExit &Ex, double HangTimeout) {
  if (Ex.HangKilled)
    return "no progress for " + std::to_string(HangTimeout) +
           "s; child killed by the sandbox watchdog";
  if (WIFSIGNALED(Ex.Status)) {
    int Sig = WTERMSIG(Ex.Status);
    std::string S = "child killed by signal " + std::to_string(Sig);
    if (const char *Name = strsignal(Sig))
      S += std::string(" (") + Name + ")";
    return S;
  }
  if (WIFEXITED(Ex.Status) && WEXITSTATUS(Ex.Status) != 0)
    return "child exited with status " +
           std::to_string(WEXITSTATUS(Ex.Status));
  return "child exited without completing its batch";
}

//===----------------------------------------------------------------------===//
// Coordinator side
//===----------------------------------------------------------------------===//

struct FleetWorker {
  pid_t Pid = -1;
  int DownFd = -1; // coordinator -> worker
  int UpFd = -1;   // worker -> coordinator
  FrameParser Frames;
  uint64_t LeaseId = 0; // 0 = idle
  bool Alive = false;
  bool UpEof = false;
  bool KillSent = false;    // heartbeat-expiry SIGKILL already delivered
  bool DrainKilled = false; // deliberately killed as a drain straggler
};

bool spawnWorker(FleetWorker &W, const WorkerConfig &BaseCfg,
                 ChaosSpec &Chaos) {
  int Down[2], Up[2];
  if (::pipe(Down) != 0)
    return false;
  if (::pipe(Up) != 0) {
    ::close(Down[0]);
    ::close(Down[1]);
    return false;
  }
  // Chaos arming happens at spawn so replacements fork unarmed once the
  // configured fault count is spent -- the search then finishes cleanly.
  uint64_t KillAfter = 0, HangAfter = 0;
  if (Chaos.Kills > 0) {
    KillAfter = ChaosTriggerExecs;
    --Chaos.Kills;
  } else if (Chaos.Hangs > 0) {
    HangAfter = ChaosTriggerExecs;
    --Chaos.Hangs;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Down[0]);
    ::close(Down[1]);
    ::close(Up[0]);
    ::close(Up[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Down[1]);
    ::close(Up[0]);
    WorkerConfig Cfg = BaseCfg;
    Cfg.KillAfter = KillAfter;
    Cfg.HangAfter = HangAfter;
    fleetWorkerMain(Cfg, Down[0], Up[1]);
  }
  ::close(Down[0]);
  ::close(Up[1]);
  W = FleetWorker();
  W.Pid = Pid;
  W.DownFd = Down[1];
  W.UpFd = Up[0];
  W.Alive = true;
  return true;
}

/// Marks \p W dead and closes whatever pipe ends are still open.
void closeWorker(FleetWorker &W) {
  W.Alive = false;
  for (int *Fd : {&W.DownFd, &W.UpFd})
    if (*Fd >= 0) {
      ::close(*Fd);
      *Fd = -1;
    }
}

} // namespace

CheckResult fsmc::runFleet(const TestProgram &Program,
                           const CheckerOptions &Opts,
                           const CheckpointState &Frontier) {
  auto StartTime = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         StartTime)
        .count();
  };
  // A worker dying mid-read must surface as EPIPE from write(), never as
  // a fatal signal to the coordinator.
  wire::ScopedSigpipeIgnore NoSigpipe;

  const bool RandomWalk = Opts.Kind == SearchKind::RandomWalk;
  // Under --isolate=batch the fleet has no workers: the isolated rung runs
  // the whole search.
  const int Width = Opts.Isolate == IsolationMode::Batch
                        ? 0
                        : std::max(Opts.FleetWorkers, 1);
  const uint64_t Batch = Opts.BatchSize > 0 ? uint64_t(Opts.BatchSize) : 64;
  const double HbTimeout =
      Opts.HangTimeoutSeconds > 0 ? Opts.HangTimeoutSeconds : 10.0;
  int RespawnsLeft =
      Opts.FleetRespawnBudget >= 0 ? Opts.FleetRespawnBudget : 2 * Width + 2;

  obs::WorkerCounters *Ctr = Opts.Obs ? &Opts.Obs->shard(0) : nullptr;

  // Explorer options in the children: budgets come with each unit and
  // interrupts are the coordinator's. The observer must stay null --
  // fork duplicates sink FILE buffers -- and profiles cannot cross the
  // pipe (shared_ptr payload).
  CheckerOptions ChildOpts = Opts;
  ChildOpts.Obs = nullptr;
  ChildOpts.InterruptFlag = nullptr;
  ChildOpts.ProfileSearch = false;

  WorkerConfig BaseCfg;
  BaseCfg.Program = &Program;
  BaseCfg.Opts = ChildOpts;
  BaseCfg.HeartbeatPeriod = std::min(0.1, HbTimeout / 4);

  ChaosSpec Chaos = parseChaos(std::getenv("FSMC_FLEET_CHAOS"));

  LeaseTable::Config LC;
  LC.QuarantineAfter = Opts.FleetQuarantine > 0 ? Opts.FleetQuarantine : 3;
  LeaseTable LT(LC);
  for (const CheckpointUnit &U : Frontier.Frontier)
    LT.add(U.Prefix, U.FrozenLen);

  ResultAccumulator Acc(Opts, Frontier, Ctr);
  // The isolated rung's PRNG state, chained from batch to batch like one
  // serial explorer's.
  uint64_t Rng = Frontier.Rng ? Frontier.Rng : Opts.Seed;
  bool Interrupted = false, CapHit = false, TimedOut = false;
  bool ForkFailed = false;
  std::shared_ptr<CheckpointState> ResumeOut;

  auto bump = [&](obs::Counter C, uint64_t &Field) {
    ++Field;
    if (Ctr)
      Ctr->add(C);
  };

  std::vector<FleetWorker> Workers;
  Workers.resize(size_t(Width));
  for (FleetWorker &W : Workers)
    (void)spawnWorker(W, BaseCfg, Chaos);

  auto aliveCount = [&]() {
    size_t N = 0;
    for (const FleetWorker &W : Workers)
      if (W.Alive)
        ++N;
    return N;
  };
  auto busyCount = [&]() {
    size_t N = 0;
    for (const FleetWorker &W : Workers)
      if (W.Alive && W.LeaseId)
        ++N;
    return N;
  };

  auto sendTo = [&](FleetWorker &W, uint8_t Tag, const WireWriter &Wr) {
    return writeRecord(W.DownFd, Tag, Wr);
  };
  auto bestBugRecord = [&]() {
    WireWriter Wr;
    Wr.u32(uint32_t(Acc.Best.Key.size()));
    for (int K : Acc.Best.Key)
      Wr.u32(uint32_t(K));
    return Wr;
  };
  auto broadcastBestBug = [&]() {
    WireWriter Wr = bestBugRecord();
    for (FleetWorker &W : Workers)
      if (W.Alive && W.LeaseId)
        (void)sendTo(W, TagBestBug, Wr); // EPIPE = dead; reaped below
  };

  // Execution budget of the next attempt: a batch, or at most the cap
  // remainder (bounded overshoot: in-flight units count whole).
  auto attemptBudget = [&]() {
    uint64_t Budget = Batch;
    if (Opts.MaxExecutions) {
      uint64_t Left = Opts.MaxExecutions > Acc.Stats.Executions
                          ? Opts.MaxExecutions - Acc.Stats.Executions
                          : 1;
      Budget = std::min(Budget, Left);
    }
    return Budget;
  };
  auto attemptTime = [&]() {
    if (Opts.TimeBudgetSeconds <= 0)
      return 0.0;
    return std::max(Opts.TimeBudgetSeconds - elapsed(), 0.001);
  };
  auto isolatedInput = [&](const CheckpointUnit &U, uint64_t Budget,
                           const U64Set &States, uint64_t Seed) {
    IsolatedInput In;
    In.Program = &Program;
    In.Opts = ChildOpts;
    In.Budget = Budget;
    In.Seconds = attemptTime();
    In.Unit = U;
    In.States = &States;
    In.Rng = Seed;
    return In;
  };

  // The replay prefix of the execution an isolated child died in, or
  // nullopt when it died after the unit's last execution.
  auto crashPrefix = [&](const CheckpointUnit &U, const ChildReport &Rep)
      -> std::optional<std::vector<ScheduleChoice>> {
    if (!Rep.HaveExec)
      return U.Prefix;
    std::vector<ScheduleChoice> P = Rep.LastStack;
    if (!advancePrefix(P, U.FrozenLen, RandomWalk))
      return std::nullopt;
    return P;
  };
  // The probe: re-runs that one execution alone with choice streaming;
  // the choices streamed at death are its exact stack (deterministic
  // programs cannot crash in the replay region they already survived).
  // Falls back to the replay prefix when nothing streamed; nullopt when
  // an interrupt cut the probe short.
  auto probe = [&](const std::vector<ScheduleChoice> &Prefix,
                   const U64Set &States, uint64_t Seed)
      -> std::optional<std::vector<ScheduleChoice>> {
    IsolatedInput In = isolatedInput({Prefix, Prefix.size()}, 1, States, Seed);
    In.Probe = true;
    ChildReport Rep;
    ChildExit Ex;
    bool Ran = runIsolatedChild(In, Opts, Rep, Ex);
    if (Ex.InterruptKilled)
      return std::nullopt;
    if (Ran && !Rep.Streamed.empty())
      return std::move(Rep.Streamed);
    return Prefix;
  };

  // A quarantined unit's incident carries the exact crashing schedule when
  // the crash reproduces in isolation: the unit's attempt re-runs in an
  // isolated child and its death is probed. Otherwise (a fault that needs
  // the worker's state, or chaos injection) it falls back to the unit
  // prefix. The re-run only attributes; nothing from it is committed.
  auto quarantineIncident = [&](uint64_t Id, const std::string &Why) {
    bump(obs::Counter::FleetQuarantined, Acc.Stats.FleetQuarantined);
    const WorkUnit &W = LT.unit(Id);
    CheckpointUnit U{W.Prefix, W.FrozenLen};
    std::optional<std::vector<ScheduleChoice>> Stack;
    static const U64Set NoStates;
    ChildReport Rep;
    ChildExit Ex;
    if (runIsolatedChild(
            isolatedInput(U, attemptBudget(), NoStates, Opts.Seed), Opts, Rep,
            Ex) &&
        !Ex.InterruptKilled && !(Rep.Done && !Rep.Malformed))
      if (auto Prefix = crashPrefix(U, Rep))
        Stack = probe(*Prefix, NoStates,
                      Rep.HaveExec ? Rep.ExecRng : Opts.Seed);
    if (Stack)
      Acc.addCrash({Verdict::Crash, Why, "", encodeSchedule(*Stack)});
    else
      Acc.addCrash({Verdict::Crash,
                    Why + "; not reproduced in isolation, so the schedule "
                          "is the unit prefix",
                    "", encodeSchedule(U.Prefix)},
                   /*Replayable=*/false);
    // Attribution kept the coordinator from reading heartbeats; that
    // silence is not the busy workers' fault.
    for (FleetWorker &Busy : Workers)
      if (Busy.Alive && Busy.LeaseId)
        LT.renew(Busy.LeaseId, elapsed() + HbTimeout);
  };

  // Merges one committed attempt -- the only way search results enter the
  // totals, shared by the workers and the isolated rung.
  auto commitAttempt = [&](uint64_t LeaseId, Attempt &&A, bool Front) {
    if (Acc.commit(A) && Opts.StopOnFirstBug)
      broadcastBestBug();
    for (CheckpointUnit &U : A.Rem)
      LT.add(std::move(U.Prefix), U.FrozenLen, Front);
    LT.commit(LeaseId);
    if (A.TimedOut)
      TimedOut = true;
  };

  auto commitUnitDone = [&](FleetWorker &W, WireReader R) {
    Attempt A;
    uint64_t LeaseId = 0;
    if (!getAttempt(R, LeaseId, A) || LeaseId == 0 || LeaseId != W.LeaseId) {
      // Garbled commit: the worker is compromised; kill it and let the
      // reap path fail its lease so nothing half-merged survives.
      if (W.Alive && !W.KillSent) {
        ::kill(W.Pid, SIGKILL);
        W.KillSent = true;
      }
      return;
    }
    W.LeaseId = 0;
    commitAttempt(LeaseId, std::move(A), /*Front=*/false);
  };

  // One step of the isolated rung: one batch of the oldest unit in a
  // forked child. Units that already killed a worker are quarantined.
  auto isolatedStep = [&]() {
    // Backoff paces re-issue to workers; the rung quarantines suspects
    // instead of re-running them, so it need not wait.
    const WorkUnit *W = LT.lease(/*Owner=*/-2, /*Now=*/HUGE_VAL,
                                 /*Deadline=*/0);
    if (!W)
      return;
    uint64_t Id = W->Id;
    CheckpointUnit U{W->Prefix, W->FrozenLen};
    if (LT.attempts(Id) > 0) {
      LT.quarantine(Id);
      quarantineIncident(Id, "crash-suspect work unit (" +
                                 std::to_string(LT.attempts(Id)) +
                                 " worker deaths) quarantined: no fleet "
                                 "workers left");
      return;
    }
    if (Opts.StopOnFirstBug && Acc.Best.covers(pathKey(U.Prefix))) {
      LT.commit(Id);
      return;
    }
    ChildReport Rep;
    ChildExit Ex;
    if (!runIsolatedChild(isolatedInput(U, attemptBudget(), Acc.states(), Rng),
                          Opts, Rep, Ex)) {
      // Isolation is unavailable (fork/pipe failed). Running the unit here
      // could kill the search, so stop with the frontier intact instead.
      LT.release(Id);
      ForkFailed = true;
      return;
    }
    if (Ex.InterruptKilled) {
      // Discard the partial batch: the resumed run re-executes it from the
      // committed state, preserving the exact execution multiset.
      LT.release(Id);
      return;
    }
    if (Rep.Done && !Rep.Malformed) {
      Rng = Rep.Done->Rng;
      commitAttempt(Id, std::move(*Rep.Done), /*Front=*/true);
      return;
    }
    // The child died (or garbled its records) inside the execution after
    // its last ExecDone: commit through that one, attribute the crash, and
    // skip the crashing subtree -- no choice resolves past the crash
    // point, so everything below its stack dies the same death.
    Attempt A;
    if (Rep.HaveExec) {
      A.Stats = Rep.ExecStats;
      A.States = std::move(Rep.StatesDelta);
      // A bug or races past the last ExecDone belong to the execution the
      // child died in; they are discarded with it.
      if (Rep.BugAtLastExec)
        A.Bug = std::move(Rep.Bug);
      A.Incidents.assign(Rep.Races.begin(),
                         Rep.Races.begin() + long(Rep.RacesAtLastExec));
      Rng = Rep.ExecRng;
    }
    std::optional<std::vector<ScheduleChoice>> Crash = crashPrefix(U, Rep);
    if (Crash) {
      std::optional<std::vector<ScheduleChoice>> Stack =
          probe(*Crash, Acc.states(), Rng);
      if (!Stack) {
        // Interrupted: the crashing execution re-runs on resume, so it is
        // neither recorded nor skipped.
        A.Rem.push_back({std::move(*Crash), U.FrozenLen});
        commitAttempt(Id, std::move(A), /*Front=*/true);
        return;
      }
      Crash = std::move(Stack);
      std::vector<ScheduleChoice> Next = *Crash;
      if (RandomWalk) {
        // Re-running with the same PRNG state would reproduce the crash
        // forever; step the generator to a fresh stream.
        Xorshift Step(Rng ? Rng : Opts.Seed);
        Step.next();
        Rng = Step.state();
      }
      if (advancePrefix(Next, U.FrozenLen, RandomWalk))
        A.Rem.push_back({std::move(Next), U.FrozenLen});
    }
    commitAttempt(Id, std::move(A), /*Front=*/true);
    std::vector<ScheduleChoice> Where =
        Crash ? *Crash
              : std::vector<ScheduleChoice>(U.Prefix.begin(),
                                            U.Prefix.begin() +
                                                long(U.FrozenLen));
    Acc.addCrash({Ex.HangKilled ? Verdict::Hang : Verdict::Crash,
                  describeExit(Ex, Opts.HangTimeoutSeconds), "",
                  encodeSchedule(Where)});
  };

  auto handleDeath = [&](FleetWorker &W) {
    closeWorker(W);
    uint64_t Id = W.LeaseId;
    W.LeaseId = 0;
    if (W.DrainKilled) {
      // Deliberate straggler kill at drain time: nothing was committed,
      // so releasing the lease keeps the frontier exact. No penalty, no
      // crash accounting, no respawn -- the fleet is shutting down.
      if (Id)
        LT.release(Id);
      return;
    }
    bump(obs::Counter::FleetWorkerCrashes, Acc.Stats.FleetWorkerCrashes);
    if (Id) {
      if (LT.fail(Id, elapsed()) == LeaseTable::FailOutcome::Requeued)
        bump(obs::Counter::FleetReissues, Acc.Stats.FleetReissues);
      else
        quarantineIncident(
            Id, "work unit killed " + std::to_string(LT.attempts(Id)) +
                    " consecutive fleet workers; quarantined");
    }
    if (RespawnsLeft > 0) {
      --RespawnsLeft;
      if (spawnWorker(W, BaseCfg, Chaos))
        bump(obs::Counter::FleetRespawns, Acc.Stats.FleetRespawns);
    }
    // else: degraded width; with zero workers left the main loop falls
    // back to the isolated rung.
  };

  auto reapZombies = [&]() {
    for (FleetWorker &W : Workers) {
      if (!W.Alive)
        continue;
      int Status = 0;
      pid_t P = ::waitpid(W.Pid, &Status, WNOHANG);
      if (P == W.Pid)
        handleDeath(W);
    }
  };

  auto expireHeartbeats = [&]() {
    for (uint64_t Id : LT.expiredLeases(elapsed())) {
      int Owner = LT.owner(Id);
      if (Owner < 0 || size_t(Owner) >= Workers.size())
        continue;
      FleetWorker &W = Workers[size_t(Owner)];
      if (W.Alive && !W.KillSent) {
        // Silent past the deadline: hung (or wedged). SIGKILL and let the
        // reap path do the failure bookkeeping.
        ::kill(W.Pid, SIGKILL);
        W.KillSent = true;
      }
    }
  };

  auto processEvents = [&](int TimeoutMs) {
    std::vector<struct pollfd> Pfds;
    std::vector<size_t> Idx;
    for (size_t I = 0; I < Workers.size(); ++I)
      if (Workers[I].Alive && !Workers[I].UpEof && Workers[I].UpFd >= 0) {
        Pfds.push_back({Workers[I].UpFd, POLLIN, 0});
        Idx.push_back(I);
      }
    if (Pfds.empty()) {
      if (TimeoutMs > 0)
        ::usleep(useconds_t(TimeoutMs) * 1000);
    } else {
      int R = ::poll(Pfds.data(), nfds_t(Pfds.size()), TimeoutMs);
      for (size_t K = 0; R > 0 && K < Pfds.size(); ++K) {
        if (!(Pfds[K].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        FleetWorker &W = Workers[Idx[K]];
        char Buf[65536];
        ssize_t N = ::read(W.UpFd, Buf, sizeof Buf);
        if (N < 0) {
          if (errno != EINTR && errno != EAGAIN)
            W.UpEof = true;
          continue;
        }
        if (N == 0) {
          W.UpEof = true; // death itself is detected by waitpid
          continue;
        }
        W.Frames.feed(Buf, size_t(N), [&](uint8_t Tag, WireReader Rd) {
          if (Tag == TagHeartbeat) {
            uint64_t Id = Rd.u64();
            (void)Rd.u64(); // lifetime execs: informational
            if (Rd.Ok && Id && Id == W.LeaseId)
              LT.renew(Id, elapsed() + HbTimeout);
          } else if (Tag == TagUnitDone) {
            commitUnitDone(W, Rd);
          }
        });
      }
    }
    reapZombies();
    expireHeartbeats();
  };

  auto interruptRequested = [&]() {
    return Opts.InterruptFlag &&
           Opts.InterruptFlag->load(std::memory_order_relaxed);
  };

  auto issueUnits = [&]() {
    double Now = elapsed();
    for (size_t I = 0; I < Workers.size(); ++I) {
      FleetWorker &W = Workers[I];
      if (!W.Alive || W.LeaseId)
        continue;
      for (;;) {
        const WorkUnit *U = LT.lease(int(I), Now, Now + HbTimeout);
        if (!U)
          break;
        uint64_t Id = U->Id;
        if (Opts.StopOnFirstBug && Acc.Best.covers(pathKey(U->Prefix))) {
          // DFS-at-or-after the best bug: cannot improve it. Retire the
          // unit without running it (the parallel driver's discard rule).
          LT.commit(Id);
          continue;
        }
        WireWriter Wr;
        Wr.u64(Id);
        Wr.u64(attemptBudget());
        Wr.f64(attemptTime());
        Wr.u32(uint32_t(U->FrozenLen));
        Wr.choices(U->Prefix);
        W.LeaseId = Id;
        if (!sendTo(W, TagUnit, Wr))
          break; // worker just died; reap fails the lease
        if (Opts.StopOnFirstBug && Acc.Best.Has)
          (void)sendTo(W, TagBestBug, bestBugRecord());
        break; // one outstanding unit per worker
      }
    }
  };

  auto buildCheckpoint = [&]() {
    std::vector<CheckpointUnit> Units;
    for (const WorkUnit *U : LT.pendingUnits())
      Units.push_back({U->Prefix, U->FrozenLen});
    return Acc.checkpoint(std::move(Units), Rng);
  };

  // Settles every outstanding lease: asks busy workers to stop (they
  // commit their partial attempt plus remainder), and past the grace
  // deadline SIGKILLs stragglers, whose leases release without penalty.
  // Either way the frontier stays exact.
  auto drainLeases = [&](double GraceSeconds) {
    WireWriter Empty;
    for (FleetWorker &W : Workers)
      if (W.Alive && W.LeaseId)
        (void)sendTo(W, TagStop, Empty);
    double KillAt = elapsed() + GraceSeconds;
    bool Killed = false;
    while (busyCount() > 0 || LT.leasedCount() > 0) {
      if (busyCount() == 0 && LT.leasedCount() > 0) {
        // Leases held by already-dead workers only; reap settles them.
        reapZombies();
        if (LT.leasedCount() == 0)
          break;
      }
      processEvents(20);
      if (!Killed && elapsed() >= KillAt) {
        for (FleetWorker &W : Workers)
          if (W.Alive && W.LeaseId) {
            W.DrainKilled = true;
            ::kill(W.Pid, SIGKILL);
          }
        Killed = true;
      }
    }
  };

  auto shutdownWorkers = [&]() {
    WireWriter Empty;
    for (FleetWorker &W : Workers)
      if (W.Alive) {
        (void)sendTo(W, TagShutdown, Empty);
        ::close(W.DownFd); // EOF makes even a mid-attempt worker exit
        W.DownFd = -1;
      }
    for (int Spin = 0; Spin < 100 && aliveCount() > 0; ++Spin) {
      for (FleetWorker &W : Workers)
        if (W.Alive && ::waitpid(W.Pid, nullptr, WNOHANG) == W.Pid)
          closeWorker(W);
      if (aliveCount() > 0)
        ::usleep(10000);
    }
    for (FleetWorker &W : Workers)
      if (W.Alive) {
        ::kill(W.Pid, SIGKILL);
        ::waitpid(W.Pid, nullptr, 0);
        closeWorker(W);
      }
  };

  uint64_t NextCheckpointAt =
      Opts.CheckpointEvery
          ? (Acc.Stats.Executions / Opts.CheckpointEvery + 1) *
                Opts.CheckpointEvery
          : 0;

  for (;;) {
    if (interruptRequested() || ForkFailed) {
      drainLeases(std::min(2.0, HbTimeout));
      if (LT.pendingCount() > 0) {
        ResumeOut = buildCheckpoint();
        Interrupted = true;
      }
      break;
    }
    if (Opts.MaxExecutions && Acc.Stats.Executions >= Opts.MaxExecutions) {
      CapHit = true;
      break;
    }
    if (Opts.TimeBudgetSeconds > 0 && elapsed() >= Opts.TimeBudgetSeconds)
      TimedOut = true;
    if (TimedOut || LT.pendingCount() == 0)
      break;
    if (NextCheckpointAt && Opts.CheckpointSink &&
        Acc.Stats.Executions >= NextCheckpointAt) {
      // Checkpoint barrier: settle every lease so the frontier is exact,
      // persist, then resume issuing.
      drainLeases(2 * HbTimeout);
      bump(obs::Counter::Checkpoints, Acc.Stats.Checkpoints);
      Opts.CheckpointSink(*buildCheckpoint());
      NextCheckpointAt = (Acc.Stats.Executions / Opts.CheckpointEvery + 1) *
                         Opts.CheckpointEvery;
      continue;
    }
    if (aliveCount() == 0) {
      // The last rung: every worker is gone (or --isolate=batch never
      // had any).
      isolatedStep();
      continue;
    }
    issueUnits();
    if (Ctr) {
      Ctr->setGauge(obs::Gauge::WorkQueueDepth, LT.queuedCount());
      Ctr->setGauge(obs::Gauge::ActiveWorkers, busyCount());
    }
    processEvents(50);
  }

  shutdownWorkers();
  CheckResult Result = Acc.finish(CapHit, TimedOut, Interrupted, elapsed());
  if (Interrupted)
    Result.Resume = ResumeOut;
  if (Ctr) {
    Ctr->setGauge(obs::Gauge::WorkQueueDepth, 0);
    Ctr->setGauge(obs::Gauge::ActiveWorkers, 0);
  }
  return Result;
}
