//===- perfbench/harness/main.cpp - Benchmark harness ---------------------===//
//
// Part of the fsmc benchmark harness (perfbench/README.md).
//
// Runs one workload as a closed loop -- each check starts after the
// previous one returned -- for a given number of seconds, checks every
// result against its known answer, and prints the raw samples as one JSON
// object on stdout. perfbench/run.py builds this binary, turns the
// samples into metrics and prints the result line.
//
//   fsmc_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--spans=FILE] [--setup-only]
//
// --trace=1 alternates untraced and traced units (observer with phase and
// step timing, execution spans), then runs the layer probe.
// --setup-only stops where the first check would start and prints the
// clock, so run.py can time set-up on its own.
//
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Spans.h"
#include "Workloads.h"

#include "core/Explorer.h"
#include "core/Schedule.h"
#include "obs/Observer.h"
#include "obs/StatsJson.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <poll.h>
#include <random>
#include <string>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace fsmc;
using namespace perfbench;

namespace {

/// A forked check is killed as hung after this long.
constexpr double EntryLimitSeconds = 30;
/// The checks of a run stop within this many seconds, whatever hangs.
constexpr double RunLimitSeconds = 170;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
  std::string SpansPath;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string S = Argv[I];
    auto val = [&](const char *Flag, std::string &Out) {
      std::string P = std::string(Flag) + "=";
      if (S.rfind(P, 0) != 0)
        return false;
      Out = S.substr(P.size());
      return true;
    };
    std::string V;
    if (val("--workload", V))
      A.Workload = V;
    else if (val("--seed", V))
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (val("--seconds", V))
      A.Seconds = std::atof(V.c_str());
    else if (val("--trace", V))
      A.Trace = V == "1";
    else if (val("--spans", V))
      A.SpansPath = V;
    else if (S == "--setup-only")
      A.SetupOnly = true;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

/// Totals of the traced checks, summed across checks, plus the peak RSS
/// of every forked check.
struct LayerTotals {
  obs::CounterSnapshot Snap;
  SearchStats Stats;
  /// mergeSearchStats leaves coverage to the caller: summed here.
  uint64_t DistinctStates = 0;
  uint64_t Units = 0;  ///< Traced checks (bug-hunt: rounds).
  double WorkerNs = 0; ///< Traced check wall time times workers.
  double Imbalance = 0;///< Summed max/mean executions per worker shard.
  uint64_t ImbalanceSamples = 0;
  int64_t ReplayNs = 0;///< Bug-schedule replays (bug-hunt).
  /// Execution wall times, log2-bucketed like the step latencies.
  uint64_t ExecHist[obs::LatencyBuckets] = {};
  uint64_t ChildPeakRssKb = 0; ///< Largest forked check (bug-hunt).
};

void addSnapshot(obs::CounterSnapshot &Into, const obs::CounterSnapshot &S) {
  for (size_t I = 0; I < std::size(Into.C); ++I)
    Into.C[I] += S.C[I];
  for (size_t I = 0; I < std::size(Into.Latency); ++I)
    Into.Latency[I] += S.Latency[I];
  for (size_t I = 0; I < std::size(Into.PhaseNs); ++I)
    Into.PhaseNs[I] += S.PhaseNs[I];
}

/// One check as the harness saw it.
struct Sample {
  std::string Entry;
  int Round = 0;
  bool Traced = false;
  int64_t Ns = 0;         ///< check() call to verdict.
  uint64_t Executions = 0;
  uint64_t Transitions = 0;
  std::string Verdict;
  /// "" = matched its known answer; else "wrong", "crash" or "hang".
  std::string Failure;
  std::string Detail;
};

/// What a forked check sends back: plain data, written in one piece.
struct ChildReport {
  int64_t CheckStart = 0;
  int64_t CheckEnd = 0;
  int64_t ReplayNs = 0;
  SearchStats Stats;
  obs::CounterSnapshot Snap;
  uint64_t ExecHist[obs::LatencyBuckets] = {};
  uint64_t PeakRssKb = 0;
  int Verdict = 0;
  char Diff[240] = {};
};

double elapsedS(int64_t Since) { return double(nowNs() - Since) / 1e9; }

/// Peak resident set of this process image in KiB (VmHWM). Unlike
/// getrusage, it does not inherit the launching process's peak.
uint64_t peakRssKb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  unsigned long long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %llu kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb;
}

/// Times every execution of a traced check from the observer's event
/// stream, whatever the engine: an execution runs from its worker's
/// previous ExecutionEnd (or WorkItemStart, or the check's start) to its
/// own ExecutionEnd. Parallel workers call in concurrently, hence the lock.
class ExecTimer final : public obs::EventSink {
public:
  struct Span {
    int64_t Start;
    int64_t End;
  };

  explicit ExecTimer(int64_t Start) : Start(Start) {}

  void event(const obs::ObsEvent &E) override {
    if (E.Kind != obs::EventKind::ExecutionEnd &&
        E.Kind != obs::EventKind::WorkItemStart)
      return;
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> G(M);
    if (E.Worker >= Last.size())
      Last.resize(E.Worker + 1, Start);
    if (E.Kind == obs::EventKind::ExecutionEnd) {
      Spans.push_back({Last[E.Worker], Now});
      uint64_t Ns = uint64_t(Now - Last[E.Worker]);
      size_t B = 0;
      while (B + 1 < obs::LatencyBuckets && (uint64_t(2) << B) <= Ns)
        ++B;
      ++Hist[B];
    }
    Last[E.Worker] = Now;
  }

  /// Observer settings of a traced check, with this timer as the sink.
  obs::Observer::Config config() {
    obs::Observer::Config C;
    C.Sink = this;
    C.TraceTransitions = false;
    C.StepTiming = true;
    C.PhaseTiming = true;
    return C;
  }

  std::vector<Span> Spans;
  uint64_t Hist[obs::LatencyBuckets] = {};

private:
  int64_t Start;
  std::mutex M;
  std::vector<int64_t> Last;
};

void addHistogram(uint64_t *Into, const uint64_t *H) {
  for (size_t I = 0; I < obs::LatencyBuckets; ++I)
    Into[I] += H[I];
}

/// The check result compared with its known answer, plus the replay of
/// the bug schedule it found. \returns the mismatch, or "".
std::string answerWithReplay(const Entry &E, const TestProgram &P,
                             const CheckResult &R, int64_t *ReplayNs) {
  std::string Diff = checkAnswer(E, R);
  if (!Diff.empty() || !R.Bug || R.Bug->Schedule.empty())
    return Diff;
  int64_t T0 = nowNs();
  CheckResult Re = replaySchedule(P, E.replayOptions(), R.Bug->Schedule);
  *ReplayNs += nowNs() - T0;
  if (Re.Kind != R.Kind)
    return std::string("schedule replays to ") + verdictName(Re.Kind) +
           ", not " + verdictName(R.Kind);
  return "";
}

/// Runs one check in the harness process.
Sample runInProcess(const Entry &E, const TestProgram &P, CheckerOptions O,
                    bool Traced, SpanLog &Log, int Parent, LayerTotals &L) {
  Sample S;
  S.Entry = E.Name;
  S.Traced = Traced;
  int Span = Log.open(Traced ? "check.traced" : "check", Parent);
  CheckResult R;
  int64_t T0 = nowNs();
  if (!Traced) {
    R = check(P, O);
  } else {
    ExecTimer Timer(T0);
    obs::Observer Obs(Timer.config());
    O.Obs = &Obs;
    R = check(P, O);
    addSnapshot(L.Snap, Obs.snapshot());
    addHistogram(L.ExecHist, Timer.Hist);
    int Name = Log.intern("execution");
    for (const ExecTimer::Span &X : Timer.Spans)
      Log.add(Name, Span, X.Start, X.End);
    if (O.Jobs > 1) {
      // Executions per worker shard (1..Jobs): the slowest worker sets
      // the time, so report the most loaded against the mean.
      uint64_t Max = 0, Sum = 0;
      for (int W = 1; W <= O.Jobs; ++W) {
        uint64_t N = Obs.shard(unsigned(W))
                         .C[size_t(obs::Counter::Executions)]
                         .load(std::memory_order_relaxed);
        Max = std::max(Max, N);
        Sum += N;
      }
      if (Sum) {
        L.Imbalance += double(Max) * O.Jobs / double(Sum);
        ++L.ImbalanceSamples;
      }
    }
  }
  S.Ns = nowNs() - T0;
  Log.close(Span);
  if (Traced) {
    mergeSearchStats(L.Stats, R.Stats);
    L.DistinctStates += R.Stats.DistinctStates;
    L.WorkerNs += double(S.Ns) * std::max(1, O.Jobs);
  }
  S.Executions = R.Stats.Executions;
  S.Transitions = R.Stats.Transitions;
  S.Verdict = verdictName(R.Kind);
  if (R.Stats.TimedOut) {
    S.Failure = "hang";
    S.Detail = "run time limit reached";
    return S;
  }
  int64_t Unused = 0;
  S.Detail = answerWithReplay(E, P, R, &Unused);
  if (!S.Detail.empty())
    S.Failure = "wrong";
  return S;
}

void reapAll(pid_t Group) {
  ::kill(-Group, SIGKILL);
  // The harness is a child subreaper: workers the check forked and left
  // behind are re-parented here and reaped now.
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }
}

/// Runs one check in a forked child, so a checker crash or hang costs
/// only this entry.
Sample runForked(const Entry &E, const TestProgram &P, const CheckerOptions &O,
                 bool Traced, double LimitS, SpanLog &Log, int Parent,
                 LayerTotals &L) {
  Sample S;
  S.Entry = E.Name;
  S.Traced = Traced;
  int Fds[2];
  if (::pipe(Fds) != 0) {
    S.Failure = "crash";
    S.Detail = "pipe failed";
    return S;
  }
  std::fflush(nullptr);
  int64_t Spawn = nowNs();
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::setpgid(0, 0);
    ::close(Fds[0]);
    ChildReport Rep;
    CheckerOptions CO = O;
    Rep.CheckStart = nowNs();
    ExecTimer Timer(Rep.CheckStart);
    std::optional<obs::Observer> Obs;
    if (Traced)
      CO.Obs = &Obs.emplace(Timer.config());
    CheckResult R = check(P, CO);
    Rep.CheckEnd = nowNs();
    Rep.Stats = R.Stats;
    Rep.Verdict = int(R.Kind);
    if (Obs)
      Rep.Snap = Obs->snapshot();
    std::copy(std::begin(Timer.Hist), std::end(Timer.Hist), Rep.ExecHist);
    std::string Diff = answerWithReplay(E, P, R, &Rep.ReplayNs);
    std::snprintf(Rep.Diff, sizeof(Rep.Diff), "%s", Diff.c_str());
    Rep.PeakRssKb = peakRssKb();
    const char *B = reinterpret_cast<const char *>(&Rep);
    for (size_t Off = 0; Off < sizeof(Rep);) {
      ssize_t N = ::write(Fds[1], B + Off, sizeof(Rep) - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        ::_exit(1);
      Off += size_t(N);
    }
    ::_exit(0);
  }
  ::close(Fds[1]);
  if (Pid < 0) {
    ::close(Fds[0]);
    S.Failure = "crash";
    S.Detail = "fork failed";
    return S;
  }
  ::setpgid(Pid, Pid);

  ChildReport Rep;
  size_t Got = 0;
  bool TimedOut = false;
  int64_t Deadline = Spawn + int64_t(LimitS * 1e9);
  char *B = reinterpret_cast<char *>(&Rep);
  while (Got < sizeof(Rep)) {
    int64_t Left = Deadline - nowNs();
    if (Left <= 0) {
      TimedOut = true;
      break;
    }
    pollfd PF = {Fds[0], POLLIN, 0};
    int Ready = ::poll(&PF, 1, int(Left / 1000000) + 1);
    if (Ready <= 0)
      continue; // Timed out or interrupted: the deadline check decides.
    ssize_t N = ::read(Fds[0], B + Got, sizeof(Rep) - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got += size_t(N);
  }
  ::close(Fds[0]);
  if (TimedOut)
    ::kill(-Pid, SIGKILL);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  int64_t End = nowNs();
  reapAll(Pid);

  int Span = Log.add("entry." + E.Name, Parent, Spawn, End);
  if (TimedOut) {
    S.Ns = End - Spawn;
    S.Failure = "hang";
    S.Detail = "killed after " + std::to_string(int(LimitS)) + " s";
    return S;
  }
  if (Got < sizeof(Rep)) {
    S.Ns = End - Spawn;
    S.Failure = "crash";
    S.Detail = WIFSIGNALED(Status)
                   ? "checker killed by signal " +
                         std::to_string(WTERMSIG(Status))
                   : "checker exited " + std::to_string(WEXITSTATUS(Status)) +
                         " without a result";
    return S;
  }
  Log.add(Traced ? "check.traced" : "check", Span, Rep.CheckStart,
          Rep.CheckEnd);
  L.ChildPeakRssKb = std::max(L.ChildPeakRssKb, Rep.PeakRssKb);
  S.Ns = Rep.CheckEnd - Rep.CheckStart;
  S.Executions = Rep.Stats.Executions;
  S.Transitions = Rep.Stats.Transitions;
  S.Verdict = verdictName(Verdict(Rep.Verdict));
  S.Detail = Rep.Diff;
  if (!S.Detail.empty())
    S.Failure = "wrong";
  if (Traced) {
    addSnapshot(L.Snap, Rep.Snap);
    mergeSearchStats(L.Stats, Rep.Stats);
    L.DistinctStates += Rep.Stats.DistinctStates;
    addHistogram(L.ExecHist, Rep.ExecHist);
    L.WorkerNs += double(S.Ns);
    L.ReplayNs += Rep.ReplayNs;
  }
  return S;
}

//===--- Output ----------------------------------------------------------===//

class Json {
public:
  void key(const char *K) {
    sep();
    Out += '"';
    Out += K;
    Out += "\": ";
    Fresh = true;
  }
  void str(const std::string &V) {
    sep();
    Out += '"';
    obs::appendJsonEscaped(Out, V);
    Out += '"';
  }
  void num(double V) {
    sep();
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    Out += Buf;
  }
  void boolean(bool V) {
    sep();
    Out += V ? "true" : "false";
  }
  void open(char C) {
    sep();
    Out += C;
    Fresh = true;
  }
  void close(char C) {
    Out += C;
    Fresh = false;
  }
  const std::string &text() const { return Out; }

private:
  void sep() {
    if (!Fresh && !Out.empty())
      Out += ", ";
    Fresh = false;
  }
  std::string Out;
  bool Fresh = true;
};

/// Percentile of the log2-bucketed step-latency histogram, interpolated
/// linearly inside the bucket [2^i, 2^(i+1)).
double histogramPercentile(const uint64_t *H, size_t N, double P) {
  uint64_t Total = 0;
  for (size_t I = 0; I < N; ++I)
    Total += H[I];
  if (!Total)
    return 0;
  double Want = P * double(Total);
  uint64_t Seen = 0;
  for (size_t I = 0; I < N; ++I) {
    if (H[I] && double(Seen + H[I]) >= Want) {
      double Lo = std::ldexp(1.0, int(I));
      return Lo + Lo * (Want - double(Seen)) / double(H[I]);
    }
    Seen += H[I];
  }
  return std::ldexp(1.0, int(N));
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// The per-layer metrics of a traced run.
std::map<std::string, double>
layerMetrics(const LayerTotals &L, const ProbeResult &Pr,
             const std::vector<Sample> &Samples, const SpanLog &Log) {
  std::map<std::string, double> M;
  const obs::CounterSnapshot &S = L.Snap;
  auto c = [&](obs::Counter Id) { return double(S.counter(Id)); };
  double Execs = c(obs::Counter::Executions);
  double Trans = c(obs::Counter::Transitions);
  double Units = double(std::max<uint64_t>(L.Units, 1));
  double PhaseSum = 0;
  for (uint64_t Ns : S.PhaseNs)
    PhaseSum += double(Ns);

  for (unsigned C = 0; C < unsigned(Call::NumCalls); ++C)
    M[callMetric(Call(C))] = Pr.meanNs(Call(C));
  M["probe.clock_ns"] = Pr.ClockNs;

  M["explorer.executions"] = Execs / Units;
  M["explorer.transitions_per_exec"] = ratio(Trans, Execs);
  M["explorer.replay_steps_per_exec"] =
      ratio(c(obs::Counter::ReplaySteps), Execs);
  M["explorer.replay_share"] =
      ratio(double(S.phaseNs(obs::Phase::Replay)), PhaseSum);
  M["explorer.step_ns_p50"] =
      histogramPercentile(S.Latency, obs::LatencyBuckets, 0.50);
  M["explorer.step_ns_p99"] =
      histogramPercentile(S.Latency, obs::LatencyBuckets, 0.99);
  M["explorer.exec_us_p50"] =
      histogramPercentile(L.ExecHist, obs::LatencyBuckets, 0.50) / 1e3;
  M["explorer.exec_us_p99"] =
      histogramPercentile(L.ExecHist, obs::LatencyBuckets, 0.99) / 1e3;
  M["fair.edge_adds_per_transition"] =
      ratio(c(obs::Counter::FairEdgeAdds), Trans);
  M["sync.contention_per_transition"] =
      ratio(c(obs::Counter::SyncContention), Trans);
  M["por.sleep_hits_per_exec"] = ratio(c(obs::Counter::PorSleepHits), Execs);
  M["por.fair_wakes_per_exec"] = ratio(c(obs::Counter::PorFairWakes), Execs);
  M["por.pruned_share"] = ratio(c(obs::Counter::PorBranchesPruned), Execs);
  M["runtime.buffered_stores_per_exec"] =
      ratio(c(obs::Counter::BufferedStores), Execs);
  M["runtime.store_flushes_per_exec"] =
      ratio(c(obs::Counter::StoreFlushes), Execs);

  double Steals = c(obs::Counter::Steals);
  M["par.steals"] = Steals / Units;
  M["par.steal_fail_share"] =
      ratio(c(obs::Counter::StealFails), Steals + c(obs::Counter::StealFails));
  M["par.locks_per_exec"] = ratio(c(obs::Counter::QueueLockAcquires), Execs);
  M["par.merge_share"] = ratio(c(obs::Counter::MergeNs), L.WorkerNs);
  M["par.donation_bytes"] = c(obs::Counter::DonationBytes) / Units;
  M["par.exec_imbalance"] = ratio(L.Imbalance, double(L.ImbalanceSamples));

  M["state.snapshot_share"] =
      ratio(double(S.phaseNs(obs::Phase::Snapshot)), PhaseSum);
  M["state.distinct_states"] = double(L.DistinctStates) / Units;
  M["state.hit_share"] = ratio(double(L.Stats.StateHits),
                               double(L.Stats.StateHits + L.DistinctStates));

  M["race.check_share"] =
      ratio(double(S.phaseNs(obs::Phase::RaceCheck)), PhaseSum);
  M["race.checked"] = double(L.Stats.RacesChecked) / Units;
  M["sandbox.crashes"] = double(L.Stats.Crashes) / Units;
  M["schedule.replay_share"] = ratio(double(L.ReplayNs), L.WorkerNs);

  // Tracing overhead: executions per second, untraced against traced.
  double UExecs = 0, UNs = 0, TExecs = 0, TNs = 0;
  for (const Sample &Sm : Samples)
    if (Sm.Failure.empty()) {
      (Sm.Traced ? TExecs : UExecs) += double(Sm.Executions);
      (Sm.Traced ? TNs : UNs) += double(Sm.Ns);
    }
  double UEps = ratio(UExecs, UNs), TEps = ratio(TExecs, TNs);
  M["obs.tracing_overhead_pct"] = TEps > 0 ? (UEps / TEps - 1) * 100 : 0;

  // Span self time: the harness's own share of the workload span, and
  // the share of traced check spans not covered by execution spans
  // (execution spans exist for the serial in-process engine only).
  auto Self = Log.selfTimes();
  M["span.harness_self_share"] = ratio(double(Self["workload"].SelfNs),
                                       double(Self["workload"].TotalNs));
  M["span.check_self_share"] = ratio(double(Self["check.traced"].SelfNs),
                                     double(Self["check.traced"].TotalNs));
  return M;
}

/// Probe cost per transition of the calls the explorer makes for \p E,
/// against the measured untraced wall time per transition.
/// Measured time is per worker: check wall time times Jobs.
void writeAccounting(Json &J, const Entry &E, const ProbeResult &Pr,
                     double FiberNs, const std::vector<Sample> &Samples,
                     std::map<std::string, double> &M) {
  double Ns = 0, Trans = 0, Execs = 0;
  for (const Sample &S : Samples)
    if (!S.Traced && S.Failure.empty() && S.Entry == E.Name) {
      Ns += double(S.Ns);
      Trans += double(S.Transitions);
      Execs += double(S.Executions);
    }
  double Measured = ratio(Ns * std::max(1, E.Opts.Jobs), Trans);
  const CheckerOptions &O = E.Opts;
  // Calls per transition in Explorer::runOneExecution for these options.
  std::vector<std::pair<Call, double>> Rows = {
      {Call::EnabledSet, 2}, {Call::Candidates, 1}, {Call::Step, 1}};
  if (O.Fair) {
    Rows.push_back({Call::Allowed, 1});
    Rows.push_back({Call::OnTransition, 1});
  }
  if (O.TrackCoverage) {
    Rows.push_back({Call::Signature, 1});
    Rows.push_back({Call::Record, 1});
  }
  if (O.Por)
    Rows.push_back({Call::Independent, Pr.perTransition(Call::Independent)});
  Rows.push_back({Call::Reset, ratio(Execs, Trans)});

  double Attributed = 0;
  J.key("accounting");
  J.open('{');
  J.key("entry");
  J.str(E.Name);
  J.key("measured_ns_per_transition");
  J.num(Measured);
  J.key("rows");
  J.open('[');
  for (auto [C, PerT] : Rows) {
    double Cost = Pr.meanNs(C) * PerT;
    Attributed += Cost;
    J.open('{');
    J.key("call");
    J.str(callMetric(C));
    J.key("ns_per_call");
    J.num(Pr.meanNs(C));
    J.key("calls_per_transition");
    J.num(PerT);
    J.key("ns_per_transition");
    J.num(Cost);
    J.close('}');
  }
  J.close(']');
  J.key("fiber_roundtrip_ns");
  J.num(FiberNs);
  J.key("attributed_ns_per_transition");
  J.num(Attributed);
  J.key("unattributed_ns_per_transition");
  J.num(Measured - Attributed);
  J.close('}');
  M["explorer.ns_per_transition"] = Measured;
  M["probe.attributed_ns_per_transition"] = Attributed;
  M["probe.unattributed_ns_per_transition"] = Measured - Attributed;
}


} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: fsmc_perfbench --workload=NAME --seed=N "
                         "--seconds=S --trace=0|1 [--spans=FILE] "
                         "[--setup-only]\n");
    return 2;
  }
  const Workload *W = findWorkload(A.Workload);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  SpanLog Log;
  int Root = Log.open("workload", -1);

  // Set-up: build every entry's program and options. The seed orders the
  // bug-hunt entries and is passed to the checker; the DFS searches do
  // not depend on it.
  std::vector<TestProgram> Programs;
  std::vector<CheckerOptions> Options;
  for (const Entry &E : W->Entries) {
    Programs.push_back(E.Make());
    Options.push_back(E.Opts);
    Options.back().Seed = A.Seed;
  }
  std::mt19937_64 Rng(A.Seed);
  std::vector<size_t> Order(W->Entries.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  int64_t Ready = nowNs();
  if (A.SetupOnly) {
    std::printf("{\"ready_ns\": %lld}\n", (long long)Ready);
    return 0;
  }

  // The closed loop: one unit (a check, or a bug-hunt round over every
  // entry) after another. The unit count is fixed by --seconds, so a
  // slower build does the same work and takes longer. With --trace=1
  // untraced and traced units alternate, so the machine's slow and fast
  // phases bias neither side of the tracing-overhead comparison.
  std::vector<Sample> Samples;
  LayerTotals L;
  int64_t Start = nowNs();
  int Units = std::max(A.Trace ? 2 : 1,
                       int(std::lround(A.Seconds / W->UnitSeconds)));
  for (int Round = 0; Round < Units; ++Round) {
    bool IsTraced = A.Trace && Round % 2 == 1;
    if (W->Forked)
      std::shuffle(Order.begin(), Order.end(), Rng);
    int Unit = Log.open(W->Forked ? "round" : "unit", Root);
    for (size_t I : Order) {
      const Entry &E = W->Entries[I];
      Sample S;
      if (W->Forked) {
        double Left = RunLimitSeconds - elapsedS(Start);
        S = runForked(E, Programs[I], Options[I], IsTraced,
                      std::max(1.0, std::min(EntryLimitSeconds, Left)), Log,
                      Unit, L);
      } else {
        // In-process checks cannot be killed; a budget keeps a badly
        // regressed build inside the run limit instead.
        CheckerOptions O = Options[I];
        O.TimeBudgetSeconds =
            std::max(1.0, RunLimitSeconds - elapsedS(Start));
        S = runInProcess(E, Programs[I], O, IsTraced, Log, Unit, L);
      }
      S.Round = Round;
      Samples.push_back(std::move(S));
    }
    Log.close(Unit);
    if (IsTraced)
      ++L.Units;
  }

  // Traced bug-hunt runs also check the fleet once with a respawn budget
  // that keeps its coordinator alive, so the fleet's recovery counters
  // are measured even while the default-budget entry crashes.
  LayerTotals FleetL;
  Sample Fleet;
  if (A.Trace && W->Forked) {
    const Entry &E = fleetSurvivalEntry();
    CheckerOptions O = E.Opts;
    O.Seed = A.Seed;
    Fleet = runForked(E, E.Make(), O, /*Traced=*/true, EntryLimitSeconds, Log,
                      Root, FleetL);
  }

  // Pr sums the probe over every entry; the per-transition accounting
  // uses the first entry's own probe (FirstPr) and its own checks.
  ProbeResult Pr, FirstPr;
  if (A.Trace) {
    int Probe = Log.open("probe", Root);
    Pr.ClockNs = clockOverheadNs();
    probeFiber(20000, Pr, Log, Probe);
    uint64_t Budget = W->Forked ? 2000 : 20000;
    for (const Entry &E : W->Entries) {
      ProbeResult One;
      One.ClockNs = Pr.ClockNs;
      probeEntry(E, Budget, 2000, One, Log, Probe);
      Pr.add(One);
      if (&E == &W->Entries.front())
        FirstPr = One;
    }
    Log.close(Probe);
  }
  Log.close(Root);

  // Raw samples out; run.py derives the metrics.
  Json J;
  J.open('{');
  J.key("workload");
  J.str(W->Name);
  J.key("seed");
  J.num(double(A.Seed));
  J.key("ready_ns");
  J.num(double(Ready));
  J.key("build");
  J.open('{');
  J.key("build_type");
  J.str(PERFBENCH_BUILD_TYPE);
  J.key("compiler");
  J.str(PERFBENCH_COMPILER);
#ifdef NDEBUG
  J.key("asserts");
  J.boolean(false);
#else
  J.key("asserts");
  J.boolean(true);
#endif
  J.close('}');
  J.key("peak_rss_kb");
  J.num(double(std::max(peakRssKb(), L.ChildPeakRssKb)));
  J.key("samples");
  J.open('[');
  for (const Sample &S : Samples) {
    J.open('{');
    J.key("entry");
    J.str(S.Entry);
    J.key("round");
    J.num(S.Round);
    J.key("traced");
    J.boolean(S.Traced);
    J.key("ns");
    J.num(double(S.Ns));
    J.key("executions");
    J.num(double(S.Executions));
    J.key("transitions");
    J.num(double(S.Transitions));
    J.key("verdict");
    J.str(S.Verdict);
    J.key("failure");
    J.str(S.Failure);
    J.key("detail");
    J.str(S.Detail);
    J.close('}');
  }
  J.close(']');
  if (A.Trace) {
    std::map<std::string, double> M = layerMetrics(L, Pr, Samples, Log);
    M["fleet.worker_crashes"] = double(FleetL.Stats.FleetWorkerCrashes);
    M["fleet.respawns"] = double(FleetL.Stats.FleetRespawns);
    M["fleet.quarantined"] = double(FleetL.Stats.FleetQuarantined);
    M["fleet.replay_mismatch"] = Fleet.Detail.empty() ? 0 : 1;
    if (W->Forked) {
      J.key("fleet_survival");
      J.open('{');
      J.key("entry");
      J.str(Fleet.Entry);
      J.key("verdict");
      J.str(Fleet.Verdict);
      J.key("failure");
      J.str(Fleet.Failure);
      J.key("detail");
      J.str(Fleet.Detail);
      J.close('}');
    }
    writeAccounting(J, W->Entries.front(), FirstPr,
                    Pr.meanNs(Call::FiberRoundtrip), Samples, M);
    J.key("layers");
    J.open('{');
    for (const auto &[K, V] : M) {
      J.key(K.c_str());
      J.num(V);
    }
    J.close('}');
    J.key("self_time");
    J.open('{');
    for (const auto &[K, T] : Log.selfTimes()) {
      J.key(K.c_str());
      J.open('{');
      J.key("count");
      J.num(double(T.Count));
      J.key("total_ms");
      J.num(double(T.TotalNs) / 1e6);
      J.key("self_ms");
      J.num(double(T.SelfNs) / 1e6);
      J.close('}');
    }
    J.close('}');
  }
  if (!A.SpansPath.empty() && !Log.write(A.SpansPath))
    std::fprintf(stderr, "cannot write spans to %s\n", A.SpansPath.c_str());
  J.close('}');
  std::printf("%s\n", J.text().c_str());
  return 0;
}
