//===- tools/bench_report.cpp - Perf regression report -------------------===//
//
// The benchmark regression harness (docs/PERFORMANCE.md): re-runs the
// repository's three load-bearing performance measurements in-process --
// the micro_scheduler end-to-end throughput workload, the par_speedup
// parallel scaling run, and the fig5 time-to-first-deadlock search --
// and writes one machine-readable BENCH_<PR>.json at the repo root so
// every revision leaves a perf trajectory the next one can diff against.
//
// The micro section measures the pooled hot path (one Runtime rewound by
// Runtime::reset, pooled fiber stacks) under the row name earlier
// reports used, so the trajectory stays comparable.
//
// The por section measures the sleep-set reduction (docs/POR.md) on two
// searches run --por off then on: the micro spin-wait exhaustive DFS
// (search-size reduction on a full search) and the dining(3)
// deadlock-prone executions-to-first-bug count (the Table 3 metric the
// PorParityTest acceptance bar pins).
//
// The telemetry section A/B-tests the search-telemetry layer
// (docs/OBSERVABILITY.md): the same micro and dining workloads with the
// tree-size estimator plus schedule-point profiler off then on, and the
// throughput overhead percentage -- the number that keeps the "telemetry
// costs < 5%" claim honest across revisions.
//
// The fleet section (docs/FLEET.md) prices the supervised multi-process
// engine: the par_speedup dining workload at --fleet 1/2/4 beside the
// same widths under --jobs (the fleet/jobs rate ratio is the cost of
// pipes + process isolation), the spin-wait micro search at width 2
// (worst case: tiny units, fork/lease overhead undiluted), and the fig5
// time-to-first-deadlock run healthy vs with one worker kill injected
// through FSMC_FLEET_CHAOS (what a mid-search crash costs in wall time).
//
// The memory section (docs/MEMORY.md) prices weak-memory exploration:
// the spin-wait micro search and the bug-free WSQ cb=2 search, each
// exhausted under --memory=sc then tso, with the execution blow-up
// factor (flush agents are extra schedule points, so the tso tree
// strictly contains the sc one) -- the number that tells users what
// turning on store-buffer exploration costs on their workload.
//
// The scaling section prices the parallel engine
// (docs/PERFORMANCE.md): the par_speedup dining workload at jobs
// 1/2/4/8 with the engine's contention counters read from an attached
// Observer -- steals, steal_fails, queue_lock_acquires, merge_ns,
// donation_bytes -- and the derived locks-per-execution ratio. The
// donation-era engine took at least two shared-lock acquisitions per
// execution (the hungry() poll under the queue mutex plus the
// best-bug mutex in the per-execution hook), so that floor is the
// baseline the lock_reduction_vs_donation factor is computed against;
// the acceptance bar is >= 10x at jobs 4.
//
// Usage: bench_report [--quick] [--out=FILE]
//   --quick  shrink every budget (the bench-smoke ctest entry); numbers
//            are noisier but the schema is identical
//   --out=F  write the JSON to F (default: BENCH_10.json in the CWD)
//
// Always exits 0: the harness records numbers, it does not gate. Compare
// across revisions with the methodology notes in docs/PERFORMANCE.md.
//
//===----------------------------------------------------------------------===//

#include "core/Checker.h"
#include "obs/Observer.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/SpinWait.h"
#include "workloads/WorkStealQueue.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>
#include <thread>

using namespace fsmc;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One measured run: executions completed, wall time, derived rate.
struct Meas {
  uint64_t Executions = 0;
  double WallMs = 0;
  double ExecsPerSec = 0;
  bool Exhausted = true;

  void finish(double Secs) {
    WallMs = Secs * 1000.0;
    ExecsPerSec = Secs > 0 ? double(Executions) / Secs : 0;
  }
};

/// Repeats the micro_scheduler end-to-end workload -- an exhaustive fair
/// DFS over the Figure 3 spin-wait program, the highest executions/sec
/// path in the checker -- until \p BudgetSeconds elapses.
Meas measureMicro(double BudgetSeconds) {
  SpinWaitConfig C;
  CheckerOptions O;
  O.DetectDivergence = false;
  Meas M;
  auto T0 = Clock::now();
  do {
    CheckResult R = check(makeSpinWaitProgram(C), O);
    M.Executions += R.Stats.Executions;
  } while (secondsSince(T0) < BudgetSeconds);
  M.finish(secondsSince(T0));
  return M;
}

/// One par_speedup row: exhaustive Dining(N) Mixed under cb=2 at \p Jobs.
Meas measurePar(int Philosophers, int Jobs, double BudgetSeconds) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::Mixed;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.TrackCoverage = true;
  O.Jobs = Jobs;
  O.TimeBudgetSeconds = BudgetSeconds;
  auto T0 = Clock::now();
  CheckResult R = check(makeDiningProgram(C), O);
  Meas M;
  M.Executions = R.Stats.Executions;
  M.Exhausted = R.Stats.SearchExhausted;
  M.finish(secondsSince(T0));
  return M;
}

/// The fig5 measurement: wall time for the fair DFS to surface the
/// classic deadlock in DeadlockProne dining. Doubles as the por bench's
/// executions-to-first-bug probe when \p Por is set.
Meas measureFigDeadlock(int Philosophers, double BudgetSeconds,
                        bool Por = false) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::DeadlockProne;
  CheckerOptions O;
  O.TimeBudgetSeconds = BudgetSeconds;
  O.Por = Por;
  auto T0 = Clock::now();
  CheckResult R = check(makeDiningProgram(C), O);
  Meas M;
  M.Executions = R.Stats.Executions;
  M.Exhausted = R.Kind == Verdict::Deadlock; // "found it" for this bench
  M.finish(secondsSince(T0));
  return M;
}

/// One por micro row: a single exhaustive fair DFS over the spin-wait
/// program. Unlike measureMicro this runs the search once -- the number
/// that matters is the search-size reduction (executions to exhaust),
/// with wall time alongside to show the oracle's overhead stays paid
/// for.
Meas measurePorMicro(bool Por, double BudgetSeconds) {
  SpinWaitConfig C;
  CheckerOptions O;
  O.DetectDivergence = false;
  O.Por = Por;
  O.TimeBudgetSeconds = BudgetSeconds;
  auto T0 = Clock::now();
  CheckResult R = check(makeSpinWaitProgram(C), O);
  Meas M;
  M.Executions = R.Stats.Executions;
  M.Exhausted = R.Stats.SearchExhausted;
  M.finish(secondsSince(T0));
  return M;
}

/// One telemetry A/B row: the measureMicro workload with the estimator
/// and the schedule-point profiler either both off or both on. Repeats
/// the exhaustive spin-wait search for the budget like measureMicro, so
/// on-vs-off is a like-for-like throughput comparison.
Meas measureTelemetryMicro(bool Telemetry, double BudgetSeconds) {
  SpinWaitConfig C;
  CheckerOptions O;
  O.DetectDivergence = false;
  O.Estimate = Telemetry;
  O.ProfileSearch = Telemetry;
  Meas M;
  auto T0 = Clock::now();
  do {
    CheckResult R = check(makeSpinWaitProgram(C), O);
    M.Executions += R.Stats.Executions;
  } while (secondsSince(T0) < BudgetSeconds);
  M.finish(secondsSince(T0));
  return M;
}

/// The dining telemetry row: one serial cb=2 Mixed search under a time
/// budget, telemetry off or on -- a lock-heavy workload with real
/// branch-point density, complementing the spin-dominated micro row.
Meas measureTelemetryDining(bool Telemetry, int Philosophers,
                            double BudgetSeconds) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::Mixed;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.TimeBudgetSeconds = BudgetSeconds;
  O.Estimate = Telemetry;
  O.ProfileSearch = Telemetry;
  auto T0 = Clock::now();
  CheckResult R = check(makeDiningProgram(C), O);
  Meas M;
  M.Executions = R.Stats.Executions;
  M.Exhausted = R.Stats.SearchExhausted;
  M.finish(secondsSince(T0));
  return M;
}

/// One fleet row: the par_speedup dining workload under the supervised
/// multi-process engine at \p Width workers (same bounds and coverage as
/// measurePar, so the jobs rows are its direct baseline).
Meas measureFleetPar(int Philosophers, int Width, double BudgetSeconds) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::Mixed;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.TrackCoverage = true;
  O.FleetWorkers = Width;
  O.TimeBudgetSeconds = BudgetSeconds;
  auto T0 = Clock::now();
  CheckResult R = check(makeDiningProgram(C), O);
  Meas M;
  M.Executions = R.Stats.Executions;
  M.Exhausted = R.Stats.SearchExhausted;
  M.finish(secondsSince(T0));
  return M;
}

/// The fleet micro row: the spin-wait exhaustive search once, width 2.
/// The search is tiny, so this is the engine's worst case -- fork,
/// lease and pipe overhead undiluted by real exploration.
Meas measureFleetMicro(double BudgetSeconds) {
  SpinWaitConfig C;
  CheckerOptions O;
  O.DetectDivergence = false;
  O.FleetWorkers = 2;
  O.TimeBudgetSeconds = BudgetSeconds;
  Meas M;
  auto T0 = Clock::now();
  do {
    CheckResult R = check(makeSpinWaitProgram(C), O);
    M.Executions += R.Stats.Executions;
  } while (secondsSince(T0) < BudgetSeconds);
  M.finish(secondsSince(T0));
  return M;
}

/// Fleet time-to-first-bug: the fig5 deadlock hunt at \p Width workers,
/// optionally with FSMC_FLEET_CHAOS injected for this one run -- the
/// wall-time delta against the healthy row is what a worker crash costs
/// mid-search (detection + respawn + one re-run attempt).
Meas measureFleetDeadlock(int Philosophers, int Width, double BudgetSeconds,
                          const char *Chaos) {
  if (Chaos)
    setenv("FSMC_FLEET_CHAOS", Chaos, 1);
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::DeadlockProne;
  CheckerOptions O;
  O.TimeBudgetSeconds = BudgetSeconds;
  O.FleetWorkers = Width;
  auto T0 = Clock::now();
  CheckResult R = check(makeDiningProgram(C), O);
  if (Chaos)
    unsetenv("FSMC_FLEET_CHAOS");
  Meas M;
  M.Executions = R.Stats.Executions;
  M.Exhausted = R.Kind == Verdict::Deadlock; // "found it" for this bench
  M.finish(secondsSince(T0));
  return M;
}

/// One memory A/B row, micro flavor: the spin-wait program exhausted
/// once under \p M. The metric is the search-size blow-up (executions to
/// exhaust) from the flush-agent schedule points, with wall time
/// alongside so the per-execution cost of the buffer machinery shows.
Meas measureMemoryMicro(MemoryModel M, double BudgetSeconds) {
  SpinWaitConfig C;
  CheckerOptions O;
  O.DetectDivergence = false;
  O.Memory = M;
  O.TimeBudgetSeconds = BudgetSeconds;
  auto T0 = Clock::now();
  CheckResult R = check(makeSpinWaitProgram(C), O);
  Meas M2;
  M2.Executions = R.Stats.Executions;
  M2.Exhausted = R.Stats.SearchExhausted;
  M2.finish(secondsSince(T0));
  return M2;
}

/// The wsq memory row: the bug-free work-stealing queue (the workload
/// weak memory exists for) exhausted under cb=2 at \p M.
Meas measureMemoryWsq(MemoryModel M, double BudgetSeconds) {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.Memory = M;
  O.TimeBudgetSeconds = BudgetSeconds;
  auto T0 = Clock::now();
  CheckResult R = check(makeWsqProgram(C), O);
  Meas M2;
  M2.Executions = R.Stats.Executions;
  M2.Exhausted = R.Stats.SearchExhausted;
  M2.finish(secondsSince(T0));
  return M2;
}

/// One scaling row: the par_speedup dining workload at \p Jobs with an
/// Observer attached so the parallel engine's contention counters
/// (docs/OBSERVABILITY.md) ride along with the rate.
struct ScalingMeas {
  Meas M;
  uint64_t Steals = 0;
  uint64_t StealFails = 0;
  uint64_t QueueLockAcquires = 0;
  uint64_t MergeNs = 0;
  uint64_t DonationBytes = 0;
  uint64_t PrefixesDonated = 0;

  double locksPerExecution() const {
    return M.Executions ? double(QueueLockAcquires) / double(M.Executions) : 0;
  }
};

ScalingMeas measureScaling(int Philosophers, int Jobs, double BudgetSeconds) {
  DiningConfig C;
  C.Philosophers = Philosophers;
  C.Kind = DiningConfig::Variant::Mixed;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  O.TrackCoverage = true;
  O.Jobs = Jobs;
  O.TimeBudgetSeconds = BudgetSeconds;
  obs::Observer Obs;
  O.Obs = &Obs;
  auto T0 = Clock::now();
  CheckResult R = check(makeDiningProgram(C), O);
  ScalingMeas S;
  S.M.Executions = R.Stats.Executions;
  S.M.Exhausted = R.Stats.SearchExhausted;
  S.M.finish(secondsSince(T0));
  obs::CounterSnapshot Snap = Obs.snapshot();
  S.Steals = Snap.counter(obs::Counter::Steals);
  S.StealFails = Snap.counter(obs::Counter::StealFails);
  S.QueueLockAcquires = Snap.counter(obs::Counter::QueueLockAcquires);
  S.MergeNs = Snap.counter(obs::Counter::MergeNs);
  S.DonationBytes = Snap.counter(obs::Counter::DonationBytes);
  S.PrefixesDonated = Snap.counter(obs::Counter::PrefixesDonated);
  return S;
}

long peakRssKb() {
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  return RU.ru_maxrss; // Linux: kilobytes.
}

void appendMeas(std::string &Out, const char *Key, const Meas &M,
                int Indent, bool Comma) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%*s\"%s\": { \"executions\": %llu, \"wall_ms\": %.1f, "
                "\"execs_per_sec\": %.1f }%s\n",
                Indent, "", Key, (unsigned long long)M.Executions, M.WallMs,
                M.ExecsPerSec, Comma ? "," : "");
  Out += Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string OutPath = "BENCH_10.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
    else {
      std::fprintf(stderr, "bench_report: unknown option %s\n", Argv[I]);
      std::fprintf(stderr, "usage: bench_report [--quick] [--out=FILE]\n");
      return 0; // Non-gating by design; see the header comment.
    }
  }

  // Budgets: long enough for stable rates in full mode, short enough for
  // a non-gating smoke entry in quick mode.
  const double MicroBudget = Quick ? 0.5 : 3.0;
  const int ParPhilosophers = Quick ? 3 : 4;
  const double ParBudget = Quick ? 20.0 : 120.0;
  // Three philosophers: the deadlock is reached within the budget by the
  // plain fair DFS, so the row measures time-to-first-bug (Table 3's
  // metric), not budget exhaustion.
  const int FigPhilosophers = 3;
  const double FigBudget = Quick ? 10.0 : 60.0;

  std::fprintf(stderr, "bench_report: micro_scheduler...\n");
  Meas Micro = measureMicro(MicroBudget);
  std::fprintf(stderr, "bench_report: par_speedup jobs=1...\n");
  Meas Par1 = measurePar(ParPhilosophers, 1, ParBudget);
  std::fprintf(stderr, "bench_report: par_speedup jobs=4...\n");
  Meas Par4 = measurePar(ParPhilosophers, 4, ParBudget);
  std::fprintf(stderr, "bench_report: fig5 dining deadlock...\n");
  Meas Fig = measureFigDeadlock(FigPhilosophers, FigBudget);
  std::fprintf(stderr, "bench_report: por micro (off)...\n");
  Meas PorMicroOff = measurePorMicro(/*Por=*/false, FigBudget);
  std::fprintf(stderr, "bench_report: por micro (on)...\n");
  Meas PorMicroOn = measurePorMicro(/*Por=*/true, FigBudget);
  std::fprintf(stderr, "bench_report: por dining deadlock (off)...\n");
  Meas PorFigOff = measureFigDeadlock(FigPhilosophers, FigBudget);
  std::fprintf(stderr, "bench_report: por dining deadlock (on)...\n");
  Meas PorFigOn = measureFigDeadlock(FigPhilosophers, FigBudget, /*Por=*/true);
  std::fprintf(stderr, "bench_report: telemetry micro (off)...\n");
  Meas TelMicroOff = measureTelemetryMicro(/*Telemetry=*/false, MicroBudget);
  std::fprintf(stderr, "bench_report: telemetry micro (on)...\n");
  Meas TelMicroOn = measureTelemetryMicro(/*Telemetry=*/true, MicroBudget);
  std::fprintf(stderr, "bench_report: telemetry dining (off)...\n");
  Meas TelDiningOff =
      measureTelemetryDining(/*Telemetry=*/false, FigPhilosophers, FigBudget);
  std::fprintf(stderr, "bench_report: telemetry dining (on)...\n");
  Meas TelDiningOn =
      measureTelemetryDining(/*Telemetry=*/true, FigPhilosophers, FigBudget);

  // Fleet vs jobs at matched widths on the par_speedup workload, plus
  // the undiluted-overhead micro row and the injected-kill deadlock hunt.
  Meas FleetJobs[3], FleetPar[3];
  const int FleetWidths[3] = {1, 2, 4};
  for (int I = 0; I < 3; ++I) {
    std::fprintf(stderr, "bench_report: fleet dining jobs=%d...\n",
                 FleetWidths[I]);
    FleetJobs[I] = measurePar(ParPhilosophers, FleetWidths[I], ParBudget);
    std::fprintf(stderr, "bench_report: fleet dining fleet=%d...\n",
                 FleetWidths[I]);
    FleetPar[I] = measureFleetPar(ParPhilosophers, FleetWidths[I], ParBudget);
  }
  std::fprintf(stderr, "bench_report: fleet micro (width 2)...\n");
  Meas FleetMicro = measureFleetMicro(MicroBudget);
  std::fprintf(stderr, "bench_report: fleet first-bug (healthy)...\n");
  Meas FleetBugClean =
      measureFleetDeadlock(FigPhilosophers, 2, FigBudget, nullptr);
  std::fprintf(stderr, "bench_report: fleet first-bug (kill:1)...\n");
  Meas FleetBugKill =
      measureFleetDeadlock(FigPhilosophers, 2, FigBudget, "kill:1");
  // Work-stealing scaling sweep: the par_speedup workload at jobs
  // 1/2/4/8 with contention counters attached.
  const int ScalingJobs[4] = {1, 2, 4, 8};
  ScalingMeas Scaling[4];
  for (int I = 0; I < 4; ++I) {
    std::fprintf(stderr, "bench_report: scaling jobs=%d...\n", ScalingJobs[I]);
    Scaling[I] = measureScaling(ParPhilosophers, ScalingJobs[I], ParBudget);
  }

  std::fprintf(stderr, "bench_report: memory micro (sc)...\n");
  Meas MemMicroSc = measureMemoryMicro(MemoryModel::Sc, FigBudget);
  std::fprintf(stderr, "bench_report: memory micro (tso)...\n");
  Meas MemMicroTso = measureMemoryMicro(MemoryModel::Tso, FigBudget);
  std::fprintf(stderr, "bench_report: memory wsq (sc)...\n");
  Meas MemWsqSc = measureMemoryWsq(MemoryModel::Sc, FigBudget);
  std::fprintf(stderr, "bench_report: memory wsq (tso)...\n");
  Meas MemWsqTso = measureMemoryWsq(MemoryModel::Tso, FigBudget);

  std::string Out;
  Out += "{\n";
  Out += "  \"schema\": 1,\n";
  Out += "  \"bench\": 10,\n";
  Out += std::string("  \"mode\": \"") + (Quick ? "quick" : "full") + "\",\n";
#ifdef NDEBUG
  Out += "  \"asserts\": false,\n";
#else
  Out += "  \"asserts\": true,\n";
#endif
  Out += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";

  Out += "  \"micro_scheduler\": {\n";
  Out += "    \"workload\": \"spinwait exhaustive fair DFS, repeated for a "
         "fixed budget\",\n";
  appendMeas(Out, "pooled_reuse_on", Micro, 4, false);
  Out += "  },\n";

  Out += "  \"par_speedup\": {\n";
  Out += "    \"workload\": \"dining(" + std::to_string(ParPhilosophers) +
         ") mixed, cb=2, coverage on\",\n";
  Out += "    \"rows\": [\n";
  {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "      { \"jobs\": 1, \"executions\": %llu, \"wall_ms\": "
                  "%.1f, \"execs_per_sec\": %.1f, \"exhausted\": %s },\n",
                  (unsigned long long)Par1.Executions, Par1.WallMs,
                  Par1.ExecsPerSec, Par1.Exhausted ? "true" : "false");
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "      { \"jobs\": 4, \"executions\": %llu, \"wall_ms\": "
                  "%.1f, \"execs_per_sec\": %.1f, \"exhausted\": %s }\n",
                  (unsigned long long)Par4.Executions, Par4.WallMs,
                  Par4.ExecsPerSec, Par4.Exhausted ? "true" : "false");
    Out += Buf;
  }
  Out += "    ]\n";
  Out += "  },\n";

  Out += "  \"fig5_dining_deadlock\": {\n";
  Out += "    \"workload\": \"dining(" + std::to_string(FigPhilosophers) +
         ") deadlock-prone, fair DFS to first bug\",\n";
  {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "    \"executions\": %llu,\n    \"wall_ms\": %.1f,\n"
                  "    \"found_deadlock\": %s\n",
                  (unsigned long long)Fig.Executions, Fig.WallMs,
                  Fig.Exhausted ? "true" : "false");
    Out += Buf;
  }
  Out += "  },\n";

  // Schedule-reduction factors, not rates: how many fewer executions the
  // sleep-set search needs for the same result.
  double PorMicroReduction =
      PorMicroOn.Executions > 0
          ? double(PorMicroOff.Executions) / double(PorMicroOn.Executions)
          : 0;
  double PorFigReduction =
      PorFigOn.Executions > 0
          ? double(PorFigOff.Executions) / double(PorFigOn.Executions)
          : 0;
  Out += "  \"por\": {\n";
  Out += "    \"workload\": \"spinwait exhaustive fair DFS and dining(" +
         std::to_string(FigPhilosophers) +
         ") deadlock-prone executions-to-first-bug, --por off vs on\",\n";
  appendMeas(Out, "micro_off", PorMicroOff, 4, true);
  appendMeas(Out, "micro_on", PorMicroOn, 4, true);
  appendMeas(Out, "dining_first_bug_off", PorFigOff, 4, true);
  appendMeas(Out, "dining_first_bug_on", PorFigOn, 4, true);
  {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "    \"micro_reduction\": %.2f,\n"
                  "    \"dining_first_bug_reduction\": %.2f,\n"
                  "    \"dining_found_deadlock\": %s\n",
                  PorMicroReduction, PorFigReduction,
                  PorFigOn.Exhausted && PorFigOff.Exhausted ? "true"
                                                            : "false");
    Out += Buf;
  }
  Out += "  },\n";

  // Throughput overhead of the telemetry layer, in percent of the off
  // rate; negative = measured faster with telemetry on (noise). The
  // acceptance bar is < 5 on both workloads.
  auto OverheadPct = [](const Meas &Off, const Meas &On) {
    return Off.ExecsPerSec > 0
               ? 100.0 * (Off.ExecsPerSec - On.ExecsPerSec) / Off.ExecsPerSec
               : 0.0;
  };
  Out += "  \"telemetry\": {\n";
  Out += "    \"workload\": \"spinwait exhaustive fair DFS and dining(" +
         std::to_string(FigPhilosophers) +
         ") mixed cb=2, --estimate + --profile-search off vs on\",\n";
  appendMeas(Out, "micro_off", TelMicroOff, 4, true);
  appendMeas(Out, "micro_on", TelMicroOn, 4, true);
  appendMeas(Out, "dining_off", TelDiningOff, 4, true);
  appendMeas(Out, "dining_on", TelDiningOn, 4, true);
  {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "    \"micro_overhead_pct\": %.2f,\n"
                  "    \"dining_overhead_pct\": %.2f\n",
                  OverheadPct(TelMicroOff, TelMicroOn),
                  OverheadPct(TelDiningOff, TelDiningOn));
    Out += Buf;
  }
  Out += "  },\n";

  Out += "  \"fleet\": {\n";
  Out += "    \"workload\": \"dining(" + std::to_string(ParPhilosophers) +
         ") mixed cb=2 at matched --fleet/--jobs widths; spinwait micro at "
         "width 2; dining(" +
         std::to_string(FigPhilosophers) +
         ") deadlock-prone time-to-first-bug healthy vs one injected worker "
         "kill\",\n";
  Out += "    \"rows\": [\n";
  for (int I = 0; I < 3; ++I) {
    double Ratio = FleetJobs[I].ExecsPerSec > 0
                       ? FleetPar[I].ExecsPerSec / FleetJobs[I].ExecsPerSec
                       : 0;
    char Buf[320];
    std::snprintf(
        Buf, sizeof(Buf),
        "      { \"width\": %d, \"fleet_execs_per_sec\": %.1f, "
        "\"jobs_execs_per_sec\": %.1f, \"fleet_wall_ms\": %.1f, "
        "\"jobs_wall_ms\": %.1f, \"fleet_vs_jobs\": %.2f, "
        "\"exhausted\": %s }%s\n",
        FleetWidths[I], FleetPar[I].ExecsPerSec, FleetJobs[I].ExecsPerSec,
        FleetPar[I].WallMs, FleetJobs[I].WallMs, Ratio,
        FleetPar[I].Exhausted && FleetJobs[I].Exhausted ? "true" : "false",
        I + 1 < 3 ? "," : "");
    Out += Buf;
  }
  Out += "    ],\n";
  appendMeas(Out, "micro_width2", FleetMicro, 4, true);
  {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "    \"first_bug_healthy_ms\": %.1f,\n"
                  "    \"first_bug_one_kill_ms\": %.1f,\n"
                  "    \"first_bug_found\": %s\n",
                  FleetBugClean.WallMs, FleetBugKill.WallMs,
                  FleetBugClean.Exhausted && FleetBugKill.Exhausted
                      ? "true"
                      : "false");
    Out += Buf;
  }
  Out += "  },\n";

  // Execution blow-up of weak-memory exploration: tso executions over sc
  // executions for the same exhausted search (>= 1 by construction; the
  // flush agents only add schedule points).
  double MemMicroBlowup =
      MemMicroSc.Executions > 0
          ? double(MemMicroTso.Executions) / double(MemMicroSc.Executions)
          : 0;
  double MemWsqBlowup =
      MemWsqSc.Executions > 0
          ? double(MemWsqTso.Executions) / double(MemWsqSc.Executions)
          : 0;
  Out += "  \"memory\": {\n";
  Out += "    \"workload\": \"spinwait exhaustive fair DFS and bug-free "
         "wsq(1 stealer, 2 tasks) cb=2, --memory sc vs tso\",\n";
  appendMeas(Out, "micro_sc", MemMicroSc, 4, true);
  appendMeas(Out, "micro_tso", MemMicroTso, 4, true);
  appendMeas(Out, "wsq_sc", MemWsqSc, 4, true);
  appendMeas(Out, "wsq_tso", MemWsqTso, 4, true);
  {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "    \"micro_blowup\": %.2f,\n"
                  "    \"wsq_blowup\": %.2f,\n"
                  "    \"exhausted\": %s\n",
                  MemMicroBlowup, MemWsqBlowup,
                  MemMicroSc.Exhausted && MemMicroTso.Exhausted &&
                          MemWsqSc.Exhausted && MemWsqTso.Exhausted
                      ? "true"
                      : "false");
    Out += Buf;
  }
  Out += "  },\n";

  // Lock contention of the parallel engine. The donation-era
  // engine's floor was two shared-lock acquisitions per execution (the
  // hungry() poll under the queue mutex plus the best-bug mutex in the
  // per-execution hook), so the reduction factor is that floor over the
  // measured rate at jobs 4.
  const double DonationLockFloor = 2.0;
  double Jobs4Locks = Scaling[2].locksPerExecution();
  double LockReduction = Jobs4Locks > 0 ? DonationLockFloor / Jobs4Locks : 0;
  Out += "  \"scaling\": {\n";
  Out += "    \"workload\": \"dining(" + std::to_string(ParPhilosophers) +
         ") mixed cb=2, coverage on, work-stealing engine with contention "
         "counters\",\n";
  Out += "    \"rows\": [\n";
  for (int I = 0; I < 4; ++I) {
    const ScalingMeas &S = Scaling[I];
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "      { \"jobs\": %d, \"executions\": %llu, \"wall_ms\": %.1f, "
        "\"execs_per_sec\": %.1f, \"steals\": %llu, \"steal_fails\": %llu, "
        "\"queue_lock_acquires\": %llu, \"merge_ns\": %llu, "
        "\"donation_bytes\": %llu, \"prefixes_donated\": %llu, "
        "\"locks_per_execution\": %.4f, \"exhausted\": %s }%s\n",
        ScalingJobs[I], (unsigned long long)S.M.Executions, S.M.WallMs,
        S.M.ExecsPerSec, (unsigned long long)S.Steals,
        (unsigned long long)S.StealFails,
        (unsigned long long)S.QueueLockAcquires,
        (unsigned long long)S.MergeNs, (unsigned long long)S.DonationBytes,
        (unsigned long long)S.PrefixesDonated, S.locksPerExecution(),
        S.M.Exhausted ? "true" : "false", I + 1 < 4 ? "," : "");
    Out += Buf;
  }
  Out += "    ],\n";
  {
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "    \"donation_engine_locks_per_execution_floor\": %.1f,\n"
                  "    \"lock_reduction_vs_donation\": %.1f\n",
                  DonationLockFloor, LockReduction);
    Out += Buf;
  }
  Out += "  },\n";

  Out += "  \"peak_rss_kb\": " + std::to_string(peakRssKb()) + "\n";
  Out += "}\n";

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "bench_report: cannot open %s; report follows:\n%s",
                 OutPath.c_str(), Out.c_str());
    return 0;
  }
  std::fwrite(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  std::fprintf(stderr, "bench_report: wrote %s (micro %.0f execs/s)\n",
               OutPath.c_str(), Micro.ExecsPerSec);
  return 0;
}
