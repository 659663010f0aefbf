//===- bench/par_speedup.cpp - Parallel explorer speedup ----------------===//
//
// Wall-clock speedup of the prefix-sharded parallel explorer over the
// serial search on an exhaustive DiningPhilosophers(4) run. This is the
// extension experiment for the ROADMAP's "as fast as the hardware
// allows" goal: stateless search parallelizes by schedule prefix, and
// the equivalence columns double-check that every jobs count visits the
// same executions and state signatures (the property the test suite
// locks in; see tests/core/ParallelExplorerTest.cpp).
//
// Knobs:
//   FSMC_PAR_PHILOSOPHERS  table size (default 4)
//   FSMC_PAR_JOBS_MAX      highest jobs count (default 4; doubled rows)
//   FSMC_PAR_DFS           1 = unbounded fair DFS instead of cb=2
//
// Expect near-linear speedup up to the physical core count; on a
// single-core machine the parallel rows only measure the sharding
// overhead (replayed prefixes + queue traffic).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "workloads/DiningPhilosophers.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace fsmc;
using namespace fsmc::bench;

static int envInt(const char *Name, int Default) {
  if (const char *V = std::getenv(Name)) {
    int N = std::atoi(V);
    if (N > 0)
      return N;
  }
  return Default;
}

int main() {
  printHeader("Parallel explorer speedup, dining philosophers",
              "extension: prefix-sharded search; ROADMAP north star");

  DiningConfig C;
  C.Philosophers = envInt("FSMC_PAR_PHILOSOPHERS", 4);
  C.Kind = DiningConfig::Variant::Mixed;

  CheckerOptions Base;
  Base.TrackCoverage = true;
  if (!envInt("FSMC_PAR_DFS", 0)) {
    // cb=2 keeps the exhaustive search a few seconds at 4 philosophers;
    // FSMC_PAR_DFS=1 runs the full fair DFS for a longer-haul measurement.
    Base.Kind = SearchKind::ContextBounded;
    Base.ContextBound = 2;
  }
  Base.TimeBudgetSeconds = runBudget(120.0);

  int JobsMax = envInt("FSMC_PAR_JOBS_MAX", 4);
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("philosophers=%d, strategy=%s, hardware threads=%u\n\n",
              C.Philosophers,
              Base.Kind == SearchKind::ContextBounded ? "cb=2" : "dfs",
              Cores);

  TablePrinter Table({"Jobs", "Time (s)", "Speedup", "Executions", "States",
                      "Completed", "Equivalent"});
  double SerialSeconds = 0;
  uint64_t SerialExecutions = 0, SerialStates = 0;

  for (int Jobs = 1; Jobs <= JobsMax; Jobs *= 2) {
    CheckerOptions O = Base;
    O.Jobs = Jobs;
    CheckResult R = check(makeDiningProgram(C), O);

    std::string Speedup = "1.00x";
    std::string Equivalent = "baseline";
    if (Jobs == 1) {
      SerialSeconds = R.Stats.Seconds;
      SerialExecutions = R.Stats.Executions;
      SerialStates = R.Stats.DistinctStates;
    } else {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.2fx",
                    R.Stats.Seconds > 0 ? SerialSeconds / R.Stats.Seconds
                                        : 0.0);
      Speedup = Buf;
      Equivalent = (R.Stats.Executions == SerialExecutions &&
                    R.Stats.DistinctStates == SerialStates)
                       ? "yes"
                       : "NO";
    }
    Table.addRow({std::to_string(Jobs),
                  TablePrinter::cellSeconds(R.Stats.Seconds), Speedup,
                  TablePrinter::cell(R.Stats.Executions),
                  TablePrinter::cell(R.Stats.DistinctStates),
                  R.Stats.SearchExhausted ? "yes" : "NO (budget)",
                  Equivalent});
  }
  Table.print(outs());
  outs() << '\n';
  std::printf("Each worker owns a private Explorer/Runtime; subtrees are\n"
              "sharded by frozen schedule prefix and re-balanced through\n"
              "one shared prefix pool that idle workers ask busy ones to\n"
              "split into, so executions and state coverage are identical\n"
              "at every jobs count.\n");
  return 0;
}
