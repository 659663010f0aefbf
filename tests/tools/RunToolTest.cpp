//===- tests/tools/RunToolTest.cpp ----------------------------------------===//
//
// End-to-end tests of the fsmc_run binary: the documented exit codes,
// SIGINT checkpointing (the "kill -INT a week-long run and lose nothing"
// contract of docs/ROBUSTNESS.md), and the --repro-dir / --replay round
// trip. The binary's path arrives via the FSMC_RUN_PATH compile
// definition; every test works in its own temp directory.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

namespace {

std::string runBinary() { return FSMC_RUN_PATH; }
std::string fleetBinary() { return FSMC_FLEET_PATH; }

/// A fresh temp directory per test.
class RunTool : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/fsmc-runtool-XXXXXX";
    char *D = mkdtemp(Template);
    ASSERT_NE(D, nullptr);
    Dir = D;
  }
  void TearDown() override {
    // Best-effort cleanup; leaks a small temp dir on failure paths.
    std::string Cmd = "rm -rf '" + Dir + "'";
    (void)system(Cmd.c_str());
  }
  std::string Dir;
};

/// fork/execs \p Bin with \p Args. Returns the child's pid; the caller
/// reaps it. stdout/stderr are discarded (tests read the artifact files).
pid_t spawnBin(const std::string &Bin, const std::vector<std::string> &Args) {
  pid_t Pid = fork();
  if (Pid != 0)
    return Pid;
  // Child.
  FILE *Null = std::fopen("/dev/null", "w");
  if (Null) {
    dup2(fileno(Null), 1);
    dup2(fileno(Null), 2);
  }
  std::vector<char *> Argv;
  std::string Copy0 = Bin;
  Argv.push_back(Copy0.data());
  std::vector<std::string> Copy = Args;
  for (std::string &A : Copy)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  execv(Argv[0], Argv.data());
  _exit(127);
}

pid_t spawn(const std::vector<std::string> &Args) {
  return spawnBin(runBinary(), Args);
}

/// Runs \p Bin to completion; returns its exit code (-1 on signal).
int runBin(const std::string &Bin, const std::vector<std::string> &Args) {
  pid_t Pid = spawnBin(Bin, Args);
  if (Pid < 0)
    return -2;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

int run(const std::vector<std::string> &Args) {
  return runBin(runBinary(), Args);
}

/// Like run(), but captures the child's stdout into \p Out (for --explain
/// and other reports that print to the terminal rather than a file).
int runCapture(const std::vector<std::string> &Args, const std::string &Dir,
               std::string &Out) {
  std::string Path = Dir + "/stdout.txt";
  pid_t Pid = fork();
  if (Pid < 0)
    return -2;
  if (Pid == 0) {
    FILE *F = std::fopen(Path.c_str(), "w");
    FILE *Null = std::fopen("/dev/null", "w");
    if (F)
      dup2(fileno(F), 1);
    if (Null)
      dup2(fileno(Null), 2);
    std::vector<char *> Argv;
    std::string Bin = runBinary();
    Argv.push_back(Bin.data());
    std::vector<std::string> Copy = Args;
    for (std::string &A : Copy)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    execv(Argv[0], Argv.data());
    _exit(127);
  }
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// First integer after `"Key": ` in a stats-json body, or -1.
long long jsonInt(const std::string &Json, const std::string &Key) {
  size_t At = Json.find("\"" + Key + "\": ");
  if (At == std::string::npos)
    return -1;
  return atoll(Json.c_str() + At + Key.size() + 4);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool contains(const std::string &Hay, const std::string &Needle) {
  return Hay.find(Needle) != std::string::npos;
}

/// First *.sched file in \p Dir, or "".
std::string firstSched(const std::string &Dir) {
  std::string Out;
  std::string Cmd = "ls '" + Dir + "'/*.sched 2>/dev/null | head -1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return Out;
  char Buf[512];
  if (fgets(Buf, sizeof(Buf), P))
    Out.assign(Buf, strcspn(Buf, "\n"));
  pclose(P);
  return Out;
}

} // namespace

TEST_F(RunTool, ExitCodesMatchTheContract) {
  EXPECT_EQ(run({"--program=peterson", "--executions=50", "--quiet"}), 0);
  EXPECT_EQ(run({"--program=peterson-bug", "--quiet"}), 1);
  EXPECT_EQ(run({"--no-such-flag"}), 2);
  EXPECT_EQ(run({"--program=does-not-exist"}), 2);
  EXPECT_EQ(run({"--program=crashfault-segv", "--isolate=batch", "--quiet"}),
            3);
}

TEST_F(RunTool, SigintWritesCheckpointAndHonestStats) {
  // Launch an effectively unbounded search, interrupt it, and assert the
  // documented contract: exit code 5, a loadable checkpoint, and a
  // stats-json that says "interrupted" rather than claiming completion.
  std::string Ckpt = Dir + "/run.ckpt";
  std::string Stats = Dir + "/stats.json";
  pid_t Pid = spawn({"--program=peterson", "--checkpoint=" + Ckpt,
                     "--stats-json=" + Stats, "--quiet"});
  ASSERT_GT(Pid, 0);
  // Give the search time to pass a few thousand execution boundaries.
  usleep(500 * 1000);
  ASSERT_EQ(kill(Pid, SIGINT), 0);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 5);

  std::string CkptText = slurp(Ckpt);
  EXPECT_TRUE(contains(CkptText, "fsmc-ckpt 3")) << CkptText.substr(0, 80);
  EXPECT_TRUE(contains(CkptText, "program peterson"));

  std::string Json = slurp(Stats);
  EXPECT_TRUE(contains(Json, "\"stop_reason\": \"interrupted\"")) << Json;
  EXPECT_TRUE(contains(Json, "\"interrupted\": true"));

  // The checkpoint must actually resume: a bounded continuation exits 0
  // and reports cumulative executions past what the checkpoint froze.
  EXPECT_EQ(run({"--resume=" + Ckpt, "--executions=999999999",
                 "--seconds=2", "--quiet"}),
            0);
}

TEST_F(RunTool, SigintPorRunCheckpointsAndResumes) {
  // The SIGINT contract composes with --por=on: the interrupted run's
  // checkpoint carries the POR stat keys (v2 format) and resumes under
  // the same flag. Exact interrupted-vs-straight stats equality is
  // pinned in-process by Resume.PorInterruptedSearchMatchesUninterrupted;
  // this covers the tool-level plumbing end to end.
  std::string Ckpt = Dir + "/por.ckpt";
  std::string Stats = Dir + "/stats.json";
  pid_t Pid = spawn({"--program=peterson", "--por=on",
                     "--checkpoint=" + Ckpt, "--stats-json=" + Stats,
                     "--quiet"});
  ASSERT_GT(Pid, 0);
  usleep(500 * 1000);
  ASSERT_EQ(kill(Pid, SIGINT), 0);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 5);

  std::string CkptText = slurp(Ckpt);
  EXPECT_TRUE(contains(CkptText, "fsmc-ckpt 3")) << CkptText.substr(0, 80);
  EXPECT_TRUE(contains(CkptText, "stat por_sleep_hits"));

  std::string Json = slurp(Stats);
  EXPECT_TRUE(contains(Json, "\"interrupted\": true"));
  EXPECT_TRUE(contains(Json, "\"por\": true"));
  EXPECT_TRUE(contains(Json, "por_sleep_hits")) << Json;

  // The continuation must run under the same reduction mode: recorded
  // frontier prefixes carry sleep masks that only validate with POR on.
  EXPECT_EQ(run({"--resume=" + Ckpt, "--por=on",
                 "--executions=999999999", "--seconds=2", "--quiet"}),
            0);
}

TEST_F(RunTool, ReproDirRoundTripsThroughReplay) {
  std::string Repro = Dir + "/repros";
  ASSERT_EQ(run({"--program=peterson-bug", "--repro-dir=" + Repro,
                 "--quiet"}),
            1);
  std::string Sched = firstSched(Repro);
  ASSERT_FALSE(Sched.empty()) << "expected a .sched repro file";
  std::string Content = slurp(Sched);
  EXPECT_TRUE(contains(Content, "fsmc1:")) << Content;
  // Replaying the repro file reproduces the bug: exit code 1 again.
  EXPECT_EQ(run({"--program=peterson-bug", "--replay=" + Sched, "--quiet"}),
            1);
}

TEST_F(RunTool, MalformedReplayIsAUsageError) {
  // A schedule that does not decode is the caller's mistake, not a
  // workload bug: exit 2 before any run starts, as for an unreadable file.
  EXPECT_EQ(run({"--program=peterson", "--replay=fsmc1:5/2", "--quiet"}), 2);
  EXPECT_EQ(run({"--program=peterson", "--replay=fsmc1:abc/2", "--quiet"}), 2);
  EXPECT_EQ(run({"--program=peterson", "--replay=fsmc1:0/2x", "--quiet"}), 2);
}

TEST_F(RunTool, CrashReproRoundTripsUnderIsolation) {
  std::string Repro = Dir + "/repros";
  ASSERT_EQ(run({"--program=crashfault-segv", "--isolate=batch",
                 "--repro-dir=" + Repro, "--quiet"}),
            3);
  std::string Sched = firstSched(Repro);
  ASSERT_FALSE(Sched.empty());
  EXPECT_EQ(run({"--program=crashfault-segv", "--isolate=batch",
                 "--replay=" + Sched, "--quiet"}),
            3);
}

TEST_F(RunTool, PeriodicCheckpointsAppearDuringTheRun) {
  std::string Ckpt = Dir + "/periodic.ckpt";
  std::string Stats = Dir + "/stats.json";
  ASSERT_EQ(run({"--program=peterson", "--executions=100",
                 "--checkpoint=" + Ckpt, "--checkpoint-every=30",
                 "--stats-json=" + Stats, "--quiet"}),
            0);
  EXPECT_TRUE(contains(slurp(Ckpt), "fsmc-ckpt 3"));
  EXPECT_TRUE(contains(slurp(Stats), "\"checkpoints\": 3"));
}

TEST_F(RunTool, CheckpointEveryRequiresAFile) {
  EXPECT_EQ(run({"--program=peterson", "--checkpoint-every=10"}), 2);
}

TEST_F(RunTool, EstimateIsExactAtExhaustion) {
  // Knuth's estimator telescopes to the truth on a fully explored tree:
  // at exhaustion the explored mass is exactly 1 and the projected total
  // equals the executions actually counted.
  std::string Stats = Dir + "/stats.json";
  ASSERT_EQ(run({"--program=peterson", "--cb=1", "--estimate",
                 "--stats-json=" + Stats, "--quiet"}),
            0);
  std::string Json = slurp(Stats);
  EXPECT_TRUE(contains(Json, "\"explored_mass\": 1,")) << Json;
  EXPECT_TRUE(contains(Json, "\"progress_pct\": 100.000")) << Json;
  long long Execs = jsonInt(Json, "executions");
  long long Est = jsonInt(Json, "estimated_total_executions");
  ASSERT_GT(Execs, 0);
  EXPECT_EQ(Est, Execs) << Json;
}

TEST_F(RunTool, EstimatePorMassIsExactAtExhaustion) {
  // The estimator credits POR-pruned subtrees at the prune site, so the
  // mass identity survives sleep-set pruning: an exhausted --por=on run
  // reports exactly mass 1 and est == executions, serial and parallel.
  for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
    SCOPED_TRACE(Jobs);
    std::string Stats = Dir + "/por-est.json";
    ASSERT_EQ(run({"--program=peterson", "--cb=1", "--estimate",
                   "--por=on", Jobs, "--stats-json=" + Stats, "--quiet"}),
              0);
    std::string Json = slurp(Stats);
    EXPECT_TRUE(contains(Json, "\"search_exhausted\": true")) << Json;
    EXPECT_TRUE(contains(Json, "\"explored_mass\": 1,")) << Json;
    EXPECT_TRUE(contains(Json, "\"progress_pct\": 100.000")) << Json;
    long long Execs = jsonInt(Json, "executions");
    long long Est = jsonInt(Json, "estimated_total_executions");
    ASSERT_GT(Execs, 0);
    EXPECT_EQ(Est, Execs) << Json;
  }
}

TEST_F(RunTool, EstimateSurvivesCheckpointResume) {
  // A mid-run checkpoint freezes the partial mass (a hexfloat `statf`
  // record); resuming -- serial or parallel -- must finish with the same
  // final estimate as the uninterrupted run. The execution cap stops the
  // first run past a periodic checkpoint but well before exhaustion.
  std::string Ckpt = Dir + "/est.ckpt";
  std::string StraightStats = Dir + "/straight.json";
  ASSERT_EQ(run({"--program=peterson", "--cb=1", "--estimate",
                 "--stats-json=" + StraightStats, "--quiet"}),
            0);
  long long Truth = jsonInt(slurp(StraightStats), "estimated_total_executions");
  ASSERT_GT(Truth, 0);

  ASSERT_EQ(run({"--program=peterson", "--cb=1", "--estimate",
                 "--executions=30", "--checkpoint=" + Ckpt,
                 "--checkpoint-every=10", "--quiet"}),
            0);
  std::string CkptText = slurp(Ckpt);
  ASSERT_TRUE(contains(CkptText, "statf estimate_mass 0x"))
      << CkptText.substr(0, 200);

  for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
    std::string Stats = Dir + "/resume.json";
    ASSERT_EQ(run({"--resume=" + Ckpt, "--cb=1", "--estimate", Jobs,
                   "--stats-json=" + Stats, "--quiet"}),
              0)
        << Jobs;
    std::string Json = slurp(Stats);
    EXPECT_TRUE(contains(Json, "\"explored_mass\": 1,")) << Jobs << Json;
    EXPECT_EQ(jsonInt(Json, "estimated_total_executions"), Truth) << Json;
  }
}

TEST_F(RunTool, ExplainNamesTheDeadlockCycle) {
  // --explain replays a repro schedule and renders the thread x step
  // timeline plus a verdict-specific epilogue; for a deadlock that is
  // the wait cycle, by thread and object name.
  std::string Repro = Dir + "/repros";
  ASSERT_EQ(run({"--program=dining-deadlock", "--repro-dir=" + Repro,
                 "--quiet"}),
            1);
  std::string Sched = firstSched(Repro);
  ASSERT_FALSE(Sched.empty());

  std::string Out;
  EXPECT_EQ(runCapture({"--program=dining-deadlock", "--explain=" + Sched},
                       Dir, Out),
            1);
  EXPECT_TRUE(contains(Out, "verdict: deadlock")) << Out;
  EXPECT_TRUE(contains(Out, "step  thread")) << Out;
  EXPECT_TRUE(contains(Out, "phil0 waits for lock on fork1")) << Out;
  EXPECT_TRUE(contains(Out, "phil1 waits for lock on fork0")) << Out;
  EXPECT_TRUE(contains(Out, "main waits for join")) << Out;

  // The directory form explains every .sched file under a header line.
  EXPECT_EQ(runCapture({"--program=dining-deadlock", "--explain=" + Repro},
                       Dir, Out),
            1);
  EXPECT_TRUE(contains(Out, "== ")) << Out;
  EXPECT_TRUE(contains(Out, ".sched ==")) << Out;
}

TEST_F(RunTool, ExplainFlagsTheRacingStep) {
  std::string Repro = Dir + "/repros";
  ASSERT_EQ(run({"--program=wsq-racy", "--races=fatal", "--cb=2",
                 "--repro-dir=" + Repro, "--quiet"}),
            7);
  std::string Sched = firstSched(Repro);
  ASSERT_FALSE(Sched.empty());

  std::string Out;
  EXPECT_EQ(runCapture({"--program=wsq-racy", "--races=fatal",
                        "--explain=" + Sched},
                       Dir, Out),
            7);
  EXPECT_TRUE(contains(Out, "verdict: data race")) << Out;
  // The failing step is flagged in the timeline, and the epilogue names
  // the racing accesses.
  EXPECT_TRUE(contains(Out, "<<< fails here")) << Out;
  EXPECT_TRUE(contains(Out, "data race on 'wsq.size'")) << Out;
  EXPECT_TRUE(contains(Out, "write by thread 'main'")) << Out;
  EXPECT_TRUE(contains(Out, "read by thread 'steal0'")) << Out;
}

TEST_F(RunTool, ReportWritesSelfContainedHtml) {
  std::string Html = Dir + "/report.html";
  std::string Stats = Dir + "/stats.json";
  ASSERT_EQ(run({"--program=peterson", "--cb=1", "--estimate",
                 "--report=" + Html, "--stats-json=" + Stats, "--quiet"}),
            0);
  std::string Doc = slurp(Html);
  EXPECT_TRUE(contains(Doc, "<!DOCTYPE html>"));
  EXPECT_TRUE(contains(Doc, "peterson"));
  // --report implies --profile-search, so the schedule-point sections
  // are populated alongside the estimate.
  EXPECT_TRUE(contains(Doc, "Tree-size estimate")) << Doc.substr(0, 400);
  EXPECT_TRUE(contains(Doc, "Branch points by operation class"))
      << Doc.substr(0, 400);
  // No external fetches: self-contained means no src/href URLs.
  EXPECT_FALSE(contains(Doc, "http://"));
  EXPECT_FALSE(contains(Doc, "https://"));
  // The implied profile also lands in stats-json.
  EXPECT_TRUE(contains(slurp(Stats), "\"profile\""));
}

//===----------------------------------------------------------------------===//
// Fleet mode (docs/FLEET.md): the --fleet flag family, the fsmc_fleet
// entry point, SIGTERM drain/resume, chaos counters in stats-json, and
// the exit-code-8 corrupt-checkpoint contract.
//===----------------------------------------------------------------------===//

TEST_F(RunTool, FleetUsageErrorsExitTwo) {
  EXPECT_EQ(run({"--program=peterson", "--fleet=0"}), 2);
  EXPECT_EQ(run({"--program=peterson", "--fleet=2", "--jobs=4"}), 2);
  EXPECT_EQ(run({"--program=peterson", "--fleet=2", "--isolate=batch"}), 2);
  EXPECT_EQ(run({"--program=peterson", "--fleet=2", "--random"}), 2);
}

TEST_F(RunTool, SigtermMidFleetDrainsCheckpointAndResumes) {
  // The ISSUE's robustness contract at both supervised widths: SIGTERM
  // mid-search exits 5 after draining every outstanding lease into one
  // v2 checkpoint, and that checkpoint resumes into a fleet of the same
  // width. (Multiset exactness is pinned below and in FleetParityTest.)
  for (const char *Width : {"--fleet=2", "--fleet=4"}) {
    SCOPED_TRACE(Width);
    std::string Ckpt = Dir + "/fleet.ckpt";
    std::string Stats = Dir + "/fleet-stats.json";
    pid_t Pid = spawn({"--program=peterson", Width, "--checkpoint=" + Ckpt,
                       "--stats-json=" + Stats, "--quiet"});
    ASSERT_GT(Pid, 0);
    // Let the coordinator fork its workers and stream a few batches.
    usleep(700 * 1000);
    ASSERT_EQ(kill(Pid, SIGTERM), 0);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    ASSERT_TRUE(WIFEXITED(Status));
    EXPECT_EQ(WEXITSTATUS(Status), 5);

    std::string CkptText = slurp(Ckpt);
    EXPECT_TRUE(contains(CkptText, "fsmc-ckpt 3")) << CkptText.substr(0, 80);
    EXPECT_TRUE(contains(CkptText, "program peterson"));
    std::string Json = slurp(Stats);
    EXPECT_TRUE(contains(Json, "\"stop_reason\": \"interrupted\"")) << Json;
    EXPECT_TRUE(contains(Json, "\"interrupted\": true"));

    EXPECT_EQ(run({"--resume=" + Ckpt, Width, "--executions=999999999",
                   "--seconds=2", "--quiet"}),
              0);
  }
}

TEST_F(RunTool, FleetResumeReachesUninterruptedTotals) {
  // A capped fleet run's checkpoint, resumed at the same width, must
  // finish with exactly the uninterrupted run's cumulative multiset --
  // the tool-level spelling of FleetResume's in-process exactness tests.
  std::string Straight = Dir + "/straight.json";
  ASSERT_EQ(run({"--program=peterson", "--cb=2", "--fleet=2",
                 "--stats-json=" + Straight, "--quiet"}),
            0);
  long long Execs = jsonInt(slurp(Straight), "executions");
  long long Trans = jsonInt(slurp(Straight), "transitions");
  ASSERT_GT(Execs, 0);

  std::string Ckpt = Dir + "/fleet.ckpt";
  ASSERT_EQ(run({"--program=peterson", "--cb=2", "--fleet=2",
                 "--executions=300", "--checkpoint=" + Ckpt,
                 "--checkpoint-every=10", "--quiet"}),
            0);
  std::string Stats = Dir + "/resumed.json";
  ASSERT_EQ(run({"--resume=" + Ckpt, "--cb=2", "--fleet=2",
                 "--stats-json=" + Stats, "--quiet"}),
            0);
  std::string Json = slurp(Stats);
  EXPECT_TRUE(contains(Json, "\"search_exhausted\": true")) << Json;
  EXPECT_EQ(jsonInt(Json, "executions"), Execs);
  EXPECT_EQ(jsonInt(Json, "transitions"), Trans);
}

TEST_F(RunTool, FleetChaosCountersLandInStatsJson) {
  // Acceptance criterion: under FSMC_FLEET_CHAOS=kill:3 the verdict and
  // explored multiset are unchanged (no lost or duplicated units) and
  // the recovery shows up as fleet_reissues >= 3 in stats-json. The
  // quarantine threshold is raised so three re-runs of one unlucky unit
  // can never retire it.
  std::string Clean = Dir + "/clean.json";
  std::string Chaos = Dir + "/chaos.json";
  ASSERT_EQ(run({"--program=peterson", "--cb=2", "--fleet=4",
                 "--fleet-quarantine=10", "--stats-json=" + Clean,
                 "--quiet"}),
            0);
  setenv("FSMC_FLEET_CHAOS", "kill:3", 1);
  int Rc = run({"--program=peterson", "--cb=2", "--fleet=4",
                "--fleet-quarantine=10", "--stats-json=" + Chaos,
                "--quiet"});
  unsetenv("FSMC_FLEET_CHAOS");
  ASSERT_EQ(Rc, 0);

  std::string A = slurp(Clean);
  std::string B = slurp(Chaos);
  EXPECT_EQ(jsonInt(B, "executions"), jsonInt(A, "executions"));
  EXPECT_EQ(jsonInt(B, "transitions"), jsonInt(A, "transitions"));
  EXPECT_GE(jsonInt(B, "fleet_worker_crashes"), 3);
  EXPECT_GE(jsonInt(B, "fleet_reissues"), 3);
  EXPECT_FALSE(contains(A, "fleet_worker_crashes"))
      << "healthy runs must omit the recovery counters";
}

TEST_F(RunTool, FleetBinaryDefaultsToSupervisedSearch) {
  // Invoked as fsmc_fleet, the driver defaults --fleet to the hardware
  // concurrency clamped to [2,8]; an explicit --fleet still wins.
  std::string Stats = Dir + "/stats.json";
  ASSERT_EQ(runBin(fleetBinary(), {"--program=peterson", "--cb=1",
                                   "--stats-json=" + Stats, "--quiet"}),
            0);
  long long W = jsonInt(slurp(Stats), "fleet_workers");
  EXPECT_GE(W, 2);
  EXPECT_LE(W, 8);
  ASSERT_EQ(runBin(fleetBinary(), {"--program=peterson", "--cb=1",
                                   "--fleet=1", "--stats-json=" + Stats,
                                   "--quiet"}),
            0);
  EXPECT_EQ(jsonInt(slurp(Stats), "fleet_workers"), 1);
}

TEST_F(RunTool, CorruptCheckpointExitsEightEverywhere) {
  // Write a small real checkpoint, then attack it: truncation at every
  // line boundary, a mid-line cut, and targeted field corruption must
  // all be rejected with the dedicated exit code 8 -- never a crash,
  // never a silent partial resume. A missing file stays the generic
  // usage error 2 (nothing to diagnose, the path is just wrong).
  std::string Ckpt = Dir + "/good.ckpt";
  ASSERT_EQ(run({"--program=peterson", "--cb=1", "--executions=30",
                 "--checkpoint=" + Ckpt, "--checkpoint-every=10",
                 "--quiet"}),
            0);
  std::string Good = slurp(Ckpt);
  ASSERT_TRUE(contains(Good, "fsmc-ckpt 3"));
  ASSERT_EQ(run({"--resume=" + Ckpt, "--cb=1", "--quiet"}), 0)
      << "the intact checkpoint must resume before we corrupt copies";

  std::string Bad = Dir + "/bad.ckpt";
  auto writeBad = [&](const std::string &Text) {
    std::ofstream Out(Bad, std::ios::trunc);
    Out << Text;
  };

  // Truncation sweep: every proper line-boundary prefix lacks at least
  // the end marker and must be rejected.
  int Cuts = 0;
  for (size_t At = Good.find('\n');
       At != std::string::npos && At + 1 < Good.size();
       At = Good.find('\n', At + 1), ++Cuts) {
    writeBad(Good.substr(0, At + 1));
    EXPECT_EQ(run({"--resume=" + Bad, "--cb=1", "--quiet"}), 8)
        << "prefix of " << (At + 1) << " bytes was accepted";
  }
  EXPECT_GT(Cuts, 5) << "checkpoint too small for the sweep to mean much";

  // Mid-line cut: a record chopped without its newline.
  writeBad(Good.substr(0, Good.size() / 2));
  EXPECT_EQ(run({"--resume=" + Bad, "--cb=1", "--quiet"}), 8);

  // Targeted byte mutations of individual records.
  auto mutate = [&](const std::string &From, const std::string &To) {
    std::string Text = Good;
    size_t At = Text.find(From);
    ASSERT_NE(At, std::string::npos) << From;
    Text.replace(At, From.size(), To);
    writeBad(Text);
    EXPECT_EQ(run({"--resume=" + Bad, "--cb=1", "--quiet"}), 8)
        << From << " -> " << To;
  };
  mutate("fsmc-ckpt 3", "fsmc-ckpt 9");            // unknown version
  mutate("seed ", "seed garbage-");                // unparseable seed
  mutate("stat executions ", "stat executions x"); // unparseable stat
  mutate("\nend\n", "\n");                         // missing end marker

  EXPECT_EQ(run({"--resume=" + Dir + "/does-not-exist.ckpt"}), 2);
}

TEST_F(RunTool, OlderCheckpointVersionsStillLoad) {
  // The v3 magic bump (store-buffer stats) must not orphan existing
  // checkpoint files: a plain run writes no v3-only records, so
  // rewriting its magic to the v2 or v1 tag produces exactly what those
  // versions' writers emitted -- and both must still resume.
  std::string Ckpt = Dir + "/good.ckpt";
  ASSERT_EQ(run({"--program=peterson", "--cb=1", "--executions=30",
                 "--checkpoint=" + Ckpt, "--checkpoint-every=10",
                 "--quiet"}),
            0);
  std::string Good = slurp(Ckpt);
  ASSERT_TRUE(contains(Good, "fsmc-ckpt 3"));
  ASSERT_FALSE(contains(Good, "buffered_stores"))
      << "an sc run must not write v3-only stat records";

  for (const char *Old : {"fsmc-ckpt 2", "fsmc-ckpt 1"}) {
    SCOPED_TRACE(Old);
    std::string Text = Good;
    Text.replace(Text.find("fsmc-ckpt 3"), strlen("fsmc-ckpt 3"), Old);
    std::string Path = Dir + "/old.ckpt";
    std::ofstream(Path, std::ios::trunc) << Text;
    EXPECT_EQ(run({"--resume=" + Path, "--cb=1", "--quiet"}), 0);
  }
}

TEST_F(RunTool, MemoryFlagRoundTripsThroughReplay) {
  // The tentpole's end-to-end acceptance at the tool level: wsq-bug1 is
  // clean under the default sc search, found under --memory=tso with a
  // flush-recording repro that replays -- and that repro is rejected as
  // a divergence (exit 6), not silently re-explored, when replayed under
  // the wrong model.
  EXPECT_EQ(run({"--program=wsq-bug1", "--cb=2", "--quiet"}), 0);

  std::string Repro = Dir + "/repros";
  std::string Stats = Dir + "/stats.json";
  ASSERT_EQ(run({"--program=wsq-bug1", "--cb=2", "--memory=tso",
                 "--repro-dir=" + Repro, "--stats-json=" + Stats,
                 "--quiet"}),
            1);
  std::string Json = slurp(Stats);
  EXPECT_TRUE(contains(Json, "\"memory\": \"tso\"")) << Json;
  EXPECT_GT(jsonInt(Json, "buffered_stores"), 0) << Json;

  std::string Sched = firstSched(Repro);
  ASSERT_FALSE(Sched.empty());
  EXPECT_TRUE(contains(slurp(Sched), "f")) << slurp(Sched);
  EXPECT_EQ(run({"--program=wsq-bug1", "--cb=2", "--memory=tso",
                 "--replay=" + Sched, "--quiet"}),
            1);
  EXPECT_EQ(run({"--program=wsq-bug1", "--cb=2", "--replay=" + Sched,
                 "--quiet"}),
            6);

  EXPECT_EQ(run({"--program=peterson", "--memory=bogus"}), 2);
}

TEST_F(RunTool, ExplainRejectsConflictingModes) {
  EXPECT_EQ(run({"--program=peterson", "--explain=fsmc1:0/1",
                 "--replay=fsmc1:0/1"}),
            2);
  EXPECT_EQ(run({"--program=peterson", "--explain="}), 2);
}
