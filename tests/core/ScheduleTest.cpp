//===- tests/core/ScheduleTest.cpp ----------------------------------------===//
//
// Schedule serialization and deterministic bug replay -- the CHESS repro
// workflow: find a bug once, re-run its exact schedule forever.
//
//===----------------------------------------------------------------------===//

#include "core/Schedule.h"

#include "runtime/Runtime.h"
#include "sync/Atomic.h"
#include "sync/TestThread.h"
#include "workloads/DiningPhilosophers.h"
#include "workloads/WorkStealQueue.h"

#include <gtest/gtest.h>
#include <memory>

using namespace fsmc;

TEST(Schedule, EncodeDecodeRoundTrip) {
  std::vector<ScheduleChoice> In = {
      {0, 2, true}, {1, 3, true}, {2, 4, false}, {0, 7, true}};
  std::string Text = encodeSchedule(In);
  EXPECT_EQ(Text, "fsmc1:0/2;1/3;2/4r;0/7");
  std::vector<ScheduleChoice> Out;
  ASSERT_TRUE(decodeSchedule(Text, Out));
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Chosen, In[I].Chosen);
    EXPECT_EQ(Out[I].Num, In[I].Num);
    EXPECT_EQ(Out[I].Backtrack, In[I].Backtrack);
  }
}

TEST(Schedule, FlushMaskRoundTrip) {
  // `f<hex>` records flush-agent candidate bits under --memory=tso|pso.
  // Suffix order is r, f<hex>, s<hex>; bit 32 is the main thread's flush
  // agent (Runtime::FlushBase), the common case in real tso schedules.
  std::vector<ScheduleChoice> In = {
      {0, 3, true, 0, 0x100000000ull},
      {2, 3, false, 0, 0x300000000ull},
      {1, 2, true, 0x5, 0x100000000ull},
      {0, 2, false, 0x2, 0x600000000ull},
      {1, 4, true, 0, 0}};
  std::string Text = encodeSchedule(In);
  EXPECT_EQ(Text, "fsmc1:0/3f100000000;2/3rf300000000;"
                  "1/2f100000000s5;0/2rf600000000s2;1/4");
  std::vector<ScheduleChoice> Out;
  ASSERT_TRUE(decodeSchedule(Text, Out));
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I < In.size(); ++I) {
    EXPECT_EQ(Out[I].Chosen, In[I].Chosen) << I;
    EXPECT_EQ(Out[I].Num, In[I].Num) << I;
    EXPECT_EQ(Out[I].Backtrack, In[I].Backtrack) << I;
    EXPECT_EQ(Out[I].SleepMask, In[I].SleepMask) << I;
    EXPECT_EQ(Out[I].FlushMask, In[I].FlushMask) << I;
  }
}

TEST(Schedule, RejectsMalformedFlushMask) {
  std::vector<ScheduleChoice> Out;
  EXPECT_FALSE(decodeSchedule("fsmc1:0/2f", Out));     // Empty mask.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/2fzz", Out));   // Not hex.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/2f1x", Out));   // Trailing junk.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/2fs1", Out));   // f mask empty, s ok.
  // Well-formed combined suffixes still parse.
  EXPECT_TRUE(decodeSchedule("fsmc1:0/2rf100000000s3", Out));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FALSE(Out[0].Backtrack);
  EXPECT_EQ(Out[0].FlushMask, 0x100000000ull);
  EXPECT_EQ(Out[0].SleepMask, 0x3ull);
}

TEST(Schedule, EmptyScheduleIsValid) {
  std::vector<ScheduleChoice> Out{{1, 2, true}};
  ASSERT_TRUE(decodeSchedule("fsmc1:", Out));
  EXPECT_TRUE(Out.empty());
}

TEST(Schedule, RejectsMalformedInput) {
  std::vector<ScheduleChoice> Out;
  EXPECT_FALSE(decodeSchedule("", Out));
  EXPECT_FALSE(decodeSchedule("bogus", Out));
  EXPECT_FALSE(decodeSchedule("fsmc1:1", Out));       // No slash.
  EXPECT_FALSE(decodeSchedule("fsmc1:/2", Out));      // No chosen.
  EXPECT_FALSE(decodeSchedule("fsmc1:3/2", Out));     // Chosen >= num.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/1", Out));     // Forced move.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/", Out));      // No num.
  // Every number must be the whole of its field and fit in int: no
  // silent atoi-style truncation to a different schedule.
  EXPECT_FALSE(decodeSchedule("fsmc1:abc/2", Out));   // Chosen not a number.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/2x", Out));    // Trailing junk.
  EXPECT_FALSE(decodeSchedule("fsmc1:0x/2", Out));    // Junk after chosen.
  EXPECT_FALSE(decodeSchedule("fsmc1: 0/2", Out));    // Leading blank.
  EXPECT_FALSE(decodeSchedule("fsmc1:+0/2", Out));    // Signed.
  EXPECT_FALSE(decodeSchedule("fsmc1:-1/2", Out));    // Negative.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/4294967298", Out)); // Overflows int.
  EXPECT_FALSE(decodeSchedule("fsmc1:0/2;", Out));    // Empty record.
  std::string Why;
  EXPECT_FALSE(decodeSchedule("fsmc1:0/2;5/2", Out, &Why));
  EXPECT_NE(Why.find("record 1"), std::string::npos) << Why;
}

TEST(Schedule, BugReportCarriesReplayableSchedule) {
  TestProgram P;
  P.Name = "choice-bug";
  P.Body = [] {
    int V = Runtime::current().chooseInt(5);
    checkThat(V != 3, "branch 3 fails");
  };
  CheckResult R = check(P, CheckerOptions());
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);
  ASSERT_FALSE(R.Bug->Schedule.empty());

  // Replaying the recorded schedule reproduces the bug in ONE execution.
  CheckResult Replay = replaySchedule(P, CheckerOptions(), R.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::SafetyViolation);
  EXPECT_EQ(Replay.Stats.Executions, 1u);
  EXPECT_NE(Replay.Bug->Message.find("branch 3"), std::string::npos);
}

TEST(Schedule, ReplaysInterleavingBugDeterministically) {
  TestProgram P;
  P.Name = "race";
  P.Body = [] {
    auto X = std::make_shared<Atomic<int>>(0, "x");
    auto Bump = [X] { X->store(X->load() + 1); };
    TestThread A(Bump, "a");
    TestThread B(Bump, "b");
    A.join();
    B.join();
    checkThat(X->raw() == 2, "lost update");
  };
  CheckResult R = check(P, CheckerOptions());
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);
  for (int I = 0; I < 3; ++I) {
    CheckResult Replay =
        replaySchedule(P, CheckerOptions(), R.Bug->Schedule);
    ASSERT_EQ(Replay.Kind, Verdict::SafetyViolation)
        << "replay " << I << " did not reproduce";
    EXPECT_EQ(Replay.Bug->AtStep, R.Bug->AtStep);
  }
}

TEST(Schedule, ReplaysWorkloadBug) {
  WsqConfig C;
  C.Stealers = 1;
  C.Tasks = 2;
  C.Bug = WsqBug::PopReordered;
  CheckerOptions O;
  O.Kind = SearchKind::ContextBounded;
  O.ContextBound = 2;
  // Bug1 needs --memory=tso to manifest; the replay inherits the same
  // options, round-tripping the f<hex> flush masks in the schedule.
  O.Memory = MemoryModel::Tso;
  O.TimeBudgetSeconds = 120;
  TestProgram P = makeWsqProgram(C);
  CheckResult R = check(P, O);
  ASSERT_EQ(R.Kind, Verdict::SafetyViolation);
  CheckResult Replay = replaySchedule(P, O, R.Bug->Schedule);
  EXPECT_EQ(Replay.Kind, Verdict::SafetyViolation);
  EXPECT_EQ(Replay.Stats.Executions, 1u);
  EXPECT_EQ(Replay.Bug->Message, R.Bug->Message);
}

TEST(Schedule, MalformedScheduleReportsCleanly) {
  TestProgram P;
  P.Name = "noop";
  P.Body = [] {};
  CheckResult R = replaySchedule(P, CheckerOptions(), "not-a-schedule");
  EXPECT_EQ(R.Kind, Verdict::SafetyViolation);
  EXPECT_NE(R.Bug->Message.find("malformed"), std::string::npos);
}

TEST(Schedule, PassingScheduleReplaysAsPass) {
  TestProgram P;
  P.Name = "choices";
  P.Body = [] { (void)Runtime::current().chooseInt(4); };
  // Branch 2, hand-written.
  CheckResult R = replaySchedule(P, CheckerOptions(), "fsmc1:2/4");
  EXPECT_EQ(R.Kind, Verdict::Pass);
  EXPECT_EQ(R.Stats.Executions, 1u);
}
