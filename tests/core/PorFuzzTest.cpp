//===- tests/core/PorFuzzTest.cpp -----------------------------------------===//
//
// Differential fuzzing of the sleep-set reduction: ~200 small random
// pass-only programs (plain vars, atomics, mutexes, spawn/join, from a
// seeded xorshift generator), each explored exhaustively with --por off
// and on. Partial-order reduction may drop redundant interleavings but
// never a reachable outcome, so the SET of terminal-state digests must
// be identical in both modes (the multiset legitimately shrinks). On a
// mismatch the test dumps the seed and a replayable schedule artifact
// for every diverging digest, so the offending interleaving can be
// re-run directly with fsmc_run --replay.
//
// Runs under the `slow` label: this is minutes of small searches, not
// part of the tier-1 gate.
//
//===----------------------------------------------------------------------===//

#include "core/Explorer.h"
#include "core/Schedule.h"
#include "runtime/Runtime.h"
#include "support/Xorshift.h"
#include "sync/Atomic.h"
#include "sync/Mutex.h"
#include "sync/Plain.h"
#include "sync/TestThread.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace fsmc;

namespace {

/// One generated instruction: an opcode plus the shared object it hits.
struct FuzzOp {
  enum Kind {
    PlainLoad,
    PlainStore,
    AtomicLoad,
    AtomicStore,
    AtomicAdd,
    LockedAdd, // lock; counter += k; unlock
  };
  Kind K;
  int Obj; ///< Index into the vars/atomics/mutexes pool for K's class.
  int Arg; ///< Stored value / added delta.
};

struct FuzzSpec {
  int Threads = 2;
  int Vars = 1;
  int Atomics = 1;
  int Mutexes = 1;
  /// Per thread: the op sequence it executes.
  std::vector<std::vector<FuzzOp>> Code;
  /// One thread (or -1) additionally spawns and joins a nested child
  /// running Code.back(), covering tid-assignment ordering under POR.
  int NestedSpawner = -1;
};

/// Deterministic program shapes from the seed. Sizes are kept small so
/// the *unreduced* exhaustive fair DFS stays in the low thousands of
/// executions per seed.
FuzzSpec makeSpec(uint64_t Seed) {
  Xorshift Rng(Seed);
  FuzzSpec S;
  // Two top-level threads (a third arrives via the nested spawner on
  // some seeds): exhaustive fair DFS stays well under the cap while the
  // op mix still covers every dependence class.
  S.Threads = 2;
  S.Vars = 1 + Rng.nextBelow(2);     // 1..2
  S.Atomics = 1 + Rng.nextBelow(2);  // 1..2
  S.Mutexes = 1;
  int Bodies = S.Threads + 1; // Last body is the nested child's.
  for (int T = 0; T < Bodies; ++T) {
    int Len = 2 + Rng.nextBelow(2); // 2..3 ops
    std::vector<FuzzOp> Ops;
    for (int I = 0; I < Len; ++I) {
      FuzzOp Op;
      Op.K = FuzzOp::Kind(Rng.nextBelow(6));
      switch (Op.K) {
      case FuzzOp::PlainLoad:
      case FuzzOp::PlainStore:
        Op.Obj = Rng.nextBelow(S.Vars);
        break;
      case FuzzOp::AtomicLoad:
      case FuzzOp::AtomicStore:
      case FuzzOp::AtomicAdd:
        Op.Obj = Rng.nextBelow(S.Atomics);
        break;
      case FuzzOp::LockedAdd:
        Op.Obj = 0;
        break;
      }
      Op.Arg = 1 + Rng.nextBelow(7);
      Ops.push_back(Op);
    }
    S.Code.push_back(std::move(Ops));
  }
  if (Rng.nextBelow(3) == 0)
    S.NestedSpawner = Rng.nextBelow(S.Threads);
  return S;
}

/// What one run observed: terminal-state digests, and for each digest a
/// replayable schedule that produced it (first occurrence wins).
struct FuzzOutcome {
  std::set<uint64_t> Digests;
  std::map<uint64_t, std::string> Schedules;
  SearchStats Stats;
  bool Exhausted = false;
};

uint64_t fnv1a(uint64_t H, uint64_t V) {
  for (int B = 0; B < 8; ++B) {
    H ^= (V >> (B * 8)) & 0xff;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Builds the TestProgram for \p Spec. The digest covers every shared
/// location *and* each thread's accumulated read values, so two
/// interleavings differing in any visible read or final state hash
/// differently. Digest/flag live behind shared_ptrs: executions run
/// one-at-a-time inside the checker, so plain writes are safe.
TestProgram makeFuzzProgram(const FuzzSpec &Spec,
                            std::shared_ptr<uint64_t> LastDigest,
                            std::shared_ptr<bool> DigestValid) {
  TestProgram P;
  P.Name = "por-fuzz";
  P.Body = [Spec, LastDigest, DigestValid] {
    auto Vars = std::make_shared<std::vector<PlainVar<int>>>();
    auto Atomics = std::make_shared<std::vector<Atomic<int>>>();
    Vars->reserve(size_t(Spec.Vars));
    Atomics->reserve(size_t(Spec.Atomics));
    for (int I = 0; I < Spec.Vars; ++I)
      Vars->emplace_back(0, "v" + std::to_string(I));
    for (int I = 0; I < Spec.Atomics; ++I)
      Atomics->emplace_back(0, "a" + std::to_string(I));
    auto Lock = std::make_shared<Mutex>("m");
    auto Counter = std::make_shared<int>(0);
    // Slot per body (threads + nested child), written only by its owner.
    auto Sums = std::make_shared<std::vector<uint64_t>>(Spec.Code.size(), 0);

    auto RunBody = [=](int Body) {
      uint64_t Sum = 0;
      for (const FuzzOp &Op : Spec.Code[size_t(Body)]) {
        switch (Op.K) {
        case FuzzOp::PlainLoad:
          Sum = Sum * 31 + uint64_t((*Vars)[size_t(Op.Obj)].load());
          break;
        case FuzzOp::PlainStore:
          (*Vars)[size_t(Op.Obj)].store(Op.Arg + Body);
          break;
        case FuzzOp::AtomicLoad:
          Sum = Sum * 31 + uint64_t((*Atomics)[size_t(Op.Obj)].load());
          break;
        case FuzzOp::AtomicStore:
          (*Atomics)[size_t(Op.Obj)].store(Op.Arg + Body);
          break;
        case FuzzOp::AtomicAdd:
          Sum = Sum * 31 +
                uint64_t((*Atomics)[size_t(Op.Obj)].fetchAdd(Op.Arg));
          break;
        case FuzzOp::LockedAdd:
          Lock->lock();
          *Counter += Op.Arg;
          Lock->unlock();
          break;
        }
      }
      (*Sums)[size_t(Body)] = Sum;
    };

    std::vector<TestThread> Threads;
    for (int T = 0; T < Spec.Threads; ++T) {
      int Nested = Spec.NestedSpawner == T ? int(Spec.Code.size()) - 1 : -1;
      Threads.emplace_back(
          [RunBody, T, Nested] {
            if (Nested >= 0) {
              TestThread Child([RunBody, Nested] { RunBody(Nested); },
                               "nested");
              RunBody(T);
              Child.join();
            } else {
              RunBody(T);
            }
          },
          "t" + std::to_string(T));
    }
    for (TestThread &T : Threads)
      T.join();

    uint64_t H = 0xcbf29ce484222325ULL;
    for (int I = 0; I < Spec.Vars; ++I)
      H = fnv1a(H, uint64_t((*Vars)[size_t(I)].raw()));
    for (int I = 0; I < Spec.Atomics; ++I)
      H = fnv1a(H, uint64_t((*Atomics)[size_t(I)].raw()));
    H = fnv1a(H, uint64_t(*Counter));
    for (uint64_t S : *Sums)
      H = fnv1a(H, S);
    *LastDigest = H;
    *DigestValid = true;
  };
  return P;
}

/// Exhaustive fair DFS of \p Spec with POR on or off, harvesting the
/// terminal digest set. The execution hook snapshots the choice stack
/// after each completed execution, so every digest maps back to a
/// replayable schedule.
FuzzOutcome explore(const FuzzSpec &Spec, bool Por, uint64_t ExecCap) {
  auto LastDigest = std::make_shared<uint64_t>(0);
  auto DigestValid = std::make_shared<bool>(false);
  TestProgram P = makeFuzzProgram(Spec, LastDigest, DigestValid);
  CheckerOptions O;
  O.Por = Por;
  O.MaxExecutions = ExecCap;

  FuzzOutcome Out;
  Explorer E(P, O);
  E.setExecutionHook([&](Explorer &Ex) {
    if (*DigestValid) {
      *DigestValid = false;
      if (Out.Digests.insert(*LastDigest).second)
        Out.Schedules[*LastDigest] =
            encodeSchedule(Ex.currentStackSnapshot());
    }
    return true;
  });
  Explorer::UnitEnd End = E.runUnit(CheckpointUnit(), ExecCap);
  ResultAccumulator Acc(O, CheckpointState());
  Attempt A = E.take();
  Acc.commit(A);
  CheckResult R = Acc.finish(End == Explorer::UnitEnd::Budget,
                             /*TimedOut=*/false, /*Interrupted=*/false,
                             /*Seconds=*/0);
  EXPECT_EQ(R.Kind, Verdict::Pass)
      << "fuzz programs are pass-only; got " << verdictName(R.Kind);
  Out.Stats = R.Stats;
  Out.Exhausted = End == Explorer::UnitEnd::Exhausted;
  return Out;
}

/// Writes the replayable artifact for a diverging digest and returns its
/// path. The file holds exactly one fsmc1: schedule string, the format
/// fsmc_run --replay accepts.
std::string dumpArtifact(uint64_t Seed, uint64_t Digest, const char *Side,
                         const std::string &Schedule) {
  std::string Path = testing::TempDir() + "por_fuzz_seed" +
                     std::to_string(Seed) + "_" + Side + "_" +
                     std::to_string(Digest) + ".sched";
  std::ofstream F(Path);
  F << Schedule << "\n";
  return Path;
}

} // namespace

TEST(PorFuzz, TerminalStateSetsMatchAcrossTwoHundredSeeds) {
  const uint64_t Seeds = 200;
  const uint64_t ExecCap = 100000;
  uint64_t Compared = 0, TotalOff = 0, TotalOn = 0;

  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    FuzzSpec Spec = makeSpec(Seed);
    FuzzOutcome Off = explore(Spec, /*Por=*/false, ExecCap);
    FuzzOutcome On = explore(Spec, /*Por=*/true, ExecCap);
    TotalOff += Off.Stats.Executions;
    TotalOn += On.Stats.Executions;

    if (!Off.Exhausted || !On.Exhausted)
      continue; // Capped: the sets are partial, not comparable.
    ++Compared;

    EXPECT_LE(On.Stats.Executions, Off.Stats.Executions);
    if (On.Digests == Off.Digests)
      continue;

    // Mismatch: dump every diverging outcome as a replayable artifact.
    for (uint64_t D : Off.Digests)
      if (!On.Digests.count(D))
        ADD_FAILURE() << "POR LOST terminal state " << D << " (seed "
                      << Seed << "); schedule: "
                      << dumpArtifact(Seed, D, "off", Off.Schedules[D]);
    for (uint64_t D : On.Digests)
      if (!Off.Digests.count(D))
        ADD_FAILURE() << "POR INVENTED terminal state " << D << " (seed "
                      << Seed << "); schedule: "
                      << dumpArtifact(Seed, D, "on", On.Schedules[D]);
  }

  // The cap is a safety net, not the norm: if most seeds failed to
  // exhaust, the generator grew too big to fuzz meaningfully.
  EXPECT_GE(Compared, Seeds * 9 / 10)
      << "too many seeds hit the execution cap";
  std::printf("[por-fuzz] %llu/%llu seeds compared, executions off=%llu "
              "on=%llu\n",
              (unsigned long long)Compared, (unsigned long long)Seeds,
              (unsigned long long)TotalOff, (unsigned long long)TotalOn);
}
