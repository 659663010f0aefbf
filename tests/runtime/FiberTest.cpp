//===- tests/runtime/FiberTest.cpp ----------------------------------------===//

#include "runtime/Fiber.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

using namespace fsmc;

namespace {

/// A little ping-pong harness: host <-> fiber.
struct PingPong {
  Fiber Host;
  Fiber Worker;
  std::vector<int> Log;
  int Rounds = 0;

  static void entry(void *Arg) {
    auto *Self = static_cast<PingPong *>(Arg);
    for (int I = 0; I < Self->Rounds; ++I) {
      Self->Log.push_back(100 + I);
      Fiber::switchTo(Self->Worker, Self->Host);
    }
    Self->Log.push_back(999);
    Fiber::switchTo(Self->Worker, Self->Host);
    FAIL() << "fiber resumed after its final switch-away";
  }
};

} // namespace

TEST(Fiber, PingPongInterleaves) {
  PingPong P;
  P.Rounds = 3;
  P.Host.initAsHost();
  ASSERT_TRUE(P.Worker.initWithEntry(64 * 1024, &PingPong::entry, &P));
  for (int I = 0; I < 3; ++I) {
    P.Log.push_back(I);
    Fiber::switchTo(P.Host, P.Worker);
  }
  Fiber::switchTo(P.Host, P.Worker); // Final leg: fiber logs 999.
  EXPECT_EQ(P.Log, (std::vector<int>{0, 100, 1, 101, 2, 102, 999}));
}

TEST(Fiber, HasStackReflectsInit) {
  Fiber Host;
  Host.initAsHost();
  EXPECT_FALSE(Host.hasStack());
  PingPong P;
  P.Rounds = 0;
  P.Host.initAsHost();
  ASSERT_TRUE(P.Worker.initWithEntry(64 * 1024, &PingPong::entry, &P));
  EXPECT_TRUE(P.Worker.hasStack());
  Fiber::switchTo(P.Host, P.Worker); // Runs to the 999 log and parks.
  EXPECT_EQ(P.Log, (std::vector<int>{999}));
}

namespace {

struct DeepState {
  Fiber Host;
  Fiber Worker;
  int Result = 0;

  static int collatzSteps(unsigned long N, int Depth) {
    // Some genuine stack usage to exercise the mapped stack.
    volatile char Pad[512];
    Pad[0] = char(Depth);
    (void)Pad;
    if (N == 1)
      return Depth;
    return collatzSteps(N % 2 ? 3 * N + 1 : N / 2, Depth + 1);
  }

  static void entry(void *Arg) {
    auto *Self = static_cast<DeepState *>(Arg);
    Self->Result = collatzSteps(27, 0); // 111 steps, ~56 KiB of frames.
    Fiber::switchTo(Self->Worker, Self->Host);
  }
};

} // namespace

TEST(Fiber, SupportsDeepStacks) {
  DeepState D;
  D.Host.initAsHost();
  ASSERT_TRUE(D.Worker.initWithEntry(256 * 1024, &DeepState::entry, &D));
  Fiber::switchTo(D.Host, D.Worker);
  EXPECT_EQ(D.Result, 111);
}

namespace {

struct Counter {
  Fiber Host;
  Fiber Worker;
  int Value = 0;

  static void entry(void *Arg) {
    auto *Self = static_cast<Counter *>(Arg);
    ++Self->Value;
    Fiber::switchTo(Self->Worker, Self->Host);
  }
};

} // namespace

TEST(Fiber, ManyFibersCoexist) {
  Fiber Host;
  Host.initAsHost();
  std::vector<std::unique_ptr<Counter>> Fibers;
  for (int I = 0; I < 50; ++I) {
    auto C = std::make_unique<Counter>();
    C->Host.initAsHost();
    ASSERT_TRUE(C->Worker.initWithEntry(64 * 1024, &Counter::entry, C.get()));
    Fibers.push_back(std::move(C));
  }
  for (auto &C : Fibers)
    Fiber::switchTo(C->Host, C->Worker);
  for (auto &C : Fibers)
    EXPECT_EQ(C->Value, 1);
}

TEST(Fiber, UnstartedFiberIsFreedSafely) {
  // A fiber that is initialized but never switched to must clean up its
  // stack without running the entry.
  auto *C = new Counter();
  C->Host.initAsHost();
  ASSERT_TRUE(C->Worker.initWithEntry(64 * 1024, &Counter::entry, C));
  int Val = C->Value;
  delete C;
  EXPECT_EQ(Val, 0);
}

//===----------------------------------------------------------------------===//
// The x86-64 switch: what the SysV ABI makes callee-saved survives it, a
// new stack is aligned at entry, and parked fibers survive fork().
//===----------------------------------------------------------------------===//

#if defined(__x86_64__)

namespace {

/// regProbe(From, To, Out, Switch, Seed): loads Seed+1..Seed+5 into rbx
/// and r12-r15, calls Switch(From, To), then stores what those five
/// registers hold into Out[0..4]. Written in assembly so the compiler
/// cannot keep the values anywhere else across the call.
extern "C" void fsmc_test_reg_probe(Fiber *From, Fiber *To, uint64_t *Out,
                                    void (*Switch)(Fiber &, Fiber &),
                                    uint64_t Seed);
asm(R"(
  .pushsection .text
  .p2align 4
  .type fsmc_test_reg_probe, @function
fsmc_test_reg_probe:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  movq %rdx, %rbp
  leaq 1(%r8), %rbx
  leaq 2(%r8), %r12
  leaq 3(%r8), %r13
  leaq 4(%r8), %r14
  leaq 5(%r8), %r15
  callq *%rcx
  movq %rbx, 0(%rbp)
  movq %r12, 8(%rbp)
  movq %r13, 16(%rbp)
  movq %r14, 24(%rbp)
  movq %r15, 32(%rbp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size fsmc_test_reg_probe, .-fsmc_test_reg_probe
  .popsection
)");

constexpr uint64_t HostSeed = 0x1111000000000000ull;
constexpr uint64_t FiberSeed = 0x2222000000000000ull;

void expectSeeded(const uint64_t (&Regs)[5], uint64_t Seed) {
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Regs[I], Seed + uint64_t(I) + 1) << "register slot " << I;
}

struct RegPingPong {
  Fiber Host;
  Fiber Worker;
  uint64_t FiberRegs[5] = {};

  static void entry(void *Arg) {
    auto *Self = static_cast<RegPingPong *>(Arg);
    fsmc_test_reg_probe(&Self->Worker, &Self->Host, Self->FiberRegs,
                        &Fiber::switchTo, FiberSeed);
    Fiber::switchTo(Self->Worker, Self->Host);
  }
};

} // namespace

TEST(FiberSwitch, CalleeSavedRegistersSurvive) {
  RegPingPong P;
  P.Host.initAsHost();
  ASSERT_TRUE(P.Worker.initWithEntry(64 * 1024, &RegPingPong::entry, &P));
  uint64_t HostRegs[5] = {};
  // The fiber loads its own values and switches back before the host
  // reads its registers, so both sides see the other's values unless the
  // switch saves and restores them.
  fsmc_test_reg_probe(&P.Host, &P.Worker, HostRegs, &Fiber::switchTo,
                      HostSeed);
  expectSeeded(HostRegs, HostSeed);
  fsmc_test_reg_probe(&P.Host, &P.Worker, HostRegs, &Fiber::switchTo,
                      HostSeed + 0x100);
  expectSeeded(HostRegs, HostSeed + 0x100);
  expectSeeded(P.FiberRegs, FiberSeed);
}

namespace {

struct RoundingFiber {
  Fiber Host;
  Fiber Worker;
  int SeenAtStart = -1, SeenAfterHostChange = -1;
  unsigned SseAtStart = 0, SseAfterHostChange = 0;

  static void entry(void *Arg) {
    auto *Self = static_cast<RoundingFiber *>(Arg);
    Self->SeenAtStart = fegetround();
    Self->SseAtStart = _MM_GET_ROUNDING_MODE();
    fesetround(FE_TOWARDZERO); // x87 control word and MXCSR both
    Fiber::switchTo(Self->Worker, Self->Host);
    Self->SeenAfterHostChange = fegetround();
    Self->SseAfterHostChange = _MM_GET_ROUNDING_MODE();
    Fiber::switchTo(Self->Worker, Self->Host);
  }
};

} // namespace

TEST(FiberSwitch, RoundingModeStaysWithItsFiber) {
  const int Saved = fegetround();
  ASSERT_EQ(fesetround(FE_TONEAREST), 0);
  RoundingFiber R;
  R.Host.initAsHost();
  ASSERT_TRUE(R.Worker.initWithEntry(64 * 1024, &RoundingFiber::entry, &R));
  Fiber::switchTo(R.Host, R.Worker);
  // The fiber's toward-zero mode did not leak into the host.
  EXPECT_EQ(fegetround(), FE_TONEAREST);
  EXPECT_EQ(_MM_GET_ROUNDING_MODE(), unsigned(_MM_ROUND_NEAREST));
  // Nor does the host's new mode leak into the fiber.
  fesetround(FE_UPWARD);
  Fiber::switchTo(R.Host, R.Worker);
  EXPECT_EQ(fegetround(), FE_UPWARD);
  EXPECT_EQ(_MM_GET_ROUNDING_MODE(), unsigned(_MM_ROUND_UP));
  fesetround(Saved);
  // A new fiber starts in its creator's mode.
  EXPECT_EQ(R.SeenAtStart, FE_TONEAREST);
  EXPECT_EQ(R.SseAtStart, unsigned(_MM_ROUND_NEAREST));
  EXPECT_EQ(R.SeenAfterHostChange, FE_TOWARDZERO);
  EXPECT_EQ(R.SseAfterHostChange, unsigned(_MM_ROUND_TOWARD_ZERO));
}

namespace {

struct AlignProbe {
  Fiber Host;
  Fiber Worker;
  uintptr_t FrameMod16 = 1, Sse16Mod16 = 1, Avx32Mod32 = 1;
  float Sum = 0;

  __attribute__((noinline)) static void wideLocal(AlignProbe *Self) {
    alignas(32) float Wide[8];
    float *P = Wide;
    // Hide the address from the optimizer, which would otherwise fold the
    // check to the declared alignment.
    asm volatile("" : "+r"(P));
    Self->Avx32Mod32 = uintptr_t(P) % 32;
    for (int I = 0; I < 8; ++I)
      P[I] = float(I);
    Self->Sum += P[7];
  }

  static void entry(void *Arg) {
    auto *Self = static_cast<AlignProbe *>(Arg);
    // With a frame pointer the frame address is rsp at entry less the
    // pushed rbp: 16-aligned exactly when trampoline was entered on an
    // ABI-aligned stack and so called this function on one.
    Self->FrameMod16 = uintptr_t(__builtin_frame_address(0)) % 16;
    alignas(16) float Lanes[4];
    float *P = Lanes;
    asm volatile("" : "+r"(P));
    Self->Sse16Mod16 = uintptr_t(P) % 16;
    // An aligned SSE store faults on a misaligned stack slot.
    _mm_store_ps(P, _mm_set_ps(4, 3, 2, 1));
    Self->Sum = P[0] + P[3];
    wideLocal(Self);
    Fiber::switchTo(Self->Worker, Self->Host);
  }
};

struct ForkResume {
  Fiber Host;
  Fiber Worker;
  int Out = 0;

  static void entry(void *Arg) {
    auto *Self = static_cast<ForkResume *>(Arg);
    // A local of the fiber carries state across the fork: 1 -> 4 in the
    // parent, 4 -> 13 in the child.
    uint64_t Acc = 1;
    for (;;) {
      Acc = Acc * 3 + 1;
      Self->Out = int(Acc);
      Fiber::switchTo(Self->Worker, Self->Host);
    }
  }
};

} // namespace

TEST(FiberSwitch, StackIsAlignedAtFirstActivation) {
  AlignProbe A;
  A.Host.initAsHost();
  ASSERT_TRUE(A.Worker.initWithEntry(64 * 1024, &AlignProbe::entry, &A));
  Fiber::switchTo(A.Host, A.Worker);
  EXPECT_EQ(A.FrameMod16, 0u);
  EXPECT_EQ(A.Sse16Mod16, 0u);
  EXPECT_EQ(A.Avx32Mod32, 0u);
  EXPECT_EQ(A.Sum, 12.0f);
}

TEST(FiberSwitch, ForkedChildResumesAParkedFiber) {
  ForkResume F;
  F.Host.initAsHost();
  ASSERT_TRUE(F.Worker.initWithEntry(64 * 1024, &ForkResume::entry, &F));
  Fiber::switchTo(F.Host, F.Worker); // Parks after its first round.
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    Fiber::switchTo(F.Host, F.Worker);
    _exit(F.Out);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status)) << "child died, status " << Status;
  EXPECT_EQ(WEXITSTATUS(Status), 13);
  EXPECT_EQ(F.Out, 4) << "the child's resume is invisible to the parent";
}

#else // !__x86_64__

TEST(FiberSwitch, CalleeSavedRegistersSurvive) { GTEST_SKIP() << "x86-64"; }
TEST(FiberSwitch, RoundingModeStaysWithItsFiber) { GTEST_SKIP() << "x86-64"; }
TEST(FiberSwitch, StackIsAlignedAtFirstActivation) {
  GTEST_SKIP() << "x86-64";
}
TEST(FiberSwitch, ForkedChildResumesAParkedFiber) {
  GTEST_SKIP() << "x86-64";
}

#endif
