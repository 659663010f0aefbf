//===- runtime/Fiber.cpp --------------------------------------------------===//

#include "runtime/Fiber.h"

#include "runtime/Sanitizer.h"
#include "runtime/StackPool.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <sys/mman.h>
#include <unistd.h>

using namespace fsmc;

#if defined(__x86_64__)
/// fsmc_fiber_switch(SaveSp, LoadSp, To): pushes what the SysV ABI makes
/// callee-saved -- rbp, rbx, r12-r15, the MXCSR and the x87 control word
/// -- stores rsp through SaveSp, loads LoadSp, pops the same set from the
/// stack it names and returns there. Every other register is caller-saved,
/// so the compiler keeps nothing live in it across the call, and no signal
/// mask is touched (glibc swapcontext spends an rt_sigprocmask system call
/// on that). The ret resumes the target inside its own last switch, or on
/// a fresh stack enters Fiber::trampoline (see initWithEntry); To goes into
/// rdi on the way, which is trampoline's argument and dead anywhere else.
/// The fleet forks with live fibers: a saved stack pointer stays valid in
/// the child's copy of the address space.
extern "C" void fsmc_fiber_switch(void **SaveSp, void *LoadSp, Fiber *To);
asm(R"(
  .pushsection .text
  .p2align 4
  .globl fsmc_fiber_switch
  .hidden fsmc_fiber_switch
  .type fsmc_fiber_switch, @function
fsmc_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  movq %rdx, %rdi
  ret
  .size fsmc_fiber_switch, .-fsmc_fiber_switch
  .popsection
)");
#endif

#if FSMC_ASAN
namespace {
/// Stack extent of this OS thread, captured the first time one of its
/// fibers runs (__sanitizer_finish_switch_fiber reports the stack that
/// was switched away from). Fibers that switch back to the controller --
/// whose "stack" is the host OS-thread stack -- announce this extent.
thread_local const void *HostStackBottom = nullptr;
thread_local size_t HostStackSize = 0;
} // namespace
#endif

#if FSMC_TSAN
namespace {
/// TSan's handle for this OS thread's own (root) fiber, captured on the
/// first switch away from it. Switches back to the controller target
/// this handle; it is never destroyed.
thread_local void *HostTsanFiber = nullptr;
} // namespace
#endif

Fiber::~Fiber() { releaseStack(); }

void Fiber::releaseStack() {
  if (!StackBase)
    return;
#if FSMC_TSAN
  if (TsanFiber) {
    __tsan_destroy_fiber(TsanFiber);
    TsanFiber = nullptr;
  }
#endif
  if (Pool) {
    Pool->release(StackBase, MappedBytes);
  } else {
    long Page = sysconf(_SC_PAGESIZE);
    // Shadow poison is not cleared by munmap; scrub it so an unrelated
    // later mapping at the same address starts clean under ASan.
    fsmcAsanUnpoison(StackBase + Page, MappedBytes - size_t(Page));
    munmap(StackBase, MappedBytes);
  }
  StackBase = nullptr;
  MappedBytes = 0;
  Pool = nullptr;
  AsanStackBottom = nullptr;
  AsanStackSize = 0;
}

void Fiber::initAsHost() {
  // Nothing to do: the first switchTo() away from the host saves its
  // context.
  assert(!StackBase && "host fiber must not own a stack");
}

void Fiber::trampoline(Fiber *Self) {
#if FSMC_ASAN
  // First activation of this fiber: complete the switch ASan saw begin in
  // switchTo, and learn the host stack's extent from it (the stack we
  // just left is the OS thread's own).
  __sanitizer_finish_switch_fiber(nullptr, &HostStackBottom, &HostStackSize);
#endif
  Self->Entry(Self->EntryArg);
  // Entry functions must switch away before returning; see Runtime.
  assert(false && "fiber entry returned without switching away");
  std::abort();
}

#if !defined(__x86_64__)
void Fiber::ucontextEntry(unsigned HiHalf, unsigned LoHalf) {
  // makecontext only passes ints; reassemble the Fiber pointer.
  auto Bits = (uint64_t(HiHalf) << 32) | uint64_t(LoHalf);
  trampoline(reinterpret_cast<Fiber *>(uintptr_t(Bits)));
}
#endif

bool Fiber::initWithEntry(size_t StackBytes, EntryFn Entry, void *Arg,
                          StackPool *Pool) {
  long Page = sysconf(_SC_PAGESIZE);
  size_t Usable = (StackBytes + Page - 1) / Page * Page;
  size_t Wanted = Usable + Page; // one guard page below the stack
  if (StackBase && (MappedBytes != Wanted || this->Pool != Pool))
    releaseStack();
  if (StackBase) {
    // Recycling fast path: same mapping, no syscalls. The previous fiber
    // abandoned frames here; clear their stale sanitizer poison.
    fsmcAsanUnpoison(StackBase + Page, Usable);
  } else {
    char *Map;
    if (Pool) {
      Map = Pool->acquire(Wanted);
    } else {
      void *Raw = mmap(nullptr, Wanted, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      Map = Raw == MAP_FAILED ? nullptr : static_cast<char *>(Raw);
      if (Map)
        mprotect(Map, size_t(Page), PROT_NONE);
    }
    if (!Map)
      return false;
    StackBase = Map;
    MappedBytes = Wanted;
    this->Pool = Pool;
  }

#if defined(__x86_64__)
  // The frame the first switch to this fiber pops: the creator's MXCSR
  // and x87 control word (as getcontext would capture them), six zeroed
  // registers -- a null rbp ends frame-pointer walks -- and trampoline as
  // the return address. Above it a null return address ends unwinding at
  // trampoline, and leaves rsp 8 mod 16 at its entry, as after a call.
  auto *Top = reinterpret_cast<uint64_t *>(StackBase + Page + Usable);
  uint32_t Mxcsr;
  uint16_t X87Cw;
  asm volatile("stmxcsr %0" : "=m"(Mxcsr));
  asm volatile("fnstcw %0" : "=m"(X87Cw));
  Top[-1] = 0;
  Top[-2] = uint64_t(uintptr_t(&Fiber::trampoline));
  for (int I = 3; I <= 8; ++I)
    Top[-I] = 0; // rbp, rbx, r12-r15
  Top[-9] = uint64_t(Mxcsr) | uint64_t(X87Cw) << 32;
  Sp = Top - 9;
#else
  getcontext(&Ctx);
  Ctx.uc_stack.ss_sp = StackBase + Page;
  Ctx.uc_stack.ss_size = Usable;
  Ctx.uc_link = nullptr;
  auto Bits = uint64_t(uintptr_t(this));
  makecontext(&Ctx, reinterpret_cast<void (*)()>(&Fiber::ucontextEntry), 2,
              unsigned(Bits >> 32), unsigned(Bits & 0xffffffffu));
#endif
  AsanStackBottom = StackBase + Page;
  AsanStackSize = Usable;
#if FSMC_TSAN
  // A fresh logical fiber, even on a recycled stack: the old handle's
  // synchronization history must not leak into the new fiber.
  if (TsanFiber)
    __tsan_destroy_fiber(TsanFiber);
  TsanFiber = __tsan_create_fiber(0);
#endif

  this->Entry = Entry;
  this->EntryArg = Arg;
  return true;
}

void Fiber::switchTo(Fiber &From, Fiber &To) {
#if FSMC_TSAN
  // Announce the logical-thread switch before the stacks actually swap.
  // Leaving the host for the first time on this OS thread is when its
  // root-fiber handle becomes known.
  if (!From.StackBase && !HostTsanFiber)
    HostTsanFiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(To.StackBase ? To.TsanFiber : HostTsanFiber, 0);
#endif
#if FSMC_ASAN
  // Tell ASan which stack is about to run. A stackless target is the
  // controller, i.e. the host OS-thread stack captured at the first
  // fiber activation on this thread.
  const void *Bottom = To.StackBase ? To.AsanStackBottom : HostStackBottom;
  size_t Size = To.StackBase ? To.AsanStackSize : HostStackSize;
  void *FakeStack = nullptr;
  __sanitizer_start_switch_fiber(&FakeStack, Bottom, Size);
#endif
#if defined(__x86_64__)
  fsmc_fiber_switch(&From.Sp, To.Sp, &To);
#else
  [[maybe_unused]] int RC = swapcontext(&From.Ctx, &To.Ctx);
  assert(RC == 0 && "swapcontext failed");
#endif
#if FSMC_ASAN
  // Control came back to From (possibly much later, from another fiber).
  __sanitizer_finish_switch_fiber(FakeStack, nullptr, nullptr);
#endif
}
