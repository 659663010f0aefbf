//===- runtime/Fiber.h - Cooperative execution contexts --------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// User-space execution contexts (fibers). On x86-64 a switch is a short
/// hand-written routine that saves the callee-saved registers on the
/// current stack and swaps stack pointers, with no system call; other
/// architectures fall back to POSIX ucontext.
///
/// CHESS intercepts Win32/.NET synchronization calls made by real OS
/// threads and serializes them with semaphores. This repository substitutes
/// a cooperative fiber runtime: every test thread is a fiber owned by a
/// single OS thread, and the controller switches to exactly one fiber at a
/// time. The substitution preserves what the checker needs -- complete
/// control over scheduling, deterministic replay, and the enabled/yield
/// predicates -- while removing OS-scheduler noise entirely.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_RUNTIME_FIBER_H
#define FSMC_RUNTIME_FIBER_H

#include <cstddef>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace fsmc {

class StackPool;

/// A single execution context with its own stack.
///
/// Two kinds of fibers exist: the controller fiber, which wraps the host
/// context and owns no stack (\ref initAsHost), and test-thread fibers with
/// a guard-paged stack (\ref initWithEntry) -- mapped directly, or acquired
/// from a StackPool so re-initialization across executions reuses the same
/// mapping instead of paying mmap/munmap per execution. Switching is
/// always symmetric via \ref switchTo.
class Fiber {
public:
  using EntryFn = void (*)(void *Arg);

  Fiber() = default;
  ~Fiber();

  Fiber(const Fiber &) = delete;
  Fiber &operator=(const Fiber &) = delete;

  /// Marks this fiber as the host (controller) context. No stack is
  /// allocated; the context is filled in by the first switch away from it.
  void initAsHost();

  /// Arranges for \p Entry(\p Arg) to run when this fiber is first
  /// switched to, on a stack with an inaccessible guard page below it so
  /// overflow faults instead of corrupting a neighbour.
  ///
  /// May be called again on an already-initialized fiber: when the
  /// existing mapping fits \p StackBytes it is reused in place with no
  /// syscalls (the recycling fast path); otherwise the old stack is
  /// returned and a new one acquired. \p Pool, when non-null, supplies
  /// and takes back mappings; it must outlive the fiber.
  ///
  /// \returns false if stack allocation failed.
  bool initWithEntry(size_t StackBytes, EntryFn Entry, void *Arg,
                     StackPool *Pool = nullptr);

  /// Returns this fiber's stack to its pool (or unmaps it) now, leaving
  /// the fiber uninitialized. The destructor does this implicitly.
  void releaseStack();

  /// Saves the current context into \p From and resumes \p To. When some
  /// other fiber later switches back to \p From, this call returns.
  static void switchTo(Fiber &From, Fiber &To);

  bool hasStack() const { return StackBase != nullptr; }

  /// Default stack size for test threads. Workload threads are ordinary
  /// C++ with shallow call chains; 256 KiB is generous.
  static constexpr size_t DefaultStackBytes = 256 * 1024;

private:
  /// First code a new fiber runs; \p Self is the fiber being started.
  [[noreturn]] static void trampoline(Fiber *Self);

#if defined(__x86_64__)
  /// Stack pointer saved by the last switch away from this fiber (or laid
  /// out by initWithEntry); its stack holds the saved registers.
  void *Sp = nullptr;
#else
  static void ucontextEntry(unsigned HiHalf, unsigned LoHalf);
  ucontext_t Ctx = {};
#endif
  char *StackBase = nullptr; ///< mmap base (guard page + usable stack).
  size_t MappedBytes = 0;
  StackPool *Pool = nullptr; ///< Where StackBase goes back on release.
  EntryFn Entry = nullptr;
  void *EntryArg = nullptr;
  /// ASan switch annotations need the target's stack extent; kept
  /// unconditionally (two words) so the layout is sanitizer-independent.
  /// Null bottom means "the host OS-thread stack" (resolved lazily).
  const void *AsanStackBottom = nullptr;
  size_t AsanStackSize = 0;
  /// ThreadSanitizer's handle for this fiber-as-logical-thread; created
  /// per initWithEntry (a recycled stack hosts a *new* logical fiber, so
  /// it gets a fresh handle) and destroyed with the stack. Null in
  /// non-TSan builds and for the host fiber (whose handle lives in a
  /// thread_local; destroying a thread's root fiber is forbidden).
  void *TsanFiber = nullptr;
};

} // namespace fsmc

#endif // FSMC_RUNTIME_FIBER_H
