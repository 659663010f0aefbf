//===- runtime/Sanitizer.h - Sanitizer build detection ---------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FSMC_ASAN: 1 when compiling under AddressSanitizer (the `asan` CMake
/// preset), 0 otherwise. The fiber runtime swaps stacks underneath the
/// compiler, which ASan can only follow if it is told about every switch
/// (__sanitizer_start/finish_switch_fiber) and if recycled stack memory
/// is unpoisoned before reuse. All of that instrumentation compiles to
/// nothing in non-sanitizer builds.
///
/// FSMC_TSAN: 1 when compiling under ThreadSanitizer (the `tsan` CMake
/// preset), 0 otherwise. TSan models each fiber as its own logical
/// thread: every fiber gets a __tsan_create_fiber handle, every stack
/// switch is announced with __tsan_switch_to_fiber, and recycled
/// stacks get a fresh handle so two logical fibers never share TSan
/// state. Without this, TSan sees one OS thread whose stack pointer
/// teleports and reports garbage. This is what lets the checker's own
/// concurrency -- the parallel engine -- run under the
/// same sanitizer treatment it gives workloads (ctest preset tsan-par).
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_RUNTIME_SANITIZER_H
#define FSMC_RUNTIME_SANITIZER_H

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define FSMC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FSMC_ASAN 1
#endif
#endif
#ifndef FSMC_ASAN
#define FSMC_ASAN 0
#endif

#if FSMC_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define FSMC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FSMC_TSAN 1
#endif
#endif
#ifndef FSMC_TSAN
#define FSMC_TSAN 0
#endif

#if FSMC_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace fsmc {

/// Clears ASan shadow poison over [\p Addr, \p Addr + \p Bytes); no-op in
/// regular builds. A fiber that parked or exited leaves poisoned redzones
/// from its abandoned frames on its stack, so the memory must be
/// unpoisoned before a new fiber runs on it.
inline void fsmcAsanUnpoison(void *Addr, size_t Bytes) {
#if FSMC_ASAN
  __asan_unpoison_memory_region(Addr, Bytes);
#else
  (void)Addr;
  (void)Bytes;
#endif
}

} // namespace fsmc

#endif // FSMC_RUNTIME_SANITIZER_H
