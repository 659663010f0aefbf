//===- core/WorkLease.cpp -------------------------------------------------===//

#include "core/WorkLease.h"

#include <algorithm>
#include <cassert>

using namespace fsmc;

uint64_t LeaseTable::add(std::vector<ScheduleChoice> Prefix, size_t FrozenLen,
                         bool Front) {
  uint64_t Id = NextId++;
  Entry E;
  E.U.Id = Id;
  E.U.Prefix = std::move(Prefix);
  E.U.FrozenLen = FrozenLen;
  Entries.emplace(Id, std::move(E));
  if (Front)
    Queue.push_front(Id);
  else
    Queue.push_back(Id);
  return Id;
}

const WorkUnit *LeaseTable::lease(int Owner, double Now, double Deadline) {
  // Oldest-first, but skip units still under backoff: a poison unit must
  // not block the healthy tail of the queue behind its cool-down.
  for (auto It = Queue.begin(); It != Queue.end(); ++It) {
    Entry &E = entry(*It);
    if (E.NotBefore > Now)
      continue;
    E.St = LeaseState::Leased;
    E.Owner = Owner;
    E.Deadline = Deadline;
    ++NumLeased;
    Queue.erase(It);
    return &E.U;
  }
  return nullptr;
}

void LeaseTable::commit(uint64_t Id) {
  Entry &E = entry(Id);
  assert(E.St == LeaseState::Leased && "commit of a unit not leased");
  E.St = LeaseState::Committed;
  E.Owner = -1;
  --NumLeased;
}

LeaseTable::FailOutcome LeaseTable::fail(uint64_t Id, double Now) {
  Entry &E = entry(Id);
  assert(E.St == LeaseState::Leased && "fail of a unit not leased");
  E.Owner = -1;
  --NumLeased;
  ++E.Attempts;
  if (E.Attempts >= Cfg.QuarantineAfter) {
    E.St = LeaseState::Quarantined;
    ++NumQuarantined;
    return FailOutcome::Quarantined;
  }
  double Backoff = Cfg.BackoffBaseSeconds;
  for (int I = 1; I < E.Attempts && Backoff < Cfg.BackoffCapSeconds; ++I)
    Backoff *= 2;
  E.NotBefore = Now + std::min(Backoff, Cfg.BackoffCapSeconds);
  E.St = LeaseState::Queued;
  Queue.push_back(Id);
  return FailOutcome::Requeued;
}

void LeaseTable::release(uint64_t Id) {
  Entry &E = entry(Id);
  assert(E.St == LeaseState::Leased && "release of a unit not leased");
  E.Owner = -1;
  --NumLeased;
  E.St = LeaseState::Queued;
  E.NotBefore = 0;
  // Front of the queue: a drained unit was already being worked on, so it
  // resumes first when issuing restarts.
  Queue.push_front(Id);
}

void LeaseTable::quarantine(uint64_t Id) {
  Entry &E = entry(Id);
  if (E.St == LeaseState::Queued)
    Queue.erase(std::find(Queue.begin(), Queue.end(), Id));
  else if (E.St == LeaseState::Leased)
    --NumLeased;
  else
    return; // Already retired.
  E.Owner = -1;
  E.St = LeaseState::Quarantined;
  ++NumQuarantined;
}

void LeaseTable::renew(uint64_t Id, double Deadline) {
  Entry &E = entry(Id);
  if (E.St == LeaseState::Leased)
    E.Deadline = Deadline;
}

std::vector<uint64_t> LeaseTable::expiredLeases(double Now) const {
  std::vector<uint64_t> Out;
  for (const auto &[Id, E] : Entries)
    if (E.St == LeaseState::Leased && E.Deadline > 0 && E.Deadline <= Now)
      Out.push_back(Id);
  std::sort(Out.begin(), Out.end());
  return Out;
}

double LeaseTable::nextReadyAt(double Fallback) const {
  double Earliest = Fallback;
  for (uint64_t Id : Queue) {
    const Entry &E = entry(Id);
    if (E.NotBefore > 0 && E.NotBefore < Earliest)
      Earliest = E.NotBefore;
  }
  return Earliest;
}

uint64_t LeaseTable::leasedBy(int Owner) const {
  for (const auto &[Id, E] : Entries)
    if (E.St == LeaseState::Leased && E.Owner == Owner)
      return Id;
  return 0;
}

std::vector<const WorkUnit *> LeaseTable::pendingUnits() const {
  std::vector<const WorkUnit *> Out;
  for (const auto &[Id, E] : Entries)
    if (E.St == LeaseState::Queued || E.St == LeaseState::Leased)
      Out.push_back(&E.U);
  std::sort(Out.begin(), Out.end(),
            [](const WorkUnit *A, const WorkUnit *B) { return A->Id < B->Id; });
  return Out;
}
