#include "sched/fifo_scheduler.h"

#include "obs/trace_collector.h"

namespace dare::sched {

std::optional<MapSelection> FifoScheduler::select_map(
    NodeId node, SimTime /*now*/, JobTable& jobs,
    const BlockLocator& locator) {
  // FIFO never declines: the oldest job with pending maps always launches.
  const JobRuntime* head = nullptr;
  if (jobs.has_locality_index()) {
    // The ready set is keyed by arrival_seq, so its first element is that
    // job. Walking past the reduce-phase prefix made the scan below
    // O(active jobs) per opportunity — the dominant cost of large FIFO runs.
    const auto& ready = jobs.map_ready();
    if (!ready.empty()) head = ready.begin()->second;
  } else {
    // Legacy path (A/B baseline, fake locators in tests): full scan.
    for (const JobRuntime& rt : jobs.active_jobs()) {
      if (!rt.pending_maps.empty()) {
        head = &rt;
        break;
      }
    }
  }
  if (head == nullptr) return std::nullopt;
  // Hadoop's tiered preference within the head job: node-local, then
  // rack-local, then any — but never wait.
  const JobId id = head->spec.id;
  MapSelection pick{id, 0, Locality::kOffRack};
  if (const auto local = jobs.find_local_map(*head, node, locator)) {
    pick = MapSelection{id, *local, Locality::kNodeLocal};
  } else if (const auto rack =
                 jobs.find_rack_local_map(*head, node, locator)) {
    pick = MapSelection{id, *rack, Locality::kRackLocal};
  }
  if (tracer_ != nullptr) {
    tracer_->scheduler_decision(node, id, static_cast<int>(pick.locality),
                                0.0);
  }
  return pick;
}

std::optional<JobId> FifoScheduler::select_reduce(JobTable& jobs) {
  if (jobs.has_locality_index()) {
    // The ready set is keyed by arrival_seq, so its first element is the
    // oldest job with launchable reduces — what the scan below returns.
    const auto& ready = jobs.reduce_ready();
    if (ready.empty()) return std::nullopt;
    return ready.begin()->second->spec.id;
  }
  for (const JobRuntime& rt : jobs.active_jobs()) {
    if (rt.maps_done() && rt.pending_reduces > 0) return rt.spec.id;
  }
  return std::nullopt;
}

}  // namespace dare::sched
