#include "layers.h"

namespace perfbench {

using dare::obs::EventKind;
using dare::obs::Phase;

const char* kind_layer(EventKind kind) {
  switch (kind) {
    case EventKind::kJobSubmitted:
    case EventKind::kMapLaunched:
    case EventKind::kMapSpeculated:
    case EventKind::kMapFinished:
    case EventKind::kMapKilled:
    case EventKind::kMapRequeued:
    case EventKind::kReduceLaunched:
    case EventKind::kReduceFinished:
    case EventKind::kReduceRequeued:
    case EventKind::kJobFinished:
    case EventKind::kJobFailed:
    case EventKind::kTaskAttemptFault:
    case EventKind::kBlockRepaired:
    case EventKind::kStragglerDetected:
    case EventKind::kStragglerCleared:
    case EventKind::kCloneLaunched:
    case EventKind::kCloneKilled:
    case EventKind::kRepairRetried:
    case EventKind::kRepairPreempted:
      return "cluster";
    case EventKind::kReplicaAdopted:
    case EventKind::kReplicaSkipped:
    case EventKind::kReplicaEvicted:
      return "core";
    case EventKind::kDiskReclaim:
    case EventKind::kHeartbeat:
    case EventKind::kNodeDeclaredDead:
    case EventKind::kNodeRejoined:
    case EventKind::kReplicaQuarantined:
    case EventKind::kDataLoss:
      return "storage";
    case EventKind::kSchedulerDecision:
    case EventKind::kDelayWait:
      return "sched";
    case EventKind::kNodeFailed:
    case EventKind::kReplicaCorrupted:
    case EventKind::kChecksumFailed:
    case EventKind::kNodeDegraded:
    case EventKind::kNodeDegradeEnded:
    case EventKind::kLinkDegraded:
    case EventKind::kPartitionStarted:
    case EventKind::kPartitionHealed:
      return "faults";
    case EventKind::kKindCount:
      break;
  }
  return "unknown";
}

KindCounts::KindCounts(const dare::obs::TraceCollector& trace) {
  for (const auto& event : trace.events()) {
    const auto k = static_cast<std::size_t>(event.kind);
    if (k < counts_.size()) ++counts_[k];
  }
}

std::uint64_t KindCounts::layer_total(const std::string& layer) const {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (layer == kind_layer(static_cast<EventKind>(k))) total += counts_[k];
  }
  return total;
}

std::uint64_t KindCounts::total() const {
  std::uint64_t total = 0;
  for (const auto n : counts_) total += n;
  return total;
}

Metric count_metric(const std::string& name, double value,
                    const std::string& unit) {
  return Metric{name, unit, value, std::nullopt};
}

Metric ratio_metric(const std::string& name, double num, double den) {
  const Ratio r{num, den};
  return Metric{name, "ratio", r.value(), r};
}

std::vector<Metric> trace_metrics(const KindCounts& c) {
  const auto n = [&c](EventKind kind) {
    return static_cast<double>(c[kind]);
  };
  const double decisions = n(EventKind::kSchedulerDecision);
  const double delay_waits = n(EventKind::kDelayWait);
  const double adopted = n(EventKind::kReplicaAdopted);
  const double skipped = n(EventKind::kReplicaSkipped);
  // Every map attempt launched: regular and speculative (clones are their
  // own kind and are not map attempts of the task's ledger).
  const double launched =
      n(EventKind::kMapLaunched) + n(EventKind::kMapSpeculated);
  const double killed = n(EventKind::kMapKilled);
  const double requeued = n(EventKind::kMapRequeued);
  return {
      count_metric("storage.heartbeats", n(EventKind::kHeartbeat)),
      count_metric("storage.disk_reclaims", n(EventKind::kDiskReclaim)),
      count_metric("sched.decisions", decisions),
      count_metric("sched.delay_waits", delay_waits),
      ratio_metric("sched.delay_wait_ratio", delay_waits, decisions),
      count_metric("core.adopted", adopted),
      count_metric("core.skipped", skipped),
      count_metric("core.evicted", n(EventKind::kReplicaEvicted)),
      ratio_metric("core.adopt_ratio", adopted, adopted + skipped),
      count_metric("cluster.maps_launched", launched),
      count_metric("cluster.maps_killed", killed),
      count_metric("cluster.maps_requeued", requeued),
      ratio_metric("cluster.wasted_attempt_ratio", killed + requeued,
                   launched),
      count_metric("cluster.repairs_landed", n(EventKind::kBlockRepaired)),
      count_metric("cluster.repair_retries", n(EventKind::kRepairRetried)),
      count_metric("cluster.repair_preemptions",
                   n(EventKind::kRepairPreempted)),
      count_metric("faults.node_failures", n(EventKind::kNodeFailed)),
      count_metric("faults.partitions", n(EventKind::kPartitionStarted)),
      count_metric("faults.link_episodes", n(EventKind::kLinkDegraded)),
      count_metric("faults.corrupt_reads", n(EventKind::kChecksumFailed)),
      count_metric("faults.degraded_onsets", n(EventKind::kNodeDegraded)),
      count_metric("obs.trace_events", static_cast<double>(c.total())),
  };
}

std::vector<Metric> phase_metrics(const dare::obs::PhaseProfiler& p) {
  const auto ns = [&p](Phase phase) {
    return static_cast<double>(p.total_ns(phase));
  };
  const auto calls = [&p](Phase phase) {
    return static_cast<double>(p.calls(phase));
  };
  // Mean CPU per call in `scale` ns; a phase never entered has no mean.
  const auto per_call = [&](const std::string& name, const std::string& unit,
                            Phase phase, double scale) {
    const Ratio r{ns(phase) / scale, calls(phase)};
    return Metric{name, unit, r.value(), std::nullopt};
  };
  // Phases nest: the policy's kReplication scopes run inside the
  // kSchedule sweep that launches the map, so they are left out of the
  // sum. Sweeps started by a kChurn handler (node death, recovery, heal)
  // are still counted in both, so this share is a lower bound.
  const double loop = ns(Phase::kEventLoop);
  const double attributed = ns(Phase::kSchedule) + ns(Phase::kHeartbeat) +
                            ns(Phase::kChurn) + ns(Phase::kSampling);
  return {
      per_call("storage.heartbeat_ns", "ns", Phase::kHeartbeat, 1.0),
      count_metric("sched.sweeps", calls(Phase::kSchedule)),
      per_call("sched.sweep_us", "us", Phase::kSchedule, 1e3),
      count_metric("faults.churn_calls", calls(Phase::kChurn)),
      per_call("faults.churn_us", "us", Phase::kChurn, 1e3),
      count_metric("obs.sampling_ms", ns(Phase::kSampling) / 1e6, "ms"),
      ratio_metric("cluster.unattributed_frac", loop - attributed, loop),
  };
}

}  // namespace perfbench
