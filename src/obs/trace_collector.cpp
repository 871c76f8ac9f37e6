#include "obs/trace_collector.h"

#include <stdexcept>

#include "common/invariant.h"

namespace dare::obs {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kJobSubmitted: return "job_submitted";
    case EventKind::kMapLaunched: return "map_launched";
    case EventKind::kMapSpeculated: return "map_speculated";
    case EventKind::kMapFinished: return "map_finished";
    case EventKind::kMapKilled: return "map_killed";
    case EventKind::kMapRequeued: return "map_requeued";
    case EventKind::kReduceLaunched: return "reduce_launched";
    case EventKind::kReduceFinished: return "reduce_finished";
    case EventKind::kReduceRequeued: return "reduce_requeued";
    case EventKind::kJobFinished: return "job_finished";
    case EventKind::kJobFailed: return "job_failed";
    case EventKind::kTaskAttemptFault: return "task_attempt_fault";
    case EventKind::kReplicaAdopted: return "replica_adopted";
    case EventKind::kReplicaSkipped: return "replica_skipped";
    case EventKind::kReplicaEvicted: return "replica_evicted";
    case EventKind::kDiskReclaim: return "disk_reclaim";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kNodeFailed: return "node_failed";
    case EventKind::kNodeDeclaredDead: return "node_declared_dead";
    case EventKind::kNodeRejoined: return "node_rejoined";
    case EventKind::kBlockRepaired: return "block_repaired";
    case EventKind::kSchedulerDecision: return "scheduler_decision";
    case EventKind::kDelayWait: return "delay_wait";
    case EventKind::kReplicaCorrupted: return "replica_corrupted";
    case EventKind::kChecksumFailed: return "checksum_failed";
    case EventKind::kReplicaQuarantined: return "replica_quarantined";
    case EventKind::kDataLoss: return "data_loss";
    case EventKind::kNodeDegraded: return "node_degraded";
    case EventKind::kNodeDegradeEnded: return "node_degrade_ended";
    case EventKind::kStragglerDetected: return "straggler_detected";
    case EventKind::kStragglerCleared: return "straggler_cleared";
    case EventKind::kCloneLaunched: return "clone_launched";
    case EventKind::kCloneKilled: return "clone_killed";
    case EventKind::kLinkDegraded: return "link_degraded";
    case EventKind::kPartitionStarted: return "partition_started";
    case EventKind::kPartitionHealed: return "partition_healed";
    case EventKind::kRepairRetried: return "repair_retried";
    case EventKind::kRepairPreempted: return "repair_preempted";
    case EventKind::kKindCount: break;
  }
  return "unknown";
}

const char* skip_reason_name(SkipReason reason) {
  switch (reason) {
    case SkipReason::kCoinFailed: return "coin_failed";
    case SkipReason::kTooLarge: return "too_large";
    case SkipReason::kAlreadyPresent: return "already_present";
    case SkipReason::kNoVictim: return "no_victim";
    case SkipReason::kQuarantined: return "quarantined";
  }
  return "unknown";
}

Track kind_track(EventKind kind) {
  switch (kind) {
    case EventKind::kJobSubmitted:
    case EventKind::kJobFinished:
    case EventKind::kJobFailed:
    case EventKind::kSchedulerDecision:
    case EventKind::kDelayWait:
      return Track::kScheduler;
    case EventKind::kHeartbeat:
    case EventKind::kNodeDeclaredDead:
    case EventKind::kNodeRejoined:
    case EventKind::kBlockRepaired:
    case EventKind::kReplicaQuarantined:
    case EventKind::kDataLoss:
    case EventKind::kStragglerDetected:
    case EventKind::kStragglerCleared:
    // Partition/link episodes and repair-queue decisions are cluster-scope
    // (their node field is kInvalidNode; the rack travels in `detail`), so
    // they live on the NameNode track rather than a per-node row.
    case EventKind::kLinkDegraded:
    case EventKind::kPartitionStarted:
    case EventKind::kPartitionHealed:
    case EventKind::kRepairRetried:
    case EventKind::kRepairPreempted:
      return Track::kNameNode;
    default:
      return Track::kNode;
  }
}

TraceCollector::TraceCollector() : clock_([] { return SimTime{0}; }) {}

TraceCollector::TraceCollector(Clock clock) : clock_(std::move(clock)) {
  if (!clock_) {
    throw std::invalid_argument("TraceCollector: clock callback required");
  }
}

void TraceCollector::set_clock(Clock clock) {
  if (!clock) {
    throw std::invalid_argument("TraceCollector: clock callback required");
  }
  clock_ = std::move(clock);
}

void TraceCollector::record(EventKind kind, NodeId node, JobId job,
                            std::int64_t task, std::int64_t detail,
                            double value) {
#if DARE_INVARIANTS_ENABLED
  // Single-writer contract (see header): tsan only catches a cross-thread
  // collector share when a racy interleaving happens to occur; this pins the
  // owner on first use so the misuse aborts deterministically.
  if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
  DARE_INVARIANT(owner_ == std::this_thread::get_id(),
                 "TraceCollector shared across simulation threads; attach "
                 "one collector per run (or clear() between runs)");
#endif
  events_.push_back(TraceEvent{clock_(), kind, node, job, task, detail,
                               value});
}

void TraceCollector::clear() {
  events_.clear();
  series_.clear();
  owner_ = std::thread::id{};
}

void TraceCollector::job_submitted(JobId job, std::size_t maps,
                                   std::size_t reduces) {
  record(EventKind::kJobSubmitted, kInvalidNode, job, -1,
         static_cast<std::int64_t>(maps), static_cast<double>(reduces));
}

void TraceCollector::map_launched(NodeId node, JobId job,
                                  std::size_t map_index, int locality,
                                  bool speculative) {
  record(speculative ? EventKind::kMapSpeculated : EventKind::kMapLaunched,
         node, job, static_cast<std::int64_t>(map_index), locality);
}

void TraceCollector::map_finished(NodeId node, JobId job,
                                  std::size_t map_index, double duration_s,
                                  bool speculative_won) {
  record(EventKind::kMapFinished, node, job,
         static_cast<std::int64_t>(map_index), speculative_won ? 1 : 0,
         duration_s);
}

void TraceCollector::map_killed(NodeId node, JobId job,
                                std::size_t map_index) {
  record(EventKind::kMapKilled, node, job,
         static_cast<std::int64_t>(map_index));
}

void TraceCollector::map_requeued(NodeId node, JobId job,
                                  std::size_t map_index) {
  record(EventKind::kMapRequeued, node, job,
         static_cast<std::int64_t>(map_index));
}

void TraceCollector::reduce_launched(NodeId node, JobId job,
                                     std::int64_t attempt) {
  record(EventKind::kReduceLaunched, node, job, attempt);
}

void TraceCollector::reduce_finished(NodeId node, JobId job,
                                     std::int64_t attempt,
                                     double duration_s) {
  record(EventKind::kReduceFinished, node, job, attempt, 0, duration_s);
}

void TraceCollector::reduce_requeued(NodeId node, JobId job,
                                     std::int64_t attempt) {
  record(EventKind::kReduceRequeued, node, job, attempt);
}

void TraceCollector::job_finished(JobId job, double turnaround_s) {
  record(EventKind::kJobFinished, kInvalidNode, job, -1, 0, turnaround_s);
}

void TraceCollector::job_failed(JobId job) {
  record(EventKind::kJobFailed, kInvalidNode, job);
}

void TraceCollector::task_attempt_fault(NodeId node, JobId job,
                                        std::int64_t task, bool reduce) {
  record(EventKind::kTaskAttemptFault, node, job, task, reduce ? 1 : 0);
}

void TraceCollector::replica_adopted(NodeId node, BlockId block,
                                     double budget_occupancy) {
  record(EventKind::kReplicaAdopted, node, kInvalidJob, block, 0,
         budget_occupancy);
}

void TraceCollector::replica_skipped(NodeId node, BlockId block,
                                     SkipReason reason,
                                     double budget_occupancy) {
  record(EventKind::kReplicaSkipped, node, kInvalidJob, block,
         static_cast<std::int64_t>(reason), budget_occupancy);
}

void TraceCollector::replica_evicted(NodeId node, BlockId victim,
                                     double access_count,
                                     std::size_t aging_passes) {
  record(EventKind::kReplicaEvicted, node, kInvalidJob, victim,
         static_cast<std::int64_t>(aging_passes), access_count);
}

void TraceCollector::disk_reclaim(NodeId node,
                                  std::size_t replicas_reclaimed) {
  record(EventKind::kDiskReclaim, node, kInvalidJob, -1,
         static_cast<std::int64_t>(replicas_reclaimed));
}

void TraceCollector::heartbeat(NodeId node) {
  record(EventKind::kHeartbeat, node);
}

void TraceCollector::node_failed(NodeId node, int fault_kind,
                                 double downtime_s) {
  record(EventKind::kNodeFailed, node, kInvalidJob, -1, fault_kind,
         downtime_s);
}

void TraceCollector::node_declared_dead(NodeId node) {
  record(EventKind::kNodeDeclaredDead, node);
}

void TraceCollector::node_rejoined(NodeId node, bool full_reregistration) {
  record(EventKind::kNodeRejoined, node, kInvalidJob, -1,
         full_reregistration ? 1 : 0);
}

void TraceCollector::block_repaired(NodeId node, BlockId block) {
  record(EventKind::kBlockRepaired, node, kInvalidJob, block);
}

void TraceCollector::replica_corrupted(NodeId node, BlockId block) {
  record(EventKind::kReplicaCorrupted, node, kInvalidJob, block);
}

void TraceCollector::checksum_failed(NodeId node, BlockId block) {
  record(EventKind::kChecksumFailed, node, kInvalidJob, block);
}

void TraceCollector::replica_quarantined(NodeId node, BlockId block) {
  record(EventKind::kReplicaQuarantined, node, kInvalidJob, block);
}

void TraceCollector::data_loss(BlockId block) {
  record(EventKind::kDataLoss, kInvalidNode, kInvalidJob, block);
}

void TraceCollector::node_degraded(NodeId node, bool rack_correlated,
                                   double compute_slowdown) {
  record(EventKind::kNodeDegraded, node, kInvalidJob, -1,
         rack_correlated ? 1 : 0, compute_slowdown);
}

void TraceCollector::node_degrade_ended(NodeId node) {
  record(EventKind::kNodeDegradeEnded, node);
}

void TraceCollector::straggler_detected(NodeId node, double ewma_ratio) {
  record(EventKind::kStragglerDetected, node, kInvalidJob, -1, 0, ewma_ratio);
}

void TraceCollector::straggler_cleared(NodeId node) {
  record(EventKind::kStragglerCleared, node);
}

void TraceCollector::clone_launched(NodeId node, JobId job,
                                    std::size_t map_index, int locality) {
  record(EventKind::kCloneLaunched, node, job,
         static_cast<std::int64_t>(map_index), locality);
}

void TraceCollector::clone_killed(NodeId node, JobId job,
                                  std::size_t map_index) {
  record(EventKind::kCloneKilled, node, job,
         static_cast<std::int64_t>(map_index));
}

void TraceCollector::link_degraded(RackId rack, double duration_s) {
  record(EventKind::kLinkDegraded, kInvalidNode, kInvalidJob, -1,
         static_cast<std::int64_t>(rack), duration_s);
}

void TraceCollector::partition_started(RackId rack, double duration_s) {
  record(EventKind::kPartitionStarted, kInvalidNode, kInvalidJob, -1,
         static_cast<std::int64_t>(rack), duration_s);
}

void TraceCollector::partition_healed(RackId rack) {
  record(EventKind::kPartitionHealed, kInvalidNode, kInvalidJob, -1,
         static_cast<std::int64_t>(rack));
}

void TraceCollector::repair_retried(BlockId block, std::size_t retries) {
  record(EventKind::kRepairRetried, kInvalidNode, kInvalidJob, block,
         static_cast<std::int64_t>(retries));
}

void TraceCollector::repair_preempted(BlockId block) {
  record(EventKind::kRepairPreempted, kInvalidNode, kInvalidJob, block);
}

void TraceCollector::scheduler_decision(NodeId node, JobId job, int locality,
                                        double waited_s) {
  record(EventKind::kSchedulerDecision, node, job, -1, locality, waited_s);
}

void TraceCollector::delay_wait(NodeId node, JobId job) {
  record(EventKind::kDelayWait, node, job);
}

}  // namespace dare::obs
