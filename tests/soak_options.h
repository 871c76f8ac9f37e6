// Shared soak configurations: the small churn workload and the layered
// fault option sets the chaos soak runs (churn, + silent corruption,
// + stragglers with the full mitigation stack), and the hedged-churn set
// the determinism digests pin. Also used by tests that replay one case
// traced.
#pragma once

#include <cstdint>

#include "cluster/experiment.h"
#include "net/profile.h"
#include "workload/workload.h"

namespace dare::cluster {

inline workload::Workload soak_workload(std::uint64_t seed) {
  workload::WorkloadOptions opts;
  opts.num_jobs = 50;
  opts.seed = seed;
  opts.catalog.small_files = 16;
  opts.catalog.large_files = 2;
  opts.catalog.large_min_blocks = 5;
  opts.catalog.large_max_blocks = 8;
  return workload::make_wl1(opts);
}

inline ClusterOptions soak_options(SchedulerKind scheduler, PolicyKind policy,
                                   std::uint64_t seed) {
  // ec2_profile: multi-rack, so rack-correlated failures actually take
  // whole racks down.
  auto opts = paper_defaults(net::ec2_profile(10), scheduler, policy, seed);
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 60.0;
  opts.faults.mttr_s = 20.0;
  opts.faults.permanent_fraction = 0.25;
  opts.faults.rack_correlation = 0.3;
  opts.faults.task_failure_prob = 0.01;
  opts.faults.min_live_workers = 4;
  opts.rereplication_interval = from_seconds(2.0);
  opts.rereplication_batch = 32;
  return opts;
}

inline ClusterOptions corruption_soak_options(SchedulerKind scheduler,
                                              PolicyKind policy,
                                              std::uint64_t seed) {
  auto opts = soak_options(scheduler, policy, seed);
  opts.corruption.enabled = true;
  opts.corruption.bitrot_per_gb = 1.0;
  opts.corruption.sector_mtbf_s = 45.0;
  return opts;
}

inline ClusterOptions straggler_soak_options(SchedulerKind scheduler,
                                             PolicyKind policy,
                                             std::uint64_t seed) {
  auto opts = corruption_soak_options(scheduler, policy, seed);
  opts.stragglers.enabled = true;
  opts.stragglers.degrade_mtbf_s = 50.0;
  opts.stragglers.degrade_duration_s = 25.0;
  opts.stragglers.compute_slowdown = 4.0;
  opts.stragglers.disk_slowdown = 2.5;
  opts.stragglers.rack_correlation = 0.3;
  opts.stragglers.tail_prob = 0.1;
  opts.stragglers.tail_alpha = 1.2;
  opts.stragglers.tail_cap = 8.0;
  opts.enable_straggler_detection = true;
  opts.straggler_detect_min_samples = 2;
  opts.straggler_backoff = from_seconds(15.0);
  opts.enable_task_cloning = true;
  opts.clone_budget_fraction = 0.15;
  opts.enable_speculation = true;
  return opts;
}

/// Every way a task attempt can end, in one 10-node wl1 run of 60 jobs:
/// churn (node-loss sweeps, zombies), injected attempt faults that exhaust
/// a tight retry budget (job failure), and both hedges (budgeted clones and
/// speculative backups) racing their originals.
inline ClusterOptions hedged_churn_options() {
  auto options = paper_defaults(net::cct_profile(10), SchedulerKind::kFair,
                                PolicyKind::kElephantTrap);
  options.faults.enabled = true;
  options.faults.mtbf_s = 80.0;
  options.faults.mttr_s = 20.0;
  options.faults.permanent_fraction = 0.2;
  options.faults.task_failure_prob = 0.2;
  options.faults.min_live_workers = 4;
  options.max_task_attempts = 2;
  options.rereplication_interval = from_seconds(2.0);
  options.stragglers.enabled = true;
  options.stragglers.degrade_mtbf_s = 60.0;
  options.stragglers.degrade_duration_s = 30.0;
  options.stragglers.tail_prob = 0.1;
  options.stragglers.tail_cap = 8.0;
  options.enable_straggler_detection = true;
  options.straggler_detect_min_samples = 2;
  options.enable_task_cloning = true;
  options.clone_budget_fraction = 0.15;
  options.enable_speculation = true;
  return options;
}

}  // namespace dare::cluster
