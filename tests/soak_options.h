// Shared soak configurations: the small churn workload and the layered
// fault option sets the chaos soak runs (churn, + silent corruption,
// + stragglers with the full mitigation stack). Also used by tests that
// replay one soak case traced.
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

}  // namespace dare::cluster
