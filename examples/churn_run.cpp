// Churn demo: the same workload on a quiet cluster and on one where nodes
// continuously fail and rejoin. Shows heartbeat-timeout detection, rejoin
// reconciliation (stale replicas pruned when repair won the race), task
// retry limits, and that every job is still terminally accounted.
//
// Usage: churn_run [jobs=N] [nodes=N] [mtbf_s=S] [mttr_s=S]
//                  [plus cluster overrides: policy=, scheduler=, seed=, ...]
#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/table.h"

namespace {

constexpr const char kUsage[] =
    "usage: churn_run [jobs=N] [nodes=N] [mtbf_s=S] [mttr_s=S]\n"
    "                 [plus cluster overrides: policy=, scheduler=, seed=,\n"
    "                  corruption=, bitrot_per_gb=, sector_mtbf_s=, ...]\n"
    "Arguments are key=value tokens; anything else is rejected.\n";

/// Everything after the argument check. Invalid options throw
/// std::invalid_argument (from Config, apply_overrides or the Cluster
/// constructor); main reports them as a usage error.
int run(const dare::Config& cfg);

}  // namespace

int main(int argc, char** argv) {
  using namespace dare;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> positional;
  const Config cfg = Config::from_args(args, &positional);

  // A typo'd knob must fail loudly, not silently run the default config.
  const std::vector<std::string> local_keys = {"jobs", "nodes"};
  std::vector<std::string> unknown = positional;
  for (const auto& key : cfg.keys()) {
    const auto& shared = cluster::override_keys();
    if (std::find(shared.begin(), shared.end(), key) != shared.end()) continue;
    if (std::find(local_keys.begin(), local_keys.end(), key) !=
        local_keys.end()) {
      continue;
    }
    unknown.push_back(key + "=...");
  }
  if (!unknown.empty()) {
    std::cerr << "error: unrecognized argument(s):";
    for (const auto& u : unknown) std::cerr << ' ' << u;
    std::cerr << '\n' << kUsage;
    return 1;
  }

  try {
    return run(cfg);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n' << kUsage;
    return 1;
  }
}

namespace {

int run(const dare::Config& cfg) {
  using namespace dare;
  const auto nodes = static_cast<std::size_t>(cfg.get_int("nodes", 20));
  const auto jobs = static_cast<std::size_t>(cfg.get_int("jobs", 300));

  const auto wl = cluster::standard_wl1(nodes, jobs);

  auto base = cluster::apply_overrides(
      cluster::paper_defaults(net::ec2_profile(nodes),
                              cluster::SchedulerKind::kFair,
                              cluster::PolicyKind::kElephantTrap),
      cfg);
  base.faults.mtbf_s = cfg.get_double("mtbf_s", 120.0);
  base.faults.mttr_s = cfg.get_double("mttr_s", 30.0);
  base.faults.permanent_fraction = 0.2;
  base.faults.rack_correlation = 0.2;
  base.faults.task_failure_prob = 0.005;
  base.faults.min_live_workers = 4;
  base.rereplication_interval = from_seconds(2.0);

  AsciiTable table({"configuration", "locality", "GMTT (s)", "failures",
                    "detected", "mean detect (s)", "rejoins", "re-executed",
                    "repaired", "pruned", "corrupt reads", "data loss",
                    "unavail (s)", "failed jobs"});
  for (const bool with_churn : {false, true}) {
    auto options = base;
    options.faults.enabled = with_churn;
    const auto result = cluster::run_once(options, wl);
    table.add_row({with_churn ? "stochastic churn" : "quiet cluster",
                   fmt_percent(result.locality), fmt_fixed(result.gmtt_s, 2),
                   std::to_string(result.node_failures),
                   std::to_string(result.failures_detected),
                   fmt_fixed(result.mean_detection_latency_s, 2),
                   std::to_string(result.node_rejoins),
                   std::to_string(result.task_reexecutions),
                   std::to_string(result.rereplicated_blocks),
                   std::to_string(result.overreplication_prunes),
                   std::to_string(result.corrupt_reads),
                   std::to_string(result.data_loss_events),
                   fmt_fixed(result.unavailability_total_s, 1),
                   std::to_string(result.failed_jobs)});
  }
  table.print(std::cout,
              "Churn demo — " + std::to_string(nodes) + "-node cluster, " +
                  std::string(cluster::policy_name(base.policy)) +
                  " policy, MTBF " +
                  std::to_string(static_cast<int>(base.faults.mtbf_s)) +
                  " s / MTTR " +
                  std::to_string(static_cast<int>(base.faults.mttr_s)) + " s");
  std::cout << "\nThe name node only learns of a death after 3 missed "
               "heartbeats (9 s), re-replicates the\ndead node's blocks, and "
               "when the node rejoins it reconciles: surplus stale replicas "
               "are\npruned, the replication policies rebuild from the "
               "surviving disk, and interrupted tasks\nretry elsewhere (up "
               "to 4 attempts before the job fails cleanly).\n";
  return 0;
}

}  // namespace
