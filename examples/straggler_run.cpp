// Straggler demo: the same workload on a quiet cluster, on one with
// degraded-mode nodes and heavy-tailed task inflation, and then with each
// mitigation armed in turn — speculation, budgeted task cloning, and
// cloning plus progress-rate straggler detection (which also sidelines
// detected-slow nodes from launches and read/repair source selection).
//
// Usage: straggler_run [jobs=N] [nodes=N]
//                      [plus cluster overrides: stragglers=, tail_prob=,
//                       cloning=, clone_budget=, detect_stragglers=, ...]
#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "cluster/experiment.h"
#include "common/config.h"
#include "common/table.h"

namespace {

constexpr const char kUsage[] =
    "usage: straggler_run [jobs=N] [nodes=N]\n"
    "                     [plus cluster overrides: stragglers=,\n"
    "                      degrade_mtbf_s=, degrade_duration_s=,\n"
    "                      compute_slowdown=, disk_slowdown=, tail_prob=,\n"
    "                      tail_alpha=, tail_cap=, cloning=, clone_budget=,\n"
    "                      detect_stragglers=, detect_ratio=, backoff_s=,\n"
    "                      policy=, scheduler=, seed=, ...]\n"
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

  // Default straggler climate; every knob is overridable from the CLI.
  auto base = cluster::paper_defaults(net::ec2_profile(nodes),
                                      cluster::SchedulerKind::kFair,
                                      cluster::PolicyKind::kElephantTrap);
  base.stragglers.enabled = true;
  base.stragglers.degrade_mtbf_s = 180.0;
  base.stragglers.degrade_duration_s = 45.0;
  base.stragglers.compute_slowdown = 4.0;
  base.stragglers.disk_slowdown = 2.5;
  base.stragglers.rack_correlation = 0.2;
  base.stragglers.tail_prob = 0.1;
  base.stragglers.tail_alpha = 1.2;
  base.stragglers.tail_cap = 10.0;
  base.clone_budget_fraction = 0.15;
  base.straggler_detect_min_samples = 2;
  base = cluster::apply_overrides(base, cfg);

  struct Variant {
    const char* name;
    bool stragglers;
    bool speculation;
    bool cloning;
    bool detection;
  };
  const Variant variants[] = {
      {"quiet cluster", false, false, false, false},
      {"stragglers, no mitigation", true, false, false, false},
      {"stragglers + speculation", true, true, false, false},
      {"stragglers + cloning", true, false, true, false},
      {"stragglers + cloning + detection", true, false, true, true},
  };

  AsciiTable table({"configuration", "GMTT (s)", "locality", "degrades",
                    "inflated", "detected", "clones", "clone wins",
                    "wasted (s)", "spec launched", "failed jobs"});
  for (const auto& v : variants) {
    auto options = base;
    options.stragglers.enabled = v.stragglers;
    options.enable_speculation = v.speculation;
    options.enable_task_cloning = v.cloning;
    options.enable_straggler_detection = v.detection;
    const auto result = cluster::run_once(options, wl);
    table.add_row({v.name, fmt_fixed(result.gmtt_s, 2),
                   fmt_percent(result.locality),
                   std::to_string(result.degraded_onsets),
                   std::to_string(result.tail_inflations),
                   std::to_string(result.stragglers_detected),
                   std::to_string(result.clones_launched),
                   std::to_string(result.clone_wins),
                   fmt_fixed(result.clone_wasted_work_s, 1),
                   std::to_string(result.speculative_launched),
                   std::to_string(result.failed_jobs)});
  }
  table.print(
      std::cout,
      "Straggler demo — " + std::to_string(nodes) + "-node cluster, " +
          std::string(cluster::policy_name(base.policy)) +
          " policy, degrade MTBF " +
          std::to_string(static_cast<int>(base.stragglers.degrade_mtbf_s)) +
          " s, tail P(inflate) " +
          fmt_fixed(base.stragglers.tail_prob, 2));
  std::cout
      << "\nDegraded nodes run compute and disk slower for a while; a "
         "fraction of tasks draw a\nheavy-tailed (bounded-Pareto) service "
         "inflation. Speculation reacts to observed\nstraggling; cloning "
         "hedges launches up front inside a slot budget (first finisher\n"
         "wins, the loser is killed); detection sidelines persistently slow "
         "nodes from new\nlaunches and read/repair sources until a backoff "
         "expires.\n";
  return 0;
}

}  // namespace
