// End-to-end equivalence oracle for the locality-indexed scheduler path.
//
// use_locality_index toggles three hot-path replacements at once (inverted
// locality index, incremental fair-share ordering, cached inverse weights).
// All of them are claimed to be *bit-identical* rewrites of the legacy
// scan/sort code, so for any configuration the two modes must produce the
// same metrics::fingerprint — including under chaos-level node churn, where
// the index has to absorb death sweeps, rejoin reconciliation, and replica
// evictions without drifting from the name node.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "common/invariant.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"

namespace dare::cluster {
namespace {

[[noreturn]] void throwing_handler(const InvariantViolation& v) {
  throw std::logic_error("invariant violated: " + v.message);
}

class ThrowOnInvariant {
 public:
  ThrowOnInvariant() : previous_(set_invariant_handler(&throwing_handler)) {}
  ~ThrowOnInvariant() { set_invariant_handler(previous_); }

 private:
  InvariantHandler previous_;
};

std::uint64_t fingerprint_with(ClusterOptions opts,
                               const workload::Workload& wl,
                               bool use_index) {
  opts.use_locality_index = use_index;
  return metrics::fingerprint(run_once(opts, wl));
}

using Combo = std::tuple<SchedulerKind, PolicyKind>;

class SchedEquivalence : public ::testing::TestWithParam<Combo> {};

TEST_P(SchedEquivalence, PaperDefaultsFingerprintMatchesLegacy) {
  ThrowOnInvariant guard;
  const auto [scheduler, policy] = GetParam();
  const auto opts =
      paper_defaults(net::cct_profile(20), scheduler, policy, 42);
  const auto wl = standard_wl1(20, 60, 1);
  EXPECT_EQ(fingerprint_with(opts, wl, true),
            fingerprint_with(opts, wl, false))
      << scheduler_name(scheduler) << "/" << policy_name(policy);
}

TEST_P(SchedEquivalence, ChaosChurnFingerprintMatchesLegacy) {
  ThrowOnInvariant guard;
  const auto [scheduler, policy] = GetParam();
  // Mirrors the chaos-soak configuration: stochastic transient + permanent
  // failures with rack correlation, injected task failures, aggressive
  // re-replication — every index-reconciliation path fires.
  auto opts = paper_defaults(net::ec2_profile(10), scheduler, policy, 7);
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 60.0;
  opts.faults.mttr_s = 20.0;
  opts.faults.permanent_fraction = 0.25;
  opts.faults.rack_correlation = 0.3;
  opts.faults.task_failure_prob = 0.01;
  opts.faults.min_live_workers = 4;
  opts.rereplication_interval = from_seconds(2.0);
  opts.rereplication_batch = 32;

  workload::WorkloadOptions wopts;
  wopts.num_jobs = 50;
  wopts.seed = 7;
  wopts.catalog.small_files = 16;
  wopts.catalog.large_files = 2;
  wopts.catalog.large_min_blocks = 5;
  wopts.catalog.large_max_blocks = 8;
  const auto wl = workload::make_wl1(wopts);

  EXPECT_EQ(fingerprint_with(opts, wl, true),
            fingerprint_with(opts, wl, false))
      << scheduler_name(scheduler) << "/" << policy_name(policy);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, SchedEquivalence,
    ::testing::Combine(::testing::Values(SchedulerKind::kFifo,
                                         SchedulerKind::kFair),
                       ::testing::Values(PolicyKind::kVanilla,
                                         PolicyKind::kGreedyLru,
                                         PolicyKind::kElephantTrap)));

// Fair's decline gate (per-node and per-rack candidate counts) at a scale
// where CandidateMap takes its sparse layout (> 256 nodes), with churn and
// silent corruption on so replica deltas and requeues land while waiting
// jobs hold stamped delay clocks. Both the default delay and zero delay
// (where the gate must never fire) must match the scan, and the indexed
// cluster must pass validate(), which recounts the per-slot job counts.
using ScaleCombo = std::tuple<PolicyKind, bool>;

class SchedEquivalenceScale : public ::testing::TestWithParam<ScaleCombo> {};

TEST_P(SchedEquivalenceScale, FaultedSparseLayoutFingerprintMatchesLegacy) {
  ThrowOnInvariant guard;
  const auto [policy, zero_delay] = GetParam();
  constexpr std::size_t kNodes = 301;  // master + 300 workers
  auto opts = paper_defaults(net::ec2_profile(kNodes), SchedulerKind::kFair,
                             policy, 13);
  if (zero_delay) opts.fair_delay = 0;
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 400.0;
  opts.faults.mttr_s = 20.0;
  opts.faults.permanent_fraction = 0.2;
  opts.faults.rack_correlation = 0.2;
  opts.faults.task_failure_prob = 0.01;
  opts.faults.min_live_workers = 200;
  opts.corruption.enabled = true;
  opts.corruption.bitrot_per_gb = 2.0;
  opts.corruption.sector_mtbf_s = 200.0;
  opts.rereplication_interval = from_seconds(2.0);
  const auto wl = standard_wl1(kNodes, 300, 13);

  auto indexed = opts;
  indexed.use_locality_index = true;
  Cluster cluster(indexed);
  const auto result = cluster.run(wl);
  EXPECT_NO_THROW(cluster.validate());
  EXPECT_GT(result.node_failures, 0u);
  EXPECT_GT(result.corrupt_reads, 0u);
  EXPECT_EQ(metrics::fingerprint(result), fingerprint_with(opts, wl, false))
      << policy_name(policy) << (zero_delay ? " fair_delay=0" : "");
}

INSTANTIATE_TEST_SUITE_P(
    FairAtScale, SchedEquivalenceScale,
    ::testing::Combine(::testing::Values(PolicyKind::kVanilla,
                                         PolicyKind::kElephantTrap),
                       ::testing::Bool()));

// Speculative execution consults the locator on its own path; make sure the
// indexed mode agrees there too.
TEST(SchedEquivalenceSpeculation, SpeculationFingerprintMatchesLegacy) {
  ThrowOnInvariant guard;
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFair,
                             PolicyKind::kElephantTrap, 11);
  opts.enable_speculation = true;
  const auto wl = standard_wl1(10, 40, 3);
  EXPECT_EQ(fingerprint_with(opts, wl, true),
            fingerprint_with(opts, wl, false));
}

}  // namespace
}  // namespace dare::cluster
