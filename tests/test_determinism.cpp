// The repo's determinism guarantee, enforced: running the same seeded
// configuration twice must produce bit-identical metrics. Every field of
// the RunResult (including the bit patterns of all doubles) is folded into
// a 64-bit digest and compared across independent Cluster instances.
//
// If this test fails, some component consumed nondeterministic state —
// unordered-container iteration order, wall-clock time, un-forked RNG
// streams — and Figs. 7–11 are no longer reproducible. tools/dare_lint
// statically bans the usual suspects; this is the end-to-end check.
#include <gtest/gtest.h>

#include "cluster/experiment.h"
#include "metrics/run_metrics.h"

namespace dare::cluster {
namespace {

constexpr std::size_t kNodes = 10;
constexpr std::size_t kJobs = 60;

std::uint64_t digest_of(const ClusterOptions& options,
                        const workload::Workload& wl) {
  return metrics::fingerprint(run_once(options, wl));
}

std::uint64_t expect_twice_identical(const ClusterOptions& options) {
  const auto wl = standard_wl1(kNodes, kJobs);
  const auto first = digest_of(options, wl);
  const auto second = digest_of(options, wl);
  EXPECT_EQ(first, second) << "same seed, same config, different metrics";
  return first;
}

/// Twice-run check plus a recorded digest. The committed bench baselines
/// only pin quiet runs, so these fault-path configurations are what pins
/// the only-when-nonzero fault and repair fields: a change to the
/// run-metric table's order or digest rules (or to the fault RNG draw
/// order) fails here.
void expect_recorded_digest(const ClusterOptions& options,
                            std::uint64_t recorded) {
  EXPECT_EQ(expect_twice_identical(options), recorded)
      << "fault-path digest moved off its recorded value";
}

TEST(Determinism, VanillaFifo) {
  expect_twice_identical(paper_defaults(net::cct_profile(kNodes),
                                        SchedulerKind::kFifo,
                                        PolicyKind::kVanilla));
}

TEST(Determinism, GreedyLruFifo) {
  expect_twice_identical(paper_defaults(net::cct_profile(kNodes),
                                        SchedulerKind::kFifo,
                                        PolicyKind::kGreedyLru));
}

TEST(Determinism, ElephantTrapFair) {
  expect_twice_identical(paper_defaults(net::cct_profile(kNodes),
                                        SchedulerKind::kFair,
                                        PolicyKind::kElephantTrap));
}

TEST(Determinism, WithFailuresAndSpeculation) {
  auto options = paper_defaults(net::cct_profile(kNodes),
                                SchedulerKind::kFair,
                                PolicyKind::kElephantTrap);
  options.failures.push_back({from_seconds(30.0), 2});
  options.failures.push_back({from_seconds(90.0), 5});
  options.enable_speculation = true;
  expect_recorded_digest(options, 0x5ab55d7d4cf6d23dULL);
}

TEST(Determinism, ChurnEnabled) {
  // Stochastic node churn (transient + permanent + rack-correlated
  // failures, injected task failures) must be exactly as reproducible as a
  // quiet run: all fault randomness lives in one forked stream.
  auto options = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFair,
                                PolicyKind::kGreedyLru);
  options.faults.enabled = true;
  options.faults.mtbf_s = 80.0;
  options.faults.mttr_s = 20.0;
  options.faults.permanent_fraction = 0.2;
  options.faults.rack_correlation = 0.2;
  options.faults.task_failure_prob = 0.01;
  options.faults.min_live_workers = 4;
  options.rereplication_interval = from_seconds(2.0);
  expect_recorded_digest(options, 0x2f65e8e3f4de403eULL);
}

TEST(Determinism, CorruptionEnabled) {
  // Silent corruption (per-read bit rot + latent sector loss) on top of
  // churn must stay bit-reproducible: the corruption process draws from
  // its own forked stream, and detection/quarantine/repair all run in
  // deterministic event order.
  auto options = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFair,
                                PolicyKind::kElephantTrap);
  options.faults.enabled = true;
  options.faults.mtbf_s = 80.0;
  options.faults.mttr_s = 20.0;
  options.faults.permanent_fraction = 0.2;
  options.faults.min_live_workers = 4;
  options.corruption.enabled = true;
  options.corruption.bitrot_per_gb = 1.0;
  options.corruption.sector_mtbf_s = 30.0;
  options.rereplication_interval = from_seconds(2.0);
  expect_recorded_digest(options, 0x5f27ea6d1e685e02ULL);
}

TEST(Determinism, StragglersEnabled) {
  // The straggler subsystem (degraded-node chains, heavy-tailed task
  // inflation) plus its full mitigation stack (progress-rate detection,
  // budgeted cloning, speculation) must be exactly as reproducible as a
  // quiet run: all straggler randomness lives in one forked stream and
  // every detection/cloning decision is driven by deterministic state.
  auto options = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFair,
                                PolicyKind::kElephantTrap);
  options.stragglers.enabled = true;
  options.stragglers.degrade_mtbf_s = 60.0;
  options.stragglers.degrade_duration_s = 30.0;
  options.stragglers.rack_correlation = 0.2;
  options.stragglers.tail_prob = 0.1;
  options.stragglers.tail_cap = 8.0;
  options.enable_straggler_detection = true;
  options.straggler_detect_min_samples = 2;
  options.enable_task_cloning = true;
  options.clone_budget_fraction = 0.15;
  options.enable_speculation = true;
  expect_recorded_digest(options, 0x3de1c41c4082b709ULL);
}

TEST(Determinism, NetworkFaultsEnabled) {
  // The network-fault subsystem (rack partitions, degraded uplinks) plus
  // churn and the prioritized repair scheduler must be exactly as
  // reproducible as a quiet run: all netfault randomness lives in one
  // forked stream, repair ordering is (class, enqueue time, block), and
  // every reachability / backoff / admission decision is driven by
  // deterministic state. ec2 profile: multi-rack, so partitions actually
  // fire.
  auto options = paper_defaults(net::ec2_profile(kNodes), SchedulerKind::kFair,
                                PolicyKind::kElephantTrap);
  options.faults.enabled = true;
  options.faults.mtbf_s = 80.0;
  options.faults.mttr_s = 20.0;
  options.faults.permanent_fraction = 0.2;
  options.faults.min_live_workers = 4;
  options.netfault.enabled = true;
  options.netfault.partition_mtbf_s = 90.0;
  options.netfault.partition_duration_s = 15.0;
  options.netfault.link_degrade_mtbf_s = 50.0;
  options.netfault.link_degrade_duration_s = 25.0;
  options.rereplication_interval = from_seconds(2.0);
  expect_recorded_digest(options, 0x43e71f49363b8751ULL);
}

TEST(Determinism, DifferentSeedsDiffer) {
  // Sanity that the digest has discriminating power: a different seed must
  // perturb at least one metric bit. (Astronomically unlikely to collide.)
  const auto wl = standard_wl1(kNodes, kJobs);
  auto a = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFifo,
                          PolicyKind::kElephantTrap, /*seed=*/1);
  auto b = paper_defaults(net::cct_profile(kNodes), SchedulerKind::kFifo,
                          PolicyKind::kElephantTrap, /*seed=*/2);
  EXPECT_NE(digest_of(a, wl), digest_of(b, wl));
}

TEST(Determinism, FingerprintIsStableForEmptyResult) {
  // Pin the digest algorithm itself: changing field order or hash constants
  // silently invalidates recorded digests, so make that loud.
  metrics::RunResult empty;
  EXPECT_EQ(metrics::fingerprint(empty), metrics::fingerprint(empty));
  EXPECT_NE(metrics::fingerprint(empty), 0u);
}

}  // namespace
}  // namespace dare::cluster
