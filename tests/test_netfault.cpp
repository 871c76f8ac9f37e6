// Network-fault subsystem tests: the RepairScheduler data structure (two
// classes, dedup, deterministic ordering, retry reinsertion), scripted rack
// partitions end to end (lost heartbeats -> declaration -> heal ->
// re-registration), and the partition-heal vs. repair race (surplus copies
// pruned exactly once, repair ledger balanced).
//
// Scripted partitions make these tests deterministic: the stochastic
// NetworkFaultProcess is exercised by Determinism.NetworkFaultsEnabled and
// the NetFaultSoak suite in test_chaos_soak.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "cluster/repair_scheduler.h"
#include "common/invariant.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"

namespace dare::cluster {
namespace {

// --- RepairScheduler unit tests --------------------------------------------

TEST(RepairScheduler, PrioritizedCriticalDrainsBeforeBulk) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(10, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(11, RepairClass::kCritical, 200));
  EXPECT_TRUE(q.enqueue(12, RepairClass::kBulk, 50));
  EXPECT_TRUE(q.enqueue(13, RepairClass::kCritical, 150));

  // Criticals first (by enqueue time), then bulk (by enqueue time) — not
  // arrival order.
  EXPECT_EQ(q.pop_front()->block, 13);
  EXPECT_EQ(q.pop_front()->block, 11);
  EXPECT_EQ(q.pop_front()->block, 12);
  EXPECT_EQ(q.pop_front()->block, 10);
  EXPECT_FALSE(q.pop_front().has_value());
}

TEST(RepairScheduler, FifoIgnoresClasses) {
  RepairScheduler q(RepairPolicy::kFifo);
  EXPECT_TRUE(q.enqueue(10, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(11, RepairClass::kCritical, 200));
  EXPECT_TRUE(q.enqueue(12, RepairClass::kBulk, 50));

  EXPECT_EQ(q.pop_front()->block, 10);
  EXPECT_EQ(q.pop_front()->block, 11);
  EXPECT_EQ(q.pop_front()->block, 12);
}

TEST(RepairScheduler, TiedEnqueueTimesOrderByBlockId) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(42, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(7, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(19, RepairClass::kBulk, 100));
  EXPECT_EQ(q.pop_front()->block, 7);
  EXPECT_EQ(q.pop_front()->block, 19);
  EXPECT_EQ(q.pop_front()->block, 42);
}

// The regression Cluster::queue_repair relies on: replicas of one block
// dying in quick succession (two declarations both queueing it) must not
// produce two queue entries burning two rereplication_batch slots.
TEST(RepairScheduler, DedupSecondEnqueueIsIgnored) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.contains(5));
  EXPECT_FALSE(q.enqueue(5, RepairClass::kBulk, 300));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.consistent());

  // Original enqueue time survives the duplicate (repair latency measures
  // from the *first* queueing).
  const auto e = q.pop_front();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->enqueued, 100);
  EXPECT_FALSE(q.contains(5));
}

TEST(RepairScheduler, DuplicateEnqueueUpgradesBulkToCritical) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(6, RepairClass::kCritical, 150));
  // Another replica of block 5 died: the queued entry is upgraded in place
  // (keeping its earlier enqueue time), not duplicated.
  EXPECT_FALSE(q.enqueue(5, RepairClass::kCritical, 200));
  EXPECT_EQ(q.size(), 2u);

  const auto first = q.pop_front();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->block, 5);
  EXPECT_EQ(first->cls, RepairClass::kCritical);
  EXPECT_EQ(first->enqueued, 100);
  // A critical entry never downgrades back to bulk.
  RepairScheduler q2(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q2.enqueue(9, RepairClass::kCritical, 100));
  EXPECT_FALSE(q2.enqueue(9, RepairClass::kBulk, 200));
  EXPECT_EQ(q2.pop_front()->cls, RepairClass::kCritical);
}

TEST(RepairScheduler, ReinsertRestoresPoppedEntry) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  auto e = q.pop_front();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(q.empty());

  e->retries = 1;
  e->ready = 500;
  q.reinsert(*e);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.contains(5));
  const auto back = q.pop_front();
  EXPECT_EQ(back->retries, 1u);
  EXPECT_EQ(back->ready, 500);
  EXPECT_EQ(back->enqueued, 100);  // first-enqueue time preserved
}

TEST(RepairScheduler, ReinsertThrowsWhenBlockAlreadyQueued) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(5, RepairClass::kBulk, 100));
  auto e = q.pop_front();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(q.enqueue(5, RepairClass::kCritical, 200));  // fresh entry
  EXPECT_THROW(q.reinsert(*e), std::logic_error);
}

TEST(RepairScheduler, DrainReturnsPriorityOrderAndEmpties) {
  RepairScheduler q(RepairPolicy::kPrioritized);
  EXPECT_TRUE(q.enqueue(10, RepairClass::kBulk, 100));
  EXPECT_TRUE(q.enqueue(11, RepairClass::kCritical, 200));
  EXPECT_TRUE(q.enqueue(12, RepairClass::kBulk, 50));
  const auto drained = q.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].block, 11);
  EXPECT_EQ(drained[1].block, 12);
  EXPECT_EQ(drained[2].block, 10);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.consistent());
}

// --- scripted partitions, end to end ---------------------------------------

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

/// Long-tailed workload: arrivals spread far enough that the run is still
/// active when a scripted partition (t=10s..25s) heals.
workload::Workload partition_workload() {
  workload::WorkloadOptions opts;
  opts.num_jobs = 30;
  opts.seed = 7;
  opts.catalog.small_files = 16;
  opts.catalog.large_files = 2;
  opts.catalog.large_min_blocks = 4;
  opts.catalog.large_max_blocks = 6;
  auto wl = workload::make_wl1(opts);
  for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
    wl.jobs[i].arrival = from_seconds(1.0 + 1.5 * static_cast<double>(i));
  }
  return wl;
}

/// The topology is deterministic per (profile, seed): a probe instance
/// reveals which rack worker 0 landed in, so the scripted partition always
/// hits a populated rack.
RackId rack_of_worker0(const ClusterOptions& opts) {
  Cluster probe(opts);
  return probe.topology().rack_of(0);
}

ClusterOptions partition_options() {
  // ec2 profile: multi-rack, so a rack partition actually cuts something.
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFair,
                             PolicyKind::kElephantTrap, /*seed=*/12);
  // 3 s heartbeats x 3 missed => declaration ~9..12 s into the partition;
  // a 15 s episode is comfortably detected, leaving ~3 s of declared time.
  opts.partition_events.push_back(
      {from_seconds(10.0), rack_of_worker0(opts), from_seconds(15.0)});
  opts.rereplication_interval = from_seconds(0.5);
  opts.rereplication_batch = 32;
  return opts;
}

TEST(NetFault, ScriptedPartitionIsDetectedAndHeals) {
  ThrowOnInvariant guard;
  const auto opts = partition_options();
  const auto wl = partition_workload();

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl));

  EXPECT_EQ(result.partition_episodes, 1u);
  EXPECT_EQ(result.partitions_healed, 1u);

  // The detector declared at least the partitioned worker dead — without a
  // single physical node failure. Heal re-registered it.
  EXPECT_EQ(result.node_failures, 0u);
  EXPECT_EQ(result.transient_failures, 0u);
  EXPECT_EQ(result.permanent_failures, 0u);
  EXPECT_GE(result.failures_detected, 1u);
  EXPECT_GE(result.node_rejoins, 1u);

  // Every job is terminally accounted and the cluster is consistent.
  ASSERT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) EXPECT_GE(jm.completion, jm.arrival);
  EXPECT_NO_THROW(cluster.validate());

  // The repair ledger closed out: every first-time enqueue terminally
  // landed or was abandoned.
  EXPECT_EQ(result.repairs_enqueued,
            result.repairs_landed + result.repairs_abandoned);
}

// A scripted partition on a rack whose stochastic chain is armed supersedes
// the rack's pending onset instead of orphaning it. An orphaned onset
// escaped the run-end cancel and dragged the makespan out to its fire time
// (~10^6 s here).
TEST(NetFault, ScriptedPartitionSupersedesPendingOnset) {
  ThrowOnInvariant guard;
  auto opts = partition_options();
  opts.netfault.enabled = true;
  opts.netfault.partition_mtbf_s = 1e6;
  opts.netfault.link_degrade_mtbf_s = 1e6;
  const auto wl = partition_workload();

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl));

  EXPECT_EQ(result.partition_episodes, 1u);
  EXPECT_EQ(result.partitions_healed, 1u);
  SimTime last_completion = 0;
  for (const auto& jm : result.jobs) {
    last_completion = std::max(last_completion, jm.completion);
  }
  const SimDuration detection_window =
      opts.heartbeat_interval *
      static_cast<SimDuration>(opts.detection_missed_heartbeats);
  EXPECT_LE(result.makespan, last_completion + detection_window);
  EXPECT_NO_THROW(cluster.validate());
}

TEST(NetFault, HealRepairRacePrunesSurplusExactlyOnce) {
  ThrowOnInvariant guard;
  const auto opts = partition_options();
  const auto wl = partition_workload();

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl));

  // The race under test: declaration queued repairs for the partitioned
  // rack's blocks, the aggressive tick landed copies during the episode,
  // and heal-time re-registration found the "lost" replicas alive again.
  EXPECT_GE(result.repairs_landed, 1u);
  EXPECT_GE(result.overreplication_prunes, 1u);

  // Exactly-once pruning shows up as global consistency: validate() fails
  // if a replica was pruned twice (location without a physical copy) or
  // zero times where it mattered (it also checks the repair ledger
  // equation).
  EXPECT_NO_THROW(cluster.validate());
  EXPECT_EQ(result.repairs_enqueued,
            result.repairs_landed + result.repairs_abandoned);

  // The name node never kept a surplus static replica: a missed prune at
  // re-registration would leave a block above its replication target.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    const auto& info = nn.file(fid);
    for (BlockId bid : info.blocks) {
      EXPECT_LE(nn.static_locations(bid).size(),
                static_cast<std::size_t>(info.replication))
          << "block " << bid << " kept surplus replicas after the heal";
    }
  }
}

TEST(NetFault, PartitionEventValidation) {
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, /*seed=*/3);
  opts.partition_events.push_back({from_seconds(1.0), RackId{9999},
                                   from_seconds(5.0)});
  EXPECT_THROW(Cluster{opts}, std::invalid_argument);

  auto zero = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, /*seed=*/3);
  zero.partition_events.push_back({from_seconds(1.0), RackId{0}, 0});
  EXPECT_THROW(Cluster{zero}, std::invalid_argument);
}

TEST(NetFault, BadParamsThrowNamingField) {
  auto opts = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, /*seed=*/3);
  opts.netfault.enabled = true;
  opts.netfault.bandwidth_cut = 0.0;
  try {
    Cluster cluster(opts);
    FAIL() << "bandwidth_cut = 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bandwidth_cut"), std::string::npos)
        << e.what();
  }

  auto backoff = paper_defaults(net::ec2_profile(10), SchedulerKind::kFifo,
                                PolicyKind::kVanilla, /*seed=*/3);
  backoff.repair_retry_backoff = 0;
  try {
    Cluster cluster(backoff);
    FAIL() << "repair_retry_backoff = 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("repair_retry_backoff"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dare::cluster
