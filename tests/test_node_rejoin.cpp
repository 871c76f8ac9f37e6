// Node rejoin: transient failures, heartbeat-timeout detection, full
// block-report reconciliation against the re-replication pipeline, and the
// policies rebuilding their state from the surviving disk contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "common/invariant.h"
#include "core/elephant_trap.h"
#include "core/greedy_lru.h"
#include "core/lfu.h"
#include "net/profile.h"
#include "obs/trace_collector.h"
#include "storage/datanode.h"

namespace dare::cluster {
namespace {

[[noreturn]] void throwing_handler(const InvariantViolation& v) {
  throw std::logic_error("invariant violated: " + v.message);
}

/// Installs a throwing invariant handler for the test's lifetime, so any
/// DARE_INVARIANT violation fails the test instead of aborting the binary.
class ThrowOnInvariant {
 public:
  ThrowOnInvariant() : previous_(set_invariant_handler(&throwing_handler)) {}
  ~ThrowOnInvariant() { set_invariant_handler(previous_); }

 private:
  InvariantHandler previous_;
};

workload::Workload small_workload(std::size_t jobs = 80,
                                  std::uint64_t seed = 21) {
  workload::WorkloadOptions opts;
  opts.num_jobs = jobs;
  opts.seed = seed;
  opts.catalog.small_files = 20;
  opts.catalog.large_files = 2;
  opts.catalog.large_min_blocks = 6;
  opts.catalog.large_max_blocks = 10;
  return workload::make_wl1(opts);
}

ClusterOptions base_options(PolicyKind policy = PolicyKind::kVanilla) {
  auto opts =
      paper_defaults(net::cct_profile(10), SchedulerKind::kFifo, policy);
  opts.rereplication_interval = from_seconds(1.0);
  opts.rereplication_batch = 64;
  return opts;
}

TEST(NodeRejoin, TransientFailureIsDetectedAndNodeReconciles) {
  ThrowOnInvariant guard;
  auto opts = base_options();
  // Down for 60 s: far past the detection timeout (3 missed 3 s
  // heartbeats), so the name node declares the death, repairs the blocks,
  // and the rejoin must reconcile the stale disk against the repairs.
  opts.failures.push_back({from_seconds(5.0), NodeId{2},
                           faults::FaultKind::kTransient,
                           from_seconds(60.0)});
  Cluster cluster(opts);
  const auto wl = small_workload(120);
  const auto result = cluster.run(wl);

  EXPECT_EQ(result.node_failures, 1u);
  EXPECT_EQ(result.transient_failures, 1u);
  EXPECT_EQ(result.permanent_failures, 0u);
  EXPECT_EQ(result.failures_detected, 1u);
  EXPECT_EQ(result.node_rejoins, 1u);
  // Detection is heartbeat-driven: at least K-1 full intervals must pass
  // before the name node can possibly notice (the node may have beaten
  // right before dying).
  EXPECT_GT(result.detection_latency_total_s, 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(result.mean_detection_latency_s,
                   result.detection_latency_total_s);
  // The node is back and re-registered.
  EXPECT_TRUE(cluster.name_node().is_node_alive(2));
  // Re-replication raced the 60 s outage and won for at least some blocks;
  // the rejoin then pruned the stale surplus copies.
  EXPECT_GT(result.rereplicated_blocks, 0u);
  EXPECT_GT(result.overreplication_prunes, 0u);
  EXPECT_EQ(result.blocks_lost, 0u);
  // After reconciliation every block sits at exactly its replication
  // factor: repairs restored it, rejoin pruning removed the excess.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      EXPECT_EQ(nn.static_locations(bid).size(), 3u) << "block " << bid;
    }
  }
  EXPECT_NO_THROW(cluster.validate());
}

TEST(NodeRejoin, BlipShorterThanDetectionTimeoutGoesUnnoticed) {
  ThrowOnInvariant guard;
  auto opts = base_options();
  // 3 s downtime < 9 s detection timeout: the name node must never notice,
  // no repair traffic, no location scrubbing — but the rebooted tracker
  // does not resume its tasks, so the node still counts one rejoin.
  opts.failures.push_back({from_seconds(10.0), NodeId{2},
                           faults::FaultKind::kTransient,
                           from_seconds(3.0)});
  Cluster cluster(opts);
  const auto result = cluster.run(small_workload(120));

  EXPECT_EQ(result.node_failures, 1u);
  EXPECT_EQ(result.failures_detected, 0u);
  EXPECT_EQ(result.node_rejoins, 1u);
  EXPECT_DOUBLE_EQ(result.detection_latency_total_s, 0.0);
  EXPECT_EQ(result.blocks_lost, 0u);
  EXPECT_TRUE(cluster.name_node().is_node_alive(2));
  EXPECT_NO_THROW(cluster.validate());
}

TEST(NodeRejoin, PermanentFailureNeverRejoins) {
  ThrowOnInvariant guard;
  auto opts = base_options();
  opts.failures.push_back({from_seconds(5.0), NodeId{3},
                           faults::FaultKind::kPermanent,
                           /*downtime=*/from_seconds(60.0)});  // ignored
  Cluster cluster(opts);
  const auto result = cluster.run(small_workload(120));

  EXPECT_EQ(result.permanent_failures, 1u);
  EXPECT_EQ(result.failures_detected, 1u);
  EXPECT_EQ(result.node_rejoins, 0u);
  EXPECT_FALSE(cluster.name_node().is_node_alive(3));
  EXPECT_NO_THROW(cluster.validate());
}

TEST(NodeRejoin, ScriptedKillAfterTheRunIsAbsorbed) {
  // The Determinism.WithFailuresAndSpeculation setup: permanent kills at
  // 30 s and 90 s, but the last job completes near 47 s. Like a scripted
  // partition, a kill that fires once the run is over starts no episode.
  ThrowOnInvariant guard;
  auto opts = paper_defaults(net::cct_profile(10), SchedulerKind::kFair,
                             PolicyKind::kElephantTrap);
  opts.failures.push_back({from_seconds(30.0), 2});
  opts.failures.push_back({from_seconds(90.0), 5});
  opts.enable_speculation = true;
  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(standard_wl1(10, 60)));

  SimTime last_completion = 0;
  for (const auto& jm : result.jobs) {
    last_completion = std::max(last_completion, jm.completion);
  }
  ASSERT_LT(last_completion, from_seconds(90.0));
  EXPECT_EQ(result.node_failures, 1u);
  EXPECT_EQ(result.permanent_failures, 1u);
  EXPECT_NO_THROW(cluster.validate());
}

/// The (node, value) of every kNodeFailed event in a traced run.
std::vector<std::pair<NodeId, double>> traced_kills(ClusterOptions opts) {
  obs::TraceCollector tracer;
  opts.tracer = &tracer;
  Cluster cluster(opts);
  cluster.run(standard_wl1(10, 60));
  std::vector<std::pair<NodeId, double>> kills;
  for (const auto& event : tracer.events()) {
    if (event.kind == obs::EventKind::kNodeFailed) {
      kills.emplace_back(event.node, event.value);
    }
  }
  return kills;
}

TEST(NodeRejoin, TracedScriptedKillRecordsTheDowntimeItServes) {
  // kNodeFailed's value is the downtime the churn chain serves: 0 for a
  // permanent kill (its scripted downtime is ignored), and max(downtime,
  // 1 ms) for a transient one.
  auto opts = base_options();
  opts.failures.push_back({from_seconds(10.0), NodeId{2},
                           faults::FaultKind::kPermanent,
                           from_seconds(25.0)});
  opts.failures.push_back({from_seconds(12.0), NodeId{4},
                           faults::FaultKind::kTransient, 0});
  opts.failures.push_back({from_seconds(14.0), NodeId{5},
                           faults::FaultKind::kTransient,
                           from_seconds(20.0)});
  const auto kills = traced_kills(opts);
  ASSERT_EQ(kills.size(), 3u);
  EXPECT_EQ(kills[0].first, NodeId{2});
  EXPECT_EQ(kills[0].second, 0.0);
  EXPECT_EQ(kills[1].first, NodeId{4});
  EXPECT_DOUBLE_EQ(kills[1].second, 0.001);
  EXPECT_EQ(kills[2].first, NodeId{5});
  EXPECT_DOUBLE_EQ(kills[2].second, 20.0);
}

TEST(NodeRejoin, TracedStochasticPermanentKillRecordsZeroDowntime) {
  // The churn stream draws a downtime for every failure, permanent or not;
  // a permanent kill must still be traced with 0.
  auto opts = base_options();
  opts.faults.enabled = true;
  opts.faults.mtbf_s = 60.0;
  opts.faults.mttr_s = 20.0;
  opts.faults.permanent_fraction = 1.0;
  opts.faults.min_live_workers = 4;
  const auto kills = traced_kills(opts);
  ASSERT_FALSE(kills.empty());
  for (const auto& kill : kills) EXPECT_EQ(kill.second, 0.0);
}

TEST(NodeRejoin, RejoiningPoliciesRebuildWithoutBudgetViolations) {
  // Satellite regression: a node with a full replication cache fails
  // transiently, re-replication repairs its blocks elsewhere, and the node
  // rejoins with stale replicas. The rebuilt policy state must respect the
  // budget audit (the data node itself checks it under
  // DARE_ENABLE_INVARIANTS) and repairs must never evict replicas of the
  // file being repaired — any violation throws here.
  for (const PolicyKind policy :
       {PolicyKind::kGreedyLru, PolicyKind::kElephantTrap}) {
    ThrowOnInvariant guard;
    auto opts = base_options(policy);
    opts.budget_fraction = 0.05;  // tiny budget: caches run full
    opts.trap.p = 1.0;            // trap aggressively, fill the cache
    opts.failures.push_back({from_seconds(10.0), NodeId{1},
                             faults::FaultKind::kTransient,
                             from_seconds(40.0)});
    Cluster cluster(opts);
    const auto result = cluster.run(small_workload(150));
    EXPECT_EQ(result.node_rejoins, 1u);
    EXPECT_NO_THROW(cluster.validate());
    for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
      EXPECT_LE(cluster.data_node(w).dynamic_bytes(),
                cluster.node_budget_bytes())
          << "policy " << policy_name(policy) << " node " << w;
    }
  }
}

TEST(NodeRejoin, GreedyLruRebuildRestoresTracking) {
  Rng rng(3);
  storage::DataNode dn(0, net::cct_profile(10).disk, rng);
  const storage::BlockMeta b1{1, 10, 100};
  const storage::BlockMeta b2{2, 11, 100};
  ASSERT_TRUE(dn.insert_dynamic(b1));
  ASSERT_TRUE(dn.insert_dynamic(b2));

  core::GreedyLruPolicy policy(dn, /*budget=*/200);
  policy.rebuild(dn.dynamic_block_metas());
  EXPECT_EQ(policy.tracked_blocks(), 2u);

  // The rebuilt queue is usable: a new non-local block evicts the coldest
  // surviving replica (lowest id — rebuild order) instead of corrupting
  // state.
  const storage::BlockMeta b3{3, 12, 100};
  EXPECT_TRUE(policy.on_map_task(b3, /*local=*/false));
  EXPECT_FALSE(dn.has_dynamic_block(b1.id));  // evicted
  EXPECT_TRUE(dn.has_dynamic_block(b2.id));
  EXPECT_TRUE(dn.has_dynamic_block(b3.id));
}

TEST(NodeRejoin, GreedyLruRebuildEmptyAfterPermanentLoss) {
  Rng rng(3);
  storage::DataNode dn(0, net::cct_profile(10).disk, rng);
  core::GreedyLruPolicy policy(dn, 200);
  ASSERT_TRUE(dn.insert_dynamic({1, 10, 100}));
  policy.rebuild(dn.dynamic_block_metas());
  EXPECT_EQ(policy.tracked_blocks(), 1u);
  dn.wipe_disk();
  policy.rebuild(dn.dynamic_block_metas());
  EXPECT_EQ(policy.tracked_blocks(), 0u);
}

TEST(NodeRejoin, LfuRebuildZeroesFrequencies) {
  Rng rng(3);
  storage::DataNode dn(0, net::cct_profile(10).disk, rng);
  const storage::BlockMeta b1{1, 10, 100};
  ASSERT_TRUE(dn.insert_dynamic(b1));
  core::GreedyLfuPolicy policy(dn, 200);
  policy.rebuild(dn.dynamic_block_metas());
  EXPECT_EQ(policy.tracked_blocks(), 1u);
  EXPECT_EQ(policy.frequency(b1.id), 0u);  // history died with the process
}

TEST(NodeRejoin, ElephantTrapRebuildResetsRingAndCounts) {
  Rng rng(3);
  storage::DataNode dn(0, net::cct_profile(10).disk, rng);
  const storage::BlockMeta b1{1, 10, 100};
  const storage::BlockMeta b2{2, 11, 100};
  ASSERT_TRUE(dn.insert_dynamic(b1));
  ASSERT_TRUE(dn.insert_dynamic(b2));
  Rng policy_rng(7);
  core::ElephantTrapPolicy policy(dn, 200, core::ElephantTrapParams{1.0, 1},
                                  policy_rng);
  policy.rebuild(dn.dynamic_block_metas());
  EXPECT_EQ(policy.tracked_blocks(), 2u);
  EXPECT_EQ(policy.access_count(b1.id), 0u);
  EXPECT_EQ(policy.access_count(b2.id), 0u);
  // The ring is live again: an insert under pressure ages and evicts.
  const storage::BlockMeta b3{3, 12, 100};
  EXPECT_TRUE(policy.on_map_task(b3, /*local=*/false));
  EXPECT_TRUE(dn.has_dynamic_block(b3.id));
  EXPECT_EQ(dn.dynamic_blocks().size(), 2u);  // one survivor was evicted
}

TEST(NodeRejoin, NameNodeRejectsRejoinOfLiveNode) {
  Rng rng(5);
  storage::NameNode nn(4, nullptr, rng);
  EXPECT_THROW(nn.node_rejoined(1, {}, {}), std::logic_error);
  EXPECT_THROW(nn.node_rejoined(99, {}, {}), std::out_of_range);
}

}  // namespace
}  // namespace dare::cluster
