// LocalityIndex unit tests plus a randomized equivalence oracle.
//
// The unit tests pin the incremental-maintenance contract for each event
// the index must absorb: replica create/evict, node death and rejoin
// reconciliation (via a live NameNode with the observer attached), map
// launch/requeue, and job failure. The oracle drives two JobTables through
// an identical randomized schedule — one answering from the index, one
// scanning with a BlockLocator over the same replica map — and asserts
// every single selection matches. The Fair oracle does the same one layer
// up: a gated FairScheduler over the index against the legacy scheduler over
// a scan, compared on every selection and every job's delay clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sched/fair_scheduler.h"
#include "sched/job_table.h"
#include "sched/locality_index.h"
#include "storage/namenode.h"

namespace dare::sched {
namespace {

JobSpec make_job(JobId id, const std::vector<BlockId>& blocks,
                 std::size_t reduces = 0) {
  JobSpec spec;
  spec.id = id;
  spec.reduces = reduces;
  for (BlockId b : blocks) {
    MapTaskSpec task;
    task.block = b;
    task.bytes = 1;
    spec.maps.push_back(task);
  }
  return spec;
}

/// Scan-mode oracle locator over a shared replica map.
class MapLocator final : public BlockLocator {
 public:
  MapLocator(const std::unordered_map<BlockId, std::set<NodeId>>* replicas,
             const std::vector<RackId>* node_rack)
      : replicas_(replicas), node_rack_(node_rack) {}

  bool is_local(NodeId node, BlockId block) const override {
    const auto it = replicas_->find(block);
    return it != replicas_->end() && it->second.count(node) != 0;
  }
  bool is_rack_local(NodeId node, BlockId block) const override {
    const auto it = replicas_->find(block);
    if (it == replicas_->end()) return false;
    for (NodeId holder : it->second) {
      if ((*node_rack_)[static_cast<std::size_t>(holder)] ==
          (*node_rack_)[static_cast<std::size_t>(node)]) {
        return true;
      }
    }
    return false;
  }

 private:
  const std::unordered_map<BlockId, std::set<NodeId>>* replicas_;
  const std::vector<RackId>* node_rack_;
};

/// 4 nodes in 2 racks: nodes 0,1 in rack 0; nodes 2,3 in rack 1.
class LocalityIndexTest : public ::testing::Test {
 protected:
  LocalityIndexTest() : index_(4, {0, 0, 1, 1}, 2) {}
  LocalityIndex index_;
};

TEST_F(LocalityIndexTest, RejectsBadConstruction) {
  EXPECT_THROW(LocalityIndex(0, {}, 1), std::invalid_argument);
  EXPECT_THROW(LocalityIndex(2, {0}, 1), std::invalid_argument);
  EXPECT_THROW(LocalityIndex(2, {0, 5}, 2), std::invalid_argument);
}

TEST_F(LocalityIndexTest, WatchAfterReplicaSeesExistingLocations) {
  index_.replica_added(7, 0);
  index_.replica_added(7, 2);
  index_.watch_map(1, 0, 7);
  EXPECT_EQ(index_.node_candidates(1, 0).size(), 1u);
  EXPECT_EQ(index_.node_candidates(1, 1).size(), 0u);
  EXPECT_EQ(index_.node_candidates(1, 2).size(), 1u);
  // Rack candidates: rack 0 via node 0, rack 1 via node 2.
  EXPECT_EQ(index_.rack_candidates(1, 1).size(), 1u);  // node 1 -> rack 0
  EXPECT_EQ(index_.rack_candidates(1, 3).size(), 1u);  // node 3 -> rack 1
}

TEST_F(LocalityIndexTest, ReplicaAfterWatchReachesCandidates) {
  index_.watch_map(1, 0, 7);
  EXPECT_TRUE(index_.node_candidates(1, 0).empty());
  index_.replica_added(7, 0);
  EXPECT_EQ(index_.node_candidates(1, 0).size(), 1u);
  EXPECT_EQ(index_.rack_candidates(1, 1).size(), 1u);
}

TEST_F(LocalityIndexTest, EvictionRemovesCandidateAndRackEntryAtZero) {
  index_.watch_map(1, 0, 7);
  index_.replica_added(7, 0);
  index_.replica_added(7, 1);  // second replica in rack 0
  EXPECT_EQ(index_.rack_candidates(1, 0).size(), 1u);
  index_.replica_removed(7, 0);  // rack 0 still holds one replica
  EXPECT_TRUE(index_.node_candidates(1, 0).empty());
  EXPECT_EQ(index_.node_candidates(1, 1).size(), 1u);
  EXPECT_EQ(index_.rack_candidates(1, 0).size(), 1u);
  index_.replica_removed(7, 1);  // rack is now empty
  EXPECT_TRUE(index_.rack_candidates(1, 0).empty());
  EXPECT_EQ(index_.replica_count(7), 0u);
}

TEST_F(LocalityIndexTest, UnwatchDropsAllCandidateEntries) {
  index_.replica_added(7, 0);
  index_.replica_added(7, 3);
  index_.watch_map(1, 0, 7);
  index_.watch_map(1, 1, 7);  // two maps of the same job reading block 7
  EXPECT_EQ(index_.node_candidates(1, 0).size(), 2u);
  index_.unwatch_map(1, 0, 7);
  EXPECT_EQ(index_.node_candidates(1, 0).size(), 1u);
  EXPECT_EQ(index_.node_candidates(1, 0)[0], 1u);
  EXPECT_EQ(index_.rack_candidates(1, 2).size(), 1u);
  index_.unwatch_map(1, 1, 7);
  EXPECT_TRUE(index_.node_candidates(1, 0).empty());
  EXPECT_TRUE(index_.rack_candidates(1, 2).empty());
}

TEST_F(LocalityIndexTest, JobRetirementFreesState) {
  index_.replica_added(7, 0);
  index_.watch_map(1, 0, 7);
  index_.unwatch_map(1, 0, 7);
  EXPECT_EQ(index_.tracked_job_count(), 1u);
  index_.job_retired(1);
  EXPECT_EQ(index_.tracked_job_count(), 0u);
  // Unknown jobs answer empty, not throw.
  EXPECT_TRUE(index_.node_candidates(1, 0).empty());
}

/// JobTable + index integration: the index answer must equal the legacy
/// scan at every step of a launch/requeue/fail lifecycle.
TEST(JobTableIndexTest, LaunchRequeueFailKeepCandidatesExact) {
  std::unordered_map<BlockId, std::set<NodeId>> replicas;
  std::vector<RackId> node_rack{0, 0, 1, 1};
  MapLocator locator(&replicas, &node_rack);

  LocalityIndex index(4, node_rack, 2);
  JobTable indexed;
  indexed.attach_locality_index(&index);
  JobTable scanned;

  const auto add_replica = [&](BlockId b, NodeId n) {
    replicas[b].insert(n);
    index.replica_added(b, n);
  };
  add_replica(10, 0);
  add_replica(10, 2);
  add_replica(11, 1);
  add_replica(12, 3);

  const auto spec = make_job(1, {10, 11, 12});
  indexed.add_job(spec);
  scanned.add_job(spec);

  const auto expect_equal_everywhere = [&]() {
    for (NodeId n = 0; n < 4; ++n) {
      EXPECT_EQ(indexed.find_local_map(1, n, locator),
                scanned.find_local_map(1, n, locator))
          << "local divergence on node " << n;
      EXPECT_EQ(indexed.find_rack_local_map(1, n, locator),
                scanned.find_rack_local_map(1, n, locator))
          << "rack divergence on node " << n;
    }
  };
  expect_equal_everywhere();

  // Launch the map local to node 0 in both tables.
  const auto sel = indexed.find_local_map(1, 0, locator);
  ASSERT_TRUE(sel.has_value());
  const std::size_t launched =
      indexed.launch_map(1, *sel, Locality::kNodeLocal);
  EXPECT_EQ(scanned.launch_map(1, *sel, Locality::kNodeLocal), launched);
  expect_equal_everywhere();
  EXPECT_FALSE(indexed.find_local_map(1, 0, locator).has_value());

  // Node death drops the replica; requeue puts the map back.
  replicas[10].erase(2);
  index.replica_removed(10, 2);
  indexed.requeue_running_map(1, launched, Locality::kNodeLocal);
  scanned.requeue_running_map(1, launched, Locality::kNodeLocal);
  expect_equal_everywhere();
  EXPECT_TRUE(indexed.find_local_map(1, 0, locator).has_value());
  EXPECT_FALSE(indexed.find_local_map(1, 2, locator).has_value());

  // Job failure drops every pending map from the index.
  indexed.fail_job(1, 100);
  scanned.fail_job(1, 100);
  EXPECT_TRUE(index.node_candidates(1, 0).empty());
  EXPECT_EQ(index.tracked_job_count(), 0u);
}

/// NameNode-driven reconciliation: the observer stream through death,
/// rejoin (with re-adoption and pruning), dynamic reports, and repair
/// copies keeps the index mirror identical to locations().
TEST(LocalityIndexNameNodeTest, ObserverMirrorsEveryTransition) {
  Rng rng(99);
  storage::NameNode nn(4, nullptr, rng);
  LocalityIndex index(4, {0, 0, 1, 1}, 2);
  nn.set_replica_observer([&](BlockId b, NodeId n, bool added) {
    if (added) {
      index.replica_added(b, n);
    } else {
      index.replica_removed(b, n);
    }
  });

  const auto expect_mirrored = [&]() {
    for (FileId fid : nn.all_files()) {
      for (BlockId bid : nn.file(fid).blocks) {
        const auto& locs = nn.locations(bid);
        ASSERT_EQ(index.replica_count(bid), locs.size()) << "block " << bid;
        for (NodeId n : locs) {
          EXPECT_TRUE(index.mirrors_replica(bid, n))
              << "block " << bid << " node " << n;
        }
      }
    }
  };

  const FileId fid = nn.create_file("f", 3, 1024, 2, 0);
  expect_mirrored();
  const BlockId b0 = nn.file(fid).blocks[0];

  // Dynamic replica lifecycle on a node that does not hold b0 statically.
  NodeId dyn_node = kInvalidNode;
  for (NodeId n = 0; n < 4; ++n) {
    const auto& locs = nn.locations(b0);
    if (std::find(locs.begin(), locs.end(), n) == locs.end()) {
      dyn_node = n;
      break;
    }
  }
  ASSERT_NE(dyn_node, kInvalidNode);
  nn.report_dynamic_added(dyn_node, {b0});
  nn.report_dynamic_added(dyn_node, {b0});  // duplicate: no delta
  expect_mirrored();
  nn.report_dynamic_removed(dyn_node, {b0});
  nn.report_dynamic_removed(dyn_node, {b0});  // missing: no delta
  expect_mirrored();

  // Death drops every replica on the victim from the mirror.
  const NodeId victim = nn.locations(b0).front();
  std::vector<BlockId> victim_statics;
  for (FileId f : nn.all_files()) {
    for (BlockId b : nn.file(f).blocks) {
      const auto& statics = nn.static_locations(b);
      if (std::find(statics.begin(), statics.end(), victim) !=
          statics.end()) {
        victim_statics.push_back(b);
      }
    }
  }
  nn.node_failed(victim);
  expect_mirrored();
  EXPECT_FALSE(index.mirrors_replica(b0, victim));

  // Repair one block, then rejoin: the repaired block's stale copy is
  // pruned (no delta), the rest are re-adopted (delta per block).
  NodeId repair_node = kInvalidNode;
  for (NodeId n = 0; n < 4; ++n) {
    if (n == victim || !nn.is_node_alive(n)) continue;
    const auto& locs = nn.locations(b0);
    if (std::find(locs.begin(), locs.end(), n) == locs.end()) {
      repair_node = n;
      break;
    }
  }
  ASSERT_NE(repair_node, kInvalidNode);
  ASSERT_TRUE(nn.add_repair_replica(b0, repair_node));
  expect_mirrored();

  const auto report = nn.node_rejoined(victim, victim_statics, {});
  expect_mirrored();
  EXPECT_EQ(report.pruned_static.size(), 1u);
  EXPECT_EQ(report.pruned_static[0], b0);
  EXPECT_FALSE(index.mirrors_replica(b0, victim));
}

/// Randomized oracle: an indexed table and a scanning table driven through
/// the same schedule must make the same selection at every opportunity.
TEST(LocalityIndexOracleTest, RandomizedScheduleSelectsIdentically) {
  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kRacks = 3;
  constexpr std::size_t kBlocks = 40;
  constexpr int kSteps = 4000;

  std::vector<RackId> node_rack(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    node_rack[n] = static_cast<RackId>(n % kRacks);
  }
  std::unordered_map<BlockId, std::set<NodeId>> replicas;
  MapLocator locator(&replicas, &node_rack);

  LocalityIndex index(kNodes, node_rack, kRacks);
  JobTable indexed;
  indexed.attach_locality_index(&index);
  JobTable scanned;

  Rng rng(4242);
  JobId next_job = 0;
  std::vector<JobId> live_jobs;
  // Launched (job, map_index) pairs eligible for requeue/complete.
  std::vector<std::pair<JobId, std::size_t>> running;

  const auto random_block = [&]() {
    return static_cast<BlockId>(rng.uniform_int(0, kBlocks - 1));
  };
  const auto random_node = [&]() {
    return static_cast<NodeId>(
        rng.uniform_int(0, static_cast<int>(kNodes) - 1));
  };

  for (int step = 0; step < kSteps; ++step) {
    const int action = rng.uniform_int(0, 9);
    if (action <= 1) {  // add/remove a replica
      const BlockId b = random_block();
      const NodeId n = random_node();
      if (replicas[b].count(n)) {
        replicas[b].erase(n);
        index.replica_removed(b, n);
      } else {
        replicas[b].insert(n);
        index.replica_added(b, n);
      }
    } else if (action == 2 && live_jobs.size() < 12) {  // new job
      std::vector<BlockId> blocks;
      const int maps = rng.uniform_int(1, 6);
      for (int m = 0; m < maps; ++m) blocks.push_back(random_block());
      const auto spec = make_job(next_job, blocks);
      indexed.add_job(spec);
      scanned.add_job(spec);
      live_jobs.push_back(next_job);
      ++next_job;
    } else if (action == 3 && !running.empty()) {  // requeue a running map
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(running.size()) - 1));
      const auto [job, mi] = running[pick];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      indexed.requeue_running_map(job, mi, Locality::kOffRack);
      scanned.requeue_running_map(job, mi, Locality::kOffRack);
    } else if (action == 4 && !running.empty()) {  // complete a running map
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(running.size()) - 1));
      const auto [job, mi] = running[pick];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      indexed.complete_map(job, step);
      scanned.complete_map(job, step);
      if (!indexed.has_job(job) || !indexed.job(job).active) {
        live_jobs.erase(
            std::find(live_jobs.begin(), live_jobs.end(), job));
      }
    } else if (action == 5 && !live_jobs.empty() &&
               rng.uniform_int(0, 19) == 0) {  // rare: kill a job
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_jobs.size()) - 1));
      const JobId job = live_jobs[pick];
      indexed.fail_job(job, step);
      scanned.fail_job(job, step);
      live_jobs.erase(live_jobs.begin() + static_cast<std::ptrdiff_t>(pick));
      for (std::size_t r = running.size(); r-- > 0;) {
        if (running[r].first == job) {
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(r));
        }
      }
    } else if (!live_jobs.empty()) {  // scheduling opportunity
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live_jobs.size()) - 1));
      const JobId job = live_jobs[pick];
      const NodeId node = random_node();

      const auto local_a = indexed.find_local_map(job, node, locator);
      const auto local_b = scanned.find_local_map(job, node, locator);
      ASSERT_EQ(local_a, local_b)
          << "local divergence at step " << step << " job " << job
          << " node " << node;
      const auto rack_a = indexed.find_rack_local_map(job, node, locator);
      const auto rack_b = scanned.find_rack_local_map(job, node, locator);
      ASSERT_EQ(rack_a, rack_b)
          << "rack divergence at step " << step << " job " << job << " node "
          << node;

      const auto chosen = local_a ? local_a : rack_a;
      if (chosen) {
        const std::size_t launched = indexed.launch_map(
            job, *chosen,
            local_a ? Locality::kNodeLocal : Locality::kRackLocal);
        const std::size_t launched_b = scanned.launch_map(
            job, *chosen,
            local_a ? Locality::kNodeLocal : Locality::kRackLocal);
        ASSERT_EQ(launched, launched_b);
        running.emplace_back(job, launched);
      }
    }
  }
}

/// Per-slot job counts (the Fair decline gate's input), checked after each
/// index transition in both CandidateMap layouts: 4 nodes take the direct
/// layout, 300 the sparse one. Nodes are laid out round-robin over two racks.
class LocalityIndexCountTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  LocalityIndexCountTest() : index_(GetParam(), racks(GetParam()), 2) {}

  static std::vector<RackId> racks(std::size_t nodes) {
    std::vector<RackId> rack(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      rack[n] = static_cast<RackId>(n % 2);
    }
    return rack;
  }

  /// Recount from the per-job lists and compare with the index's counts.
  void expect_counts(const std::vector<JobId>& jobs) const {
    for (NodeId n = 0; n < static_cast<NodeId>(GetParam()); ++n) {
      std::size_t node_jobs = 0;
      for (JobId j : jobs) {
        node_jobs += index_.node_candidates(j, n).empty() ? 0 : 1;
      }
      EXPECT_EQ(index_.node_job_count(n), node_jobs) << "node " << n;
      EXPECT_EQ(index_.node_has_candidates(n), node_jobs != 0) << "node " << n;
    }
    // Node r is in rack r, so it stands for its rack in the node-keyed
    // rack queries.
    for (RackId r = 0; r < 2; ++r) {
      std::size_t rack_jobs = 0;
      for (JobId j : jobs) {
        rack_jobs += index_.rack_candidates(j, static_cast<NodeId>(r)).empty()
                         ? 0
                         : 1;
      }
      EXPECT_EQ(index_.rack_job_count(r), rack_jobs) << "rack " << r;
      EXPECT_EQ(index_.rack_has_candidates(static_cast<NodeId>(r)),
                rack_jobs != 0)
          << "rack " << r;
    }
  }

  LocalityIndex index_;
};

TEST_P(LocalityIndexCountTest, CountsFollowEveryTransitionAndDrainToZero) {
  const std::vector<JobId> jobs{1, 2};
  // Nodes 0 and 2 are in rack 0, node 1 in rack 1.
  index_.replica_added(7, 0);
  index_.watch_map(1, 0, 7);  // watch after replica
  EXPECT_EQ(index_.node_job_count(0), 1u);
  EXPECT_EQ(index_.rack_job_count(0), 1u);
  EXPECT_EQ(index_.rack_job_count(1), 0u);
  expect_counts(jobs);

  index_.watch_map(1, 1, 7);  // a second map of the same job: no new job
  EXPECT_EQ(index_.node_job_count(0), 1u);
  index_.watch_map(2, 0, 7);  // a second job on the same node
  EXPECT_EQ(index_.node_job_count(0), 2u);
  EXPECT_EQ(index_.rack_job_count(0), 2u);
  expect_counts(jobs);

  index_.replica_added(7, 2);  // same rack: node count only
  EXPECT_EQ(index_.node_job_count(2), 2u);
  EXPECT_EQ(index_.rack_job_count(0), 2u);
  index_.replica_added(7, 1);  // first replica in rack 1
  EXPECT_EQ(index_.rack_job_count(1), 2u);
  expect_counts(jobs);

  index_.replica_removed(7, 0);  // rack 0 still holds node 2's copy
  EXPECT_EQ(index_.node_job_count(0), 0u);
  EXPECT_EQ(index_.rack_job_count(0), 2u);
  expect_counts(jobs);

  index_.unwatch_map(1, 0, 7);  // job 1 keeps map 1
  EXPECT_EQ(index_.node_job_count(2), 2u);
  index_.unwatch_map(2, 0, 7);  // job 2 drained
  EXPECT_EQ(index_.node_job_count(2), 1u);
  EXPECT_EQ(index_.rack_job_count(1), 1u);
  expect_counts(jobs);

  index_.replica_removed(7, 1);
  index_.replica_removed(7, 2);  // job 1's map has no replica left
  index_.unwatch_map(1, 1, 7);
  expect_counts(jobs);
  index_.job_retired(1);
  index_.job_retired(2);
  for (NodeId n = 0; n < static_cast<NodeId>(GetParam()); ++n) {
    ASSERT_EQ(index_.node_job_count(n), 0u) << "node " << n;
  }
  EXPECT_EQ(index_.rack_job_count(0), 0u);
  EXPECT_EQ(index_.rack_job_count(1), 0u);
}

TEST_P(LocalityIndexCountTest, RandomTransitionsKeepCountsExact) {
  const auto nodes = static_cast<int>(GetParam());
  Rng rng(GetParam());
  std::unordered_map<BlockId, std::set<NodeId>> replicas;
  // Watched (job, map, block) triples; jobs 0..3, blocks 0..5.
  std::vector<std::tuple<JobId, std::uint32_t, BlockId>> watched;
  std::uint32_t next_map = 0;
  const std::vector<JobId> jobs{0, 1, 2, 3};
  for (int step = 0; step < 600; ++step) {
    const int action = static_cast<int>(rng.uniform_int(0, 2));
    if (action == 0) {
      const auto b = static_cast<BlockId>(rng.uniform_int(0, 5));
      // Few distinct nodes, so replicas collide on nodes and racks.
      const auto n = static_cast<NodeId>(rng.uniform_int(0, 5) % nodes);
      if (replicas[b].count(n) != 0) {
        replicas[b].erase(n);
        index_.replica_removed(b, n);
      } else {
        replicas[b].insert(n);
        index_.replica_added(b, n);
      }
    } else if (action == 1 || watched.empty()) {
      const auto j = static_cast<JobId>(rng.uniform_int(0, 3));
      const auto b = static_cast<BlockId>(rng.uniform_int(0, 5));
      index_.watch_map(j, next_map, b);
      watched.emplace_back(j, next_map++, b);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(watched.size()) - 1));
      const auto [j, m, b] = watched[pick];
      index_.unwatch_map(j, m, b);
      watched.erase(watched.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 50 == 0) expect_counts(jobs);
  }
  for (const auto& [j, m, b] : watched) index_.unwatch_map(j, m, b);
  expect_counts(jobs);
  for (NodeId n = 0; n < static_cast<NodeId>(GetParam()); ++n) {
    ASSERT_EQ(index_.node_job_count(n), 0u) << "node " << n;
  }
  EXPECT_EQ(index_.rack_job_count(0), 0u);
  EXPECT_EQ(index_.rack_job_count(1), 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, LocalityIndexCountTest,
                         ::testing::Values(std::size_t{4}, std::size_t{300}));

/// Fair-level oracle for the decline gate: an indexed table under the
/// incremental FairScheduler (gate on) and a scanned table under the legacy
/// one (gate off) get one seeded stream of arrivals, replica deltas,
/// launches from most selections, completions, requeues, kills and clock
/// steps that cross both delay levels. Every selection and every job's
/// waiting_since must match. Parameters: (node_delay, rack_delay) in units
/// of kDelay.
class FairGateOracleTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FairGateOracleTest, GatedSelectionsMatchScan) {
  constexpr std::size_t kNodes = 16;
  constexpr std::size_t kRacks = 8;
  constexpr std::int64_t kBlocks = 60;
  constexpr int kSteps = 20000;
  const SimDuration kDelay = from_seconds(1.0);
  const SimDuration node_delay = GetParam().first * kDelay;
  const SimDuration rack_delay = GetParam().second * kDelay;

  std::vector<RackId> node_rack(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    node_rack[n] = static_cast<RackId>(n % kRacks);
  }
  std::unordered_map<BlockId, std::set<NodeId>> replicas;
  MapLocator locator(&replicas, &node_rack);

  LocalityIndex index(kNodes, node_rack, kRacks);
  JobTable indexed;
  indexed.attach_locality_index(&index);
  JobTable scanned;
  FairScheduler gated(node_delay, rack_delay, /*incremental=*/true);
  FairScheduler legacy(node_delay, rack_delay, /*incremental=*/false);

  Rng rng(9000 + GetParam().first * 10 + GetParam().second);
  const auto random_node = [&]() {
    return static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
  };
  const auto toggle_replica = [&](BlockId b, NodeId n) {
    if (replicas[b].count(n) != 0) {
      replicas[b].erase(n);
      index.replica_removed(b, n);
    } else {
      replicas[b].insert(n);
      index.replica_added(b, n);
    }
  };
  // Two replicas per block to start, as a placement would.
  for (BlockId b = 0; b < kBlocks; ++b) {
    toggle_replica(b, random_node());
    if (replicas[b].size() < 2) {
      const NodeId n = random_node();
      if (replicas[b].count(n) == 0) toggle_replica(b, n);
    }
  }

  SimTime now = 0;
  JobId next_job = 0;
  std::vector<JobId> live_jobs;
  std::vector<std::pair<JobId, std::size_t>> running;  // (job, map index)
  std::vector<Locality> running_tier;
  int selections = 0;
  int gate_cases = 0;  // opportunities the gate may answer alone

  const auto drop_running = [&](std::size_t pick) {
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
    running_tier.erase(running_tier.begin() +
                       static_cast<std::ptrdiff_t>(pick));
  };
  const auto forget_if_retired = [&](JobId job) {
    if (!indexed.has_job(job) || !indexed.job(job).active) {
      live_jobs.erase(std::find(live_jobs.begin(), live_jobs.end(), job));
    }
  };

  for (int step = 0; step < kSteps; ++step) {
    const auto action = rng.uniform_int(0, 19);
    if (action <= 2) {  // replica add/remove, also while jobs are stamped
      toggle_replica(static_cast<BlockId>(rng.uniform_int(0, kBlocks - 1)),
                     random_node());
    } else if (action == 3 && live_jobs.size() < 10) {  // arrival
      std::vector<BlockId> blocks;
      const auto maps = rng.uniform_int(1, 5);
      for (std::int64_t m = 0; m < maps; ++m) {
        blocks.push_back(static_cast<BlockId>(rng.uniform_int(0, kBlocks - 1)));
      }
      const auto spec = make_job(next_job, blocks);
      indexed.add_job(spec);
      scanned.add_job(spec);
      live_jobs.push_back(next_job++);
    } else if (action == 4 && !running.empty()) {  // requeue
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
      const auto [job, mi] = running[pick];
      indexed.requeue_running_map(job, mi, running_tier[pick]);
      scanned.requeue_running_map(job, mi, running_tier[pick]);
      drop_running(pick);
    } else if (action <= 6 && !running.empty()) {  // completion
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
      const JobId job = running[pick].first;
      indexed.complete_map(job, now);
      scanned.complete_map(job, now);
      drop_running(pick);
      forget_if_retired(job);
    } else if (action == 7 && !live_jobs.empty() &&
               rng.uniform_int(0, 9) == 0) {  // rare: kill a job
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_jobs.size()) - 1));
      const JobId job = live_jobs[pick];
      indexed.fail_job(job, now);
      scanned.fail_job(job, now);
      live_jobs.erase(live_jobs.begin() + static_cast<std::ptrdiff_t>(pick));
      for (std::size_t r = running.size(); r-- > 0;) {
        if (running[r].first == job) drop_running(r);
      }
    } else if (action <= 9) {  // clock step: short, or across a delay level
      const std::int64_t quarters[] = {0, 1, 2, 4, 5, 9};
      now += quarters[rng.uniform_int(0, 5)] * kDelay / 4;
    } else {  // scheduling opportunity
      const NodeId node = random_node();
      bool all_stamped = true;
      SimTime oldest = kTimeNever;
      for (const JobRuntime& rt : indexed.active_jobs()) {
        if (rt.pending_maps.empty()) continue;
        all_stamped = all_stamped && rt.waiting_since != kTimeNever;
        oldest = std::min(oldest, rt.waiting_since);
      }
      if (all_stamped && oldest != kTimeNever &&
          now - oldest < node_delay + rack_delay &&
          !index.node_has_candidates(node) &&
          (now - oldest < node_delay || !index.rack_has_candidates(node))) {
        ++gate_cases;
      }

      const auto a = gated.select_map(node, now, indexed, locator);
      const auto b = legacy.select_map(node, now, scanned, locator);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      for (JobId job : live_jobs) {
        ASSERT_EQ(indexed.job(job).waiting_since,
                  scanned.job(job).waiting_since)
            << "step " << step << " job " << job;
      }
      if (!a) continue;
      ASSERT_EQ(a->job, b->job) << "step " << step;
      ASSERT_EQ(a->pending_index, b->pending_index) << "step " << step;
      ASSERT_EQ(a->locality, b->locality) << "step " << step;
      ++selections;
      // A caller may drop a selection: the job's clock is reset all the
      // same, with no launch (and so no share change) to follow.
      if (rng.uniform_int(0, 9) == 0) continue;
      const std::size_t launched =
          indexed.launch_map(a->job, a->pending_index, a->locality);
      ASSERT_EQ(scanned.launch_map(b->job, b->pending_index, b->locality),
                launched);
      running.emplace_back(a->job, launched);
      running_tier.push_back(a->locality);
    }
  }
  EXPECT_GT(selections, 200);
  if (node_delay + rack_delay > 0) {
    EXPECT_GT(gate_cases, 200);
  }
}

INSTANTIATE_TEST_SUITE_P(Delays, FairGateOracleTest,
                         ::testing::Values(std::make_pair(0, 0),
                                           std::make_pair(0, 1),
                                           std::make_pair(1, 0),
                                           std::make_pair(1, 1)));

TEST(CandidateMapTest, DirectAndSparseLayoutsAnswerIdentically) {
  // The two layouts behind CandidateMap must be observationally identical:
  // drive one direct-mode and one sparse-mode map through the same
  // randomized mutation schedule and compare every slot's list afterwards
  // (and at checkpoints along the way).
  constexpr std::uint32_t kDomain = 64;
  CandidateMap direct;
  direct.reserve_domain(kDomain);
  CandidateMap sparse;
  sparse.reserve_slots(8);  // deliberately small: forces rehash chains

  ASSERT_TRUE(direct.direct());
  ASSERT_FALSE(sparse.direct());

  Rng rng(777);
  for (int step = 0; step < 5000; ++step) {
    const auto slot = static_cast<std::uint32_t>(rng.uniform_int(kDomain));
    if (rng.uniform_int(3) != 0) {
      const auto value = static_cast<std::uint32_t>(rng.uniform_int(1000));
      direct.slot_mut(slot).push_back(value);
      sparse.slot_mut(slot).push_back(value);
    } else {
      auto& d = direct.slot_mut(slot);
      auto& s = sparse.slot_mut(slot);
      ASSERT_EQ(d.size(), s.size());
      if (!d.empty()) {
        d.pop_back();
        s.pop_back();
      }
    }
    if (step % 500 == 0) {
      for (std::uint32_t k = 0; k < kDomain; ++k) {
        ASSERT_EQ(direct.find(k), sparse.find(k)) << "slot " << k;
      }
      ASSERT_EQ(direct.used(), sparse.used());
    }
  }
  for (std::uint32_t k = 0; k < kDomain; ++k) {
    EXPECT_EQ(direct.find(k), sparse.find(k)) << "slot " << k;
  }
  EXPECT_EQ(direct.all_empty(), sparse.all_empty());
}

TEST(CandidateMapTest, FindOnAbsentSlotReturnsEmpty) {
  CandidateMap sparse;
  EXPECT_TRUE(sparse.find(7).empty());  // empty table, no probe loop
  sparse.slot_mut(3).push_back(1);
  EXPECT_TRUE(sparse.find(7).empty());
  EXPECT_EQ(sparse.find(3).size(), 1u);

  CandidateMap direct;
  direct.reserve_domain(16);
  EXPECT_TRUE(direct.find(7).empty());
  EXPECT_EQ(direct.used(), 0u);  // find never inserts
}

}  // namespace
}  // namespace dare::sched
