// Fault-tolerance tests: node failures, task re-execution, each way a task
// attempt ends, name-node re-replication, and DARE's contribution to
// availability (Section IV-B: dynamic replicas are first-order replicas and
// count toward availability).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "common/rng.h"
#include "metrics/run_metrics.h"
#include "obs/trace_collector.h"
#include "trace_balance.h"

namespace dare::cluster {
namespace {

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

ClusterOptions failing_options(PolicyKind policy, double fail_at_s,
                               NodeId victim = 2) {
  ClusterOptions opts =
      paper_defaults(net::cct_profile(10), SchedulerKind::kFifo, policy);
  opts.failures.push_back({from_seconds(fail_at_s), victim});
  return opts;
}

TEST(FailureInjection, RunCompletesDespiteNodeLoss) {
  Cluster cluster(failing_options(PolicyKind::kVanilla, 5.0));
  const auto wl = small_workload();
  const auto result = cluster.run(wl);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) {
    EXPECT_GT(jm.completion, jm.arrival);
  }
}

TEST(FailureInjection, RunningTasksAreReexecuted) {
  // Fail a node mid-run under load; some tasks must have been requeued.
  Cluster cluster(failing_options(PolicyKind::kVanilla, 10.0));
  const auto result = cluster.run(small_workload(120));
  EXPECT_GT(result.task_reexecutions, 0u);
}

TEST(FailureInjection, NameNodeDropsDeadNodeReplicas) {
  Cluster cluster(failing_options(PolicyKind::kVanilla, 5.0, 3));
  (void)cluster.run(small_workload());
  const auto& nn = cluster.name_node();
  EXPECT_FALSE(nn.is_node_alive(3));
  // No block location may reference the dead node, except via repair (which
  // never targets dead nodes).
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      const auto& locs = nn.locations(bid);
      EXPECT_EQ(std::count(locs.begin(), locs.end(), NodeId{3}), 0);
    }
  }
}

TEST(FailureInjection, ReplicationFactorRestored) {
  auto opts = failing_options(PolicyKind::kVanilla, 5.0);
  opts.rereplication_interval = from_seconds(1.0);
  opts.rereplication_batch = 64;
  Cluster cluster(opts);
  const auto result = cluster.run(small_workload(150));
  EXPECT_GT(result.rereplicated_blocks, 0u);
  // After repair, every block is back at full replication.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      EXPECT_GE(nn.static_locations(bid).size(), 3u) << "block " << bid;
    }
  }
  EXPECT_EQ(result.blocks_lost, 0u);
}

TEST(FailureInjection, RereplicationCanBeDisabled) {
  auto opts = failing_options(PolicyKind::kVanilla, 5.0);
  opts.enable_rereplication = false;
  Cluster cluster(opts);
  const auto result = cluster.run(small_workload());
  EXPECT_EQ(result.rereplicated_blocks, 0u);
  // Some blocks stay under-replicated.
  const auto& nn = cluster.name_node();
  std::size_t under = 0;
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      if (nn.static_locations(bid).size() < 3) ++under;
    }
  }
  EXPECT_GT(under, 0u);
}

TEST(FailureInjection, MultipleFailuresSurvivable) {
  auto opts = failing_options(PolicyKind::kElephantTrap, 5.0, 1);
  opts.failures.push_back({from_seconds(15.0), NodeId{4}});
  opts.failures.push_back({from_seconds(25.0), NodeId{7}});
  Cluster cluster(opts);
  const auto result = cluster.run(small_workload(120));
  EXPECT_EQ(result.jobs.size(), 120u);
}

TEST(FailureInjection, DoubleKillOfDeadWorkerIsANoOp) {
  // Killing a worker that is already down must not re-run any of the
  // failure machinery (no second NameNode::node_failed, no double
  // requeueing): a run with a redundant second kill of the same victim is
  // bit-identical to the run with a single kill.
  const auto wl = small_workload(120);
  auto once = failing_options(PolicyKind::kGreedyLru, 5.0);
  auto twice = failing_options(PolicyKind::kGreedyLru, 5.0);
  twice.failures.push_back({from_seconds(20.0), NodeId{2}});  // already dead

  const auto r_once = run_once(once, wl);
  const auto r_twice = run_once(twice, wl);
  EXPECT_EQ(r_twice.node_failures, 1u);
  EXPECT_EQ(r_twice.failures_detected, 1u);
  EXPECT_EQ(metrics::fingerprint(r_once), metrics::fingerprint(r_twice));
}

TEST(FailureInjection, NameNodeNodeFailedIsIdempotent) {
  Rng rng(5);
  storage::NameNode nn(6, nullptr, rng);
  const FileId fid = nn.create_file("f", 4, 64, 3, 0);
  (void)fid;
  const auto first = nn.node_failed(1);
  EXPECT_FALSE(nn.is_node_alive(1));
  // A second declaration reports nothing new and re-queues nothing.
  const auto second = nn.node_failed(1);
  EXPECT_TRUE(second.empty());
  EXPECT_FALSE(nn.is_node_alive(1));
  (void)first;
}

TEST(FailureInjection, FailingUnknownWorkerThrows) {
  auto opts = failing_options(PolicyKind::kVanilla, 5.0, 99);
  Cluster cluster(opts);
  EXPECT_THROW(cluster.run(small_workload()), std::invalid_argument);
}

TEST(FailureInjection, DeterministicUnderFailures) {
  const auto wl = small_workload(100);
  const auto opts = failing_options(PolicyKind::kElephantTrap, 8.0);
  const auto r1 = run_once(opts, wl);
  const auto r2 = run_once(opts, wl);
  EXPECT_DOUBLE_EQ(r1.gmtt_s, r2.gmtt_s);
  EXPECT_EQ(r1.task_reexecutions, r2.task_reexecutions);
  EXPECT_EQ(r1.rereplicated_blocks, r2.rereplicated_blocks);
}

/// Randomized failure sweep: arbitrary victims at arbitrary times, every
/// run must complete and pass the full cross-component validation.
class FailureSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureSweep, AnyFailureScheduleSurvivesAndValidates) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  auto opts = paper_defaults(net::cct_profile(12), SchedulerKind::kFifo,
                             PolicyKind::kElephantTrap, seed);
  opts.rereplication_interval = from_seconds(2.0);
  const auto kills = 1 + rng.uniform_int(std::uint64_t{3});
  std::set<NodeId> victims;
  for (std::uint64_t k = 0; k < kills; ++k) {
    const auto victim =
        static_cast<NodeId>(rng.uniform_int(std::uint64_t{11}));
    if (!victims.insert(victim).second) continue;  // distinct victims only
    opts.failures.push_back(
        {from_seconds(rng.uniform(2.0, 40.0)), victim});
  }
  Cluster cluster(opts);
  const auto wl = small_workload(100, seed);
  const auto result = cluster.run(wl);
  EXPECT_EQ(result.jobs.size(), wl.jobs.size());
  EXPECT_NO_THROW(cluster.validate());
  // With replication 3 and at most 3 failures on 11 workers, data loss is
  // possible only if all of a block's replicas were hit — flag it if the
  // invariant machinery reports otherwise-impossible loss.
  if (victims.size() < 3) {
    EXPECT_EQ(result.blocks_lost, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, FailureSweep,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{9}));

TEST(FailureInjection, DareReplicasImproveAvailabilityWindow) {
  // Between the failure and the end of re-replication, blocks with a DARE
  // replica have more surviving copies. Compare minimum replica counts
  // immediately after a failure with re-replication disabled.
  auto vanilla_opts = failing_options(PolicyKind::kVanilla, 30.0);
  vanilla_opts.enable_rereplication = false;
  auto dare_opts = failing_options(PolicyKind::kGreedyLru, 30.0);
  dare_opts.enable_rereplication = false;

  const auto wl = small_workload(150);
  Cluster vanilla(vanilla_opts);
  Cluster dare(dare_opts);
  (void)vanilla.run(wl);
  (void)dare.run(wl);

  const auto total_replicas = [](const Cluster& c) {
    std::size_t total = 0;
    const auto& nn = c.name_node();
    for (FileId fid : nn.all_files()) {
      for (BlockId bid : nn.file(fid).blocks) {
        total += nn.locations(bid).size();
      }
    }
    return total;
  };
  EXPECT_GT(total_replicas(dare), total_replicas(vanilla));
}

// --- each way a task attempt ends ----------------------------------------
// One case per way a reduce attempt ends, each a traced run of the same
// reduce-heavy workload and seed under the options that produce it. The
// trace shows the end happened; then every case checks what any end must
// leave behind: the cluster validates (every slot back, no leaked flow),
// every map and reduce attempt's slice closed exactly once, and the
// counters agree with the trace.

using obs::EventKind;
using obs::TraceEvent;

/// wl2 on a catalog with large files: scans of 24-32 blocks run 6-8
/// reduces at once.
workload::Workload reduce_heavy_workload(std::uint64_t seed) {
  workload::WorkloadOptions opts;
  opts.num_jobs = 40;
  opts.seed = seed;
  opts.catalog.small_files = 8;
  opts.catalog.large_files = 4;
  opts.catalog.large_min_blocks = 24;
  opts.catalog.large_max_blocks = 32;
  return workload::make_wl2(opts);
}

/// Whether events[i] belongs to its job's failure: fail_job traces its
/// kills, then kJobFailed, at the instant of the fault that failed it.
bool fails_its_job(const std::vector<TraceEvent>& events, std::size_t i) {
  for (std::size_t k = i + 1; k < events.size() && events[k].t == events[i].t;
       ++k) {
    if (events[k].kind == EventKind::kJobFailed &&
        events[k].job == events[i].job) {
      return true;
    }
  }
  return false;
}

/// Whether events[i]'s node is down: failed and not rejoined since.
bool node_down(const std::vector<TraceEvent>& events, std::size_t i) {
  bool down = false;
  for (std::size_t k = 0; k < i; ++k) {
    if (events[k].node != events[i].node) continue;
    if (events[k].kind == EventKind::kNodeFailed) down = true;
    if (events[k].kind == EventKind::kNodeRejoined) down = false;
  }
  return down;
}

bool reduce_fault(const TraceEvent& e) {
  return e.kind == EventKind::kTaskAttemptFault && e.detail == 1;
}

void enable_churn(ClusterOptions& o) {
  o.faults.enabled = true;
  o.faults.mtbf_s = 30.0;
  o.faults.mttr_s = 30.0;
  o.faults.permanent_fraction = 0.0;
  o.faults.min_live_workers = 4;
}

void enable_attempt_faults(ClusterOptions& o, std::size_t max_attempts) {
  o.faults.enabled = true;
  o.faults.mtbf_s = 1e9;  // no churn unless enable_churn overrides it
  o.faults.task_failure_prob = 0.2;
  o.max_task_attempts = max_attempts;
}

struct AttemptEnd {
  const char* name;
  void (*configure)(ClusterOptions&);
  /// Whether events[i] is this way of ending, for a reduce attempt.
  bool (*seen)(const std::vector<TraceEvent>&, std::size_t);
};

const AttemptEnd kAttemptEnds[] = {
    {"reduce finishes", [](ClusterOptions&) {},
     [](const std::vector<TraceEvent>& ev, std::size_t i) {
       return ev[i].kind == EventKind::kReduceFinished;
     }},
    {"reduce faults and is requeued",
     [](ClusterOptions& o) { enable_attempt_faults(o, 100); },
     [](const std::vector<TraceEvent>& ev, std::size_t i) {
       return reduce_fault(ev[i]) && !fails_its_job(ev, i);
     }},
    {"reduce fault exhausts the budget and fails the job",
     [](ClusterOptions& o) { enable_attempt_faults(o, 2); },
     [](const std::vector<TraceEvent>& ev, std::size_t i) {
       return reduce_fault(ev[i]) && fails_its_job(ev, i);
     }},
    {"reduce killed by the node-loss sweep", enable_churn,
     [](const std::vector<TraceEvent>& ev, std::size_t i) {
       return ev[i].kind == EventKind::kReduceRequeued && !fails_its_job(ev, i);
     }},
    // On this seed the killed reduce is a zombie: its completion fired on
    // the down node before the job failed, and the kill is its only end.
    {"zombie reduce killed by fail_job",
     [](ClusterOptions& o) {
       enable_attempt_faults(o, 2);
       enable_churn(o);
     },
     [](const std::vector<TraceEvent>& ev, std::size_t i) {
       return ev[i].kind == EventKind::kReduceRequeued &&
              fails_its_job(ev, i) && node_down(ev, i);
     }},
};

class AttemptEnds : public ::testing::TestWithParam<AttemptEnd> {};

TEST_P(AttemptEnds, LeaveSlotsSlicesAndCountersStraight) {
  const AttemptEnd& end = GetParam();
  constexpr std::uint64_t kSeed = 12;
  auto opts = paper_defaults(net::cct_profile(10), SchedulerKind::kFifo,
                             PolicyKind::kVanilla, kSeed);
  end.configure(opts);
  obs::TraceCollector tracer;
  opts.tracer = &tracer;
  Cluster cluster(opts);
  const auto result = cluster.run(reduce_heavy_workload(kSeed));
  const auto& events = tracer.events();

  std::size_t seen = 0;
  std::size_t faults = 0;
  std::size_t failed = 0;
  std::size_t requeues = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (end.seen(events, i)) ++seen;
    if (e.kind == EventKind::kTaskAttemptFault) ++faults;
    if (e.kind == EventKind::kJobFailed) ++failed;
    // A map task is requeued by name; a reduce after a fault or a kill
    // that did not fail its job.
    if (e.kind == EventKind::kMapRequeued ||
        ((reduce_fault(e) || e.kind == EventKind::kReduceRequeued) &&
         !fails_its_job(events, i))) {
      ++requeues;
    }
  }
  EXPECT_GT(seen, 0u) << end.name << ": the end never happened";
  EXPECT_NO_THROW(cluster.validate()) << end.name;
  EXPECT_EQ(obs::testing::unbalanced_task_slices(tracer), "") << end.name;
  EXPECT_EQ(result.task_attempt_failures, faults) << end.name;
  EXPECT_EQ(result.failed_jobs, failed) << end.name;
  EXPECT_EQ(result.task_reexecutions, requeues) << end.name;
}

INSTANTIATE_TEST_SUITE_P(EachEnd, AttemptEnds,
                         ::testing::ValuesIn(kAttemptEnds));

}  // namespace
}  // namespace dare::cluster
