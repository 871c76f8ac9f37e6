// Chaos soak: randomized stochastic fault schedules (mixed transient,
// permanent, and rack-correlated failures plus injected task failures)
// across every scheduler x policy combination. Every run must finish with
// every job terminally accounted, pass the full cross-component validation,
// never violate a DARE_INVARIANT (a throwing handler is installed), and
// never lose a block that still had a surviving replica.
//
// A second suite layers silent data corruption (bit rot + latent sector
// loss) on top of the churn and additionally audits the integrity pipeline
// (detection, quarantine, repair, last-good-replica protection).
//
// A third suite adds degraded-mode nodes and heavy-tailed task inflation on
// top of churn + corruption, with the full mitigation stack armed
// (straggler detection, budgeted cloning, speculation), and audits the
// clone ledger, degrade-episode ordering and trace-slice balance.
//
// A fourth suite adds network faults — stochastic rack partitions and
// degraded inter-rack uplinks — on top of churn + corruption, and audits
// the partition lifecycle (every heal matches an episode) and the repair
// ledger (every first-time enqueue terminally lands or is abandoned). It
// also mixes scripted partitions into the stochastic chains.
//
// 72 runs per suite = 12 seeds x {FIFO, Fair} x {Vanilla, GreedyLRU,
// ElephantTrap}. The nightly CI job extends the seed list via the
// DARE_SOAK_SEEDS environment variable (number of extra seeds to append);
// failing runs print their scheduler/policy/seed triple in the assertion
// message, so a red soak is reproducible locally with --gtest_filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "common/invariant.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"
#include "obs/trace_collector.h"
#include "soak_options.h"
#include "trace_balance.h"

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

struct SoakTotals {
  std::uint64_t runs = 0;
  std::uint64_t node_failures = 0;
  std::uint64_t transient = 0;
  std::uint64_t permanent = 0;
  std::uint64_t detected = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t attempt_failures = 0;
};

SoakTotals& totals() {
  static SoakTotals t;
  return t;
}

/// Soak seeds: fixed ones for CI's smoke slice, plus DARE_SOAK_SEEDS extra
/// ones for the scheduled long soak (the nightly job sets it to a count;
/// seeds are derived deterministically so any failure reproduces). Fixed
/// seeds past the first four are long-soak regressions: a repair landed on
/// a node that had adopted a dynamic copy of its block in flight. A derived
/// seed that is already fixed is not run twice.
std::vector<std::uint64_t> soak_seeds() {
  std::vector<std::uint64_t> seeds = {101,  202,  303,  404,  3134, 4104,
                                      5559, 5850, 6432, 9342, 9827, 10215};
  if (const char* extra = std::getenv("DARE_SOAK_SEEDS")) {
    const long n = std::strtol(extra, nullptr, 10);
    for (long i = 0; i < n; ++i) {
      const std::uint64_t seed = 1000u + 97u * static_cast<std::uint64_t>(i);
      if (std::find(seeds.begin(), seeds.end(), seed) == seeds.end()) {
        seeds.push_back(seed);
      }
    }
  }
  return seeds;
}

using SoakParam = std::tuple<SchedulerKind, PolicyKind, std::uint64_t>;

class ChaosSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(ChaosSoak, RandomChurnScheduleSurvives) {
  ThrowOnInvariant guard;
  const auto [scheduler, policy, seed] = GetParam();
  const auto opts = soak_options(scheduler, policy, seed);
  const auto wl = soak_workload(seed);

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl))
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;

  // Every job is terminally accounted: completed or cleanly failed, never
  // dangling.
  ASSERT_EQ(result.jobs.size(), wl.jobs.size());
  std::size_t failed = 0;
  for (const auto& jm : result.jobs) {
    EXPECT_GE(jm.completion, jm.arrival);
    if (jm.failed) ++failed;
  }
  EXPECT_EQ(failed, result.failed_jobs);

  // Full cross-component consistency after the dust settles.
  EXPECT_NO_THROW(cluster.validate());

  // Zero lost blocks while a replica survives: a block may only be counted
  // lost if no live node physically holds a copy.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      if (!nn.locations(bid).empty()) continue;  // not lost
      for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
        if (!nn.is_node_alive(static_cast<NodeId>(w))) continue;
        EXPECT_FALSE(cluster.data_node(w).has_any_copy(bid))
            << "block " << bid << " reported lost but alive on node " << w;
      }
    }
  }

  // Replication budgets hold on every live node.
  if (policy != PolicyKind::kVanilla) {
    for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
      EXPECT_LE(cluster.data_node(w).dynamic_bytes(),
                cluster.node_budget_bytes());
    }
  }

  // Detection accounting is sane: every detection corresponds to a failure
  // and took at least K-1 heartbeat intervals (a node may die right after
  // beating, never right before being declared).
  EXPECT_LE(result.failures_detected, result.node_failures);
  EXPECT_GE(result.detection_latency_total_s,
            static_cast<double>(result.failures_detected) * 2.0 * 3.0);
  EXPECT_LE(result.node_rejoins,
            result.transient_failures + result.failures_detected);
  EXPECT_EQ(result.node_failures,
            result.transient_failures + result.permanent_failures);

  auto& t = totals();
  ++t.runs;
  t.node_failures += result.node_failures;
  t.transient += result.transient_failures;
  t.permanent += result.permanent_failures;
  t.detected += result.failures_detected;
  t.rejoins += result.node_rejoins;
  t.attempt_failures += result.task_attempt_failures;
}

std::vector<SoakParam> soak_params() {
  std::vector<SoakParam> params;
  for (const auto scheduler : {SchedulerKind::kFifo, SchedulerKind::kFair}) {
    for (const auto policy : {PolicyKind::kVanilla, PolicyKind::kGreedyLru,
                              PolicyKind::kElephantTrap}) {
      for (std::uint64_t seed : soak_seeds()) {
        params.emplace_back(scheduler, policy, seed);
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Schedules, ChaosSoak,
                         ::testing::ValuesIn(soak_params()));

// --- corruption soak -------------------------------------------------------
// Same randomized churn, plus silent corruption: per-read bit rot and
// latent sector loss. Every run must additionally keep the integrity
// pipeline honest — quarantined replicas invisible, repairs restoring
// replication, and the last copy of a block never deleted.

struct CorruptionTotals {
  std::uint64_t runs = 0;
  std::uint64_t corrupt_replicas = 0;
  std::uint64_t corrupt_reads = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t repaired = 0;
  std::uint64_t data_loss = 0;
};

CorruptionTotals& corruption_totals() {
  static CorruptionTotals t;
  return t;
}

class CorruptionSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(CorruptionSoak, ChurnPlusCorruptionSurvives) {
  ThrowOnInvariant guard;
  const auto [scheduler, policy, seed] = GetParam();
  const auto opts = corruption_soak_options(scheduler, policy, seed);
  const auto wl = soak_workload(seed);

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl))
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;

  // Terminal accounting and cross-component consistency, as in ChaosSoak.
  ASSERT_EQ(result.jobs.size(), wl.jobs.size());
  for (const auto& jm : result.jobs) EXPECT_GE(jm.completion, jm.arrival);
  EXPECT_NO_THROW(cluster.validate());

  // Integrity accounting is internally consistent: every quarantine came
  // from a checksum-failed read or a rejoin scrub of an already-corrupt
  // copy, and repairs only happen for quarantine/death-induced holes.
  EXPECT_LE(result.replicas_quarantined,
            result.corrupt_replicas + result.corrupt_reads);
  if (result.rereplicated_blocks > 0) {
    EXPECT_GT(result.mean_repair_latency_s, 0.0);
  }

  // Last-good-replica protection, globally: a block the name node still
  // advertises must have a physical copy wherever the advertised holder is
  // alive; a block advertised nowhere may only have copies on dead nodes.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      if (!nn.locations(bid).empty()) continue;
      for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
        if (!nn.is_node_alive(static_cast<NodeId>(w))) continue;
        EXPECT_FALSE(cluster.data_node(w).has_any_copy(bid))
            << "block " << bid << " unadvertised but alive on node " << w
            << " (" << scheduler_name(scheduler) << "/"
            << policy_name(policy) << " seed " << seed << ")";
      }
    }
  }

  auto& t = corruption_totals();
  ++t.runs;
  t.corrupt_replicas += result.corrupt_replicas;
  t.corrupt_reads += result.corrupt_reads;
  t.quarantined += result.replicas_quarantined;
  t.repaired += result.rereplicated_blocks;
  t.data_loss += result.data_loss_events;
}

INSTANTIATE_TEST_SUITE_P(Schedules, CorruptionSoak,
                         ::testing::ValuesIn(soak_params()));

// Forced last-good-replica scenario under churn: every replica of block 0
// is struck at once, so detection must quarantine down to — and then
// protect — the final corrupt copy, while stochastic failures rage on.
TEST(CorruptionSoakLastReplica, QuarantineNeverDeletesFinalCopy) {
  ThrowOnInvariant guard;
  for (std::uint64_t seed : {606u, 707u, 808u}) {
    auto opts = soak_options(SchedulerKind::kFair, PolicyKind::kElephantTrap,
                             seed);
    opts.corruption_events.push_back(
        {from_seconds(0.5), BlockId{0}, kInvalidNode});

    // Every job reads the single block 0, so the corrupt copies are
    // discovered early and repeatedly.
    workload::Workload wl;
    wl.name = "one-block-soak";
    wl.catalog.push_back({"f0", 1});
    for (std::size_t i = 0; i < 12; ++i) {
      workload::JobTemplate job;
      job.arrival = from_seconds(1.0 + 2.0 * static_cast<double>(i));
      job.map_cpu = from_seconds(1.0);
      job.reduce_cpu = from_seconds(0.2);
      wl.jobs.push_back(job);
    }

    Cluster cluster(opts);
    metrics::RunResult result;
    ASSERT_NO_THROW(result = cluster.run(wl)) << "seed " << seed;
    ASSERT_EQ(result.jobs.size(), wl.jobs.size());
    EXPECT_NO_THROW(cluster.validate());

    // All three copies were struck; the loss was surfaced, and quarantine
    // stopped short of the final copy.
    EXPECT_EQ(result.corrupt_replicas, 3u) << "seed " << seed;
    EXPECT_GE(result.data_loss_events, 1u) << "seed " << seed;

    const auto& nn = cluster.name_node();
    std::size_t copies = 0;
    for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
      if (cluster.data_node(w).has_any_copy(0)) ++copies;
    }
    if (!nn.locations(0).empty()) {
      // The advertised final copy physically exists: quarantine never
      // deleted it, no matter how often its bad checksum was re-reported.
      EXPECT_GE(copies, 1u) << "seed " << seed;
    } else {
      // Only a node death may take the final copy off the books — any
      // surviving physical copy must belong to a currently-dead node.
      for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
        if (cluster.data_node(w).has_any_copy(0)) {
          EXPECT_FALSE(nn.is_node_alive(static_cast<NodeId>(w)))
              << "seed " << seed << " node " << w;
        }
      }
    }
  }
}

// --- straggler soak --------------------------------------------------------
// The full storm: stochastic churn, silent corruption, degraded-mode nodes,
// and heavy-tailed task inflation — with the whole mitigation stack armed
// (progress-rate straggler detection, budgeted task cloning, speculation).
// Clone accounting must balance exactly even when node deaths, job kills,
// and zombie attempts interleave with the clone races. Each case runs a
// second time traced: same fingerprint, and no map slice left open.

struct StragglerTotals {
  std::uint64_t runs = 0;
  std::uint64_t onsets = 0;
  std::uint64_t inflations = 0;
  std::uint64_t detections = 0;
  std::uint64_t clones = 0;
  std::uint64_t clone_wins = 0;
};

StragglerTotals& straggler_totals() {
  static StragglerTotals t;
  return t;
}

class StragglerSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(StragglerSoak, ChurnCorruptionAndStragglersSurvive) {
  ThrowOnInvariant guard;
  const auto [scheduler, policy, seed] = GetParam();
  const auto opts = straggler_soak_options(scheduler, policy, seed);
  const auto wl = soak_workload(seed);

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl))
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;

  // Terminal accounting: every job completed or cleanly failed.
  ASSERT_EQ(result.jobs.size(), wl.jobs.size());
  std::size_t failed = 0;
  for (const auto& jm : result.jobs) {
    EXPECT_GE(jm.completion, jm.arrival);
    if (jm.failed) ++failed;
  }
  EXPECT_EQ(failed, result.failed_jobs);

  // Cross-component consistency — includes the clone-count invariant and
  // the all-slots-returned check.
  EXPECT_NO_THROW(cluster.validate());

  // Clone ledger balances exactly: a clone either won its race or was
  // killed (by the race, a node death sweep, or its job failing) — never
  // both, never neither.
  EXPECT_EQ(result.clone_wins + result.clones_killed, result.clones_launched);
  EXPECT_LE(result.clone_wins, result.clones_launched);

  // Degrade episodes open and close in order.
  EXPECT_LE(result.degraded_recoveries, result.degraded_onsets);
  EXPECT_LE(result.straggler_readmissions, result.stragglers_detected);

  // Block conservation still holds under the combined storm.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      if (!nn.locations(bid).empty()) continue;
      for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
        if (!nn.is_node_alive(static_cast<NodeId>(w))) continue;
        EXPECT_FALSE(cluster.data_node(w).has_any_copy(bid))
            << "block " << bid << " reported lost but alive on node " << w
            << " (" << scheduler_name(scheduler) << "/"
            << policy_name(policy) << " seed " << seed << ")";
      }
    }
  }

  // The same run traced: tracing only observes, and every map attempt the
  // hedges, kills and node-loss sweeps ended closed its trace slice.
  auto traced = opts;
  obs::TraceCollector tracer;
  traced.tracer = &tracer;
  EXPECT_EQ(metrics::fingerprint(run_once(traced, wl)),
            metrics::fingerprint(result))
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;
  EXPECT_EQ(obs::testing::unbalanced_task_slices(tracer), "")
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;

  auto& t = straggler_totals();
  ++t.runs;
  t.onsets += result.degraded_onsets;
  t.inflations += result.tail_inflations;
  t.detections += result.stragglers_detected;
  t.clones += result.clones_launched;
  t.clone_wins += result.clone_wins;
}

INSTANTIATE_TEST_SUITE_P(Schedules, StragglerSoak,
                         ::testing::ValuesIn(soak_params()));

// --- network-fault soak ----------------------------------------------------
// Churn + corruption + network faults: stochastic rack partitions (lost
// heartbeats, false-positive declarations, heal-time re-registration) and
// degraded inter-rack uplinks, with the prioritized bandwidth-aware repair
// scheduler doing the cleanup. Audits the partition lifecycle and the
// repair ledger on every run.

struct NetFaultTotals {
  std::uint64_t runs = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;
  std::uint64_t link_episodes = 0;
  std::uint64_t unreachable_reads = 0;
  std::uint64_t repairs_enqueued = 0;
  std::uint64_t repair_retries = 0;
};

NetFaultTotals& netfault_totals() {
  static NetFaultTotals t;
  return t;
}

ClusterOptions netfault_soak_options(SchedulerKind scheduler,
                                     PolicyKind policy, std::uint64_t seed) {
  auto opts = corruption_soak_options(scheduler, policy, seed);
  opts.netfault.enabled = true;
  opts.netfault.partition_mtbf_s = 90.0;
  opts.netfault.partition_duration_s = 20.0;
  opts.netfault.link_degrade_mtbf_s = 60.0;
  opts.netfault.link_degrade_duration_s = 30.0;
  opts.netfault.bandwidth_cut = 0.25;
  opts.netfault.latency_inflation = 4.0;
  opts.repair_policy = RepairPolicy::kPrioritized;
  opts.max_repairs_per_uplink = 2;
  opts.repair_retry_backoff = from_seconds(2.0);
  opts.rereplication_interval = from_seconds(1.0);
  return opts;
}

class NetFaultSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(NetFaultSoak, ChurnCorruptionAndPartitionsSurvive) {
  ThrowOnInvariant guard;
  const auto [scheduler, policy, seed] = GetParam();
  const auto opts = netfault_soak_options(scheduler, policy, seed);
  const auto wl = soak_workload(seed);

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl))
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;

  // Terminal accounting: every job completed or cleanly failed.
  ASSERT_EQ(result.jobs.size(), wl.jobs.size());
  std::size_t failed = 0;
  for (const auto& jm : result.jobs) {
    EXPECT_GE(jm.completion, jm.arrival);
    if (jm.failed) ++failed;
  }
  EXPECT_EQ(failed, result.failed_jobs);

  // Cross-component consistency — includes the repair-ledger equation and
  // the partitioned-node slot checks.
  EXPECT_NO_THROW(cluster.validate());

  // Partition lifecycle: heals never outnumber episodes, and one-replica
  // exposure windows all closed (open windows are closed at collection, so
  // accounting is total).
  EXPECT_LE(result.partitions_healed, result.partition_episodes);
  // Every mid-transfer timeout fed the retry path: it either re-queued
  // (counted as a retry) or gave up (counted as an abandon).
  EXPECT_LE(result.repair_timeouts,
            result.repair_retries + result.repairs_abandoned);

  // Repair ledger closes out at run end: nothing queued, nothing inflight.
  EXPECT_EQ(result.repairs_enqueued,
            result.repairs_landed + result.repairs_abandoned)
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;

  // Block conservation under partitions: a block advertised nowhere may
  // not physically live on any live node.
  const auto& nn = cluster.name_node();
  for (FileId fid : nn.all_files()) {
    for (BlockId bid : nn.file(fid).blocks) {
      if (!nn.locations(bid).empty()) continue;
      for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
        if (!nn.is_node_alive(static_cast<NodeId>(w))) continue;
        EXPECT_FALSE(cluster.data_node(w).has_any_copy(bid))
            << "block " << bid << " reported lost but alive on node " << w
            << " (" << scheduler_name(scheduler) << "/"
            << policy_name(policy) << " seed " << seed << ")";
      }
    }
  }

  auto& t = netfault_totals();
  ++t.runs;
  t.partitions += result.partition_episodes;
  t.heals += result.partitions_healed;
  t.link_episodes += result.link_degrade_episodes;
  t.unreachable_reads += result.unreachable_reads;
  t.repairs_enqueued += result.repairs_enqueued;
  t.repair_retries += result.repair_retries;
}

// Scripted partitions layered over the armed stochastic chains: one
// supersedes its rack's pending onset, one lands on an already-partitioned
// rack (absorbed), and a cluster-wide burst trips the connected-side guard.
// Every path must leave each rack exactly one pending event, which the
// chain audit (a throwing DARE_INVARIANT here) and validate() check.
TEST_P(NetFaultSoak, ScriptedPartitionsOverlapStochasticChains) {
  ThrowOnInvariant guard;
  const auto [scheduler, policy, seed] = GetParam();
  auto opts = netfault_soak_options(scheduler, policy, seed);
  std::size_t racks = 0;
  RackId first = 0;
  {
    Cluster probe(opts);
    racks = probe.topology().rack_count();
    first = probe.topology().rack_of(0);
  }
  opts.partition_events.push_back({from_seconds(5.0), first,
                                   from_seconds(20.0)});
  opts.partition_events.push_back({from_seconds(12.0), first,
                                   from_seconds(5.0)});
  for (std::size_t r = 0; r < racks; ++r) {
    opts.partition_events.push_back(
        {from_seconds(30.0), static_cast<RackId>(r), from_seconds(10.0)});
  }
  const auto wl = soak_workload(seed);

  Cluster cluster(opts);
  metrics::RunResult result;
  ASSERT_NO_THROW(result = cluster.run(wl))
      << scheduler_name(scheduler) << "/" << policy_name(policy) << " seed "
      << seed;
  ASSERT_EQ(result.jobs.size(), wl.jobs.size());
  EXPECT_NO_THROW(cluster.validate());
  EXPECT_GE(result.partition_episodes, 1u);
  EXPECT_LE(result.partitions_healed, result.partition_episodes);
  EXPECT_EQ(result.repairs_enqueued,
            result.repairs_landed + result.repairs_abandoned);
}

INSTANTIATE_TEST_SUITE_P(Schedules, NetFaultSoak,
                         ::testing::ValuesIn(soak_params()));

// The suite itself must cover >= 20 randomized schedules (this holds even
// under --gtest_filter, since it audits the registration, not the runs).
TEST(ChaosSoakAggregate, SuiteCoversAtLeastTwentySchedules) {
  EXPECT_GE(soak_params().size(), 20u);
}

// Runs after every test (global environment teardown) and audits the
// aggregate: across the full soak the randomized schedules must actually
// have exercised churn — transient AND permanent failures, heartbeat
// detections, rejoins. Skipped when the suite was filtered down.
class SoakAggregateAudit : public ::testing::Environment {
 public:
  void TearDown() override {
    const auto& t = totals();
    if (t.runs == 0) return;  // whole suite filtered out
    EXPECT_EQ(t.runs, soak_params().size())
        << "soak suite partially filtered; aggregate not meaningful";
    EXPECT_GT(t.node_failures, 0u);
    EXPECT_GT(t.transient, 0u);
    EXPECT_GT(t.permanent, 0u);
    EXPECT_GT(t.detected, 0u);
    EXPECT_GT(t.rejoins, 0u);

    // The corruption soak must actually have injected, detected, and
    // repaired damage somewhere across the suite.
    const auto& c = corruption_totals();
    if (c.runs == 0) return;  // corruption suite filtered out
    EXPECT_EQ(c.runs, soak_params().size())
        << "corruption soak partially filtered; aggregate not meaningful";
    EXPECT_GT(c.corrupt_replicas, 0u);
    EXPECT_GT(c.corrupt_reads, 0u);
    EXPECT_GT(c.quarantined, 0u);
    EXPECT_GT(c.repaired, 0u);

    // And the straggler soak must actually have degraded nodes, inflated
    // tasks, detected stragglers, and raced clones somewhere.
    const auto& s = straggler_totals();
    if (s.runs == 0) return;  // straggler suite filtered out
    EXPECT_EQ(s.runs, soak_params().size())
        << "straggler soak partially filtered; aggregate not meaningful";
    EXPECT_GT(s.onsets, 0u);
    EXPECT_GT(s.inflations, 0u);
    EXPECT_GT(s.detections, 0u);
    EXPECT_GT(s.clones, 0u);
    EXPECT_GT(s.clone_wins, 0u);

    // And the network-fault soak must actually have partitioned racks,
    // healed them, degraded uplinks, failed reads fast, queued repairs,
    // and backed off retries somewhere across the suite.
    const auto& n = netfault_totals();
    if (n.runs == 0) return;  // netfault suite filtered out
    EXPECT_EQ(n.runs, soak_params().size())
        << "netfault soak partially filtered; aggregate not meaningful";
    EXPECT_GT(n.partitions, 0u);
    EXPECT_GT(n.heals, 0u);
    EXPECT_GT(n.link_episodes, 0u);
    EXPECT_GT(n.unreachable_reads, 0u);
    EXPECT_GT(n.repairs_enqueued, 0u);
    EXPECT_GT(n.repair_retries, 0u);
  }
};

const auto* const kSoakAudit =
    ::testing::AddGlobalTestEnvironment(new SoakAggregateAudit);

}  // namespace
}  // namespace dare::cluster
