// Stochastic node-churn model: when nodes fail, how they fail, and how long
// they stay down.
//
// Real clusters do not fail on a script. Each worker alternates between an
// up period (exponential, mean MTBF) and a down period (exponential, mean
// MTTR). A failure is *transient* (the machine reboots and rejoins with its
// disk contents stale but intact) or *permanent* (the disk is lost with the
// node) with a configurable split, matching the recovery taxonomy used by
// HDFS operators. Failures can optionally be rack-correlated: a sampled
// fraction of failures takes the victim's whole rack down with it (switch
// or PDU loss), which is the scenario HDFS's rack-aware placement defends
// against. Independently, any completed task attempt can be failed with a
// small probability (task JVM crashes), exercising Hadoop's attempt-retry
// and blacklisting machinery.
//
// Everything is driven by a forked `Rng` stream, so enabling churn never
// perturbs the draws of other components and every schedule is
// bit-reproducible from the seed (this directory is covered by
// tools/dare_lint.py's determinism rules).
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "common/types.h"

namespace dare::faults {

/// How a node failure affects its disk.
enum class FaultKind {
  kTransient,  ///< node returns after a downtime; disk contents stale but kept
  kPermanent,  ///< node (and its disk) is gone for good
};

struct FaultInjectionParams {
  /// Master switch; when false no fault process is created and runs are
  /// bit-identical to a build without this subsystem.
  bool enabled = false;

  /// Mean time between failures per node, seconds (exponential).
  double mtbf_s = 600.0;

  /// Mean time to recovery for transient failures, seconds (exponential).
  double mttr_s = 45.0;

  /// Fraction of failures that are permanent (disk lost, no rejoin).
  double permanent_fraction = 0.15;

  /// Probability that a failure takes the victim's whole rack down with it
  /// (top-of-rack switch / PDU loss). Ignored on single-rack topologies.
  double rack_correlation = 0.0;

  /// Probability that an otherwise-successful task attempt fails on
  /// completion (task JVM crash). Drives attempt retries and blacklisting.
  double task_failure_prob = 0.0;

  /// The injector never reduces the physically-live worker count below this
  /// floor (a cluster with no survivors cannot finish any run).
  std::size_t min_live_workers = 3;
};

/// Silent data-corruption model: per-replica bit rot discovered on read plus
/// latent whole-replica sector loss striking idle copies in the background.
struct CorruptionParams {
  /// Master switch; when false no corruption process is created and runs are
  /// bit-identical to a build without this subsystem.
  bool enabled = false;

  /// Expected checksum failures per gigabyte scanned. Each verified read of
  /// `bytes` flips its replica corrupt with probability
  /// 1 - exp(-bitrot_per_gb * bytes / 1e9).
  double bitrot_per_gb = 0.0;

  /// Mean time between latent sector-loss events cluster-wide, seconds
  /// (exponential). Each event silently corrupts one replica on one random
  /// live node; the damage surfaces only when a read verifies the copy.
  /// Zero disables the latent process (bit rot only).
  double sector_mtbf_s = 0.0;
};

/// Straggler / degraded-mode model: nodes that limp rather than fail.
///
/// Two independent mechanisms, both on the same forked stream:
///  - *Persistent degradation*: each node alternates between nominal speed
///    and a degraded mode (exponential onset/recovery) during which its
///    compute and disk are slowed by constant factors. Optionally
///    rack-correlated (a shared switch or PDU limps, dragging the victim's
///    rack peers into degradation with it).
///  - *Heavy-tailed task inflation*: any launched task attempt can have its
///    service time multiplied by a bounded-Pareto (or clamped lognormal)
///    factor, reproducing the heavy-tailed attempt durations that motivate
///    proactive cloning (arXiv 1501.02330).
struct StragglerParams {
  /// Master switch; when false no straggler process is created and runs are
  /// bit-identical to a build without this subsystem.
  bool enabled = false;

  /// Mean time between degraded-mode onsets per node, seconds (exponential).
  double degrade_mtbf_s = 240.0;

  /// Mean length of a degraded episode, seconds (exponential).
  double degrade_duration_s = 60.0;

  /// Compute-time multiplier while a node is degraded (>= 1).
  double compute_slowdown = 3.0;

  /// Disk-read multiplier while a replica holder is degraded (>= 1). Slows
  /// both local reads on the degraded node and the disk leg of remote reads
  /// served from it.
  double disk_slowdown = 2.0;

  /// Probability that a degraded-mode onset drags the victim's rack peers
  /// into the same episode (limping top-of-rack switch). Ignored on
  /// single-rack topologies.
  double rack_correlation = 0.0;

  /// Per-attempt probability of heavy-tailed service-time inflation.
  double tail_prob = 0.0;

  /// Bounded-Pareto shape of the inflation factor (smaller = heavier tail).
  double tail_alpha = 1.5;

  /// Upper bound of the inflation factor; the factor is drawn from
  /// [1, tail_cap]. Must be greater than 1.
  double tail_cap = 10.0;

  /// When true the inflation factor is a Lognormal(0, tail_sigma) draw
  /// clamped to [1, tail_cap] instead of a bounded Pareto.
  bool tail_lognormal = false;

  /// Sigma of the underlying normal for the lognormal tail variant.
  double tail_sigma = 0.75;
};

/// Network-fault model: the interconnect limps or tears, the machines stay
/// up.
///
/// Two independent per-rack episode chains, both on the same forked stream:
///  - *Rack partitions*: a top-of-rack switch outage cuts the whole rack off
///    from the rest of the cluster (and from the master). Heartbeats across
///    the boundary are lost, so the PR 2 missed-beat detector declares the
///    rack's nodes dead even though they are physically alive; when the
///    partition heals they re-register and the NameNode reconciles their
///    block reports exactly as for a rebooted node.
///  - *Uplink degradation*: a rack's uplink is congested/renegotiated for a
///    while — cross-rack transfers touching the rack keep a fraction of
///    their bandwidth and see their latency inflated.
struct NetworkFaultParams {
  /// Master switch; when false no network-fault process is created and runs
  /// are bit-identical to a build without this subsystem.
  bool enabled = false;

  /// Mean time between rack-partition onsets per rack, seconds
  /// (exponential). Partitions never fire on single-rack topologies and at
  /// most rack_count-1 racks are partitioned at once (the cluster always
  /// keeps a connected majority side with the master).
  double partition_mtbf_s = 900.0;

  /// Mean length of a partition episode, seconds (exponential).
  double partition_duration_s = 45.0;

  /// Mean time between uplink-degradation onsets per rack, seconds
  /// (exponential).
  double link_degrade_mtbf_s = 400.0;

  /// Mean length of an uplink-degradation episode, seconds (exponential).
  double link_degrade_duration_s = 60.0;

  /// Fraction of bandwidth a degraded uplink keeps, in (0, 1].
  double bandwidth_cut = 0.25;

  /// Latency multiplier on transfers crossing a degraded uplink (>= 1).
  double latency_inflation = 4.0;

  /// Fail-fast penalty a reader pays when its preferred replica sits behind
  /// a partitioned boundary: the connect attempt times out quickly and the
  /// read retries from a reachable replica. Charged once per affected read;
  /// no RNG draw (a constant keeps disabled runs bit-identical).
  double connect_timeout_s = 0.25;
};

/// Throws std::invalid_argument naming the offending field when `params`
/// is out of range: NaN or non-positive rates, fractions outside [0, 1],
/// or (when enabled) a live-worker floor at or above the worker count.
void validate_fault_params(const FaultInjectionParams& params,
                           std::size_t worker_count);

/// Throws std::invalid_argument naming the offending field when `params`
/// is out of range: NaN/negative rates (sector_mtbf_s may be zero to
/// disable the latent process, but not negative).
void validate_corruption_params(const CorruptionParams& params);

/// Throws std::invalid_argument naming the offending field when `params`
/// is out of range: NaN or non-positive rates, slowdowns below 1,
/// probabilities outside [0, 1], or a tail cap at or below 1.
void validate_straggler_params(const StragglerParams& params);

/// Throws std::invalid_argument naming the offending field when `params`
/// is out of range: NaN or non-positive rates, a bandwidth cut outside
/// (0, 1], a latency inflation below 1, or a negative connect timeout.
void validate_netfault_params(const NetworkFaultParams& params);

/// The episode-time rule every fault chain shares (uptimes, downtimes,
/// episode lengths): one exponential draw with mean `mean_s` seconds,
/// floored at 1 ms so no chain ever schedules a zero delay.
SimDuration episode_time(Rng& rng, double mean_s);

/// One sampled node failure.
struct FailureSample {
  FaultKind kind = FaultKind::kTransient;
  /// Transient only: how long the node stays down before rejoining.
  SimDuration downtime = 0;
  /// Whether this failure takes the victim's rack peers down too.
  bool rack_correlated = false;
};

/// Per-cluster failure sampler. One instance serves every node (the draws
/// interleave in event order, which is deterministic); all state lives in a
/// forked RNG stream.
class FaultProcess {
 public:
  /// Forks a child stream off `parent`. Throws std::invalid_argument (via
  /// the validate_fault_params field checks) on out-of-range parameters.
  FaultProcess(const FaultInjectionParams& params, Rng& parent);

  /// Time until the next failure of a node that is up now.
  SimDuration sample_uptime() { return episode_time(rng_, params_.mtbf_s); }

  /// Kind, downtime, and rack correlation of a failure happening now.
  FailureSample sample_failure();

  /// One Bernoulli trial of the per-attempt task failure probability.
  bool sample_task_failure();

  const FaultInjectionParams& params() const { return params_; }

 private:
  FaultInjectionParams params_;
  Rng rng_;
};

/// Per-cluster corruption sampler. All state lives in a forked RNG stream so
/// enabling corruption never perturbs the draws of other components.
class CorruptionProcess {
 public:
  /// Forks a child stream off `parent`. Throws std::invalid_argument (via
  /// validate_corruption_params) when the parameters are out of range.
  CorruptionProcess(const CorruptionParams& params, Rng& parent);

  /// One Bernoulli trial: does scanning `bytes` of a replica detect fresh
  /// bit rot? Always draws exactly once, so the stream position is
  /// independent of the outcome.
  bool sample_read_corruption(Bytes bytes);

  /// Time until the next latent sector-loss event. Only meaningful when
  /// sector_mtbf_s > 0.
  SimDuration sample_latent_interval() {
    return episode_time(rng_, params_.sector_mtbf_s);
  }

  /// Uniform draw in [0, 1) used to pick the victim node/replica of a
  /// latent event. Kept as a raw fraction so the caller can map it onto
  /// whatever candidate list exists at event time without burning a
  /// variable number of draws.
  double pick_fraction();

 private:
  CorruptionParams params_;
  Rng rng_;
};

/// One sampled degraded-mode onset.
struct DegradeSample {
  /// How long the episode lasts before the node recovers nominal speed.
  SimDuration duration = 0;
  /// Whether this onset drags the victim's rack peers into degradation too.
  bool rack_correlated = false;
};

/// Per-cluster straggler sampler. One instance serves every node (the draws
/// interleave in event order, which is deterministic); all state lives in a
/// forked RNG stream so enabling stragglers never perturbs the draws of
/// other components.
class StragglerProcess {
 public:
  /// Forks a child stream off `parent`. Throws std::invalid_argument (via
  /// validate_straggler_params) when the parameters are out of range.
  StragglerProcess(const StragglerParams& params, Rng& parent);

  /// Time until the next degraded-mode onset of a node running at nominal
  /// speed now.
  SimDuration sample_degrade_uptime() {
    return episode_time(rng_, params_.degrade_mtbf_s);
  }

  /// Duration and rack correlation of a degraded episode starting now.
  DegradeSample sample_degrade();

  /// Per-attempt service-time inflation factor (>= 1; exactly 1 when the
  /// tail coin misses). The heavy-tailed factor is drawn on every call so
  /// the stream position is independent of the coin's outcome.
  double sample_task_inflation();

 private:
  StragglerParams params_;
  Rng rng_;
};

/// Per-cluster network-fault sampler. One instance serves every rack's
/// partition and uplink-degradation episode chains (the draws interleave in
/// event order, which is deterministic); all state lives in a forked RNG
/// stream so enabling network faults never perturbs the draws of other
/// components. Every sampler draws exactly once per call, so the stream
/// position is independent of what the caller does with the sample.
class NetworkFaultProcess {
 public:
  /// Forks a child stream off `parent`. Throws std::invalid_argument (via
  /// validate_netfault_params) when the parameters are out of range.
  NetworkFaultProcess(const NetworkFaultParams& params, Rng& parent);

  /// Time until the next partition / uplink-degradation onset of an idle
  /// rack, and the length of an episode starting now.
  SimDuration sample_partition_uptime() {
    return episode_time(rng_, params_.partition_mtbf_s);
  }
  SimDuration sample_partition_duration() {
    return episode_time(rng_, params_.partition_duration_s);
  }
  SimDuration sample_link_uptime() {
    return episode_time(rng_, params_.link_degrade_mtbf_s);
  }
  SimDuration sample_link_duration() {
    return episode_time(rng_, params_.link_degrade_duration_s);
  }

 private:
  NetworkFaultParams params_;
  Rng rng_;
};

}  // namespace dare::faults
