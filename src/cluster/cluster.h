// The simulated MapReduce cluster: wires the event engine, topology,
// network, HDFS (name node + data nodes), schedulers, and the DARE
// replication policies into a runnable experiment.
//
// One Cluster instance runs one workload once, single-threaded and
// deterministic for a given seed, and returns a metrics::RunResult that it
// counts into as the run goes. Each result field's name and digest rule is
// declared once, in the run-metric table (metrics/run_metrics.cpp).
// Parameter sweeps construct many Cluster instances (experiment.h, farm.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/options.h"
#include "cluster/repair_scheduler.h"
#include "cluster/slot_ledger.h"
#include "common/arena.h"
#include "common/invariant.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/replication_policy.h"
#include "faults/episode_chain.h"
#include "faults/fault_model.h"
#include "metrics/run_metrics.h"
#include "net/network.h"
#include "net/topology.h"
#include "sched/locality_index.h"
#include "sched/scheduler.h"
#include "sim/simulation.h"
#include "storage/datanode.h"
#include "storage/namenode.h"
#include "workload/workload.h"
#include "workload/yahoo_trace.h"

namespace dare::cluster {

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Load the workload's catalog into HDFS, replay its jobs, run the
  /// simulation to completion, and return the aggregated metrics.
  /// May be called once per Cluster instance.
  metrics::RunResult run(const workload::Workload& workload);

  /// Streaming variant: jobs are pulled from the spec's generator as
  /// simulated time reaches their arrivals, so the run never materializes
  /// the full job vector and per-job bookkeeping stays O(active jobs).
  /// Produces the same RunResult as run(materialize(spec)).
  metrics::RunResult run_stream(const workload::WorkloadSpec& spec);

  /// Exhaustive cross-component consistency check; throws std::logic_error
  /// with a description on the first violated invariant. Intended for tests
  /// (it walks every block): slot accounting, name-node/data-node replica
  /// agreement, no metadata pointing at dead nodes, job-table totals.
  void validate() const;

  /// The recorded audit trace (options.record_access_trace must be set;
  /// call after run()). One event per map-task launch, file granularity.
  const workload::AccessTrace& access_trace() const { return access_trace_; }

  /// Introspection for tests.
  std::size_t worker_count() const { return data_nodes_.size(); }
  const net::Topology& topology() const { return *topology_; }
  const storage::NameNode& name_node() const { return *name_node_; }
  const storage::DataNode& data_node(std::size_t i) const {
    return *data_nodes_.at(i);
  }
  Bytes node_budget_bytes() const { return node_budget_bytes_; }
  /// Residency telemetry for the O(active) regression tests.
  const sched::JobTable& job_table() const { return jobs_; }

 private:
  class Locator;

  /// Shared body of run()/run_stream(): catalog load, policy setup, the
  /// event loop, and result collection. `stream` yields the jobs in arrival
  /// order; `total_jobs` is the count it will produce.
  metrics::RunResult run_with(const std::vector<workload::FileSpec>& catalog,
                              const workload::CatalogSpec& catalog_spec,
                              const std::vector<std::size_t>& access_counts,
                              std::size_t total_jobs,
                              std::unique_ptr<workload::JobStream> stream);

  void load_files(const std::vector<workload::FileSpec>& catalog,
                  const workload::CatalogSpec& catalog_spec,
                  const std::vector<std::size_t>& access_counts);
  void create_policies();
  /// Pull-based admission: materialize the template into a JobSpec and
  /// register it with the job table (at its arrival event).
  void admit_job(const workload::JobTemplate& tmpl);
  /// Schedule the arrival event for the next job in arrivals_, if any.
  void schedule_next_arrival();
  /// Retire observer (jobs_): copy the finished job's metrics out before
  /// its runtime is released, and drop its per-job side tables.
  void on_job_retired(const sched::JobRuntime& rt);
  void start_heartbeats();
  /// One beat of `worker`'s periodic chain: delivered unless the node is
  /// partitioned, then re-armed until the run finishes.
  void heartbeat(std::size_t worker);
  /// Apply a beat the master heard: block-report deltas, lazy reclaim and
  /// the straggler verdict.
  void deliver_heartbeat(std::size_t worker);

  void try_assign_all();
  void try_assign_node(NodeId worker);
  void launch_map(NodeId worker, const sched::MapSelection& selection);
  void launch_reduce(NodeId worker, JobId job);
  void maybe_schedule_tick();

  /// Fault injection + repair. A node *failing* (fail_node, a churn
  /// episode) and the name node *detecting* the failure (declare_node_dead,
  /// driven by detection_tick's missed-heartbeat scan) are separate events:
  /// no call site learns of a death before the heartbeat timeout expires.
  /// A permanent kill is an episode without an end; a transient one ends
  /// after max(downtime, 1 ms). Absorbed once the run is over.
  void fail_node(NodeId worker, faults::FaultKind kind, SimDuration downtime);
  void declare_node_dead(NodeId worker);
  void detection_tick();
  /// Cancel + requeue every attempt running on `worker` (its tracker died
  /// or rebooted; either way it will not report those tasks back).
  void cleanup_node_attempts(NodeId worker);
  /// Kill a job whose task exhausted max_task_attempts.
  void fail_job(JobId job);
  void note_node_task_failure(NodeId worker);
  /// Once the run is finished, cancel the fault events (episode onsets and
  /// ends, the detection monitor, latent corruption) and the gauge sampler.
  /// Heartbeats, the speculation tick and the Scarlett epoch are not
  /// cancelled: each fires once more after the last job and stops
  /// re-arming, so the makespan ends on the heartbeat grid, not at the last
  /// job's completion.
  void cancel_pending_churn();
  void rereplication_tick();
  /// Book a rereplication_tick one interval out unless one is booked.
  void book_repair_tick();
  /// Retryable repair failure: re-enqueue `entry` with exponential backoff
  /// (kRepairRetried), or abandon it once the run has finished so the event
  /// queue is guaranteed to drain even under an unhealed partition.
  void retry_repair(RepairScheduler::Entry entry);
  /// Terminal repair outcomes (the enqueue/land/abandon ledger).
  void abandon_repair(const RepairScheduler::Entry& entry);
  void land_repair(const RepairScheduler::Entry& entry);
  /// Urgency of repairing `block` now: critical when at most one live
  /// reachable replica remains, bulk otherwise.
  RepairClass classify_repair(BlockId block) const;
  bool node_usable(std::size_t worker) const {
    return !node_dead(worker) && !blacklisted_[worker];
  }
  /// Physical truth: the node's process is down (a churn episode is on).
  bool node_dead(std::size_t worker) const {
    return churn_chain_->active(worker);
  }
  std::size_t live_workers() const {
    return data_nodes_.size() - churn_chain_->active_count();
  }

  /// Hook each fault layer's draws and effects into its chain.
  void build_episode_chains();
  /// The one rejoin rule, for a node physically back in touch with the
  /// master (reboot finished, or partition healed). Undeclared: requeue its
  /// attempts and return its slots. Declared dead: full block-report
  /// reconciliation — scrub corrupt copies, node_rejoined, prune surplus
  /// statics, rebuild the policy, reset the blacklist, return the slots.
  void rejoin_node(NodeId worker);
  bool node_partitioned(std::size_t worker) const {
    return netfault_active_ && partition_chain_->active(
                                   static_cast<std::size_t>(node_rack_[worker]));
  }

  /// --- task attempts -----------------------------------------------------
  /// Maps and reduces share one attempt record, one completion path, one
  /// retry budget and one kill rule. A map task runs the scheduler's
  /// primary plus at most one hedge (a speculative backup or a budgeted
  /// clone) on another node; a reduce runs one attempt.
  enum class AttemptKind : std::uint8_t {
    kPrimary, kSpeculative, kClone, kReduce
  };
  struct TaskAttempt {
    JobId job = kInvalidJob;
    NodeId node = kInvalidNode;
    SimTime started = 0;
    sim::EventHandle completion;
    AttemptKind kind = AttemptKind::kPrimary;
    /// Network flow held by this attempt (the remote read, or the shuffle),
    /// released on completion or on kill — a cancelled completion event can
    /// no longer release it.
    bool holds_flow = false;
    NodeId flow_src = kInvalidNode;
  };
  /// One entry per map task with >= 1 running attempt. Key =
  /// task_key(job, map index).
  struct MapTaskState {
    BlockId block = kInvalidBlock;
    sched::Locality original_locality = sched::Locality::kOffRack;
    std::vector<TaskAttempt> attempts;
  };
  static std::uint64_t task_key(JobId job, std::size_t map_index) {
    DARE_INVARIANT(job >= 0 && map_index < (1u << 20),
                   "Cluster: task_key would collide (map index >= 2^20 or "
                   "negative job id)");
    return (static_cast<std::uint64_t>(job) << 20) |
           static_cast<std::uint64_t>(map_index);
  }
  /// Inverse of task_key: (job, map index).
  static std::pair<JobId, std::size_t> task_of(std::uint64_t key) {
    return {static_cast<JobId>(key >> 20),
            static_cast<std::size_t>(key & ((1u << 20) - 1))};
  }

  /// The one map-attempt launcher: slot, read plan, compute draw, static
  /// slowdown, DARE hook, then the attempt and its completion (a primary
  /// also opens the task's entry). Callers count and trace the launch
  /// first. Returns the attempt's duration.
  SimDuration start_map_attempt(NodeId worker, JobId job,
                                std::size_t map_index,
                                sched::Locality locality, AttemptKind kind);
  /// Fill in a new attempt record and schedule its completion. `task` is
  /// the map index, or the reduce's attempt id.
  void arm_attempt(TaskAttempt& attempt, AttemptKind kind, NodeId worker,
                   JobId job, std::size_t task, SimDuration duration,
                   bool holds_flow, NodeId flow_src);
  /// Hedge target for a task with one running attempt: a free slot on an
  /// open node other than the attempt's, block-local first, else the
  /// lowest id; kInvalidNode when none is free.
  NodeId pick_backup_node(const MapTaskState& state) const;
  sched::Locality locality_of(NodeId worker, BlockId block) const;
  /// The one kill rule: cancel the completion, release a held flow, close
  /// the trace slice, retire a clone, and, with `free_slot`, hand a still
  /// pending attempt's slot back unless its node is dead. Returns whether
  /// the completion was still pending.
  bool drop_attempt(TaskAttempt& attempt, std::size_t task, bool free_slot);
  /// Kill every running attempt `match` selects through drop_attempt: maps
  /// in task-key order, then reduces in attempt-id order. On a `lost_node`
  /// the node's slots already left the pool and the tasks are requeued;
  /// otherwise (a failed job) the slots come back and the tasks are gone.
  template <typename Match>
  void kill_attempts(const Match& match, bool lost_node);
  /// Back to the queue after an attempt was lost (fault or node loss): a
  /// reduce at once, a map task once it has no attempt left.
  void requeue_task(AttemptKind kind, NodeId worker, JobId job,
                    std::size_t task);

  /// Speculative execution.
  void speculation_tick();
  /// The one completion path: a zombie on a lost node stays registered;
  /// otherwise the slot comes back, then an injected fault counts against
  /// the retry budget (requeue, or fail the job), or the attempt wins.
  void on_attempt_finished(AttemptKind kind, JobId job, std::size_t task,
                           NodeId worker);
  bool run_finished() const;

  /// --- stragglers: injection (physical truth) -----------------------------
  /// Compute-side duration adjustment for an attempt launching on `worker`:
  /// the degraded-mode compute multiplier plus one heavy-tailed inflation
  /// draw (a fixed draw per launch whenever the process is enabled).
  SimDuration straggler_compute(NodeId worker, SimDuration compute);

  /// --- stragglers: detection (name-node belief) ---------------------------
  /// The name node's progress-rate view: per-node EWMA of observed attempt
  /// duration over the cluster-mean attempt duration, fed only by completed
  /// attempts (never by the injected state). Evaluated in the heartbeat
  /// path; a detected-slow node is excluded from launches and deprioritized
  /// as a read/repair source until its backoff expires.
  void note_attempt_progress(NodeId worker, double duration_s);
  void straggler_decision(NodeId worker);
  /// Launch-eligibility gate: usable, not currently detected-slow, and not
  /// cut off behind a partitioned rack uplink (the master cannot reach a
  /// partitioned tracker to hand it work, whatever it believes about it).
  bool node_open_for_launch(std::size_t worker) const {
    return node_usable(worker) && !detected_slow_[worker] &&
           !node_partitioned(worker);
  }

  /// --- proactive task cloning ---------------------------------------------
  /// Launch a budgeted clone of the map just launched, if the budget, the
  /// job filter and a backup target allow it.
  void maybe_clone(JobId job, std::size_t map_index);
  /// Exactly-once clone retirement: decrements the cluster-wide and per-job
  /// running-clone counts. Called when a clone reports back and from
  /// drop_attempt.
  void retire_clone(JobId job);

  /// Pick the replica source for a remote read: same rack first, then
  /// fewest active flows, then lowest id (deterministic). Candidates behind
  /// a partitioned boundary are skipped like dead ones; when
  /// `unreachable_skipped` is non-null it receives how many such candidates
  /// were passed over (the reader's fail-fast connect timeouts).
  NodeId pick_source(NodeId reader, BlockId block,
                     std::size_t* unreachable_skipped = nullptr) const;

  /// --- data integrity (checksums, quarantine, repair accounting) ---------
  /// The read leg of a map attempt. `src` is the replica actually read
  /// (== worker for a local or archival read); `remote_flow` says whether a
  /// network flow was started and must be released on completion.
  struct ReadPlan {
    SimDuration duration = 0;
    NodeId src = kInvalidNode;
    bool remote_flow = false;
  };
  /// Compute the read duration for `block`, verifying checksums when the
  /// corruption subsystem is active. A failed local read falls back to a
  /// remote replica; failed remote reads retry from the next surviving
  /// replica (the wasted transfer time stays charged to the attempt). When
  /// no good copy remains, the archival-restore penalty applies. With the
  /// subsystem off this reproduces the pre-checksum read path draw for draw.
  ReadPlan plan_read(NodeId worker, BlockId block, Bytes bytes,
                     bool node_local);
  /// `holder`'s disk time for `bytes`, slowed while the holder is degraded.
  SimDuration holder_read(std::size_t holder, Bytes bytes) {
    const SimDuration disk = data_nodes_[holder]->read_duration(bytes);
    if (!degrade_chain_->active(holder)) return disk;
    return static_cast<SimDuration>(static_cast<double>(disk) *
                                    options_.stragglers.disk_slowdown);
  }
  /// One checksum verification of `holder`'s copy of `block`. Draws exactly
  /// one corruption sample per call when the stochastic process is on,
  /// independent of the replica's current state.
  bool checksum_fails(NodeId holder, BlockId block, Bytes bytes);
  /// Hadoop-style reportBadBlock: tell the name node, quarantine the copy,
  /// and queue a repair — unless it was the last replica (data loss; the
  /// copy is never deleted).
  storage::NameNode::BadBlockResult handle_bad_block(BlockId block,
                                                     NodeId holder);
  void queue_repair(BlockId block);
  void record_data_loss(BlockId block);
  void mark_replica_corrupt(NodeId holder, BlockId block);
  /// Background sector-loss process: periodically corrupt one replica on
  /// one live node (silently — a later read discovers it).
  void schedule_latent_corruption();
  /// Single replica-delta observer: feeds the locality index (when built)
  /// and tracks block unavailability windows (when faults or corruption are
  /// configured).
  void on_replica_delta(BlockId block, NodeId node, bool added);

  double dedicated_runtime_s(const sched::JobSpec& spec) const;

  void scarlett_epoch();

  /// Time-series gauge sampler (observability): runs every
  /// options_.trace_sample_interval while a tracer is attached, cancelled
  /// via cancel_pending_churn() the moment the run finishes.
  void sample_tick();
  /// Popularity index of every live node (sum of block size x file access
  /// count), in node-id order — the quantity behind cv_after and the
  /// sampler's popularity_cv gauge.
  std::vector<double> live_node_popularity() const;
  double popularity_of(FileId file) const {
    const auto it = file_popularity_.find(file);
    return it == file_popularity_.end() ? 0.0 : it->second;
  }

  /// Finish result_ with what is only known at run end and hand it out.
  metrics::RunResult collect_results();

  ClusterOptions options_;
  sim::Simulation sim_;
  Rng rng_;

  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<storage::NameNode> name_node_;
  std::vector<std::unique_ptr<storage::DataNode>> data_nodes_;
  std::vector<std::unique_ptr<core::ReplicationPolicy>> policies_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<Locator> locator_;
  /// Inverted locality index fed by the name node's replica deltas; null
  /// when options_.use_locality_index is off (legacy scan mode).
  std::unique_ptr<sched::LocalityIndex> locality_index_;

  sched::JobTable jobs_;
  /// SoA sweep state: per-node free slots + O(1) cluster-wide totals.
  SlotLedger slots_;
  std::vector<FileId> catalog_file_ids_;  ///< catalog index -> FileId

  Bytes node_budget_bytes_ = 0;
  bool tick_scheduled_ = false;
  std::size_t assign_rotation_ = 0;
  bool ran_ = false;

  /// Fault-injection state. `churn_chain_->active(w)` is physical truth
  /// (node_dead: the node's process is down, for good after a permanent
  /// kill); `declared_dead_` is the name node's belief, which lags by the
  /// heartbeat-detection latency. A transient blip shorter than the
  /// detection timeout never flips `declared_dead_` at all.
  std::optional<faults::EpisodeChain> churn_chain_;
  std::vector<bool> declared_dead_;
  std::vector<SimTime> death_time_;
  std::vector<bool> blacklisted_;
  std::vector<std::size_t> node_task_failures_;
  std::unique_ptr<faults::FaultProcess> fault_process_;
  std::vector<sim::EventHandle> heartbeat_event_;
  sim::EventHandle monitor_event_;
  /// Two-class prioritized repair queue (dedup + deterministic ordering;
  /// see cluster/repair_scheduler.h). Replaced the PR 5 FIFO deque.
  RepairScheduler repairs_;
  bool repair_tick_scheduled_ = false;
  /// Repair transfers in flight. Every first-time enqueue terminally lands
  /// or is abandoned; validate() checks result_'s ledger
  /// enqueued == landed + abandoned + queued + in-flight at all times.
  std::uint64_t repairs_inflight_ = 0;
  /// Concurrent repair transfers crossing each rack's uplink (bandwidth-
  /// aware admission; bounded by options_.max_repairs_per_uplink).
  std::vector<std::size_t> repair_uplink_inflight_;
  /// Data-integrity state. `corruption_` is forked only when the stochastic
  /// process is enabled (zero draws otherwise); `verify_reads_` also covers
  /// scripted corruption events. Unavailability windows are tracked from
  /// the replica-delta observer whenever faults or corruption are in play.
  std::unique_ptr<faults::CorruptionProcess> corruption_;
  bool verify_reads_ = false;
  bool track_unavailability_ = false;
  sim::EventHandle latent_event_;
  std::unordered_set<BlockId> data_loss_blocks_;
  /// Queue-to-landing repair latency (each entry carries its first-enqueue
  /// time through retries; see RepairScheduler::Entry::enqueued).
  SimDuration repair_latency_total_ = 0;
  std::unordered_map<BlockId, SimTime> unavail_open_;
  SimDuration unavailability_total_ = 0;
  /// One-replica exposure windows (tail risk: the next loss is data loss).
  /// Armed only after the initial catalog placement so the 0->1->2 build-up
  /// of load_files never counts as exposure.
  std::unordered_map<BlockId, SimTime> one_replica_open_;
  SimDuration one_replica_total_ = 0;
  bool exposure_armed_ = false;
  /// Physical-death-to-declaration latency. Like every SimDuration total
  /// here, summed in integer time and converted to seconds once, at run end.
  SimDuration detection_latency_total_ = 0;
  /// Failed (not killed) attempts per map task, and per job for its
  /// reduces — the Hadoop retry budget (mapreduce.map.maxattempts).
  std::unordered_map<std::uint64_t, std::size_t> attempt_failures_;

  /// Static straggler model: per-node duration multiplier (>= 1.0), drawn
  /// at construction from the profile knobs.
  std::vector<double> node_slowdown_;

  /// Stochastic straggler subsystem. `degrade_chain_->active(w)` is
  /// physical truth (the node is limping; only task physics reads it); the
  /// detection state below is the name node's belief, inferred from
  /// observed attempt durations only.
  std::unique_ptr<faults::StragglerProcess> straggler_process_;
  std::optional<faults::EpisodeChain> degrade_chain_;

  /// Network-fault subsystem. `netfault_active_` gates every reaction path
  /// (reachability filters, heartbeat loss, the declare-partitioned
  /// relaxation) and is true when either the stochastic process or scripted
  /// partition events are configured; the forked process itself exists only
  /// when options_.netfault.enabled. `partition_chain_->active(r)` is
  /// physical truth about the interconnect, mirrored into net::Network for
  /// transfer modeling, as is `link_chain_->active(r)`.
  std::unique_ptr<faults::NetworkFaultProcess> netfault_process_;
  bool netfault_active_ = false;
  std::vector<RackId> node_rack_;  ///< cached topology_->rack_of per node
  std::vector<SimTime> rack_partition_start_;
  std::optional<faults::EpisodeChain> partition_chain_;
  std::optional<faults::EpisodeChain> link_chain_;

  /// Straggler-detection state (see note_attempt_progress /
  /// straggler_decision).
  std::vector<double> progress_ewma_;
  std::vector<std::size_t> progress_samples_;
  std::vector<bool> detected_slow_;
  std::vector<SimTime> slow_until_;
  std::vector<std::size_t> slow_strikes_;

  /// Cloning state. The budget caps how many clone attempts run at once
  /// cluster-wide; per-job counts live in JobRuntime::running_clones.
  std::size_t clone_budget_slots_ = 0;
  std::size_t running_clones_ = 0;
  SimDuration clone_wasted_work_ = 0;

  /// Running map tasks (see MapTaskState). Slab-backed: attempt records
  /// churn at task rate, so recycling their nodes through an arena removes
  /// the highest-frequency heap traffic in the simulator.
  std::unordered_map<
      std::uint64_t, MapTaskState, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      common::SlabAllocator<std::pair<const std::uint64_t, MapTaskState>>>
      running_maps_;
  /// Running reduce attempts, keyed by a monotonic attempt id (a job can
  /// run several reduces at once). std::map: iterated in key order when a
  /// node death sweeps its attempts, so requeue order is deterministic.
  std::map<std::size_t, TaskAttempt, std::less<std::size_t>,
           common::SlabAllocator<std::pair<const std::size_t, TaskAttempt>>>
      running_reduces_;
  std::size_t next_reduce_attempt_ = 0;
  /// Per-job completed-map duration statistics (speculation estimator),
  /// with a cluster-wide fallback for jobs (e.g. single-map jobs) that have
  /// no completed sibling map to estimate from.
  std::unordered_map<
      JobId, std::pair<double, std::size_t>, std::hash<JobId>,
      std::equal_to<JobId>,
      common::SlabAllocator<
          std::pair<const JobId, std::pair<double, std::size_t>>>>
      job_map_stats_;
  std::pair<double, std::size_t> global_map_stats_{0.0, 0};

  /// Map-task durations, accumulated in launch order (Welford). An
  /// accumulator instead of one double per task: O(1) memory at any scale,
  /// bit-identical mean to the vector it replaced.
  OnlineStats map_time_stats_;
  std::vector<double> cv_before_samples_;  ///< static-placement node PIs
  /// Initial-placement file popularity (accesses per file in the workload),
  /// snapshot at load time; shared by collect_results and the sampler.
  std::unordered_map<FileId, double> file_popularity_;
  workload::AccessTrace access_trace_;

  /// Observability (borrowed from options_; null = disabled).
  obs::TraceCollector* tracer_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;
  sim::EventHandle sampler_event_;

  // Scarlett state.
  std::unique_ptr<core::ScarlettPlanner> scarlett_;
  Bytes scarlett_budget_total_ = 0;
  Bytes scarlett_bytes_spent_ = 0;
  std::unordered_map<FileId, int> scarlett_extra_replicas_;

  /// Pull-based arrival state: the open job stream (null until run_with
  /// starts, and again once exhausted) and the total number of jobs it will
  /// deliver (the run-completion denominator).
  std::unique_ptr<workload::JobStream> arrivals_;
  std::size_t total_jobs_ = 0;

  /// The run's metrics, counted in place: event handlers bump its fields
  /// directly (++result_.corrupt_reads), and on_job_retired fills
  /// result_.jobs at each job's arrival_seq — the only copy of a job's
  /// metrics once its runtime is released. collect_results adds what is
  /// only known at run end and hands it out.
  metrics::RunResult result_;
};

}  // namespace dare::cluster
