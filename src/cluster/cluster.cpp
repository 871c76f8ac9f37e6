#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/invariant.h"
#include "common/stats.h"
#include "core/greedy_lru.h"
#include "core/lfu.h"
#include "obs/phase_profiler.h"
#include "obs/trace_collector.h"
#include "sched/fair_scheduler.h"
#include "sched/fifo_scheduler.h"

namespace dare::cluster {

const char* scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo:
      return "FIFO";
    case SchedulerKind::kFair:
      return "Fair";
  }
  return "?";
}

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kVanilla:
      return "vanilla";
    case PolicyKind::kGreedyLru:
      return "lru";
    case PolicyKind::kGreedyLfu:
      return "lfu";
    case PolicyKind::kElephantTrap:
      return "elephant-trap";
  }
  return "?";
}

/// Adapts the name node's metadata to the scheduler's locality oracle —
/// exactly what a Hadoop scheduler sees: replica locations as of the last
/// heartbeat, not physical disk contents.
class Cluster::Locator final : public sched::BlockLocator {
 public:
  Locator(const storage::NameNode& nn, const net::Topology& topo)
      : nn_(&nn), topo_(&topo) {}
  bool is_local(NodeId node, BlockId block) const override {
    const auto& locs = nn_->locations(block);
    return std::find(locs.begin(), locs.end(), node) != locs.end();
  }
  bool is_rack_local(NodeId node, BlockId block) const override {
    for (NodeId holder : nn_->locations(block)) {
      if (topo_->same_rack(node, holder)) return true;
    }
    return false;
  }

 private:
  const storage::NameNode* nn_;
  const net::Topology* topo_;
};

// Root stream: the cluster owns the run's seed; every component stream is
// forked from rng_ below, never seeded directly.
// dare-lint: allow(rng-stream-discipline)
Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      rng_(options.seed),
      repairs_(options.repair_policy) {
  if (options_.profile.topology.nodes < 2) {
    throw std::invalid_argument("Cluster: need a master plus >= 1 worker");
  }
  const std::size_t workers = options_.profile.topology.nodes - 1;
  // Reject malformed injection knobs up front (NaN rates, fractions outside
  // [0,1], an unreachable live-worker floor) instead of letting them warp a
  // long run silently.
  faults::validate_fault_params(options_.faults, workers);
  faults::validate_corruption_params(options_.corruption);
  faults::validate_straggler_params(options_.stragglers);
  faults::validate_netfault_params(options_.netfault);
  if (options_.repair_retry_backoff <= 0) {
    throw std::invalid_argument(
        "ClusterOptions.repair_retry_backoff must be positive");
  }
  if (!(options_.clone_budget_fraction >= 0.0 &&
        options_.clone_budget_fraction <= 1.0)) {
    throw std::invalid_argument(
        "ClusterOptions.clone_budget_fraction must be in [0, 1]");
  }
  if (!(options_.straggler_detect_ratio >= 1.0)) {
    throw std::invalid_argument(
        "ClusterOptions.straggler_detect_ratio must be at least 1");
  }
  if (!(options_.straggler_detect_ewma_alpha > 0.0 &&
        options_.straggler_detect_ewma_alpha <= 1.0)) {
    throw std::invalid_argument(
        "ClusterOptions.straggler_detect_ewma_alpha must be in (0, 1]");
  }
  if (options_.straggler_backoff <= 0) {
    throw std::invalid_argument(
        "ClusterOptions.straggler_backoff must be positive");
  }

  net::TopologyOptions topo = options_.profile.topology;
  topo.nodes = workers;
  topology_ = std::make_unique<net::Topology>(topo, rng_);
  network_ =
      std::make_unique<net::Network>(options_.profile, *topology_, rng_);
  name_node_ =
      std::make_unique<storage::NameNode>(workers, topology_.get(), rng_);
  data_nodes_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    data_nodes_.push_back(std::make_unique<storage::DataNode>(
        static_cast<NodeId>(i), options_.profile.disk, rng_));
  }
  locator_ = std::make_unique<Locator>(*name_node_, *topology_);
  node_rack_.resize(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    node_rack_[i] = topology_->rack_of(static_cast<NodeId>(i));
  }
  const std::size_t racks = topology_->rack_count();
  rack_partitioned_.assign(racks, false);
  rack_partition_start_.assign(racks, 0);
  partition_event_.resize(racks);
  link_event_.resize(racks);
  repair_uplink_inflight_.assign(racks, 0);
  for (const auto& ev : options_.partition_events) {
    if (ev.rack < 0 || static_cast<std::size_t>(ev.rack) >= racks) {
      throw std::invalid_argument("Cluster: partition event for unknown rack");
    }
    if (ev.duration <= 0) {
      throw std::invalid_argument(
          "Cluster: partition event needs a positive duration");
    }
  }
  netfault_active_ =
      options_.netfault.enabled || !options_.partition_events.empty();
  track_unavailability_ = options_.faults.enabled ||
                          !options_.failures.empty() ||
                          options_.corruption.enabled ||
                          !options_.corruption_events.empty() ||
                          netfault_active_;
  if (options_.use_locality_index) {
    std::vector<RackId> node_rack = node_rack_;
    locality_index_ = std::make_unique<sched::LocalityIndex>(
        workers, std::move(node_rack), topology_->rack_count());
    jobs_.attach_locality_index(locality_index_.get());
  }
  // Release each job's runtime as it retires: the observer snapshots its
  // metrics (on_job_retired) and the table's residency stays O(active jobs)
  // instead of O(all jobs ever submitted).
  jobs_.set_retire_observer(
      [this](const sched::JobRuntime& rt) { on_job_retired(rt); });
  if (locality_index_ != nullptr || track_unavailability_) {
    // Attach before load_files so the mirror sees the static placements.
    // One observer serves both consumers (the name node supports a single
    // one); on_replica_delta fans out.
    name_node_->set_replica_observer(
        [this](BlockId block, NodeId node, bool added) {
          on_replica_delta(block, node, added);
        });
  }
  dead_.assign(workers, false);
  live_workers_ = workers;
  declared_dead_.assign(workers, false);
  death_time_.assign(workers, 0);
  death_kind_.assign(workers, faults::FaultKind::kTransient);
  fault_epoch_.assign(workers, 0);
  blacklisted_.assign(workers, false);
  node_task_failures_.assign(workers, 0);
  heartbeat_event_.resize(workers);
  next_failure_.resize(workers);
  recover_event_.resize(workers);
  node_slowdown_.assign(workers, 1.0);
  for (auto& factor : node_slowdown_) {
    if (rng_.bernoulli(options_.profile.straggler_fraction)) {
      factor = options_.profile.straggler_slowdown;
    }
  }
  degraded_.assign(workers, false);
  degrade_event_.resize(workers);
  progress_ewma_.assign(workers, 0.0);
  progress_samples_.assign(workers, 0);
  detected_slow_.assign(workers, false);
  slow_until_.assign(workers, 0);
  slow_strikes_.assign(workers, 0);
  if (options_.enable_task_cloning && options_.clone_budget_fraction > 0.0) {
    clone_budget_slots_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               options_.clone_budget_fraction *
               static_cast<double>(workers * options_.map_slots_per_node)));
  }

  switch (options_.scheduler) {
    case SchedulerKind::kFifo:
      scheduler_ = std::make_unique<sched::FifoScheduler>();
      break;
    case SchedulerKind::kFair:
      scheduler_ = std::make_unique<sched::FairScheduler>(
          options_.fair_delay, options_.fair_delay,
          options_.use_locality_index);
      break;
  }

  slots_.reset(workers, options_.map_slots_per_node,
               options_.reduce_slots_per_node);

  if (options_.enable_scarlett) {
    scarlett_ = std::make_unique<core::ScarlettPlanner>(options_.scarlett);
  }

  // Forked last, and only when enabled: configurations without stochastic
  // churn keep the exact RNG stream (and therefore results) they had before
  // the fault subsystem existed.
  // dare-lint: allow(rng-stream-discipline)
  if (options_.faults.enabled) {
    fault_process_ =
        std::make_unique<faults::FaultProcess>(options_.faults, rng_);
  }
  // Same contract as the fault stream, forked after it: the corruption
  // stream only exists (and only draws) when the stochastic process is on.
  // Scripted corruption events alone need checksum verification but no RNG.
  // dare-lint: allow(rng-stream-discipline)
  if (options_.corruption.enabled) {
    corruption_ = std::make_unique<faults::CorruptionProcess>(
        options_.corruption, rng_);
  }
  // Straggler stream: forked after the corruption stream, and only when the
  // process is enabled, for the same reason — disabled runs keep the exact
  // stream positions (and fingerprints) they had before stragglers existed.
  // dare-lint: allow(rng-stream-discipline)
  if (options_.stragglers.enabled) {
    straggler_process_ = std::make_unique<faults::StragglerProcess>(
        options_.stragglers, rng_);
  }
  // Network-fault stream: forked last of all, and only when the stochastic
  // process is enabled — scripted partition events need no randomness, and
  // disabled runs keep the exact stream positions (and fingerprints) they
  // had before the subsystem existed.
  // dare-lint: allow(rng-stream-discipline)
  if (options_.netfault.enabled) {
    netfault_process_ = std::make_unique<faults::NetworkFaultProcess>(
        options_.netfault, rng_);
    network_->set_degradation_factors(options_.netfault.bandwidth_cut,
                                      options_.netfault.latency_inflation);
  }
  verify_reads_ =
      corruption_ != nullptr || !options_.corruption_events.empty();

  // Observability wiring: the tracer fans out to every instrumented
  // component (policies get theirs in create_policies, after construction).
  tracer_ = options_.tracer;
  profiler_ = options_.profiler;
  if (tracer_ != nullptr) {
    tracer_->set_clock([this] { return sim_.now(); });
    name_node_->set_tracer(tracer_);
    for (auto& dn : data_nodes_) dn->set_tracer(tracer_);
    scheduler_->set_tracer(tracer_);
  }
}

Cluster::~Cluster() = default;

void Cluster::load_files(const std::vector<workload::FileSpec>& catalog,
                         const workload::CatalogSpec& catalog_spec,
                         const std::vector<std::size_t>& access_counts) {
  if (catalog.empty()) {
    throw std::invalid_argument("Cluster: workload has an empty catalog");
  }
  Bytes total_static = 0;
  for (const auto& file : catalog) {
    const FileId fid = name_node_->create_file(
        file.name, file.blocks, catalog_spec.block_size,
        /*replication=*/3, sim_.now());
    catalog_file_ids_.push_back(fid);
    for (BlockId bid : name_node_->file(fid).blocks) {
      const auto& meta = name_node_->block(bid);
      for (NodeId node : name_node_->static_locations(bid)) {
        data_nodes_[static_cast<std::size_t>(node)]->add_static_block(meta);
        total_static += meta.size;
      }
    }
  }
  node_budget_bytes_ = static_cast<Bytes>(
      options_.budget_fraction *
      (static_cast<double>(total_static) /
       static_cast<double>(data_nodes_.size())));
  scarlett_budget_total_ = static_cast<Bytes>(
      options_.scarlett.budget_fraction * static_cast<double>(total_static));

  // Snapshot the initial-placement popularity indices now: repair copies
  // created after failures later mutate the static block sets.
  file_popularity_.clear();
  for (std::size_t i = 0; i < catalog_file_ids_.size(); ++i) {
    file_popularity_[catalog_file_ids_[i]] =
        static_cast<double>(access_counts[i]);
  }
  cv_before_samples_.clear();
  for (const auto& dn : data_nodes_) {
    double pi = 0.0;
    for (const auto& meta : dn->static_blocks()) {
      pi += static_cast<double>(meta.size) * popularity_of(meta.file);
    }
    cv_before_samples_.push_back(pi);
  }
}

void Cluster::create_policies() {
  policies_.clear();
  policies_.reserve(data_nodes_.size());
  for (auto& dn : data_nodes_) {
    // Install the budget audit: the data node itself verifies (in
    // invariant-enabled builds) that no policy ever overshoots its budget.
    if (options_.policy != PolicyKind::kVanilla) {
      dn->set_audited_budget(node_budget_bytes_);
    }
    switch (options_.policy) {
      case PolicyKind::kVanilla:
        policies_.push_back(std::make_unique<core::NullPolicy>());
        break;
      case PolicyKind::kGreedyLru:
        policies_.push_back(
            std::make_unique<core::GreedyLruPolicy>(*dn, node_budget_bytes_));
        break;
      case PolicyKind::kGreedyLfu:
        policies_.push_back(
            std::make_unique<core::GreedyLfuPolicy>(*dn, node_budget_bytes_));
        break;
      case PolicyKind::kElephantTrap:
        policies_.push_back(std::make_unique<core::ElephantTrapPolicy>(
            *dn, node_budget_bytes_, options_.trap, rng_));
        break;
    }
  }
  if (tracer_ != nullptr) {
    for (auto& policy : policies_) policy->set_tracer(tracer_);
  }
}

void Cluster::admit_job(const workload::JobTemplate& tmpl) {
  if (tmpl.file_index >= catalog_file_ids_.size()) {
    throw std::invalid_argument("Cluster: job references unknown file");
  }
  sched::JobSpec spec;
  // Jobs admit in arrival order, so the submission count is the dense id
  // the up-front loop used to assign.
  spec.id = static_cast<JobId>(jobs_.all_jobs().size());
  spec.arrival = tmpl.arrival;
  spec.input_file = catalog_file_ids_[tmpl.file_index];
  const auto& file = name_node_->file(spec.input_file);
  spec.maps.reserve(file.blocks.size());
  for (BlockId bid : file.blocks) {
    spec.maps.push_back(
        sched::MapTaskSpec{bid, file.block_size, tmpl.map_cpu});
  }
  spec.reduces = tmpl.reduces;
  spec.reduce_cpu = tmpl.reduce_cpu;
  spec.shuffle_bytes = tmpl.shuffle_bytes;
  if (tracer_ != nullptr) {
    tracer_->job_submitted(spec.id, spec.maps.size(), spec.reduces);
  }
  jobs_.add_job(spec);
}

void Cluster::schedule_next_arrival() {
  if (arrivals_ == nullptr) return;
  const auto tmpl = arrivals_->next();
  if (!tmpl) {
    arrivals_.reset();  // stream exhausted; nothing more to admit
    return;
  }
  // Pull one job ahead: each arrival event admits its job, then schedules
  // the next one. At any instant at most one un-admitted template is
  // buffered, regardless of the workload's total size.
  sim_.at(tmpl->arrival, [this, tmpl = *tmpl] {
    admit_job(tmpl);
    schedule_next_arrival();
    try_assign_all();
  });
}

void Cluster::start_heartbeats() {
  const std::size_t workers = data_nodes_.size();
  for (std::size_t w = 0; w < workers; ++w) {
    // Stagger heartbeats across the interval like real data nodes do.
    const SimDuration phase =
        options_.heartbeat_interval * static_cast<SimDuration>(w + 1) /
        static_cast<SimDuration>(workers);
    heartbeat_event_[w] = sim_.after(phase, [this, w] { heartbeat(w); });
  }
}

void Cluster::heartbeat(std::size_t worker) {
  if (dead_[worker]) return;  // a dead node heartbeats no more
  if (node_partitioned(worker)) {
    // Lost at the partitioned boundary: the tracker keeps beating but the
    // master never hears it, so the missed-beat detector will declare the
    // node dead. Only the periodic chain is re-armed; pending block reports
    // stay queued until the heal reconciles (or the next delivered beat
    // drains them, for a blip shorter than the detection timeout).
    if (!run_finished()) {
      heartbeat_event_[worker] =
          sim_.after(options_.heartbeat_interval, [this, worker] {
            heartbeat(worker);
          });
    }
    return;
  }
  obs::PhaseScope prof(profiler_, obs::Phase::kHeartbeat);
  name_node_->heartbeat_received(static_cast<NodeId>(worker), sim_.now());
  auto& dn = *data_nodes_[worker];
  const auto report = dn.drain_report();
  if (!report.added.empty()) {
    name_node_->report_dynamic_added(static_cast<NodeId>(worker),
                                     report.added);
  }
  if (!report.removed.empty()) {
    name_node_->report_dynamic_removed(static_cast<NodeId>(worker),
                                       report.removed);
  }
#if DARE_INVARIANTS_ENABLED
  // Cross-component audit: after the heartbeat is applied, the name node's
  // replica-location map must agree with this data node's actual contents
  // for every block the report touched.
  for (BlockId b : report.added) {
    const auto& locs = name_node_->locations(b);
    DARE_INVARIANT(dn.has_dynamic_block(b),
                   "heartbeat: reported-added block " + std::to_string(b) +
                       " is not on data node " + std::to_string(worker));
    DARE_INVARIANT(std::find(locs.begin(), locs.end(),
                             static_cast<NodeId>(worker)) != locs.end(),
                   "heartbeat: name node missing location for added block " +
                       std::to_string(b));
  }
  for (BlockId b : report.removed) {
    const auto& locs = name_node_->locations(b);
    DARE_INVARIANT(!dn.has_dynamic_block(b),
                   "heartbeat: reported-removed block " + std::to_string(b) +
                       " is still live on data node " + std::to_string(worker));
    DARE_INVARIANT(dn.has_static_block(b) ||
                       std::find(locs.begin(), locs.end(),
                                 static_cast<NodeId>(worker)) == locs.end(),
                   "heartbeat: name node kept stale location for removed "
                   "block " + std::to_string(b));
  }
#endif
  // Lazy physical deletion happens at idle time; the heartbeat is our proxy.
  dn.reclaim_marked();

  // Straggler verdicts ride the heartbeat, mirroring how a real JobTracker
  // folds slow-node bookkeeping into tracker reports.
  if (options_.enable_straggler_detection) {
    straggler_decision(static_cast<NodeId>(worker));
  }

  if (!run_finished()) {
    heartbeat_event_[worker] =
        sim_.after(options_.heartbeat_interval, [this, worker] {
          heartbeat(worker);
        });
  }
}

void Cluster::maybe_schedule_tick() {
  if (tick_scheduled_) return;
  tick_scheduled_ = true;
  sim_.after(options_.scheduler_retry, [this] {
    tick_scheduled_ = false;
    if (!jobs_.all_done()) try_assign_all();
  });
}

void Cluster::try_assign_all() {
  // Profiled per sweep, not per node: this is the hottest path in the
  // simulator and a per-node scope would dominate the cost it measures.
  obs::PhaseScope prof(profiler_, obs::Phase::kSchedule);
  const std::size_t n = data_nodes_.size();
  const std::size_t start = assign_rotation_++ % n;
  for (std::size_t k = 0; k < n; ++k) {
    // SoA early exits — both behavior-preserving:
    //  * no pending work of either kind: every remaining select_map /
    //    select_reduce call would return nullopt without mutating any
    //    scheduler state (the fair journal drain just defers);
    //  * no free slot anywhere and the retry tick already booked: every
    //    remaining visit would be a complete no-op (maybe_schedule_tick
    //    dedups via tick_scheduled_).
    // At 10k nodes these turn the steady-state sweep from O(nodes) into
    // O(1) whenever the cluster is saturated or drained.
    if (jobs_.total_pending_maps() + jobs_.total_pending_reduces() == 0) {
      break;
    }
    if (slots_.total_free() == 0 && tick_scheduled_) break;
    try_assign_node(static_cast<NodeId>((start + k) % n));
  }
}

void Cluster::try_assign_node(NodeId worker) {
  const auto w = static_cast<std::size_t>(worker);
  // Dead, blacklisted, or detected-slow: no new launches. A detected-slow
  // node keeps its running work (graceful degradation, not eviction).
  if (!node_open_for_launch(w)) return;
  while (slots_.free_maps(w) > 0) {
    const auto selection =
        scheduler_->select_map(worker, sim_.now(), jobs_, *locator_);
    if (!selection) break;
    launch_map(worker, *selection);
  }
  while (slots_.free_reduces(w) > 0) {
    const auto job = scheduler_->select_reduce(jobs_);
    if (!job) break;
    launch_reduce(worker, *job);
  }
  if (jobs_.total_pending_maps() + jobs_.total_pending_reduces() > 0) {
    maybe_schedule_tick();
  }
}

NodeId Cluster::pick_source(NodeId reader, BlockId block,
                            std::size_t* unreachable_skipped) const {
  const auto& locs = name_node_->locations(block);
  NodeId best = kInvalidNode;
  bool best_slow = false;
  int best_hops = 0;
  int best_flows = 0;
  for (NodeId cand : locs) {
    if (cand == reader) continue;  // metadata race; never a usable source
    if (dead_[static_cast<std::size_t>(cand)]) continue;
    if (netfault_active_ && !network_->reachable(reader, cand)) {
      // A replica behind a partitioned boundary reads like a dead one,
      // except the reader pays a fail-fast connect timeout for probing it
      // (charged by plan_read via this count).
      if (unreachable_skipped != nullptr) ++*unreachable_skipped;
      continue;
    }
    // Graceful degradation: detected-slow holders rank strictly below every
    // healthy one (deprioritized, never excluded — a slow copy still beats
    // the archival tier). With detection off this bit is always false and
    // the ordering is unchanged.
    const bool slow = detected_slow_[static_cast<std::size_t>(cand)];
    const int hops = topology_->hops(reader, cand);
    const int flows = network_->active_flows(cand);
    if (best == kInvalidNode || (!slow && best_slow) ||
        (slow == best_slow &&
         (hops < best_hops ||
          (hops == best_hops &&
           (flows < best_flows || (flows == best_flows && cand < best)))))) {
      best = cand;
      best_slow = slow;
      best_hops = hops;
      best_flows = flows;
    }
  }
  return best;  // kInvalidNode when no live replica exists anywhere else
}

bool Cluster::checksum_fails(NodeId holder, BlockId block, Bytes bytes) {
  // Exactly one draw per verified read when the stochastic process is on,
  // regardless of the replica's current state — the draw count must never
  // depend on earlier corruption outcomes.
  if (corruption_ != nullptr && corruption_->sample_read_corruption(bytes)) {
    mark_replica_corrupt(holder, block);
  }
  return data_nodes_[static_cast<std::size_t>(holder)]->is_corrupt(block);
}

void Cluster::mark_replica_corrupt(NodeId holder, BlockId block) {
  if (data_nodes_[static_cast<std::size_t>(holder)]->corrupt_replica(block)) {
    ++result_.corrupt_replicas;
    if (tracer_ != nullptr) tracer_->replica_corrupted(holder, block);
  }
}

void Cluster::record_data_loss(BlockId block) {
  // One loss event per block: repeated reads of the same corrupt last copy
  // must not inflate the count.
  if (!data_loss_blocks_.insert(block).second) return;
  ++result_.data_loss_events;
  if (tracer_ != nullptr) tracer_->data_loss(block);
}

storage::NameNode::BadBlockResult Cluster::handle_bad_block(BlockId block,
                                                            NodeId holder) {
  ++result_.corrupt_reads;
  if (tracer_ != nullptr) tracer_->checksum_failed(holder, block);
  const auto verdict = name_node_->report_bad_block(block, holder);
  switch (verdict) {
    case storage::NameNode::BadBlockResult::kQuarantined: {
      const auto h = static_cast<std::size_t>(holder);
      data_nodes_[h]->quarantine_replica(block);
      policies_[h]->on_replica_dropped(block);
      ++result_.replicas_quarantined;
      if (options_.enable_rereplication &&
          name_node_->is_under_replicated(block)) {
        queue_repair(block);
      }
      break;
    }
    case storage::NameNode::BadBlockResult::kLastReplica:
      // Last-good-replica protection: the final copy is never deleted, even
      // corrupt — surface the loss and leave it for archival restore.
      record_data_loss(block);
      break;
    case storage::NameNode::BadBlockResult::kStaleReport:
      break;
  }
  return verdict;
}

Cluster::ReadPlan Cluster::plan_read(NodeId worker, BlockId block, Bytes bytes,
                                     bool node_local) {
  const auto w = static_cast<std::size_t>(worker);
  ReadPlan plan;
  plan.src = worker;
  if (node_local) {
    SimDuration local_disk = data_nodes_[w]->read_duration(bytes);
    // Degraded-mode disk penalty: a limping holder serves reads slower.
    // `degraded_` is all-false unless the straggler process is enabled, so
    // the integer path is untouched in disabled runs.
    if (degraded_[w]) {
      local_disk = static_cast<SimDuration>(
          static_cast<double>(local_disk) * options_.stragglers.disk_slowdown);
    }
    plan.duration += local_disk;
    if (!verify_reads_ || !checksum_fails(worker, block, bytes)) return plan;
    // The local copy failed its checksum: report it (quarantining the
    // replica) and re-read from another holder. The wasted local read stays
    // charged to the attempt.
    handle_bad_block(block, worker);
  }
  for (;;) {
    std::size_t unreachable = 0;
    const NodeId src = pick_source(worker, block, &unreachable);
    if (unreachable > 0) {
      // Fail fast across a dead link: the reader probed a replica behind a
      // partitioned boundary, burned one connect timeout, and moved on to a
      // reachable copy (or the archival fallback below).
      plan.duration += from_seconds(options_.netfault.connect_timeout_s);
      ++result_.unreachable_reads;
    }
    if (src == kInvalidNode) {
      // Every other replica is on a dead or unreachable node or burned by
      // quarantine: restore from the (simulated) archival tier — a fixed,
      // painful penalty. This keeps jobs with genuinely lost blocks
      // finishable instead of deadlocking the run.
      plan.duration += from_seconds(60.0);
      plan.src = worker;
      plan.remote_flow = false;
      return plan;
    }
    // A remote read is bounded by both source disk and network path.
    SimDuration disk =
        data_nodes_[static_cast<std::size_t>(src)]->read_duration(bytes);
    if (degraded_[static_cast<std::size_t>(src)]) {
      disk = static_cast<SimDuration>(static_cast<double>(disk) *
                                      options_.stragglers.disk_slowdown);
    }
    const SimDuration net = network_->transfer_duration(src, worker, bytes);
    plan.duration += std::max(disk, net);
    if (verify_reads_ && checksum_fails(src, block, bytes)) {
      // The fetched copy failed its checksum; its transfer time stays
      // charged but no flow is held for the wasted leg (modeling
      // simplification). Retry from the next surviving replica —
      // kQuarantined removed this location, so the loop terminates.
      if (handle_bad_block(block, src) ==
          storage::NameNode::BadBlockResult::kLastReplica) {
        // The only remaining copy is corrupt (kept, never deleted): fall
        // back to the archival tier.
        plan.duration += from_seconds(60.0);
        plan.src = worker;
        plan.remote_flow = false;
        return plan;
      }
      continue;
    }
    network_->flow_started(src, worker);
    plan.src = src;
    plan.remote_flow = true;
    return plan;
  }
}

void Cluster::launch_map(NodeId worker, const sched::MapSelection& selection) {
  const auto w = static_cast<std::size_t>(worker);
  const std::size_t map_index =
      jobs_.launch_map(selection.job, selection.pending_index,
                       selection.locality);
  const sched::MapTaskSpec task =
      jobs_.job(selection.job).spec.maps[map_index];
  const storage::BlockMeta meta = name_node_->block(task.block);
  slots_.take_map(w);
  if (tracer_ != nullptr) {
    tracer_->map_launched(worker, selection.job, map_index,
                          static_cast<int>(selection.locality),
                          /*speculative=*/false);
  }

  const bool node_local = selection.node_local();
  const ReadPlan plan = plan_read(worker, task.block, task.bytes, node_local);
  const SimDuration compute =
      straggler_compute(worker, options_.map_setup + task.cpu);
  SimDuration duration = compute + plan.duration;
  const NodeId src = plan.src;
  const bool remote_flow = plan.remote_flow;
  duration = static_cast<SimDuration>(static_cast<double>(duration) *
                                      node_slowdown_[w]);

  // The DARE hook: the block is streaming through this node anyway, so the
  // policy may capture it (remote case) or refresh its bookkeeping (local).
  // `node_local` is the scheduler's view at launch — kept even when a
  // checksum failure rerouted the read, so the policy draw sequence is
  // independent of corruption outcomes.
  {
    obs::PhaseScope prof(profiler_, obs::Phase::kReplication);
    policies_[w]->on_map_task(meta, node_local);
  }
  if (scarlett_) scarlett_->record_access(meta.file);
  if (options_.record_access_trace) {
    access_trace_.events.push_back({meta.file, sim_.now()});
  }

  map_time_stats_.add(to_seconds(duration));

  const JobId job = selection.job;
  const double duration_s = to_seconds(duration);
  auto& state = running_maps_[task_key(job, map_index)];
  state.block = task.block;
  state.original_locality = selection.locality;
  MapAttempt attempt;
  attempt.node = worker;
  attempt.started = sim_.now();
  attempt.speculative = false;
  attempt.holds_flow = remote_flow;
  attempt.flow_src = src;
  attempt.completion = sim_.after(
      duration, [this, job, map_index, worker, remote_flow, src, duration_s] {
        on_map_attempt_finished(job, map_index, worker, remote_flow, src,
                                duration_s);
      });
  state.attempts.push_back(std::move(attempt));
  // Proactive cloning fires at launch time, not on a timer: the clone runs
  // from the start, hedging against a slow node before any evidence exists.
  maybe_clone(job, map_index, worker);
}

void Cluster::launch_speculative(NodeId worker, JobId job,
                                 std::size_t map_index) {
  const auto w = static_cast<std::size_t>(worker);
  const sched::MapTaskSpec task = jobs_.job(job).spec.maps[map_index];
  const storage::BlockMeta meta = name_node_->block(task.block);
  slots_.take_map(w);
  ++result_.speculative_launched;

  const bool node_local = locator_->is_local(worker, task.block);
  if (tracer_ != nullptr) {
    const auto loc = node_local ? sched::Locality::kNodeLocal
                     : locator_->is_rack_local(worker, task.block)
                         ? sched::Locality::kRackLocal
                         : sched::Locality::kOffRack;
    tracer_->map_launched(worker, job, map_index, static_cast<int>(loc),
                          /*speculative=*/true);
  }
  const ReadPlan plan = plan_read(worker, task.block, task.bytes, node_local);
  const SimDuration compute =
      straggler_compute(worker, options_.map_setup + task.cpu);
  SimDuration duration = compute + plan.duration;
  const NodeId src = plan.src;
  const bool remote_flow = plan.remote_flow;
  duration = static_cast<SimDuration>(static_cast<double>(duration) *
                                      node_slowdown_[w]);
  // The backup attempt reads the block through this node too — the DARE
  // hook applies exactly as for a regular attempt.
  {
    obs::PhaseScope prof(profiler_, obs::Phase::kReplication);
    policies_[w]->on_map_task(meta, node_local);
  }

  const double duration_s = to_seconds(duration);
  auto& state = running_maps_[task_key(job, map_index)];
  MapAttempt attempt;
  attempt.node = worker;
  attempt.started = sim_.now();
  attempt.speculative = true;
  attempt.holds_flow = remote_flow;
  attempt.flow_src = src;
  attempt.completion = sim_.after(
      duration, [this, job, map_index, worker, remote_flow, src, duration_s] {
        on_map_attempt_finished(job, map_index, worker, remote_flow, src,
                                duration_s);
      });
  state.attempts.push_back(std::move(attempt));
}

SimDuration Cluster::straggler_compute(NodeId worker, SimDuration compute) {
  if (straggler_process_ == nullptr) return compute;
  const auto w = static_cast<std::size_t>(worker);
  double scaled = static_cast<double>(compute);
  if (degraded_[w]) scaled *= options_.stragglers.compute_slowdown;
  // One inflation draw per launch regardless of node state or outcome: the
  // straggler stream position never depends on which node runs the task.
  const double factor = straggler_process_->sample_task_inflation();
  if (factor > 1.0) {
    ++result_.tail_inflations;
    scaled *= factor;
  }
  return static_cast<SimDuration>(scaled);
}

void Cluster::note_attempt_progress(NodeId worker, double duration_s) {
  if (!options_.enable_straggler_detection) return;
  // The reference is the cluster-mean completed-attempt duration *before*
  // this completion was folded in; with nothing completed yet there is no
  // baseline and the sample is discarded.
  if (global_map_stats_.second == 0) return;
  const double mean_s =
      global_map_stats_.first / static_cast<double>(global_map_stats_.second);
  if (!(mean_s > 0.0)) return;
  const auto w = static_cast<std::size_t>(worker);
  const double ratio = duration_s / mean_s;
  const double alpha = options_.straggler_detect_ewma_alpha;
  progress_ewma_[w] = progress_samples_[w] == 0
                          ? ratio
                          : alpha * ratio + (1.0 - alpha) * progress_ewma_[w];
  ++progress_samples_[w];
}

void Cluster::straggler_decision(NodeId worker) {
  const auto w = static_cast<std::size_t>(worker);
  if (detected_slow_[w]) {
    if (sim_.now() < slow_until_[w]) return;
    // Probation re-admission: forget the old EWMA so the node earns its
    // standing back from fresh observations instead of its history.
    detected_slow_[w] = false;
    progress_ewma_[w] = 0.0;
    progress_samples_[w] = 0;
    ++result_.straggler_readmissions;
    if (tracer_ != nullptr) tracer_->straggler_cleared(worker);
    try_assign_node(worker);
    return;
  }
  if (progress_samples_[w] < options_.straggler_detect_min_samples) return;
  if (progress_ewma_[w] < options_.straggler_detect_ratio) return;
  // Never sideline below two open workers: mitigation must not make the
  // cluster unschedulable (same floor as blacklisting).
  std::size_t open = 0;
  for (std::size_t i = 0; i < dead_.size(); ++i) {
    if (node_open_for_launch(i)) ++open;
  }
  if (open <= 2) return;
  detected_slow_[w] = true;
  ++slow_strikes_[w];
  // Exponential backoff: each repeat offense doubles the timeout, capped at
  // 16x so a recovered node is not sidelined forever.
  const auto shift = std::min<std::size_t>(slow_strikes_[w] - 1, 4);
  slow_until_[w] = sim_.now() + (options_.straggler_backoff << shift);
  ++result_.stragglers_detected;
  if (tracer_ != nullptr) {
    tracer_->straggler_detected(worker, progress_ewma_[w]);
  }
}

void Cluster::maybe_clone(JobId job, std::size_t map_index, NodeId original) {
  if (!options_.enable_task_cloning) return;
  if (running_clones_ >= clone_budget_slots_) return;
  if (options_.clone_job_max_maps != 0 &&
      jobs_.job(job).total_maps() > options_.clone_job_max_maps) {
    return;  // cloning is reserved for small jobs (the cheap-to-hedge ones)
  }
  const auto it = running_maps_.find(task_key(job, map_index));
  if (it == running_maps_.end()) return;
  const MapTaskState& state = it->second;
  if (state.attempts.size() != 1) return;
  // Same target scan as speculation: a free open slot, preferring one local
  // to the block; detected-slow nodes are never clone targets.
  NodeId best = kInvalidNode;
  for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
    if (!node_open_for_launch(w) || slots_.free_maps(w) == 0) continue;
    if (static_cast<NodeId>(w) == original) continue;
    const auto node = static_cast<NodeId>(w);
    if (locator_->is_local(node, state.block)) {
      best = node;
      break;
    }
    if (best == kInvalidNode) best = node;
  }
  if (best == kInvalidNode) return;
  launch_clone(best, job, map_index);
}

void Cluster::launch_clone(NodeId worker, JobId job, std::size_t map_index) {
  const auto w = static_cast<std::size_t>(worker);
  const sched::MapTaskSpec task = jobs_.job(job).spec.maps[map_index];
  const storage::BlockMeta meta = name_node_->block(task.block);
  slots_.take_map(w);
  ++result_.clones_launched;
  ++running_clones_;
  jobs_.launch_clone(job);

  const bool node_local = locator_->is_local(worker, task.block);
  if (tracer_ != nullptr) {
    const auto loc = node_local ? sched::Locality::kNodeLocal
                     : locator_->is_rack_local(worker, task.block)
                         ? sched::Locality::kRackLocal
                         : sched::Locality::kOffRack;
    tracer_->clone_launched(worker, job, map_index, static_cast<int>(loc));
  }
  const ReadPlan plan = plan_read(worker, task.block, task.bytes, node_local);
  const SimDuration compute =
      straggler_compute(worker, options_.map_setup + task.cpu);
  SimDuration duration = compute + plan.duration;
  const NodeId src = plan.src;
  const bool remote_flow = plan.remote_flow;
  duration = static_cast<SimDuration>(static_cast<double>(duration) *
                                      node_slowdown_[w]);
  // The clone streams the block through this node too — the DARE hook
  // applies exactly as for any other attempt.
  {
    obs::PhaseScope prof(profiler_, obs::Phase::kReplication);
    policies_[w]->on_map_task(meta, node_local);
  }

  const double duration_s = to_seconds(duration);
  auto& state = running_maps_[task_key(job, map_index)];
  MapAttempt attempt;
  attempt.node = worker;
  attempt.started = sim_.now();
  attempt.speculative = false;
  attempt.clone = true;
  attempt.holds_flow = remote_flow;
  attempt.flow_src = src;
  attempt.completion = sim_.after(
      duration, [this, job, map_index, worker, remote_flow, src, duration_s] {
        on_map_attempt_finished(job, map_index, worker, remote_flow, src,
                                duration_s);
      });
  state.attempts.push_back(std::move(attempt));
}

void Cluster::retire_clone(JobId job) {
  if (running_clones_ == 0) {
    throw std::logic_error("Cluster: retire_clone with none running");
  }
  --running_clones_;
  jobs_.finish_clone(job);
}

void Cluster::on_map_attempt_finished(JobId job, std::size_t map_index,
                                      NodeId worker, bool remote_flow,
                                      NodeId src, double duration_s) {
  if (remote_flow) network_->flow_finished(src, worker);
  const auto wi = static_cast<std::size_t>(worker);
  const auto key = task_key(job, map_index);
  const auto state_it = running_maps_.find(key);
  if (state_it == running_maps_.end()) {
    throw std::logic_error("Cluster: attempt completion for unknown task");
  }
  MapTaskState& state = state_it->second;

  // Locate this attempt.
  const auto att_it =
      std::find_if(state.attempts.begin(), state.attempts.end(),
                   [worker](const MapAttempt& a) { return a.node == worker; });
  if (att_it == state.attempts.end()) {
    throw std::logic_error("Cluster: attempt not registered");
  }

  if (dead_[wi] || node_partitioned(wi)) {
    // The node died (or its rack fell behind a partition) mid-attempt: its
    // tracker never reports back, so nobody learns anything here. The
    // attempt stays registered as a zombie until the name node detects the
    // loss via missed heartbeats and cleanup_node_attempts() requeues the
    // task (or a blip heal sweeps it). Only the network flow is torn down
    // (done above) — mark it released so the sweep won't double release it.
    att_it->holds_flow = false;
    return;
  }

  const bool was_speculative = att_it->speculative;
  const bool was_clone = att_it->clone;
  state.attempts.erase(att_it);
  slots_.give_map(wi);
  // A clone's budget is returned the moment it reports back, win or fail —
  // the erase above is the one place every self-finishing clone passes.
  if (was_clone) retire_clone(job);

  // Injected attempt failure (bad disk, JVM crash): the attempt completes
  // but reports failure. Unlike a kill by node loss, this *does* count
  // against the Hadoop retry budget.
  if (fault_process_ && fault_process_->sample_task_failure()) {
    ++result_.task_attempt_failures;
    if (tracer_ != nullptr) {
      tracer_->task_attempt_fault(worker, job,
                                  static_cast<std::int64_t>(map_index));
    }
    if (was_clone) {
      // For the wins + killed == launched ledger a faulted clone counts as
      // killed; its whole runtime was wasted.
      ++result_.clones_killed;
      clone_wasted_work_ += from_seconds(duration_s);
      if (tracer_ != nullptr) tracer_->clone_killed(worker, job, map_index);
    }
    note_node_task_failure(worker);
    const auto failures = ++map_attempt_failures_[key];
    if (failures >= options_.max_task_attempts) {
      fail_job(job);
      return;
    }
    if (state.attempts.empty()) {
      // No speculative sibling still running: back to the pending queue.
      if (tracer_ != nullptr) tracer_->map_requeued(worker, job, map_index);
      jobs_.requeue_running_map(job, map_index, state.original_locality);
      ++result_.task_reexecutions;
      running_maps_.erase(state_it);
    }
    try_assign_all();
    return;
  }

  // This attempt wins the task.
  if (was_speculative) ++result_.speculative_wins;
  if (was_clone) ++result_.clone_wins;
  if (tracer_ != nullptr) {
    tracer_->map_finished(worker, job, map_index, duration_s, was_speculative);
  }
  // Feed the straggler detector before folding this completion into the
  // stats it normalizes against.
  note_attempt_progress(worker, duration_s);
  // Speculation-estimator stats fold in before the completion transition:
  // if this map finishes the job, its runtime (and the per-job stats entry)
  // is released inside complete_map.
  {
    auto& [sum_s, count] = job_map_stats_[job];
    sum_s += duration_s;
    ++count;
  }
  global_map_stats_.first += duration_s;
  ++global_map_stats_.second;
  const auto done = jobs_.complete_map(job, sim_.now());
  if (tracer_ != nullptr && done.job_done) {
    tracer_->job_finished(job, to_seconds(sim_.now() - done.arrival));
  }

  // Kill the losing attempts: cancel their completion events, release the
  // network flows they held, and free their slots now (Hadoop sends a kill
  // to the slower attempt).
  for (auto& other : state.attempts) {
    const bool cancelled = other.completion.cancel();
    if (other.clone) {
      // A losing clone retires here whether its completion was still
      // pending (a real kill) or already fired as a zombie on a dead node —
      // the erase below destroys it either way, unseen by any later sweep.
      ++result_.clones_killed;
      clone_wasted_work_ += sim_.now() - other.started;
      if (tracer_ != nullptr) tracer_->clone_killed(other.node, job, map_index);
      retire_clone(job);
    } else if (cancelled && tracer_ != nullptr) {
      tracer_->map_killed(other.node, job, map_index);
    }
    if (cancelled) {
      if (!other.clone) ++result_.speculative_killed;
      if (other.holds_flow) {
        network_->flow_finished(other.flow_src, other.node);
      }
      if (!dead_[static_cast<std::size_t>(other.node)]) {
        slots_.give_map(static_cast<std::size_t>(other.node));
      }
    }
  }
  running_maps_.erase(state_it);

  if (run_finished()) cancel_pending_churn();

  if (done.reduces_ready) {
    // Reduces just became launchable; offer slots cluster-wide.
    try_assign_all();
  } else {
    try_assign_node(worker);
  }
}

bool Cluster::run_finished() const {
  return ran_ && jobs_.all_jobs().size() == total_jobs_ && jobs_.all_done();
}

void Cluster::speculation_tick() {
  for (const auto& rt : jobs_.active_jobs()) {
    const JobId id = rt.spec.id;
    // Hadoop speculates only once a job has dispatched all its maps.
    if (!rt.pending_maps.empty() || rt.running_maps == 0) continue;
    // Estimate the expected map duration: the job's own completed maps when
    // available, else the cluster-wide mean (covers single-map jobs).
    const auto stats_it = job_map_stats_.find(id);
    double mean_s = 0.0;
    if (stats_it != job_map_stats_.end() && stats_it->second.second > 0) {
      mean_s = stats_it->second.first /
               static_cast<double>(stats_it->second.second);
    } else if (global_map_stats_.second > 0) {
      mean_s = global_map_stats_.first /
               static_cast<double>(global_map_stats_.second);
    } else {
      continue;  // nothing has ever completed: no estimate yet
    }
    for (std::size_t map_index = 0; map_index < rt.spec.maps.size();
         ++map_index) {
      const auto it = running_maps_.find(task_key(id, map_index));
      if (it == running_maps_.end()) continue;
      MapTaskState& state = it->second;
      if (state.attempts.size() != 1) continue;  // already speculated
      const double age_s = to_seconds(sim_.now() - state.attempts[0].started);
      if (age_s < options_.speculation_threshold * mean_s) continue;
      // Find a free open slot, preferring one local to the block. A
      // detected-slow node is never a backup target — launching the hedge
      // on a suspect defeats its purpose.
      NodeId best = kInvalidNode;
      for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
        if (!node_open_for_launch(w) || slots_.free_maps(w) == 0) continue;
        if (static_cast<NodeId>(w) == state.attempts[0].node) continue;
        const auto node = static_cast<NodeId>(w);
        if (locator_->is_local(node, state.block)) {
          best = node;
          break;
        }
        if (best == kInvalidNode) best = node;
      }
      if (best != kInvalidNode) launch_speculative(best, id, map_index);
    }
  }
  if (!run_finished()) {
    sim_.after(options_.speculation_check, [this] { speculation_tick(); });
  }
}

void Cluster::launch_reduce(NodeId worker, JobId job) {
  const auto w = static_cast<std::size_t>(worker);
  jobs_.launch_reduce(job);
  slots_.take_reduce(w);
  const auto& spec = jobs_.job(job).spec;

  // Reduces suffer degraded-mode compute and tail inflation exactly like
  // maps (the shuffle leg below is network-bound and stays untouched).
  SimDuration duration =
      straggler_compute(worker, options_.reduce_setup + spec.reduce_cpu);
  const Bytes shuffle =
      spec.reduces > 0 ? spec.shuffle_bytes / static_cast<Bytes>(spec.reduces)
                       : 0;
  NodeId src = worker;
  bool flows = false;
  if (shuffle > 0 && data_nodes_.size() > 1) {
    // Map outputs are spread across the cluster; model the shuffle as one
    // aggregate fetch from a random other live node.
    for (std::size_t attempt = 0; attempt < 8 * data_nodes_.size();
         ++attempt) {
      const auto cand =
          static_cast<NodeId>(rng_.uniform_int(data_nodes_.size()));
      if (cand != worker && !dead_[static_cast<std::size_t>(cand)] &&
          (!netfault_active_ || network_->reachable(cand, worker))) {
        src = cand;
        break;
      }
    }
    if (src != worker) {
      duration += network_->transfer_duration(src, worker, shuffle);
      network_->flow_started(src, worker);
      flows = true;
    }
  }

  const std::uint64_t attempt_id = next_reduce_attempt_++;
  if (tracer_ != nullptr) {
    tracer_->reduce_launched(worker, job,
                             static_cast<std::int64_t>(attempt_id));
  }
  const double duration_s = to_seconds(duration);
  ReduceAttempt attempt;
  attempt.job = job;
  attempt.node = worker;
  attempt.holds_flow = flows;
  attempt.flow_src = src;
  attempt.completion = sim_.after(
      duration, [this, attempt_id, job, worker, src, flows, duration_s] {
        if (flows) network_->flow_finished(src, worker);
        const auto it = running_reduces_.find(attempt_id);
        if (it == running_reduces_.end()) {
          throw std::logic_error("Cluster: unknown reduce attempt completed");
        }
        const auto wi = static_cast<std::size_t>(worker);
        if (dead_[wi] || node_partitioned(wi)) {
          // Zombie completion on a dead or partitioned tracker: nobody
          // hears about it. The attempt stays registered until heartbeat
          // detection (or a blip heal) sweeps the node; only its flow
          // (already released) is gone.
          it->second.holds_flow = false;
          return;
        }
        running_reduces_.erase(it);
        slots_.give_reduce(wi);
        if (fault_process_ && fault_process_->sample_task_failure()) {
          ++result_.task_attempt_failures;
          if (tracer_ != nullptr) {
            tracer_->task_attempt_fault(
                worker, job, static_cast<std::int64_t>(attempt_id));
          }
          note_node_task_failure(worker);
          const auto failures = ++reduce_attempt_failures_[job];
          if (failures >= options_.max_task_attempts) {
            fail_job(job);
            return;
          }
          if (tracer_ != nullptr) {
            tracer_->reduce_requeued(worker, job,
                                     static_cast<std::int64_t>(attempt_id));
          }
          jobs_.requeue_running_reduce(job);
          ++result_.task_reexecutions;
          try_assign_all();
          return;
        }
        if (tracer_ != nullptr) {
          tracer_->reduce_finished(
              worker, job, static_cast<std::int64_t>(attempt_id), duration_s);
        }
        const auto done = jobs_.complete_reduce(job, sim_.now());
        if (tracer_ != nullptr && done.job_done) {
          tracer_->job_finished(job, to_seconds(sim_.now() - done.arrival));
        }
        if (run_finished()) cancel_pending_churn();
        try_assign_node(worker);
      });
  running_reduces_.emplace(attempt_id, std::move(attempt));
}

void Cluster::fail_node(NodeId worker, faults::FaultKind kind,
                        SimDuration downtime) {
  const auto w = static_cast<std::size_t>(worker);
  if (dead_[w]) return;  // double-kill of an already-dead worker: no-op
  if (live_workers_ <= 1) {
    throw std::logic_error("Cluster: cannot fail the last live worker");
  }
  obs::PhaseScope prof(profiler_, obs::Phase::kChurn);
  if (tracer_ != nullptr) {
    tracer_->node_failed(worker, static_cast<int>(kind), to_seconds(downtime));
  }
  dead_[w] = true;
  --live_workers_;
  death_time_[w] = sim_.now();
  death_kind_[w] = kind;
  ++fault_epoch_[w];
  slots_.clear_node(w);
  heartbeat_event_[w].cancel();
  next_failure_[w].cancel();
  ++result_.node_failures;
  if (kind == faults::FaultKind::kPermanent) {
    ++result_.permanent_failures;
    // The disk is gone with the node; blocks only it held are lost unless
    // another replica survives somewhere.
    data_nodes_[w]->wipe_disk();
  } else {
    ++result_.transient_failures;
    const std::uint64_t epoch = fault_epoch_[w];
    recover_event_[w] =
        sim_.after(std::max<SimDuration>(downtime, from_millis(1)),
                   [this, worker, epoch] { recover_node(worker, epoch); });
  }
  // Crucially, the name node is NOT told: it finds out on its own when the
  // node misses detection_missed_heartbeats consecutive heartbeats (see
  // detection_tick), exactly like a real JobTracker/NameNode expiry.
}

void Cluster::detection_tick() {
  if (run_finished()) return;  // post-run drain: stop monitoring
  obs::PhaseScope prof(profiler_, obs::Phase::kChurn);
  const SimDuration timeout =
      options_.heartbeat_interval *
      static_cast<SimDuration>(options_.detection_missed_heartbeats);
  for (NodeId overdue : name_node_->overdue_nodes(sim_.now(), timeout)) {
    declare_node_dead(overdue);
  }
  monitor_event_ =
      sim_.after(options_.heartbeat_interval, [this] { detection_tick(); });
}

void Cluster::declare_node_dead(NodeId worker) {
  const auto w = static_cast<std::size_t>(worker);
  if (declared_dead_[w]) return;
  // A node may be declared while physically alive when its rack is
  // partitioned: the beats are sent but never delivered, which from the
  // master's chair is indistinguishable from a dead tracker.
  DARE_INVARIANT(dead_[w] || node_partitioned(w),
                 "Cluster: declaring a physically live, reachable node dead "
                 "(node " + std::to_string(w) + ")");
  declared_dead_[w] = true;
  ++result_.failures_detected;
  detection_latency_total_ +=
      sim_.now() -
      (dead_[w] ? death_time_[w]
                : rack_partition_start_[static_cast<std::size_t>(
                      node_rack_[w])]);
  // A partitioned-but-alive node keeps its slots in the ledger until now;
  // they leave the pool exactly like a dead node's (restored at the heal).
  if (!dead_[w]) slots_.clear_node(w);
  // The name node drops every replica location on the node; blocks that
  // fell under their replication factor enter the repair queue.
  const auto under_replicated = name_node_->node_failed(worker);
  if (options_.enable_rereplication) {
    for (BlockId bid : under_replicated) queue_repair(bid);
  }
  // The JobTracker side of the same expiry: every attempt on the node is
  // presumed lost and its task requeued.
  cleanup_node_attempts(worker);
  try_assign_all();
}

void Cluster::cleanup_node_attempts(NodeId worker) {
  // Deterministic sweep order: running_maps_ is an unordered_map, so pull
  // the keys out and sort before touching job state.
  std::vector<std::uint64_t> keys;
  keys.reserve(running_maps_.size());
  // dare-lint: allow(unordered-iteration) -- keys are sorted before use.
  for (const auto& [key, state] : running_maps_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    const auto it = running_maps_.find(key);
    MapTaskState& state = it->second;
    const auto att_it = std::find_if(
        state.attempts.begin(), state.attempts.end(),
        [worker](const MapAttempt& a) { return a.node == worker; });
    if (att_it == state.attempts.end()) continue;
    const auto sweep_job = static_cast<JobId>(key >> 20);
    const auto sweep_index = static_cast<std::size_t>(key & 0xFFFFF);
    // A still-pending completion is cancelled here; if it already fired as
    // a zombie, its flow was released at fire time (holds_flow false).
    if (att_it->completion.cancel() && att_it->holds_flow) {
      network_->flow_finished(att_it->flow_src, att_it->node);
    }
    if (att_it->clone) {
      // The node died with the clone on it: its budget comes back here.
      ++result_.clones_killed;
      clone_wasted_work_ += sim_.now() - att_it->started;
      if (tracer_ != nullptr) {
        tracer_->clone_killed(worker, sweep_job, sweep_index);
      }
      retire_clone(sweep_job);
    } else if (tracer_ != nullptr) {
      tracer_->map_killed(worker, sweep_job, sweep_index);
    }
    state.attempts.erase(att_it);
    if (state.attempts.empty()) {
      const auto job = static_cast<JobId>(key >> 20);
      const auto map_index = static_cast<std::size_t>(key & 0xFFFFF);
      if (tracer_ != nullptr) tracer_->map_requeued(worker, job, map_index);
      jobs_.requeue_running_map(job, map_index, state.original_locality);
      ++result_.task_reexecutions;
      running_maps_.erase(it);
    }
  }
  for (auto it = running_reduces_.begin(); it != running_reduces_.end();) {
    if (it->second.node != worker) {
      ++it;
      continue;
    }
    if (it->second.completion.cancel() && it->second.holds_flow) {
      network_->flow_finished(it->second.flow_src, worker);
    }
    if (tracer_ != nullptr) {
      tracer_->reduce_requeued(worker, it->second.job,
                               static_cast<std::int64_t>(it->first));
    }
    jobs_.requeue_running_reduce(it->second.job);
    ++result_.task_reexecutions;
    it = running_reduces_.erase(it);
  }
}

void Cluster::recover_node(NodeId worker, std::uint64_t epoch) {
  const auto w = static_cast<std::size_t>(worker);
  if (fault_epoch_[w] != epoch || !dead_[w]) return;  // stale event
  if (run_finished()) return;
  obs::PhaseScope prof(profiler_, obs::Phase::kChurn);
  dead_[w] = false;
  ++live_workers_;
  ++fault_epoch_[w];
  if (declared_dead_[w] && node_partitioned(w)) {
    // The node rebooted behind a still-partitioned uplink: the master
    // cannot see it, so reconciliation waits for the heal (end_partition
    // finds the node declared and re-registers it then). Only the local
    // heartbeat chain restarts — its beats are lost at the boundary.
    heartbeat(w);
    if (fault_process_) schedule_stochastic_failure(worker, fault_epoch_[w]);
    return;
  }
  if (declared_dead_[w]) {
    reregister_node(worker);
  } else {
    ++result_.node_rejoins;
    // Blip shorter than the detection timeout: the name node never
    // noticed, its metadata is still correct, and the disk (and policy
    // state) is intact. But the rebooted tracker does not resume tasks —
    // requeue whatever was running here. (The name node never saw this
    // rejoin, so the tracer event comes from the cluster glue.)
    if (tracer_ != nullptr) {
      tracer_->node_rejoined(worker, /*full_reregistration=*/false);
    }
    cleanup_node_attempts(worker);
    slots_.restore_node(w);
  }
  heartbeat(w);  // re-registration heartbeat, restarts the periodic chain
  if (fault_process_) schedule_stochastic_failure(worker, fault_epoch_[w]);
  try_assign_all();
}

void Cluster::reregister_node(NodeId worker) {
  const auto w = static_cast<std::size_t>(worker);
  auto& dn = *data_nodes_[w];
  declared_dead_[w] = false;
  ++result_.node_rejoins;
  // Full re-registration: anything the tracker had queued for its next
  // block report is stale (a dead process lost it; a partitioned one may
  // have marked replicas the master re-replicated meanwhile); the disk
  // contents are the only truth left, and the name node reconciles against
  // them.
  dn.clear_pending_reports();
  // Disk scrub on re-registration: a corrupt copy is only offered back to
  // the name node when it is the last copy anywhere (resurrecting a lost
  // block beats deleting its final bytes); otherwise quarantine it
  // locally. The name node scrubbed this node's locations at declaration,
  // so any remaining location is another live holder.
  for (BlockId b : dn.corrupt_blocks()) {
    if (name_node_->locations(b).empty()) {
      record_data_loss(b);
    } else if (dn.quarantine_replica(b)) {
      ++result_.replicas_quarantined;
      // The name node holds no location for this copy, so the tracer
      // event comes from the cluster glue.
      if (tracer_ != nullptr) tracer_->replica_quarantined(worker, b);
    }
  }
  std::vector<BlockId> statics;
  for (const auto& meta : dn.static_blocks()) statics.push_back(meta.id);
  std::sort(statics.begin(), statics.end());
  std::vector<BlockId> dynamics = dn.dynamic_blocks();
  std::sort(dynamics.begin(), dynamics.end());
  const auto report = name_node_->node_rejoined(worker, statics, dynamics);
  for (BlockId pruned : report.pruned_static) {
    // Re-replication won the race while we were gone: the stale copy is
    // surplus now, drop it (exactly once — node_rejoined prunes only what
    // it just adopted back above target).
    dn.remove_static_block(pruned);
    ++result_.overreplication_prunes;
  }
  // The policy's in-memory state (recency lists, aging ring, budgets) is
  // stale; rebuild it from the surviving replicas.
  policies_[w]->rebuild(dn.dynamic_block_metas());
  blacklisted_[w] = false;
  node_task_failures_[w] = 0;
  slots_.restore_node(w);
}

void Cluster::schedule_stochastic_failure(NodeId worker, std::uint64_t epoch) {
  if (!fault_process_) return;
  const SimDuration uptime = fault_process_->sample_uptime();
  next_failure_[static_cast<std::size_t>(worker)] =
      sim_.after(uptime, [this, worker, epoch] {
        const auto wi = static_cast<std::size_t>(worker);
        if (fault_epoch_[wi] != epoch || dead_[wi]) return;  // stale
        if (run_finished()) return;
        const auto sample = fault_process_->sample_failure();
        std::vector<NodeId> victims{worker};
        if (sample.rack_correlated && topology_->rack_count() > 1) {
          // Correlated blast radius: a switch/PDU event takes the whole
          // rack down with the primary victim.
          for (std::size_t v = 0; v < data_nodes_.size(); ++v) {
            if (v == wi || dead_[v]) continue;
            if (topology_->same_rack(worker, static_cast<NodeId>(v))) {
              victims.push_back(static_cast<NodeId>(v));
            }
          }
        }
        const std::size_t floor = std::max<std::size_t>(
            fault_process_->params().min_live_workers, 2);
        for (NodeId victim : victims) {
          if (live_workers_ <= floor) break;  // keep the cluster schedulable
          if (dead_[static_cast<std::size_t>(victim)]) continue;
          fail_node(victim, sample.kind, sample.downtime);
        }
        // If the floor guard spared the primary victim, re-arm its clock;
        // otherwise recovery (transient deaths) re-arms it.
        if (!dead_[wi]) schedule_stochastic_failure(worker, epoch);
      });
}

void Cluster::schedule_degrade_onset(NodeId worker) {
  const auto w = static_cast<std::size_t>(worker);
  degrade_event_[w] =
      sim_.after(straggler_process_->sample_degrade_uptime(), [this, worker] {
        if (run_finished()) return;
        // Fixed draws per onset regardless of node state, so the straggler
        // stream position never depends on who is currently dead or
        // degraded.
        const auto sample = straggler_process_->sample_degrade();
        begin_degrade(worker, sample.duration, sample.rack_correlated);
        if (sample.rack_correlated && topology_->rack_count() > 1) {
          // The shared cause (overloaded switch, hot aisle) co-degrades the
          // whole rack and supersedes each peer's own pending onset.
          for (std::size_t v = 0; v < data_nodes_.size(); ++v) {
            const auto peer = static_cast<NodeId>(v);
            if (peer == worker || degraded_[v]) continue;
            if (!topology_->same_rack(worker, peer)) continue;
            degrade_event_[v].cancel();
            begin_degrade(peer, sample.duration, true);
          }
        }
      });
}

void Cluster::begin_degrade(NodeId worker, SimDuration duration,
                            bool rack_correlated) {
  const auto w = static_cast<std::size_t>(worker);
  if (degraded_[w]) return;
  degraded_[w] = true;
  ++result_.degraded_onsets;
  if (tracer_ != nullptr) {
    tracer_->node_degraded(worker, rack_correlated,
                           options_.stragglers.compute_slowdown);
  }
  degrade_event_[w] =
      sim_.after(duration, [this, worker] { end_degrade(worker); });
}

void Cluster::end_degrade(NodeId worker) {
  const auto w = static_cast<std::size_t>(worker);
  degraded_[w] = false;
  ++result_.degraded_recoveries;
  if (tracer_ != nullptr) tracer_->node_degrade_ended(worker);
  if (run_finished()) return;
  schedule_degrade_onset(worker);  // the chain continues until the run ends
}

void Cluster::schedule_partition_onset(RackId rack) {
  const auto r = static_cast<std::size_t>(rack);
  partition_event_[r] =
      sim_.after(netfault_process_->sample_partition_uptime(), [this, rack] {
        if (run_finished()) return;
        begin_partition(rack, netfault_process_->sample_partition_duration());
      });
}

void Cluster::begin_partition(RackId rack, SimDuration duration) {
  const auto r = static_cast<std::size_t>(rack);
  // Already partitioned (a scripted event overlapping the stochastic chain):
  // the existing episode's heal event stands, and the new onset is absorbed.
  if (run_finished() || rack_partitioned_[r]) return;
  // The cluster always keeps a connected side with the master: an onset
  // that would cut off the last connected rack is absorbed (the chain
  // continues, the episode just doesn't happen).
  std::size_t connected = 0;
  for (const bool partitioned : rack_partitioned_) {
    if (!partitioned) ++connected;
  }
  if (connected <= 1) {
    if (netfault_process_ != nullptr) schedule_partition_onset(rack);
    return;
  }
  obs::PhaseScope prof(profiler_, obs::Phase::kChurn);
  rack_partitioned_[r] = true;
  rack_partition_start_[r] = sim_.now();
  network_->set_rack_partitioned(rack, true);
  ++result_.partition_episodes;
  if (tracer_ != nullptr) {
    tracer_->partition_started(rack, to_seconds(duration));
  }
  partition_event_[r] =
      sim_.after(duration, [this, rack] { end_partition(rack); });
}

void Cluster::end_partition(RackId rack) {
  const auto r = static_cast<std::size_t>(rack);
  if (!rack_partitioned_[r]) return;
  obs::PhaseScope prof(profiler_, obs::Phase::kChurn);
  rack_partitioned_[r] = false;
  network_->set_rack_partitioned(rack, false);
  ++result_.partitions_healed;
  if (tracer_ != nullptr) tracer_->partition_healed(rack);
  for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
    if (node_rack_[w] != rack) continue;
    // Physically dead nodes reconcile on their own recovery path (which
    // defers to the heal only while the uplink is down — not any more).
    if (dead_[w]) continue;
    if (declared_dead_[w]) {
      // The detector declared this node during the outage and the master
      // re-replicated around it; rejoin prunes the surplus exactly once.
      reregister_node(static_cast<NodeId>(w));
    } else {
      // Blip shorter than the detection timeout: the master never noticed.
      // Tasks launched before the cut died with their lost completions —
      // requeue them like a transient reboot.
      if (tracer_ != nullptr) {
        tracer_->node_rejoined(static_cast<NodeId>(w),
                               /*full_reregistration=*/false);
      }
      cleanup_node_attempts(static_cast<NodeId>(w));
      slots_.restore_node(w);
    }
    // Refresh the master's freshness stamp: the node was beating into the
    // void the whole outage, and without this the detector would
    // (re-)declare a healed, reachable node.
    name_node_->heartbeat_received(static_cast<NodeId>(w), sim_.now());
  }
  try_assign_all();
  if (run_finished()) return;
  if (netfault_process_ != nullptr) schedule_partition_onset(rack);
}

void Cluster::schedule_link_onset(RackId rack) {
  const auto r = static_cast<std::size_t>(rack);
  link_event_[r] =
      sim_.after(netfault_process_->sample_link_uptime(), [this, rack] {
        if (run_finished()) return;
        begin_link_degrade(rack, netfault_process_->sample_link_duration());
      });
}

void Cluster::begin_link_degrade(RackId rack, SimDuration duration) {
  const auto r = static_cast<std::size_t>(rack);
  if (run_finished() || network_->uplink_degraded(rack)) return;
  network_->set_uplink_degraded(rack, true);
  ++result_.link_degrade_episodes;
  if (tracer_ != nullptr) {
    tracer_->link_degraded(rack, to_seconds(duration));
  }
  link_event_[r] =
      sim_.after(duration, [this, rack] { end_link_degrade(rack); });
}

void Cluster::end_link_degrade(RackId rack) {
  network_->set_uplink_degraded(rack, false);
  if (run_finished()) return;
  schedule_link_onset(rack);  // the chain continues until the run ends
}

void Cluster::fail_job(JobId job) {
  // Cancel the job's in-flight map attempts (sorted key sweep for
  // determinism — running_maps_ is unordered).
  std::vector<std::uint64_t> keys;
  // dare-lint: allow(unordered-iteration) -- keys are sorted before use.
  for (const auto& [key, state] : running_maps_) {
    if (static_cast<JobId>(key >> 20) == job) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    const auto it = running_maps_.find(key);
    for (auto& attempt : it->second.attempts) {
      const auto map_index = static_cast<std::size_t>(key & 0xFFFFF);
      const bool cancelled = attempt.completion.cancel();
      if (attempt.clone) {
        // Clone retirement must happen for zombies too (cancel() == false):
        // the erase below destroys the attempt unseen by any later sweep.
        ++result_.clones_killed;
        clone_wasted_work_ += sim_.now() - attempt.started;
        if (tracer_ != nullptr) {
          tracer_->clone_killed(attempt.node, job, map_index);
        }
        retire_clone(job);
      } else if (cancelled && tracer_ != nullptr) {
        tracer_->map_killed(attempt.node, job, map_index);
      }
      if (cancelled) {
        if (attempt.holds_flow) {
          network_->flow_finished(attempt.flow_src, attempt.node);
        }
        if (!dead_[static_cast<std::size_t>(attempt.node)]) {
          slots_.give_map(static_cast<std::size_t>(attempt.node));
        }
      }
      // cancel() == false: zombie on a dead node, flow already released.
    }
    running_maps_.erase(it);
  }
  for (auto it = running_reduces_.begin(); it != running_reduces_.end();) {
    if (it->second.job != job) {
      ++it;
      continue;
    }
    if (it->second.completion.cancel()) {
      if (tracer_ != nullptr) {
        tracer_->reduce_requeued(it->second.node, job,
                                 static_cast<std::int64_t>(it->first));
      }
      if (it->second.holds_flow) {
        network_->flow_finished(it->second.flow_src, it->second.node);
      }
      if (!dead_[static_cast<std::size_t>(it->second.node)]) {
        slots_.give_reduce(static_cast<std::size_t>(it->second.node));
      }
    }
    it = running_reduces_.erase(it);
  }
  jobs_.fail_job(job, sim_.now());
  ++result_.failed_jobs;
  if (tracer_ != nullptr) tracer_->job_failed(job);
  if (run_finished()) cancel_pending_churn();
  try_assign_all();
}

void Cluster::note_node_task_failure(NodeId worker) {
  const auto w = static_cast<std::size_t>(worker);
  ++node_task_failures_[w];
  if (options_.node_blacklist_threshold == 0) return;  // disabled
  if (blacklisted_[w]) return;
  if (node_task_failures_[w] < options_.node_blacklist_threshold) return;
  // Never blacklist below two usable workers — the run must stay
  // schedulable even on a sick cluster.
  std::size_t usable = 0;
  for (std::size_t i = 0; i < dead_.size(); ++i) {
    if (node_usable(i)) ++usable;
  }
  if (usable <= 2) return;
  blacklisted_[w] = true;
  ++result_.blacklisted_nodes;
}

void Cluster::cancel_pending_churn() {
  monitor_event_.cancel();
  for (auto& handle : next_failure_) handle.cancel();
  for (auto& handle : recover_event_) handle.cancel();
  for (auto& handle : degrade_event_) handle.cancel();
  // Racks partitioned at run end stay partitioned: post-run repair retries
  // see them unreachable and abandon, which is the intended teardown.
  for (auto& handle : partition_event_) handle.cancel();
  for (auto& handle : link_event_) handle.cancel();
  latent_event_.cancel();
  // The gauge sampler must die with the run too: a sample event left in the
  // queue would fire after the last job and inflate the makespan.
  sampler_event_.cancel();
}

RepairClass Cluster::classify_repair(BlockId block) const {
  // Critical = at most one replica a repair read could actually reach right
  // now. Partitioned holders are alive but useless as sources, so they don't
  // count toward redundancy.
  std::size_t live = 0;
  for (NodeId cand : name_node_->locations(block)) {
    const auto c = static_cast<std::size_t>(cand);
    if (dead_[c] || node_partitioned(c)) continue;
    ++live;
  }
  return live <= 1 ? RepairClass::kCritical : RepairClass::kBulk;
}

void Cluster::queue_repair(BlockId block) {
  // The scheduler dedups: a block already queued keeps its original enqueue
  // stamp (repair latency measures first queue entry to repair-copy
  // registration) and at most gets upgraded to critical in place.
  if (repairs_.enqueue(block, classify_repair(block), sim_.now())) {
    ++result_.repairs_enqueued;
  }
  if (!repair_tick_scheduled_) {
    repair_tick_scheduled_ = true;
    sim_.after(options_.rereplication_interval,
               [this] { rereplication_tick(); });
  }
}

void Cluster::on_replica_delta(BlockId block, NodeId node, bool added) {
  if (locality_index_ != nullptr) {
    if (added) {
      locality_index_->replica_added(block, node);
    } else {
      locality_index_->replica_removed(block, node);
    }
  }
  if (!track_unavailability_) return;
  // Unavailability windows: a block with zero visible locations is
  // unreadable (short of the archival penalty) until a rejoin or repair
  // restores a location. The observer fires after every mutation, so the
  // location list reflects the new state.
  if (added) {
    const auto it = unavail_open_.find(block);
    if (it != unavail_open_.end()) {
      ++result_.unavailability_windows;
      unavailability_total_ += sim_.now() - it->second;
      unavail_open_.erase(it);
    }
  } else if (name_node_->locations(block).empty()) {
    unavail_open_.emplace(block, sim_.now());
  }
  // One-replica exposure windows: time spent down to a single visible copy
  // (the next loss is forever). Armed only after the initial load —
  // single-replica files at load time are a configuration choice, not an
  // exposure event.
  if (!exposure_armed_) return;
  const std::size_t visible = name_node_->locations(block).size();
  if (visible == 1) {
    one_replica_open_.emplace(block, sim_.now());  // no-op if already open
  } else {
    const auto it = one_replica_open_.find(block);
    if (it != one_replica_open_.end()) {
      ++result_.one_replica_windows;
      one_replica_total_ += sim_.now() - it->second;
      one_replica_open_.erase(it);
    }
  }
}

void Cluster::schedule_latent_corruption() {
  latent_event_ = sim_.after(corruption_->sample_latent_interval(), [this] {
    if (run_finished()) return;
    // Fixed two draws per strike (node pick, replica pick) regardless of
    // the outcome, so the corruption stream stays aligned no matter how
    // the cluster state evolves.
    const double node_u = corruption_->pick_fraction();
    const double replica_u = corruption_->pick_fraction();
    const std::size_t w = std::min(
        data_nodes_.size() - 1,
        static_cast<std::size_t>(node_u *
                                 static_cast<double>(data_nodes_.size())));
    if (!dead_[w]) {
      const auto& dn = *data_nodes_[w];
      // Deterministic victim order: statics in placement order, then
      // dynamics sorted by id.
      std::vector<BlockId> victims;
      for (const auto& meta : dn.static_blocks()) victims.push_back(meta.id);
      std::vector<BlockId> dynamics = dn.dynamic_blocks();
      std::sort(dynamics.begin(), dynamics.end());
      victims.insert(victims.end(), dynamics.begin(), dynamics.end());
      if (!victims.empty()) {
        const std::size_t pick = std::min(
            victims.size() - 1,
            static_cast<std::size_t>(
                replica_u * static_cast<double>(victims.size())));
        mark_replica_corrupt(static_cast<NodeId>(w), victims[pick]);
      }
    }
    schedule_latent_corruption();
  });
}

void Cluster::retry_repair(RepairScheduler::Entry entry) {
  // Post-run there is nothing left to protect and no heal is coming —
  // convert the retry into an abandon so the ledger closes out.
  if (run_finished()) {
    abandon_repair(entry);
    return;
  }
  if (repairs_.contains(entry.block)) {
    // A fresh enqueue raced the in-flight transfer (another replica of the
    // same block died). That entry supersedes this one; close this one out
    // as abandoned so both enqueue counts stay terminally accounted.
    abandon_repair(entry);
    return;
  }
  ++result_.repair_retries;
  ++entry.retries;
  // Exponential backoff, shift-capped so a long outage can't overflow the
  // arithmetic; the heal-time tick drains the queue regardless of backoff
  // pressure because retries re-classify below.
  const auto shift = std::min<std::uint32_t>(entry.retries - 1, 4);
  entry.ready = sim_.now() + (options_.repair_retry_backoff << shift);
  entry.cls = classify_repair(entry.block);
  if (tracer_ != nullptr) {
    tracer_->repair_retried(entry.block, entry.retries);
  }
  repairs_.reinsert(entry);
  if (!repair_tick_scheduled_) {
    repair_tick_scheduled_ = true;
    sim_.after(options_.rereplication_interval,
               [this] { rereplication_tick(); });
  }
}

void Cluster::abandon_repair(const RepairScheduler::Entry&) {
  ++result_.repairs_abandoned;
}

void Cluster::land_repair(const RepairScheduler::Entry& entry) {
  ++result_.repairs_landed;
  // Repair latency measures first queue entry to repair-copy registration
  // (retries included — backoff time is real exposure time).
  repair_latency_total_ += sim_.now() - entry.enqueued;
}

void Cluster::rereplication_tick() {
  repair_tick_scheduled_ = false;
  obs::PhaseScope prof(profiler_, obs::Phase::kChurn);
  // Post-run the tick becomes a closer: backoff gates are ignored and
  // retryable outcomes abandon instead, so the ledger reaches its terminal
  // state without waiting out backoff timers.
  const bool post_run = run_finished();
  std::size_t started = 0;
  bool critical_blocked = false;
  std::vector<RepairScheduler::Entry> deferred;
  const std::size_t max_pops = repairs_.size();
  std::size_t pops = 0;
  while (pops < max_pops && started < options_.rereplication_batch) {
    ++pops;
    auto popped = repairs_.pop_front();
    if (!popped.has_value()) break;
    RepairScheduler::Entry e = *popped;
    if (!post_run && e.ready > sim_.now()) {
      // Still backing off; defer without charging the batch budget.
      deferred.push_back(e);
      continue;
    }
    if (repairs_.policy() == RepairPolicy::kPrioritized && critical_blocked &&
        e.cls == RepairClass::kBulk) {
      // A critical entry is waiting on uplink bandwidth: bulk repairs must
      // not steal the capacity it is waiting for.
      ++result_.repair_preemptions;
      if (tracer_ != nullptr) tracer_->repair_preempted(e.block);
      deferred.push_back(e);
      continue;
    }
    // A rejoining node may have re-adopted a stale replica since this block
    // was queued — don't copy what is no longer under-replicated.
    if (!name_node_->is_under_replicated(e.block)) {
      abandon_repair(e);
      continue;
    }
    const auto& meta = name_node_->block(e.block);

    // Source: a live *reachable* holder, preferring one not detected slow
    // (graceful degradation — a limping disk makes a poor repair source,
    // but it still beats abandoning the repair).
    NodeId src = kInvalidNode;
    bool unreachable_holder = false;
    {
      NodeId fallback = kInvalidNode;
      for (NodeId cand : name_node_->locations(e.block)) {
        const auto c = static_cast<std::size_t>(cand);
        if (dead_[c]) continue;
        if (node_partitioned(c)) {
          unreachable_holder = true;
          continue;
        }
        if (!detected_slow_[c]) {
          src = cand;
          break;
        }
        if (fallback == kInvalidNode) fallback = cand;
      }
      if (src == kInvalidNode) src = fallback;
    }
    if (src == kInvalidNode) {
      if (unreachable_holder && !post_run) {
        // Every surviving copy sits behind a partitioned boundary. The
        // block is not lost — re-enqueue with backoff and try again after
        // the heal instead of dropping the repair.
        retry_repair(e);
      } else {
        // Block truly lost (or the run is over), nothing to copy.
        abandon_repair(e);
      }
      continue;
    }
    if (verify_reads_ && checksum_fails(src, e.block, meta.size)) {
      // The repair read discovered its source corrupt. kQuarantined
      // re-queues the block via handle_bad_block (a fresh ledger entry; a
      // different source gets tried next tick); kLastReplica abandons the
      // repair — re-queuing would spin on the same corrupt final copy.
      // Either way this entry is terminally closed.
      handle_bad_block(e.block, src);
      abandon_repair(e);
      continue;
    }

    NodeId dst = kInvalidNode;
    for (std::size_t attempt = 0; attempt < 4 * data_nodes_.size();
         ++attempt) {
      const auto cand =
          static_cast<std::size_t>(rng_.uniform_int(data_nodes_.size()));
      if (!dead_[cand] && !node_partitioned(cand) &&
          !data_nodes_[cand]->has_any_copy(e.block)) {
        dst = static_cast<NodeId>(cand);
        break;
      }
    }
    if (dst == kInvalidNode) {
      // Every live reachable node already has a copy; abandon (a location
      // scrub will re-queue if it matters again).
      abandon_repair(e);
      continue;
    }

    // Bandwidth-aware admission: bound concurrent repair transfers crossing
    // any one rack uplink so repair traffic cannot saturate a link jobs
    // need. Deferral is free (no batch charge, no retry penalty) — the
    // capacity frees up as in-flight transfers complete.
    const auto src_rack = static_cast<std::size_t>(
        node_rack_[static_cast<std::size_t>(src)]);
    const auto dst_rack = static_cast<std::size_t>(
        node_rack_[static_cast<std::size_t>(dst)]);
    const bool cross_rack = src_rack != dst_rack;
    if (options_.max_repairs_per_uplink != 0 && cross_rack &&
        (repair_uplink_inflight_[src_rack] >=
             options_.max_repairs_per_uplink ||
         repair_uplink_inflight_[dst_rack] >=
             options_.max_repairs_per_uplink)) {
      if (e.cls == RepairClass::kCritical) critical_blocked = true;
      deferred.push_back(e);
      continue;
    }

    const SimDuration transfer =
        network_->transfer_duration(src, dst, meta.size);
    network_->flow_started(src, dst);
    if (cross_rack) {
      ++repair_uplink_inflight_[src_rack];
      ++repair_uplink_inflight_[dst_rack];
    }
    ++started;
    ++repairs_inflight_;
    sim_.after(transfer, [this, e, src, dst, meta, cross_rack, src_rack,
                          dst_rack] {
      network_->flow_finished(src, dst);
      if (cross_rack) {
        --repair_uplink_inflight_[src_rack];
        --repair_uplink_inflight_[dst_rack];
      }
      --repairs_inflight_;
      const auto d = static_cast<std::size_t>(dst);
      if (netfault_active_ && !network_->reachable(src, dst)) {
        // A partition severed the transfer mid-flight; the bytes never
        // landed. Retry from a reachable replica after backoff.
        ++result_.repair_timeouts;
        retry_repair(e);
        return;
      }
      if (dead_[d] || declared_dead_[d] || node_partitioned(d)) {
        // Destination died (or was declared dead / cut off) mid-copy; the
        // copy is void. Retry elsewhere.
        retry_repair(e);
        return;
      }
      if (!name_node_->is_under_replicated(e.block)) {
        // A rejoin beat the transfer: the in-flight copy is surplus and is
        // discarded on arrival.
        ++result_.overreplication_prunes;
        abandon_repair(e);
        return;
      }
      if (name_node_->add_repair_replica(e.block, dst)) {
        data_nodes_[d]->add_static_block(meta);
        land_repair(e);
      } else {
        abandon_repair(e);
      }
    });
  }
  for (const auto& e : deferred) repairs_.reinsert(e);
  if (!repairs_.empty()) {
    repair_tick_scheduled_ = true;
    sim_.after(options_.rereplication_interval,
               [this] { rereplication_tick(); });
  }
}

std::vector<double> Cluster::live_node_popularity() const {
  std::vector<double> pis;
  pis.reserve(data_nodes_.size());
  for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
    if (dead_[w]) continue;
    const auto& dn = data_nodes_[w];
    double pi = 0.0;
    for (const auto& meta : dn->static_blocks()) {
      pi += static_cast<double>(meta.size) * popularity_of(meta.file);
    }
    for (BlockId bid : dn->dynamic_blocks()) {
      const auto& meta = name_node_->block(bid);
      pi += static_cast<double>(meta.size) * popularity_of(meta.file);
    }
    pis.push_back(pi);
  }
  return pis;
}

void Cluster::sample_tick() {
  obs::PhaseScope prof(profiler_, obs::Phase::kSampling);
  obs::TimeSeriesSample s;
  s.t = sim_.now();
  s.pending_maps = jobs_.total_pending_maps();
  s.pending_reduces = jobs_.total_pending_reduces();
  s.running_tasks = jobs_.total_running();
  std::size_t total_slots = 0;
  std::size_t busy_slots = 0;
  std::size_t live = 0;
  Bytes dynamic_bytes = 0;
  for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
    if (dead_[w]) continue;
    ++live;
    total_slots +=
        options_.map_slots_per_node + options_.reduce_slots_per_node;
    busy_slots += (options_.map_slots_per_node - slots_.free_maps(w)) +
                  (options_.reduce_slots_per_node - slots_.free_reduces(w));
    dynamic_bytes += data_nodes_[w]->dynamic_bytes();
  }
  if (total_slots > 0) {
    s.slot_utilization =
        static_cast<double>(busy_slots) / static_cast<double>(total_slots);
  }
  if (node_budget_bytes_ > 0 && live > 0) {
    s.budget_occupancy =
        static_cast<double>(dynamic_bytes) /
        (static_cast<double>(node_budget_bytes_) * static_cast<double>(live));
  }
  s.popularity_cv = coefficient_of_variation(live_node_popularity());
  tracer_->series().add(s);
  if (!run_finished()) {
    sampler_event_ = sim_.after(options_.trace_sample_interval,
                                [this] { sample_tick(); });
  }
}

double Cluster::dedicated_runtime_s(const sched::JobSpec& spec) const {
  const double workers = static_cast<double>(data_nodes_.size());
  const double map_slots =
      workers * static_cast<double>(options_.map_slots_per_node);
  const double reduce_slots =
      workers * static_cast<double>(options_.reduce_slots_per_node);

  double mean_map_s = 0.0;
  for (const auto& task : spec.maps) {
    mean_map_s += to_seconds(options_.map_setup + task.cpu) +
                  static_cast<double>(task.bytes) /
                      mb_per_sec(options_.profile.disk.mean);
  }
  mean_map_s /= static_cast<double>(spec.maps.size());
  const double map_waves =
      std::ceil(static_cast<double>(spec.maps.size()) / map_slots);

  double reduce_s = 0.0;
  double reduce_waves = 0.0;
  if (spec.reduces > 0) {
    const double shuffle_per_reduce =
        static_cast<double>(spec.shuffle_bytes) /
        static_cast<double>(spec.reduces);
    reduce_s = to_seconds(options_.reduce_setup + spec.reduce_cpu) +
               shuffle_per_reduce / mb_per_sec(options_.profile.bandwidth.mean);
    reduce_waves =
        std::ceil(static_cast<double>(spec.reduces) / reduce_slots);
  }
  return map_waves * mean_map_s + reduce_waves * reduce_s;
}

void Cluster::scarlett_epoch() {
  std::unordered_map<FileId, Bytes> file_bytes;
  std::unordered_map<FileId, int> current_repl;
  for (FileId fid : name_node_->all_files()) {
    const auto& info = name_node_->file(fid);
    file_bytes[fid] = info.total_bytes();
    const auto it = scarlett_extra_replicas_.find(fid);
    current_repl[fid] =
        info.replication + (it == scarlett_extra_replicas_.end() ? 0 : it->second);
  }
  const auto orders = scarlett_->plan_epoch(
      scarlett_budget_total_ - scarlett_bytes_spent_, file_bytes,
      current_repl);
  for (const auto& order : orders) {
    const auto& info = name_node_->file(order.file);
    const int extra = order.target_replication - order.current_replication;
    for (int e = 0; e < extra; ++e) {
      for (BlockId bid : info.blocks) {
        const auto& meta = name_node_->block(bid);
        // Try a few random nodes that lack the block.
        for (int attempt = 0; attempt < 8; ++attempt) {
          const auto cand = static_cast<std::size_t>(
              rng_.uniform_int(data_nodes_.size()));
          if (data_nodes_[cand]->insert_dynamic(meta)) {
            // Proactive replication costs real network traffic — the core
            // difference from DARE's piggybacked replicas.
            result_.proactive_replication_bytes +=
                static_cast<std::uint64_t>(meta.size);
            break;
          }
        }
      }
      scarlett_bytes_spent_ += info.total_bytes();
    }
    if (extra > 0) scarlett_extra_replicas_[order.file] += extra;
  }

  if (!run_finished()) {
    sim_.after(options_.scarlett.epoch, [this] { scarlett_epoch(); });
  }
}

void Cluster::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("Cluster::validate: " + what);
  };

  // Slot accounting, and the live-worker count against a recount.
  std::size_t live = 0;
  for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
    if (!dead_[w]) ++live;
    if (slots_.free_maps(w) > options_.map_slots_per_node) {
      fail("map slot overflow on node " + std::to_string(w));
    }
    if (slots_.free_reduces(w) > options_.reduce_slots_per_node) {
      fail("reduce slot overflow on node " + std::to_string(w));
    }
    if (dead_[w] && (slots_.free_maps(w) != 0 || slots_.free_reduces(w) != 0)) {
      fail("dead node " + std::to_string(w) + " advertises free slots");
    }
    // A partitioned node the detector declared dead was cleared from the
    // ledger (the master stopped scheduling on it) even though it is
    // physically alive; it must not advertise slots until the heal.
    if (!dead_[w] && declared_dead_[w] && node_partitioned(w) &&
        (slots_.free_maps(w) != 0 || slots_.free_reduces(w) != 0)) {
      fail("declared-dead partitioned node " + std::to_string(w) +
           " advertises free slots");
    }
  }
  if (live != live_workers_) {
    fail("live-worker count " + std::to_string(live_workers_) +
         " != recount " + std::to_string(live));
  }

  // Repair-queue audit: membership index and queue agree, and every
  // first-time enqueue is accounted for — queued, in flight, landed, or
  // abandoned. Nothing leaks.
  if (!repairs_.consistent()) {
    fail("repair scheduler membership index diverges from its queue");
  }
  if (result_.repairs_enqueued != result_.repairs_landed +
                                      result_.repairs_abandoned +
                                      repairs_.size() + repairs_inflight_) {
    fail("repair ledger out of balance: enqueued " +
         std::to_string(result_.repairs_enqueued) + " != landed " +
         std::to_string(result_.repairs_landed) + " + abandoned " +
         std::to_string(result_.repairs_abandoned) + " + queued " +
         std::to_string(repairs_.size()) + " + inflight " +
         std::to_string(repairs_inflight_));
  }

  // Name-node <-> data-node agreement, block by block.
  for (FileId fid : name_node_->all_files()) {
    for (BlockId bid : name_node_->file(fid).blocks) {
      const auto& locs = name_node_->locations(bid);
      const auto& statics = name_node_->static_locations(bid);
      if (locs.size() < statics.size()) {
        fail("block " + std::to_string(bid) +
             " has fewer locations than static placements");
      }
      for (NodeId node : locs) {
        const auto n = static_cast<std::size_t>(node);
        if (n >= data_nodes_.size()) {
          fail("location references unknown node");
        }
        // Locations may legitimately reference a node that is physically
        // down but not yet *declared* dead — the name node only learns of
        // deaths through missed heartbeats. A declared-dead node, though,
        // must have been scrubbed from every location list.
        if (declared_dead_[n]) {
          fail("block " + std::to_string(bid) +
               " location references declared-dead node " + std::to_string(n));
        }
        // A registered location must be physically present — unless the
        // replica was evicted and the removal heartbeat has not fired yet;
        // in that window the block is still on disk (marked), which
        // has_any_copy covers. Physically-down nodes are exempt: a wiped
        // disk (permanent failure) diverges from metadata until detection.
        if (!dead_[n] && !data_nodes_[n]->has_any_copy(bid)) {
          fail("block " + std::to_string(bid) + " registered on node " +
               std::to_string(n) + " but not present there");
        }
        // Quarantined replicas must never be visible: report_bad_block
        // removes the location before the data node drops the copy.
        if (!dead_[n] && data_nodes_[n]->is_quarantined(bid)) {
          fail("block " + std::to_string(bid) +
               " location references a quarantined replica on node " +
               std::to_string(n));
        }
      }
      for (NodeId node : statics) {
        if (std::find(locs.begin(), locs.end(), node) == locs.end()) {
          fail("static placement missing from locations");
        }
      }
    }
  }

  // Every *reported* live dynamic replica is known to the name node; the
  // unreported window (insert -> next heartbeat) is allowed.
  // Conversely checked above: every registered location is present.

  // Job-table totals. Released runtimes (retired jobs under the O(active)
  // residency regime) are skipped: they contributed zero to every aggregate
  // when they retired, and their metrics were snapshotted by the observer.
  std::size_t pending_maps = 0;
  std::size_t pending_reduces = 0;
  std::size_t running = 0;
  for (JobId id : jobs_.all_jobs()) {
    if (!jobs_.has_job(id)) continue;
    const auto& rt = jobs_.job(id);
    pending_maps += rt.pending_maps.size();
    pending_reduces += rt.pending_reduces;
    running += rt.running_maps + rt.running_reduces;
    if (!rt.failed &&
        rt.completed_maps + rt.running_maps + rt.pending_maps.size() !=
            rt.total_maps()) {
      fail("map accounting broken for job " + std::to_string(id));
    }
    if (!rt.failed &&
        rt.completed_reduces + rt.running_reduces + rt.pending_reduces !=
            rt.spec.reduces) {
      fail("reduce accounting broken for job " + std::to_string(id));
    }
    if (rt.failed &&
        (rt.pending_maps.size() + rt.running_maps + rt.pending_reduces +
         rt.running_reduces) != 0) {
      fail("failed job " + std::to_string(id) + " still has live work");
    }
    if (rt.done() && rt.completion == kTimeNever) {
      fail("finished job without completion time");
    }
  }
  if (pending_maps != jobs_.total_pending_maps() ||
      pending_reduces != jobs_.total_pending_reduces() ||
      running != jobs_.total_running()) {
    fail("job table aggregate counters diverge from per-job state");
  }
  if (!slots_.consistent()) {
    fail("slot ledger totals diverge from per-node free-slot counts");
  }

  // With no work in flight, every network flow must have been released and
  // every live node must have every slot back — a missing slot means some
  // attempt-removal path forgot its ++free_*_slots_ (the speculation /
  // cloning first-finisher-wins paths are the usual suspects).
  if (jobs_.all_done()) {
    for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
      if (network_->active_flows(static_cast<NodeId>(w)) != 0) {
        fail("leaked network flow on node " + std::to_string(w));
      }
      // Nodes behind a still-partitioned uplink are exempt: a declared one
      // had its slots cleared, and an undeclared one may hold slots for
      // zombie attempts that only the heal-time cleanup sweeps.
      if (dead_[w] || node_partitioned(w)) continue;
      if (slots_.free_maps(w) != options_.map_slots_per_node ||
          slots_.free_reduces(w) != options_.reduce_slots_per_node) {
        fail("node " + std::to_string(w) +
             " has unreturned task slots after the last job finished");
      }
    }
  }

  // Clone accounting: every clone-flagged running attempt holds exactly one
  // unit of the cluster budget and one unit of its job's count.
  std::size_t clone_attempts = 0;
  // dare-lint: allow(unordered-iteration) -- commutative count.
  for (const auto& [key, state] : running_maps_) {
    for (const auto& att : state.attempts) {
      if (att.clone) ++clone_attempts;
    }
  }
  if (clone_attempts != running_clones_) {
    fail("clone attempts in flight (" + std::to_string(clone_attempts) +
         ") diverge from the cluster clone count (" +
         std::to_string(running_clones_) + ")");
  }
  // Retired-but-unreleased jobs (release deferred while losing clones
  // drain) still hold clone counts, so this walks every resident runtime.
  std::size_t job_clones = 0;
  for (JobId id : jobs_.all_jobs()) {
    if (!jobs_.has_job(id)) continue;
    job_clones += jobs_.job(id).running_clones;
  }
  if (job_clones != running_clones_) {
    fail("per-job clone counts (" + std::to_string(job_clones) +
         ") diverge from the cluster clone count (" +
         std::to_string(running_clones_) + ")");
  }

  // Locality index <-> name node agreement: the replica mirror must match
  // the location map exactly, and for every active job's pending map the
  // index's answer must match the locator's on every node.
  if (locality_index_ != nullptr) {
    for (FileId fid : name_node_->all_files()) {
      for (BlockId bid : name_node_->file(fid).blocks) {
        const auto& locs = name_node_->locations(bid);
        if (locality_index_->replica_count(bid) != locs.size()) {
          fail("locality index mirrors " +
               std::to_string(locality_index_->replica_count(bid)) +
               " replicas of block " + std::to_string(bid) + ", name node has " +
               std::to_string(locs.size()));
        }
        for (NodeId node : locs) {
          if (!locality_index_->mirrors_replica(bid, node)) {
            fail("locality index misses replica of block " +
                 std::to_string(bid) + " on node " + std::to_string(node));
          }
        }
      }
    }
    for (const auto& rt : jobs_.active_jobs()) {
      const JobId id = rt.spec.id;
      for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
        const auto node = static_cast<NodeId>(w);
        std::size_t expected_node = 0;
        std::size_t expected_rack = 0;
        for (std::size_t mi : rt.pending_maps) {
          const BlockId block = rt.spec.maps[mi].block;
          if (locator_->is_local(node, block)) ++expected_node;
          if (locator_->is_rack_local(node, block)) ++expected_rack;
        }
        if (locality_index_->node_candidates(id, node).size() !=
            expected_node) {
          fail("node-candidate count diverges for job " + std::to_string(id) +
               " on node " + std::to_string(w));
        }
        if (locality_index_->rack_candidates(id, node).size() !=
            expected_rack) {
          fail("rack-candidate count diverges for job " + std::to_string(id) +
               " on node " + std::to_string(w));
        }
      }
    }
  }
}

void Cluster::on_job_retired(const sched::JobRuntime& rt) {
  if (rt.completion == kTimeNever) {
    throw std::logic_error("Cluster: job retired without completion time");
  }
  metrics::JobMetrics jm;
  jm.id = rt.spec.id;
  jm.arrival = rt.spec.arrival;
  jm.completion = rt.completion;
  jm.maps = rt.total_maps();
  jm.local_maps = rt.local_launches;
  jm.rack_local_maps = rt.rack_local_launches;
  jm.dedicated_runtime_s = dedicated_runtime_s(rt.spec);
  jm.failed = rt.failed;
  // arrival_seq is dense (admission order), so indexing by it reproduces
  // the all_jobs() iteration order of the old end-of-run collection loop.
  if (result_.jobs.size() <= rt.arrival_seq) {
    result_.jobs.resize(rt.arrival_seq + 1);
  }
  result_.jobs[rt.arrival_seq] = jm;

  // The job's per-task side tables die with it.
  job_map_stats_.erase(rt.spec.id);
  reduce_attempt_failures_.erase(rt.spec.id);
  for (std::size_t mi = 0; mi < rt.total_maps(); ++mi) {
    map_attempt_failures_.erase(task_key(rt.spec.id, mi));
  }
}

metrics::RunResult Cluster::collect_results() {
  // Close out the repair ledger: entries still queued at teardown (e.g.
  // waiting out a backoff for a heal that never came) are terminally
  // abandoned, in priority order so the drain itself is deterministic.
  for (const auto& e : repairs_.drain()) abandon_repair(e);

  // Per-job metrics: snapshotted by on_job_retired as each job finished
  // (the only copy — runtimes are released at retirement).
  if (result_.jobs.size() != total_jobs_) {
    throw std::logic_error("Cluster: job metrics incomplete at run end");
  }

  // Replication activity.
  for (const auto& policy : policies_) {
    result_.dynamic_replicas_created += policy->replicas_created();
  }
  for (const auto& dn : data_nodes_) {
    result_.dynamic_replica_disk_writes += dn->dynamic_insertions();
  }
  // Every landed repair is one name-node repair copy.
  result_.rereplicated_blocks = result_.repairs_landed;
  result_.blocks_lost = name_node_->lost_block_count();

  // Unavailability and one-replica exposure windows still open at run end
  // close at the makespan, so neither total undercounts.
  // dare-lint: allow(unordered-iteration) -- commutative summation; the
  // result is independent of iteration order.
  for (const auto& [block, opened] : unavail_open_) {
    ++result_.unavailability_windows;
    unavailability_total_ += sim_.now() - opened;
  }
  unavail_open_.clear();
  // dare-lint: allow(unordered-iteration) -- commutative summation; the
  // result is independent of iteration order.
  for (const auto& [block, opened] : one_replica_open_) {
    ++result_.one_replica_windows;
    one_replica_total_ += sim_.now() - opened;
  }
  one_replica_open_.clear();
  result_.detection_latency_total_s = to_seconds(detection_latency_total_);
  result_.repair_latency_total_s = to_seconds(repair_latency_total_);
  result_.unavailability_total_s = to_seconds(unavailability_total_);
  result_.one_replica_total_s = to_seconds(one_replica_total_);
  result_.clone_wasted_work_s = to_seconds(clone_wasted_work_);

  // Popularity indices (Fig. 11). Block popularity = number of jobs that
  // accessed its file in this workload (snapshot taken at load time).
  // "Before" uses the static placement; "after" reflects the final
  // placement on live nodes.
  result_.cv_before = coefficient_of_variation(cv_before_samples_);
  result_.cv_after = coefficient_of_variation(live_node_popularity());

  result_.makespan = sim_.now();
  metrics::finalize(result_, map_time_stats_);
  // The move takes the job vector; the scalar fields keep their values, so
  // validate() still balances the repair ledger after the run.
  return std::move(result_);
}

namespace {

/// JobStream over an already-materialized job vector (the classic run()
/// path). Borrows the vector; the workload outlives the run.
class VectorJobStream final : public workload::JobStream {
 public:
  explicit VectorJobStream(const std::vector<workload::JobTemplate>& jobs)
      : jobs_(&jobs) {}
  std::optional<workload::JobTemplate> next() override {
    if (next_ == jobs_->size()) return std::nullopt;
    return (*jobs_)[next_++];
  }

 private:
  const std::vector<workload::JobTemplate>* jobs_;
  std::size_t next_ = 0;
};

}  // namespace

metrics::RunResult Cluster::run(const workload::Workload& workload) {
  return run_with(workload.catalog, workload.catalog_spec,
                  workload.file_access_counts(), workload.jobs.size(),
                  std::make_unique<VectorJobStream>(workload.jobs));
}

metrics::RunResult Cluster::run_stream(const workload::WorkloadSpec& spec) {
  return run_with(spec.catalog, spec.catalog_spec, spec.file_access_counts(),
                  spec.num_jobs, spec.open());
}

metrics::RunResult Cluster::run_with(
    const std::vector<workload::FileSpec>& catalog,
    const workload::CatalogSpec& catalog_spec,
    const std::vector<std::size_t>& access_counts, std::size_t total_jobs,
    std::unique_ptr<workload::JobStream> stream) {
  if (ran_) throw std::logic_error("Cluster: run() may only be called once");
  ran_ = true;
  total_jobs_ = total_jobs;
  arrivals_ = std::move(stream);
  result_.jobs.reserve(total_jobs_);

  load_files(catalog, catalog_spec, access_counts);
  // Exposure tracking arms only now: the load itself registers replicas one
  // at a time, and those transient single-copy states are not exposure.
  exposure_armed_ = true;
  create_policies();
  schedule_next_arrival();
  start_heartbeats();
  if (scarlett_) {
    sim_.after(options_.scarlett.epoch, [this] { scarlett_epoch(); });
  }
  for (const auto& failure : options_.failures) {
    if (failure.worker < 0 ||
        static_cast<std::size_t>(failure.worker) >= data_nodes_.size()) {
      throw std::invalid_argument("Cluster: failure for unknown worker");
    }
    sim_.at(failure.at, [this, failure] {
      fail_node(failure.worker, failure.kind, failure.downtime);
    });
  }
  for (const auto& ev : options_.corruption_events) {
    if (ev.node != kInvalidNode &&
        (ev.node < 0 ||
         static_cast<std::size_t>(ev.node) >= data_nodes_.size())) {
      throw std::invalid_argument(
          "Cluster: corruption event for unknown worker");
    }
    sim_.at(ev.at, [this, ev] {
      if (ev.node == kInvalidNode) {
        // Forced last-good-replica scenario: strike every currently
        // visible copy at once. (Corruption is silent — no location
        // mutates here, so iterating the list directly is safe.)
        for (NodeId holder : name_node_->locations(ev.block)) {
          mark_replica_corrupt(holder, ev.block);
        }
      } else {
        mark_replica_corrupt(ev.node, ev.block);
      }
    });
  }
  if (corruption_ != nullptr && options_.corruption.sector_mtbf_s > 0.0) {
    schedule_latent_corruption();
  }
  for (const auto& ev : options_.partition_events) {
    sim_.at(ev.at, [this, ev] { begin_partition(ev.rack, ev.duration); });
  }
  if (!options_.failures.empty() || options_.faults.enabled ||
      netfault_active_) {
    // Heartbeat-expiry monitor: the only way the name node learns of
    // deaths — and of partitions, whose lost beats look identical. Without
    // it a partitioned node's tasks would never requeue and the run would
    // hang. Runs every heartbeat interval until the workload finishes.
    monitor_event_ =
        sim_.after(options_.heartbeat_interval, [this] { detection_tick(); });
  }
  if (options_.faults.enabled) {
    for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
      schedule_stochastic_failure(static_cast<NodeId>(w), fault_epoch_[w]);
    }
  }
  if (straggler_process_ != nullptr) {
    for (std::size_t w = 0; w < data_nodes_.size(); ++w) {
      schedule_degrade_onset(static_cast<NodeId>(w));
    }
  }
  if (netfault_process_ != nullptr && topology_->rack_count() > 1) {
    // Single-rack topologies have no inter-rack boundary to partition or
    // degrade; the process still forked (stream discipline) but idles.
    for (std::size_t r = 0; r < topology_->rack_count(); ++r) {
      schedule_partition_onset(static_cast<RackId>(r));
      schedule_link_onset(static_cast<RackId>(r));
    }
  }
  if (options_.enable_speculation) {
    sim_.after(options_.speculation_check, [this] { speculation_tick(); });
  }
  if (tracer_ != nullptr && options_.trace_sample_interval > 0) {
    sampler_event_ = sim_.after(options_.trace_sample_interval,
                                [this] { sample_tick(); });
  }

  {
    obs::PhaseScope prof(profiler_, obs::Phase::kEventLoop);
    sim_.run();
  }

  if (!jobs_.all_done() || jobs_.all_jobs().size() != total_jobs_) {
    throw std::logic_error("Cluster: simulation drained with unfinished jobs");
  }
  if (options_.record_access_trace) {
    // Finish the audit trace: file metadata + horizon.
    for (FileId fid : name_node_->all_files()) {
      const auto& info = name_node_->file(fid);
      access_trace_.files.push_back(
          {fid, info.created, info.blocks.size()});
    }
    access_trace_.span = sim_.now();
  }
  return collect_results();
}

}  // namespace dare::cluster
