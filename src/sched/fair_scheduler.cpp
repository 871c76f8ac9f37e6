#include "sched/fair_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "common/invariant.h"
#include "obs/trace_collector.h"

namespace dare::sched {

FairScheduler::FairScheduler(SimDuration node_delay, SimDuration rack_delay,
                             bool incremental)
    : node_delay_(node_delay),
      rack_delay_(rack_delay),
      incremental_(incremental) {
  if (node_delay < 0 || rack_delay < 0) {
    throw std::invalid_argument("FairScheduler: delays must be >= 0");
  }
}

FairScheduler::FairScheduler(SimDuration delay)
    : FairScheduler(delay, delay) {}

void FairScheduler::insert_share_entry(JobId id, JobRuntime& rt) {
  if (!rt.active || rt.pending_maps.empty()) return;
  const ShareKey key{rt.fair_share(), rt.arrival_seq, id, &rt};
  share_order_.insert(key);
  share_keys_.emplace(id, key);
}

void FairScheduler::update_share_entry(JobTable& jobs, JobId id) {
  const auto old = share_keys_.find(id);
  if (old != share_keys_.end()) {
    share_order_.erase(old->second);
    share_keys_.erase(old);
  }
  if (!jobs.has_job(id)) return;
  insert_share_entry(id, jobs.job(id));
}

void FairScheduler::sync_share_order(JobTable& jobs) {
  if (synced_table_ != &jobs) {
    // First opportunity from this table: rebuild from scratch, then discard
    // the journal backlog (it is subsumed by the rebuild).
    synced_table_ = &jobs;
    waiting_valid_ = false;
    share_order_.clear();
    share_keys_.clear();
    jobs.consume_fair_dirty();
    for (JobRuntime& rt : jobs.active_jobs()) {
      insert_share_entry(rt.spec.id, rt);
    }
    return;
  }
  const std::vector<JobId> dirty = jobs.consume_fair_dirty();
  if (!dirty.empty()) waiting_valid_ = false;
  for (JobId id : dirty) update_share_entry(jobs, id);
}

void FairScheduler::set_waiting_since(JobRuntime& rt, SimTime t) {
  rt.waiting_since = t;
  waiting_valid_ = false;
}

bool FairScheduler::declines_node(NodeId node, SimTime now,
                                  const LocalityIndex& index) {
  if (!waiting_valid_) {
    all_stamped_ = true;
    oldest_waiting_ = kTimeNever;
    for (const ShareKey& key : share_order_) {
      if (key.rt->waiting_since == kTimeNever) {
        all_stamped_ = false;
        break;
      }
      oldest_waiting_ = std::min(oldest_waiting_, key.rt->waiting_since);
    }
    waiting_valid_ = true;
  }
  // An unstamped job stamps (and maybe traces) at any node. Every other
  // job has waited at most now - oldest: below node_delay_ it launches only
  // node-local, below node_delay_ + rack_delay_ at most rack-local.
  if (!all_stamped_ || share_order_.empty()) return false;
  const SimDuration waited = now - oldest_waiting_;
  if (waited >= node_delay_ + rack_delay_) return false;
  if (index.node_has_candidates(node)) return false;
  return waited < node_delay_ || !index.rack_has_candidates(node);
}

std::optional<MapSelection> FairScheduler::try_job(JobRuntime& rt, NodeId node,
                                                   SimTime now, JobTable& jobs,
                                                   const BlockLocator& locator) {
  const JobId id = rt.spec.id;
  if (const auto local = jobs.find_local_map(rt, node, locator)) {
    if (tracer_ != nullptr) {
      const double waited_s =
          rt.waiting_since == kTimeNever
              ? 0.0
              : to_seconds(now - rt.waiting_since);
      tracer_->scheduler_decision(
          node, id, static_cast<int>(Locality::kNodeLocal), waited_s);
    }
    set_waiting_since(rt, kTimeNever);
    return MapSelection{id, *local, Locality::kNodeLocal};
  }
  if (rt.waiting_since == kTimeNever) {
    // First declined opportunity: start the delay clock.
    set_waiting_since(rt, now);
    if (node_delay_ > 0) {
      if (tracer_ != nullptr) tracer_->delay_wait(node, id);
      return std::nullopt;
    }
  }
  const SimDuration waited = now - rt.waiting_since;
  if (waited >= node_delay_) {
    // Level-1 delay expired: a rack-local launch is acceptable.
    if (const auto rack = jobs.find_rack_local_map(rt, node, locator)) {
      if (tracer_ != nullptr) {
        tracer_->scheduler_decision(node, id,
                                    static_cast<int>(Locality::kRackLocal),
                                    to_seconds(waited));
      }
      set_waiting_since(rt, kTimeNever);
      return MapSelection{id, *rack, Locality::kRackLocal};
    }
    if (waited >= node_delay_ + rack_delay_) {
      // Level-2 delay expired too: launch anywhere rather than starve.
      if (tracer_ != nullptr) {
        tracer_->scheduler_decision(node, id,
                                    static_cast<int>(Locality::kOffRack),
                                    to_seconds(waited));
      }
      set_waiting_since(rt, kTimeNever);
      return MapSelection{id, 0, Locality::kOffRack};
    }
  }
  // Still within a delay window: skip this job, try the next.
  return std::nullopt;
}

std::optional<MapSelection> FairScheduler::select_map(
    NodeId node, SimTime now, JobTable& jobs, const BlockLocator& locator) {
  if (incremental_) {
    sync_share_order(jobs);
    if (const LocalityIndex* index = jobs.locality_index();
        index != nullptr && declines_node(node, now, *index)) {
      return std::nullopt;
    }
    // The loop body only touches waiting_since, never a share component, so
    // iterating the set while probing jobs is safe; a returned selection is
    // followed by a launch whose journal entry is drained next call.
    for (const ShareKey& key : share_order_) {
      if (auto picked = try_job(*key.rt, node, now, jobs, locator)) {
        return picked;
      }
    }
    return std::nullopt;
  }

  // Legacy path (A/B baseline): collect + stable_sort every opportunity.
  // Fair ordering: smallest weighted share (running maps + clones, times
  // inv weight) first; arrival order breaks ties (active_jobs() is already
  // in arrival order, stable_sort preserves it).
  scratch_order_.clear();
  for (JobRuntime& rt : jobs.active_jobs()) {
    if (!rt.pending_maps.empty()) scratch_order_.push_back(&rt);
  }
  std::stable_sort(scratch_order_.begin(), scratch_order_.end(),
                   [](const JobRuntime* a, const JobRuntime* b) {
                     return a->fair_share() < b->fair_share();
                   });

  for (JobRuntime* rt : scratch_order_) {
    if (auto picked = try_job(*rt, node, now, jobs, locator)) return picked;
  }
  return std::nullopt;
}

std::optional<JobId> FairScheduler::select_reduce(JobTable& jobs) {
  // Fewest running reduces first among jobs with launchable reduces; the
  // strict `<` keeps the earliest arrival among ties.
  if (jobs.has_locality_index()) {
    // Same scan, restricted to the ready set: it holds exactly the jobs the
    // filter below accepts, iterated in the same arrival order.
    const JobRuntime* best = nullptr;
    for (const auto& [seq, rt] : jobs.reduce_ready()) {
      if (best == nullptr || rt->running_reduces < best->running_reduces) {
        best = rt;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->spec.id;
  }
  const JobRuntime* best = nullptr;
  for (const JobRuntime& rt : jobs.active_jobs()) {
    if (!rt.maps_done() || rt.pending_reduces == 0) continue;
    if (best == nullptr || rt.running_reduces < best->running_reduces) {
      best = &rt;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->spec.id;
}

}  // namespace dare::sched
