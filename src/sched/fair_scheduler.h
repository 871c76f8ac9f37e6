// Fair scheduler with delay scheduling (Zaharia et al., EuroSys'10), as
// shipped in Hadoop's Fair scheduler and used in the paper's evaluation.
//
// Fairness: scheduling opportunities go to the active job with the fewest
// running tasks (equal weights), so small jobs are not starved behind large
// ones. Locality: when the chosen job has no map local to the requesting
// node it is *skipped* rather than launched non-locally; only after a job
// has waited `delay` (wall-clock simulation time since it first declined an
// opportunity) may it launch a non-local map — the "small delay" the paper
// refers to.
//
// Share ordering is maintained incrementally: a std::set keyed by
// (running_maps * inv_weight, arrival_seq) is patched from the JobTable's
// fair-share journal on each opportunity, replacing the seed's
// collect + stable_sort of every active job per slot offer. The legacy sort
// is kept behind `incremental = false` as the A/B baseline for the
// equivalence oracle and benchmarks; both paths produce bit-identical
// selection sequences (same share product, same tie-breaking).
//
// Decline gate (incremental mode with a locality index only): once every
// waiting job has stamped its delay clock, a node where the index counts no
// candidate and no job's delay level admits a rack-local or off-rack launch
// gets the answer every try_job would give — decline, with no stamp and no
// trace — without asking any job. The facts it reads (all stamped, oldest
// stamp) are cached and recomputed only after a stamp or share-order change.
#pragma once

#include <set>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "sched/scheduler.h"

namespace dare::sched {

class FairScheduler final : public Scheduler {
 public:
  /// Two-level delay scheduling, as in the original delay-scheduling paper:
  /// a job waits up to `node_delay` for a node-local slot before accepting
  /// a rack-local launch, and a further `rack_delay` before accepting an
  /// off-rack launch. Zero delays behave greedily (never wait). The
  /// single-argument form uses rack_delay = node_delay.
  FairScheduler(SimDuration node_delay, SimDuration rack_delay,
                bool incremental = true);
  explicit FairScheduler(SimDuration delay);

  std::optional<MapSelection> select_map(NodeId node, SimTime now,
                                         JobTable& jobs,
                                         const BlockLocator& locator) override;
  std::optional<JobId> select_reduce(JobTable& jobs) override;
  std::string name() const override { return "fair"; }

  SimDuration node_delay() const { return node_delay_; }
  SimDuration rack_delay() const { return rack_delay_; }

 private:
  /// Fair ordering key: smallest weighted share first, arrival order on
  /// ties (arrival_seq is unique, so the comparison is a strict weak order
  /// without consulting the id). Carries the runtime pointer so iterating
  /// the set needs no per-job hash lookup.
  struct ShareKey {
    double share = 0.0;
    std::size_t seq = 0;
    JobId id = kInvalidJob;
    JobRuntime* rt = nullptr;  ///< not part of the ordering
    bool operator<(const ShareKey& other) const {
      if (share != other.share) return share < other.share;
      return seq < other.seq;
    }
  };

  /// Bring share_order_ up to date with `jobs` (full rebuild on first sight
  /// of a table, journal drain afterwards).
  void sync_share_order(JobTable& jobs);
  void update_share_entry(JobTable& jobs, JobId id);
  void insert_share_entry(JobId id, JobRuntime& rt);
  /// One job's turn at the opportunity: returns a selection, or nullopt to
  /// move on to the next job in fair order.
  std::optional<MapSelection> try_job(JobRuntime& rt, NodeId node, SimTime now,
                                      JobTable& jobs,
                                      const BlockLocator& locator);
  /// Every write of a job's delay clock goes through here (it invalidates
  /// the waiting summary).
  void set_waiting_since(JobRuntime& rt, SimTime t);
  /// True when every share-order job would decline `node` at `now` without
  /// stamping: all are stamped, none is past both delay levels, the node
  /// has no candidate, and the rack has none or no job is past node_delay.
  bool declines_node(NodeId node, SimTime now, const LocalityIndex& index);

  SimDuration node_delay_;
  SimDuration rack_delay_;
  bool incremental_;

  /// Incremental-mode state. Valid for one JobTable at a time; seeing a
  /// different table triggers a rebuild (fixtures construct fresh pairs, so
  /// in practice this fires once).
  const JobTable* synced_table_ = nullptr;
  /// Slab-backed: every fair-share journal entry erases and reinserts one
  /// tree node, so the arena turns the scheduler's steady-state churn into
  /// freelist pops.
  std::set<ShareKey, std::less<ShareKey>, common::SlabAllocator<ShareKey>>
      share_order_;
  std::unordered_map<JobId, ShareKey, std::hash<JobId>, std::equal_to<JobId>,
                     common::SlabAllocator<std::pair<const JobId, ShareKey>>>
      share_keys_;

  /// Waiting summary over share_order_, valid until the next stamp write,
  /// non-empty journal drain or rebuild: whether every job has stamped
  /// waiting_since, and if so the oldest stamp.
  bool waiting_valid_ = false;
  bool all_stamped_ = false;
  SimTime oldest_waiting_ = kTimeNever;

  /// Legacy-mode scratch, reused across calls so the per-opportunity sort
  /// at least stops allocating.
  std::vector<JobRuntime*> scratch_order_;
};

}  // namespace dare::sched
