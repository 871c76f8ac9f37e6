// Inverted locality index: replica location -> pending map tasks.
//
// The JobTracker's hottest question is "does job J have a pending map whose
// input block has a replica on node N (or in N's rack)?". The seed answered
// it by scanning every pending map of the job against the name node's block
// map — O(pending maps) per job per scheduling opportunity, and the DARE
// policies make the question *more* frequent by creating replicas that turn
// misses into hits. This index inverts the relationship and maintains it
// incrementally:
//
//   by_node[job][node] = pending map indices of `job` whose block has a
//                        visible replica on `node`
//   by_rack[job][rack] = pending map indices whose block has >= 1 visible
//                        replica anywhere in `rack`
//
// Two event streams keep it current:
//  * replica deltas from the NameNode (static placement at file create,
//    dynamic DARE replicas appearing/evicting via heartbeat, node death
//    dropping every replica on the node, rejoin re-adoption, repair copies);
//  * watch/unwatch calls from the JobTable as maps enter and leave the
//    pending set (job arrival, launch, failure requeue, job kill).
//
// Beside the per-job lists it keeps two per-slot job counts: how many jobs
// have a non-empty by_node list at each node, and a non-empty by_rack list
// in each rack. A zero count proves that no job can launch node-local
// (rack-local) there, which lets the Fair scheduler decline a node in O(1)
// instead of asking every waiting job (see FairScheduler::select_map).
//
// Equivalence with the linear scan: the scan returns the *first* pending
// position whose block matches, so JobTable answers queries by taking the
// argmin of pending-position over the candidate set (see
// JobRuntime::pending_pos). Candidate-vector order therefore never affects
// results, which keeps the structure deterministic even though replica
// deltas can arrive in unordered-map order from NameNode::node_failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/types.h"

namespace dare::sched {

/// Slot -> candidate-list map with two layouts behind one interface.
///
/// A job only ever has candidates on the nodes holding replicas of its input
/// blocks — a few dozen of 10k nodes — but the previous dense layout paid a
/// vector header per node per job (~240 KiB per active job at 10k nodes),
/// which alone made large FIFO backlogs unrepresentable. Two regimes:
///
///  * direct (reserve_domain, small clusters): capacity covers the whole
///    key domain, slot i lives at index i, every access is one indexed
///    load — bit-for-bit the dense layout's speed, which the replica-delta
///    fan-out loops are too hot to give up;
///  * sparse (reserve_slots, hyperscale): open addressing with linear
///    probing under a masked-identity hash, so the table stays a handful of
///    cache lines no matter how many nodes the cluster has.
///
/// Entries are never removed before the owning job retires (a drained list
/// stays, exactly like a drained dense element), so probing needs no
/// tombstones.
class CandidateMap {
 public:
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

  /// Candidate list of `slot`; a shared empty list when absent.
  const std::vector<std::uint32_t>& find(std::uint32_t slot) const {
    if (direct_) return slots_[slot].list;
    if (used_ == 0) return empty_list();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == slot) return slots_[i].list;
      if (slots_[i].key == kEmptySlot) return empty_list();
    }
  }

  /// Mutable candidate list of `slot`, inserted empty when absent.
  std::vector<std::uint32_t>& slot_mut(std::uint32_t slot) {
    if (direct_) {
      Slot& s = slots_[slot];
      if (s.key == kEmptySlot) {
        s.key = slot;
        ++used_;
      }
      return s.list;
    }
    if (slots_.empty()) rehash(8);
    std::size_t mask = slots_.size() - 1;
    std::size_t i = slot & mask;
    while (slots_[i].key != slot) {
      if (slots_[i].key == kEmptySlot) {
        if ((used_ + 1) * 4 > slots_.size() * 3) {
          rehash(slots_.size() * 2);
          mask = slots_.size() - 1;
          i = slot & mask;
          while (slots_[i].key != kEmptySlot) i = (i + 1) & mask;
        }
        slots_[i].key = slot;
        ++used_;
        return slots_[i].list;
      }
      i = (i + 1) & mask;
    }
    return slots_[i].list;
  }

  /// Retirement audit: every present list has been drained.
  bool all_empty() const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptySlot && !s.list.empty()) return false;
    }
    return true;
  }

  std::size_t used() const { return used_; }
  bool direct() const { return direct_; }

  /// Direct mode: allocate one slot per key in [0, domain) and index without
  /// probing. Call before any insertion; every later slot value must be
  /// < domain. Worth its footprint only when the domain is small.
  void reserve_domain(std::size_t domain) {
    slots_ = std::vector<Slot>(domain);
    direct_ = true;
  }

  /// Sparse mode: pre-size the probe table (next power of two >= `slots` /
  /// 0.75 load) so the expected candidate set inserts without a rehash
  /// chain. No-op when the table is already at least that large.
  void reserve_slots(std::size_t slots) {
    std::size_t capacity = 8;
    while (slots * 4 > capacity * 3) capacity *= 2;
    if (capacity > slots_.size()) rehash(capacity);
  }

 private:
  /// Key and list side by side: the delta hot loops probe and then touch the
  /// list header, so both land on the same cache line. The hash is the
  /// identity (masked): slot keys are dense small integers (node ids, rack
  /// ids), which masked-identity spreads at least as well as any mixer while
  /// keeping adjacent ids adjacent — the watch burst walks a block's replica
  /// nodes in placement order, so consecutive probes share lines.
  struct Slot {
    std::uint32_t key = kEmptySlot;
    std::vector<std::uint32_t> list;
  };

  static const std::vector<std::uint32_t>& empty_list() {
    static const std::vector<std::uint32_t> kNone;
    return kNone;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(capacity);
    const std::size_t mask = capacity - 1;
    for (Slot& s : old) {
      if (s.key == kEmptySlot) continue;
      std::size_t j = s.key & mask;
      while (slots_[j].key != kEmptySlot) j = (j + 1) & mask;
      slots_[j].key = s.key;
      slots_[j].list = std::move(s.list);
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  bool direct_ = false;
};

class LocalityIndex {
 public:
  /// Per-job candidate lists. Nodes live inside an unordered_map, so their
  /// addresses are stable for the job's lifetime; the JobTable caches a
  /// pointer in JobRuntime and queries through it without any hash lookup.
  struct JobState {
    /// node -> pending map indices with a replica on that node.
    CandidateMap by_node;
    /// rack -> pending map indices with >= 1 replica in that rack.
    CandidateMap by_rack;
  };

  /// `node_rack[n]` is the rack of node n; `num_racks` bounds its values.
  LocalityIndex(std::size_t num_nodes, std::vector<RackId> node_rack,
                std::size_t num_racks);

  /// --- replica deltas (NameNode observer) --------------------------------
  /// A visible replica of `block` appeared / disappeared on `node`. Must
  /// mirror the name node's location map exactly: one call per actual
  /// mutation, never a repeat.
  void replica_added(BlockId block, NodeId node);
  void replica_removed(BlockId block, NodeId node);

  /// --- pending-map lifecycle (JobTable) ----------------------------------
  /// Map `map_index` of `job` (reading `block`) entered the pending set.
  void watch_map(JobId job, std::size_t map_index, BlockId block);
  /// ... left the pending set (launched, or dropped by a job kill).
  void unwatch_map(JobId job, std::size_t map_index, BlockId block);
  /// The job left the active list with no pending maps; frees its state.
  void job_retired(JobId job);

  /// --- queries ------------------------------------------------------------
  /// Pending map indices of `job` whose block is on `node` / in `node`'s
  /// rack. Unknown jobs (or jobs with no candidates) return an empty vector.
  const std::vector<std::uint32_t>& node_candidates(JobId job,
                                                    NodeId node) const;
  const std::vector<std::uint32_t>& rack_candidates(JobId job,
                                                    NodeId node) const;

  /// Hash-free variants over a cached JobState (the scheduling hot path:
  /// the Fair scheduler probes every active job per slot offer, so a map
  /// lookup per probe showed up in large-run profiles).
  const std::vector<std::uint32_t>& node_candidates(const JobState& state,
                                                    NodeId node) const {
    return state.by_node.find(static_cast<std::uint32_t>(node));
  }
  const std::vector<std::uint32_t>& rack_candidates(const JobState& state,
                                                    NodeId node) const {
    return state.by_rack.find(static_cast<std::uint32_t>(node_rack_[node]));
  }

  /// Some job has a pending map whose block is on `node` / in `node`'s
  /// rack. False proves every job's node_candidates / rack_candidates there
  /// are empty.
  bool node_has_candidates(NodeId node) const {
    return node_jobs_[static_cast<std::size_t>(node)] != 0;
  }
  bool rack_has_candidates(NodeId node) const {
    return rack_jobs_[static_cast<std::size_t>(
               node_rack_[static_cast<std::size_t>(node)])] != 0;
  }

  /// Create-or-get the job's candidate state. The returned pointer is
  /// stable until job_retired(job).
  JobState* job_state_ptr(JobId job) { return &job_state(job); }

  /// --- introspection (tests / validate) -----------------------------------
  std::size_t tracked_job_count() const { return jobs_.size(); }
  std::size_t replica_count(BlockId block) const;
  /// True iff the mirror believes `node` holds a replica of `block`.
  bool mirrors_replica(BlockId block, NodeId node) const;
  /// Jobs with >= 1 candidate on `node` / in `rack` (the counts behind
  /// node_has_candidates / rack_has_candidates).
  std::size_t node_job_count(NodeId node) const;
  std::size_t rack_job_count(RackId rack) const;

 private:
  /// One pending map waiting on a block's replica set. Carries the owning
  /// job's state pointer so replica deltas touch no hash table per watcher.
  struct Watcher {
    JobId job;
    std::uint32_t map_index;
    JobState* state;
  };

  JobState& job_state(JobId job);
  /// Replicas of `block` currently in `rack` (per the mirror).
  std::size_t rack_replicas(BlockId block, RackId rack) const;
  /// The only two ways a candidate list changes: append / swap-erase
  /// `map_index` in `slot`'s list of `map`, counting the job in
  /// `jobs_at[slot]` while that list is non-empty.
  static void add_candidate(CandidateMap& map,
                            std::vector<std::uint32_t>& jobs_at,
                            std::uint32_t slot, std::uint32_t map_index);
  static void remove_candidate(CandidateMap& map,
                               std::vector<std::uint32_t>& jobs_at,
                               std::uint32_t slot, std::uint32_t map_index);

  std::size_t num_nodes_;
  std::size_t num_racks_;
  std::vector<RackId> node_rack_;
  /// node -> jobs whose by_node list there is non-empty; rack -> likewise
  /// for by_rack.
  std::vector<std::uint32_t> node_jobs_;
  std::vector<std::uint32_t> rack_jobs_;

  /// Slab-backed maps (watcher and job nodes churn at task / job rate).
  template <typename K, typename V>
  using IndexMap =
      std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                         common::SlabAllocator<std::pair<const K, V>>>;

  /// Mirror of NameNode::locations, maintained from deltas.
  IndexMap<BlockId, std::vector<NodeId>> block_nodes_;
  /// block -> pending maps reading it (a job may appear more than once if
  /// several of its maps share a block).
  IndexMap<BlockId, std::vector<Watcher>> watchers_;
  IndexMap<JobId, JobState> jobs_;
};

}  // namespace dare::sched
