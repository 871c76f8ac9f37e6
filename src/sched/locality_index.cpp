#include "sched/locality_index.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/invariant.h"

namespace dare::sched {

namespace {
const std::vector<std::uint32_t> kNoCandidates;
}  // namespace

LocalityIndex::LocalityIndex(std::size_t num_nodes,
                             std::vector<RackId> node_rack,
                             std::size_t num_racks)
    : num_nodes_(num_nodes),
      num_racks_(num_racks),
      node_rack_(std::move(node_rack)),
      node_jobs_(num_nodes, 0),
      rack_jobs_(num_racks, 0) {
  if (num_nodes_ == 0 || num_racks_ == 0) {
    throw std::invalid_argument("LocalityIndex: need >= 1 node and rack");
  }
  if (node_rack_.size() != num_nodes_) {
    throw std::invalid_argument("LocalityIndex: node_rack size mismatch");
  }
  for (RackId r : node_rack_) {
    if (r < 0 || static_cast<std::size_t>(r) >= num_racks_) {
      throw std::invalid_argument("LocalityIndex: rack id out of range");
    }
  }
}

std::size_t LocalityIndex::rack_replicas(BlockId block, RackId rack) const {
  const auto it = block_nodes_.find(block);
  if (it == block_nodes_.end()) return 0;
  std::size_t count = 0;
  for (NodeId n : it->second) {
    if (node_rack_[static_cast<std::size_t>(n)] == rack) ++count;
  }
  return count;
}

void LocalityIndex::add_candidate(CandidateMap& map,
                                  std::vector<std::uint32_t>& jobs_at,
                                  std::uint32_t slot, std::uint32_t map_index) {
  std::vector<std::uint32_t>& candidates = map.slot_mut(slot);
  if (candidates.empty()) ++jobs_at[slot];
  candidates.push_back(map_index);
}

void LocalityIndex::remove_candidate(CandidateMap& map,
                                     std::vector<std::uint32_t>& jobs_at,
                                     std::uint32_t slot,
                                     std::uint32_t map_index) {
  std::vector<std::uint32_t>& candidates = map.slot_mut(slot);
  const auto it =
      std::find(candidates.begin(), candidates.end(), map_index);
  DARE_INVARIANT(it != candidates.end(),
                 "LocalityIndex: candidate to drop is not indexed (map " +
                     std::to_string(map_index) + ")");
  // Swap-erase: candidate order is irrelevant (queries take the argmin of
  // pending position, not the first element).
  *it = candidates.back();
  candidates.pop_back();
  if (candidates.empty()) {
    DARE_INVARIANT(jobs_at[slot] > 0,
                   "LocalityIndex: job count underflow at slot " +
                       std::to_string(slot));
    --jobs_at[slot];
  }
}

LocalityIndex::JobState& LocalityIndex::job_state(JobId job) {
  const auto it = jobs_.find(job);
  if (it != jobs_.end()) return it->second;
  // Small domains take the direct layout (one slot per node/rack, indexed
  // without probing — the replica-delta fan-out loops are too hot for even
  // a perfect-hash probe); at hyperscale the per-job footprint of a full
  // domain is what made large backlogs unrepresentable, so the table goes
  // sparse, pre-sized for a typical replica footprint (maps x replication
  // distinct nodes) and growing with the job's actual candidate set.
  constexpr std::size_t kDirectNodes = 256;
  JobState& state = jobs_[job];
  if (num_nodes_ <= kDirectNodes) {
    state.by_node.reserve_domain(num_nodes_);
    state.by_rack.reserve_domain(num_racks_);
  } else {
    state.by_node.reserve_slots(48);
    state.by_rack.reserve_slots(12);
  }
  return state;
}

void LocalityIndex::replica_added(BlockId block, NodeId node) {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  auto& nodes = block_nodes_[block];
  DARE_INVARIANT(std::find(nodes.begin(), nodes.end(), node) == nodes.end(),
                 "LocalityIndex: duplicate replica delta for block " +
                     std::to_string(block));
  nodes.push_back(node);
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  const bool first_in_rack = rack_replicas(block, rack) == 1;

  const auto wit = watchers_.find(block);
  if (wit == watchers_.end()) return;
  for (const Watcher& w : wit->second) {
    add_candidate(w.state->by_node, node_jobs_,
                  static_cast<std::uint32_t>(node), w.map_index);
    if (first_in_rack) {
      add_candidate(w.state->by_rack, rack_jobs_,
                    static_cast<std::uint32_t>(rack), w.map_index);
    }
  }
}

void LocalityIndex::replica_removed(BlockId block, NodeId node) {
  const auto it = block_nodes_.find(block);
  DARE_INVARIANT(it != block_nodes_.end(),
                 "LocalityIndex: removal delta for unmirrored block " +
                     std::to_string(block));
  auto& nodes = it->second;
  const auto pos = std::find(nodes.begin(), nodes.end(), node);
  DARE_INVARIANT(pos != nodes.end(),
                 "LocalityIndex: removal delta for absent replica of block " +
                     std::to_string(block));
  nodes.erase(pos);
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  const bool last_in_rack = rack_replicas(block, rack) == 0;

  const auto wit = watchers_.find(block);
  if (wit == watchers_.end()) return;
  for (const Watcher& w : wit->second) {
    remove_candidate(w.state->by_node, node_jobs_,
                     static_cast<std::uint32_t>(node), w.map_index);
    if (last_in_rack) {
      remove_candidate(w.state->by_rack, rack_jobs_,
                       static_cast<std::uint32_t>(rack), w.map_index);
    }
  }
}

void LocalityIndex::watch_map(JobId job, std::size_t map_index,
                              BlockId block) {
  const auto mi = static_cast<std::uint32_t>(map_index);
  JobState& state = job_state(job);
  watchers_[block].push_back(Watcher{job, mi, &state});
  const auto it = block_nodes_.find(block);
  if (it == block_nodes_.end()) return;  // block has no live replica
  for (NodeId n : it->second) {
    add_candidate(state.by_node, node_jobs_, static_cast<std::uint32_t>(n),
                  mi);
  }
  // One rack-candidate entry per distinct rack holding a replica.
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    const RackId rack = node_rack_[static_cast<std::size_t>(it->second[i])];
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (node_rack_[static_cast<std::size_t>(it->second[j])] == rack) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      add_candidate(state.by_rack, rack_jobs_,
                    static_cast<std::uint32_t>(rack), mi);
    }
  }
}

void LocalityIndex::unwatch_map(JobId job, std::size_t map_index,
                                BlockId block) {
  const auto mi = static_cast<std::uint32_t>(map_index);
  const auto wit = watchers_.find(block);
  DARE_INVARIANT(wit != watchers_.end(),
                 "LocalityIndex: unwatch of an unwatched block " +
                     std::to_string(block));
  auto& watchers = wit->second;
  const auto pos =
      std::find_if(watchers.begin(), watchers.end(), [&](const Watcher& w) {
        return w.job == job && w.map_index == mi;
      });
  DARE_INVARIANT(pos != watchers.end(),
                 "LocalityIndex: unwatch of an unwatched map (job " +
                     std::to_string(job) + ", map " + std::to_string(mi) +
                     ")");
  *pos = watchers.back();
  watchers.pop_back();
  if (watchers.empty()) watchers_.erase(wit);

  const auto bit = block_nodes_.find(block);
  if (bit == block_nodes_.end()) return;
  const auto jit = jobs_.find(job);
  DARE_INVARIANT(jit != jobs_.end(),
                 "LocalityIndex: unwatch for an untracked job " +
                     std::to_string(job));
  JobState& state = jit->second;
  for (NodeId n : bit->second) {
    remove_candidate(state.by_node, node_jobs_,
                     static_cast<std::uint32_t>(n), mi);
  }
  for (std::size_t i = 0; i < bit->second.size(); ++i) {
    const RackId rack = node_rack_[static_cast<std::size_t>(bit->second[i])];
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (node_rack_[static_cast<std::size_t>(bit->second[j])] == rack) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      remove_candidate(state.by_rack, rack_jobs_,
                       static_cast<std::uint32_t>(rack), mi);
    }
  }
}

void LocalityIndex::job_retired(JobId job) {
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return;  // never had candidates
#ifndef NDEBUG
  // A live list would leave the job counted in node_jobs_ / rack_jobs_.
  DARE_INVARIANT(it->second.by_node.all_empty(),
                 "LocalityIndex: job retired with live node candidates");
  DARE_INVARIANT(it->second.by_rack.all_empty(),
                 "LocalityIndex: job retired with live rack candidates");
#endif
  jobs_.erase(it);
}

const std::vector<std::uint32_t>& LocalityIndex::node_candidates(
    JobId job, NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return kNoCandidates;
  return it->second.by_node.find(static_cast<std::uint32_t>(node));
}

const std::vector<std::uint32_t>& LocalityIndex::rack_candidates(
    JobId job, NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return kNoCandidates;
  const RackId rack = node_rack_[static_cast<std::size_t>(node)];
  return it->second.by_rack.find(static_cast<std::uint32_t>(rack));
}

std::size_t LocalityIndex::replica_count(BlockId block) const {
  const auto it = block_nodes_.find(block);
  return it == block_nodes_.end() ? 0 : it->second.size();
}

std::size_t LocalityIndex::node_job_count(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= num_nodes_) {
    throw std::out_of_range("LocalityIndex: bad node id");
  }
  return node_jobs_[static_cast<std::size_t>(node)];
}

std::size_t LocalityIndex::rack_job_count(RackId rack) const {
  if (rack < 0 || static_cast<std::size_t>(rack) >= num_racks_) {
    throw std::out_of_range("LocalityIndex: bad rack id");
  }
  return rack_jobs_[static_cast<std::size_t>(rack)];
}

bool LocalityIndex::mirrors_replica(BlockId block, NodeId node) const {
  const auto it = block_nodes_.find(block);
  if (it == block_nodes_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), node) !=
         it->second.end();
}

}  // namespace dare::sched
