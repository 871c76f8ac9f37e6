// Algorithm 1 of the paper: the greedy reactive scheme with LRU eviction.
//
// Every non-data-local map task triggers replication of its input block at
// the fetching node. A usage-ordered queue (refreshed on every read) selects
// LRU victims when the replication budget would be exceeded; victims
// belonging to the same file as the incoming block are skipped (they share
// its popularity, so evicting them would thrash). Victims are tombstoned for
// lazy deletion by the data node. The admission gates are BudgetedPolicy's;
// this class keeps only the usage queue and its victim rule.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "core/budgeted_policy.h"

namespace dare::core {

class GreedyLruPolicy final : public BudgetedPolicy {
 public:
  GreedyLruPolicy(storage::DataNode& node, Bytes budget_bytes)
      : BudgetedPolicy(node, budget_bytes) {}

  std::string name() const override { return "greedy-lru"; }
  std::size_t tracked_blocks() const { return order_.size(); }

 private:
  /// Move a tracked block to the MRU end of the queue.
  bool refresh(BlockId block) override;

  /// Evict LRU victims until `incoming` fits in the budget. Same-file
  /// victims are rotated to the MRU end rather than evicted. Returns false
  /// when no eviction could free enough space (every candidate shares the
  /// incoming block's file).
  bool make_room(const storage::BlockMeta& incoming) override;

  void track(const storage::BlockMeta& block) override;
  void forget(BlockId block) override;
  /// Recency is lost in a crash: the survivors' order (block id) becomes
  /// the new LRU order, refreshed by subsequent reads.
  void reset(const std::vector<storage::BlockMeta>& survivors) override;

  /// LRU queue: front = least recently used, back = most recently used.
  std::list<storage::BlockMeta> order_;
  std::unordered_map<BlockId, std::list<storage::BlockMeta>::iterator> index_;
};

}  // namespace dare::core
