// Least-frequently-used eviction baseline (extension).
//
// Section IV of the paper notes that the choice between LRU and LFU "should
// be made after profiling typical workloads"; the evaluation only ships LRU
// and ElephantTrap. We provide greedy-LFU as an ablation so the bench suite
// can quantify the gap: LFU keeps long-term-popular blocks but is slow to
// evict formerly-hot data (no aging), which is exactly the failure mode the
// ElephantTrap's competitive aging addresses. The admission gates are
// BudgetedPolicy's; this class keeps only the read counts and its victim
// rule.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/budgeted_policy.h"

namespace dare::core {

class GreedyLfuPolicy final : public BudgetedPolicy {
 public:
  GreedyLfuPolicy(storage::DataNode& node, Bytes budget_bytes)
      : BudgetedPolicy(node, budget_bytes) {}

  std::string name() const override { return "greedy-lfu"; }

  std::size_t tracked_blocks() const { return entries_.size(); }
  std::uint64_t frequency(BlockId block) const;

 private:
  struct Entry {
    storage::BlockMeta block;
    std::uint64_t count = 0;
    std::uint64_t tie = 0;  ///< insertion order; older evicts first on ties
  };

  /// Count a read of a tracked block.
  bool refresh(BlockId block) override;

  /// Evict the least-read other-file replica (oldest on ties) until
  /// `incoming` fits; false when only same-file replicas remain.
  bool make_room(const storage::BlockMeta& incoming) override;

  /// The adopting read is the block's first count.
  void track(const storage::BlockMeta& block) override;
  void forget(BlockId block) override { entries_.erase(block); }
  /// Frequency history is lost in a crash: survivors restart at zero.
  void reset(const std::vector<storage::BlockMeta>& survivors) override;

  std::unordered_map<BlockId, Entry> entries_;
  std::uint64_t tie_counter_ = 0;
};

}  // namespace dare::core
