// The adoption path every DARE policy shares.
//
// A block that streams through a node on a remote read is captured as a
// dynamic replica inside a fixed per-node budget. Algorithm 1 (greedy LRU),
// Algorithm 2 (ElephantTrap) and the LFU ablation differ only in when they
// sample, how a read refreshes a tracked block, and which victim they
// evict. This base owns everything else — the node, the budget, the
// adoption count, the quarantine ban and the adopt/skip trace — and runs
// one gate order for every policy:
//
//   1. sample() — a miss ends the call (traced kCoinFailed on a remote read);
//   2. a local read refreshes the block if tracked, and ends the call;
//   3. a quarantined block is refused (kQuarantined);
//   4. a tracked block is refreshed and refused (kAlreadyPresent);
//   5. a block bigger than the whole budget is refused (kTooLarge);
//   6. make_room() must free enough budget (else kNoVictim);
//   7. the data node must accept the copy (else kAlreadyPresent: a
//      tombstoned or static copy still occupies the disk);
//   8. the block is tracked and counted as adopted.
//
// A new policy implements make_room() and overrides whichever of the other
// hooks its bookkeeping needs; the defaults track nothing and never sample.
#pragma once

#include <cstdint>
#include <vector>

#include "core/replication_policy.h"
#include "obs/trace_event.h"

namespace dare::core {

class BudgetedPolicy : public ReplicationPolicy {
 public:
  bool on_map_task(const storage::BlockMeta& block, bool local) final;

  /// Crash recovery: hand the surviving replicas that are not quarantined
  /// to reset(); whatever the policy learned before the crash is lost.
  void rebuild(const std::vector<storage::BlockMeta>& live_dynamic) final;

  /// Forget a replica the name node quarantined out from under us.
  void on_replica_dropped(BlockId block) final { forget(block); }

  std::uint64_t replicas_created() const final { return created_; }
  Bytes budget_bytes() const { return budget_; }

 protected:
  /// `node` must outlive the policy. `budget_bytes` caps the total size of
  /// live dynamic replicas on this node.
  BudgetedPolicy(storage::DataNode& node, Bytes budget_bytes)
      : node_(&node), budget_(budget_bytes) {}

  storage::DataNode* const node_;
  const Bytes budget_;

 private:
  /// Whether this read takes part at all (ElephantTrap's coin).
  virtual bool sample() { return true; }
  /// Record a read of `block`; false when the policy does not track it.
  virtual bool refresh(BlockId block) {
    (void)block;
    return false;
  }
  /// Tombstone victims until `incoming` fits in the budget; false when no
  /// eviction can free enough (the incoming block is then not adopted).
  virtual bool make_room(const storage::BlockMeta& incoming) = 0;
  /// Start tracking a block the data node just accepted.
  virtual void track(const storage::BlockMeta& block) { (void)block; }
  /// Stop tracking `block` (no-op when untracked).
  virtual void forget(BlockId block) { (void)block; }
  /// Replace all bookkeeping with `survivors` (sorted by block id).
  virtual void reset(const std::vector<storage::BlockMeta>& survivors) {
    (void)survivors;
  }

  /// Trace a declined adoption; always returns false.
  bool skip(BlockId block, obs::SkipReason reason) const;
  double budget_occupancy() const;

  std::uint64_t created_ = 0;
};

}  // namespace dare::core
