#include "core/budgeted_policy.h"

#include <string>

#include "common/invariant.h"
#include "obs/trace_collector.h"

namespace dare::core {

double BudgetedPolicy::budget_occupancy() const {
  return budget_ ? static_cast<double>(node_->dynamic_bytes()) /
                       static_cast<double>(budget_)
                 : 0.0;
}

bool BudgetedPolicy::skip(BlockId block, obs::SkipReason reason) const {
  if (tracer_ != nullptr) {
    tracer_->replica_skipped(node_->id(), block, reason, budget_occupancy());
  }
  return false;
}

bool BudgetedPolicy::on_map_task(const storage::BlockMeta& block,
                                 bool local) {
  // The coin comes first so the draw sequence is independent of every
  // other gate (and of tracing, which only observes its outcome).
  if (!sample()) {
    if (!local) skip(block.id, obs::SkipReason::kCoinFailed);
    return false;
  }
  if (local) {
    refresh(block.id);
    return false;
  }
  // A checksum failure burned this node's copy; adoption stays banned
  // until a fresh authoritative copy arrives via re-replication.
  if (node_->is_quarantined(block.id)) {
    return skip(block.id, obs::SkipReason::kQuarantined);
  }
  // Already replicated here but not yet visible to the scheduler.
  if (refresh(block.id)) {
    return skip(block.id, obs::SkipReason::kAlreadyPresent);
  }
  if (block.size > budget_) return skip(block.id, obs::SkipReason::kTooLarge);
  if (!make_room(block)) return skip(block.id, obs::SkipReason::kNoVictim);
  if (!node_->insert_dynamic(block)) {
    return skip(block.id, obs::SkipReason::kAlreadyPresent);
  }
  DARE_INVARIANT(node_->dynamic_bytes() <= budget_,
                 name() + ": budget exceeded after insert on node " +
                     std::to_string(node_->id()));
  track(block);
  ++created_;
  if (tracer_ != nullptr) {
    tracer_->replica_adopted(node_->id(), block.id, budget_occupancy());
  }
  return true;
}

void BudgetedPolicy::rebuild(
    const std::vector<storage::BlockMeta>& live_dynamic) {
  std::vector<storage::BlockMeta> survivors;
  survivors.reserve(live_dynamic.size());
  for (const auto& meta : live_dynamic) {
    if (!node_->is_quarantined(meta.id)) survivors.push_back(meta);
  }
  reset(survivors);
}

}  // namespace dare::core
