// Model-based randomized tests ("fuzz") for the replication policies and
// the event queue: drive thousands of random operations and check every
// externally observable invariant after each step, plus cross-check the
// greedy-LRU policy against an executable reference model, and pin each
// policy's full decision stream to a recorded digest.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/elephant_trap.h"
#include "core/greedy_lru.h"
#include "core/lfu.h"
#include "net/profile.h"
#include "obs/trace_collector.h"
#include "sim/event_queue.h"

namespace dare {
namespace {

storage::BlockMeta blk(BlockId id, FileId file, Bytes size) {
  return storage::BlockMeta{id, file, size};
}

/// Executable reference model of Algorithm 1 (greedy LRU with same-file
/// protection), tracking only block ids.
class LruModel {
 public:
  explicit LruModel(Bytes budget) : budget_(budget) {}

  /// Mirrors GreedyLruPolicy::on_map_task; returns replicated?
  bool access(BlockId id, FileId file, Bytes size, bool local) {
    if (local || contains(id)) {
      touch(id);
      return false;
    }
    if (size > budget_) return false;
    // Evict LRU victims, skipping same-file blocks (rotate to MRU).
    std::size_t examined = 0;
    const std::size_t limit = order_.size();
    while (used_ + size > budget_ && examined < limit) {
      ++examined;
      const auto victim = order_.front();
      order_.pop_front();
      if (victim.file == file) {
        order_.push_back(victim);
        continue;
      }
      used_ -= victim.size;
      ids_.erase(victim.id);
    }
    if (used_ + size > budget_) return false;
    order_.push_back(Entry{id, file, size});
    ids_.insert(id);
    used_ += size;
    return true;
  }

  bool contains(BlockId id) const { return ids_.count(id) != 0; }
  Bytes used() const { return used_; }
  std::size_t size() const { return ids_.size(); }

 private:
  struct Entry {
    BlockId id;
    FileId file;
    Bytes size;
  };
  void touch(BlockId id) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->id == id) {
        order_.splice(order_.end(), order_, it);
        return;
      }
    }
  }
  Bytes budget_;
  Bytes used_ = 0;
  std::list<Entry> order_;
  std::set<BlockId> ids_;
};

TEST(FuzzGreedyLru, MatchesReferenceModel) {
  Rng rng(101);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  const Bytes budget = 1000;
  core::GreedyLruPolicy policy(node, budget);
  LruModel model(budget);

  Rng ops(202);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{40}));
    const FileId file = id / 3;  // a few blocks per file
    const Bytes size = 100 + 50 * (id % 3);
    // "local" mirrors reality: the node already has the block.
    const bool local = node.has_visible_block(id);
    ASSERT_EQ(local, model.contains(id)) << "step " << step;
    const bool replicated = policy.on_map_task(blk(id, file, size), local);
    const bool model_replicated = model.access(id, file, size, local);
    ASSERT_EQ(replicated, model_replicated) << "step " << step;
    ASSERT_EQ(node.dynamic_bytes(), model.used()) << "step " << step;
    ASSERT_LE(node.dynamic_bytes(), budget);
    node.reclaim_marked();
  }
  EXPECT_EQ(node.dynamic_blocks().size(), model.size());
}

TEST(FuzzElephantTrap, InvariantsUnderRandomOps) {
  Rng rng(303);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  const Bytes budget = 1200;
  core::ElephantTrapParams params;
  params.p = 0.6;
  params.threshold = 2;
  core::ElephantTrapPolicy policy(node, budget, params, rng);

  Rng ops(404);
  std::uint64_t created_before = 0;
  for (int step = 0; step < 30000; ++step) {
    const auto id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{60}));
    const FileId file = id / 4;
    const Bytes size = 100 + 25 * (id % 5);
    const bool local = node.has_visible_block(id);
    const bool replicated = policy.on_map_task(blk(id, file, size), local);

    // Invariants after every step:
    ASSERT_LE(node.dynamic_bytes(), budget) << "step " << step;
    ASSERT_EQ(policy.tracked_blocks(), node.dynamic_blocks().size())
        << "step " << step;
    if (replicated) {
      ASSERT_FALSE(local);
      ASSERT_TRUE(node.has_dynamic_block(id));
      ASSERT_EQ(policy.replicas_created(), created_before + 1);
    }
    created_before = policy.replicas_created();
    // A local access can never create a replica.
    if (local) { ASSERT_FALSE(replicated); }
    if (step % 7 == 0) node.reclaim_marked();
  }
  // The policy never lies about its contents.
  for (BlockId id : node.dynamic_blocks()) {
    EXPECT_GE(policy.access_count(id), 0u);
  }
}

TEST(FuzzLfu, InvariantsUnderRandomOps) {
  Rng rng(505);
  storage::DataNode node(0, net::cct_profile().disk, rng);
  const Bytes budget = 800;
  core::GreedyLfuPolicy policy(node, budget);

  Rng ops(606);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{30}));
    const FileId file = id / 2;
    const bool local = node.has_visible_block(id);
    policy.on_map_task(blk(id, file, 100), local);
    ASSERT_LE(node.dynamic_bytes(), budget);
    ASSERT_EQ(policy.tracked_blocks(), node.dynamic_blocks().size());
    node.reclaim_marked();
  }
}

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

using PolicyFactory = std::function<std::unique_ptr<core::ReplicationPolicy>(
    storage::DataNode&, Bytes, Rng&)>;

struct DecisionDigest {
  std::uint64_t digest = 0;
  std::set<obs::SkipReason> reasons;
  std::size_t insert_refusals = 0;  ///< kAlreadyPresent on a tombstoned copy
  std::size_t evictions = 0;
  std::uint64_t created = 0;
};

/// Drive one policy through a seeded stream that reaches every admission
/// branch: local and remote reads, same-file bursts (no victim), an
/// oversize block, remote reads of tombstoned copies (the data node refuses
/// the insert), quarantines with the policy told, repairs that lift a
/// quarantine, crash rebuilds and lazy reclaims. Every return value, trace
/// event, the final dynamic set and the adoption count feed the digest.
void run_decision_stream(const PolicyFactory& make, DecisionDigest& out) {
  constexpr Bytes kBudget = 700;
  constexpr BlockId kOversize = 99;
  // Three blocks per file; the last file's three blocks overflow the budget
  // together, so a burst through it runs out of other-file victims.
  const auto size_of = [](BlockId id) -> Bytes {
    if (id == kOversize) return kBudget + 1;
    return id >= 27 ? 300 : 100 + 40 * (id % 3);
  };
  SimTime step = 0;
  obs::TraceCollector tracer([&step] { return step; });
  Rng rng(8080);
  storage::DataNode node(3, net::cct_profile().disk, rng);
  node.set_tracer(&tracer);
  for (BlockId id = 30; id < 33; ++id) {
    node.add_static_block(blk(id, id / 3, size_of(id)));
  }
  auto policy = make(node, kBudget, rng);
  policy->set_tracer(&tracer);

  Digest digest;
  std::vector<BlockId> quarantined;
  Rng ops(9090);
  BlockId burst_next = 0;
  int burst_left = 0;
  for (; step < 6000; ++step) {
    const double dice = ops.uniform();
    if (dice < 0.02) {
      // A failed checksum: the name node quarantines a held copy (live,
      // tombstoned or static) and the policy is told to forget it.
      const auto id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{33}));
      if (node.quarantine_replica(id)) {
        policy->on_replica_dropped(id);
        quarantined.push_back(id);
        digest.mix(std::uint64_t{0xd0} + static_cast<std::uint64_t>(id));
      }
      continue;
    }
    if (dice < 0.03 && !quarantined.empty()) {
      // Re-replication lands a fresh authoritative copy, lifting the ban.
      const BlockId id = quarantined.front();
      quarantined.erase(quarantined.begin());
      if (!node.has_any_copy(id)) {
        node.add_static_block(blk(id, id / 3, size_of(id)));
        digest.mix(std::uint64_t{0xa0} + static_cast<std::uint64_t>(id));
      }
      continue;
    }
    if (dice < 0.035) {
      policy->rebuild(node.dynamic_block_metas());
      digest.mix(std::uint64_t{0xb0});
      continue;
    }
    BlockId id = 0;
    if (burst_left > 0) {
      id = burst_next;
      burst_next = (id / 3) * 3 + (id + 1) % 3;  // next block, same file
      --burst_left;
    } else if (dice < 0.06) {
      id = kOversize;
    } else {
      id = static_cast<BlockId>(ops.uniform_int(std::uint64_t{30}));
      if (dice < 0.2) {
        burst_next = (id / 3) * 3 + (id + 1) % 3;
        burst_left = 2;
      }
    }
    const Bytes size = size_of(id);
    const FileId file = id == kOversize ? 77 : id / 3;
    const bool local = node.has_visible_block(id);
    const bool tombstoned = node.has_any_copy(id) && !local;
    const std::size_t events_before = tracer.events().size();
    const bool adopted = policy->on_map_task(blk(id, file, size), local);
    digest.mix(std::uint64_t{adopted ? 1U : 0U});
    for (std::size_t i = events_before; i < tracer.events().size(); ++i) {
      const auto& e = tracer.events()[i];
      if (e.kind == obs::EventKind::kReplicaSkipped) {
        const auto reason = static_cast<obs::SkipReason>(e.detail);
        out.reasons.insert(reason);
        if (reason == obs::SkipReason::kAlreadyPresent && tombstoned) {
          ++out.insert_refusals;
        }
      }
      if (e.kind == obs::EventKind::kReplicaEvicted) ++out.evictions;
    }
    if (step % 5 == 4) node.reclaim_marked();
    ASSERT_LE(node.dynamic_bytes(), kBudget) << "step " << step;
  }
  for (const auto& e : tracer.events()) {
    digest.mix(static_cast<std::uint64_t>(e.t));
    digest.mix(static_cast<std::uint64_t>(e.kind));
    digest.mix(static_cast<std::uint64_t>(e.node));
    digest.mix(static_cast<std::uint64_t>(e.task));
    digest.mix(static_cast<std::uint64_t>(e.detail));
    digest.mix(e.value);
  }
  for (BlockId id : node.dynamic_blocks()) {
    digest.mix(static_cast<std::uint64_t>(id));
  }
  out.created = policy->replicas_created();
  digest.mix(out.created);
  out.digest = digest.value();
}

void expect_decision_digest(const PolicyFactory& make,
                            const std::set<obs::SkipReason>& reachable,
                            std::uint64_t recorded) {
  DecisionDigest got;
  run_decision_stream(make, got);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(got.reasons, reachable) << "a skip branch went unexercised";
  EXPECT_GT(got.insert_refusals, 0U) << "no tombstoned re-read was refused";
  EXPECT_GT(got.evictions, 0U);
  EXPECT_GT(got.created, 0U);
  EXPECT_EQ(got.digest, recorded)
      << std::hex << "decision digest 0x" << got.digest
      << " moved off its recorded value";
}

const std::set<obs::SkipReason> kGreedyReasons = {
    obs::SkipReason::kTooLarge, obs::SkipReason::kAlreadyPresent,
    obs::SkipReason::kNoVictim, obs::SkipReason::kQuarantined};

TEST(PolicyDigest, GreedyLru) {
  expect_decision_digest(
      [](storage::DataNode& node, Bytes budget, Rng&) {
        return std::make_unique<core::GreedyLruPolicy>(node, budget);
      },
      kGreedyReasons, 0x5104dcfbd1d16d9dULL);
}

TEST(PolicyDigest, GreedyLfu) {
  expect_decision_digest(
      [](storage::DataNode& node, Bytes budget, Rng&) {
        return std::make_unique<core::GreedyLfuPolicy>(node, budget);
      },
      kGreedyReasons, 0x4c6475eca59e0e1dULL);
}

TEST(PolicyDigest, ElephantTrap) {
  auto reasons = kGreedyReasons;
  reasons.insert(obs::SkipReason::kCoinFailed);
  expect_decision_digest(
      [](storage::DataNode& node, Bytes budget, Rng& rng) {
        core::ElephantTrapParams params;
        params.p = 0.5;
        params.threshold = 2;
        return std::make_unique<core::ElephantTrapPolicy>(node, budget,
                                                          params, rng);
      },
      reasons, 0xc758008357ce001fULL);
}

TEST(FuzzEventQueue, MatchesExactPendingSetModel) {
  // Reference model: the set of pending (when, tag) pairs, ordered by
  // (when, tag) — tags are assigned in scheduling order, so this is exactly
  // the queue's documented (time, insertion) order. Each pop must fire the
  // model's minimum; cancels remove arbitrary pending entries.
  Rng ops(707);
  sim::EventQueue queue;
  std::map<std::pair<SimTime, int>, sim::EventHandle> pending;
  std::vector<std::pair<SimTime, int>> fired;
  int next_tag = 0;

  for (int step = 0; step < 8000; ++step) {
    const double dice = ops.uniform();
    if (dice < 0.55) {
      const auto when =
          static_cast<SimTime>(ops.uniform_int(std::uint64_t{1000}));
      const int tag = next_tag++;
      auto handle = queue.schedule(
          when, [&fired, when, tag] { fired.emplace_back(when, tag); });
      pending.emplace(std::make_pair(when, tag), std::move(handle));
    } else if (dice < 0.7 && !pending.empty()) {
      // Cancel a pseudo-random pending entry.
      auto it = pending.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           ops.uniform_int(pending.size())));
      ASSERT_TRUE(it->second.cancel());
      pending.erase(it);
    } else if (!queue.empty()) {
      const auto expected = pending.begin()->first;
      const std::size_t fired_before = fired.size();
      queue.pop_and_run();
      ASSERT_EQ(fired.size(), fired_before + 1) << "step " << step;
      ASSERT_EQ(fired.back(), expected) << "step " << step;
      pending.erase(pending.begin());
    }
    ASSERT_EQ(queue.size(), pending.size()) << "step " << step;
    ASSERT_EQ(queue.empty(), pending.empty()) << "step " << step;
    if (!pending.empty()) {
      ASSERT_EQ(queue.next_time(), pending.begin()->first.first)
          << "step " << step;
    }
  }
  while (!queue.empty()) {
    const auto expected = pending.begin()->first;
    queue.pop_and_run();
    ASSERT_EQ(fired.back(), expected);
    pending.erase(pending.begin());
  }
  EXPECT_TRUE(pending.empty());
}

}  // namespace
}  // namespace dare
