#include "storage/datanode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/invariant.h"
#include "net/profile.h"

namespace dare::storage {
namespace {

BlockMeta blk(BlockId id, FileId file = 0, Bytes size = 128 * kMiB) {
  return BlockMeta{id, file, size};
}

class DataNodeTest : public ::testing::Test {
 protected:
  DataNodeTest() : node_(0, net::cct_profile().disk, rng_) {}
  Rng rng_{31};
  DataNode node_;
};

TEST_F(DataNodeTest, StaticBlocksAccumulate) {
  node_.add_static_block(blk(1));
  node_.add_static_block(blk(2));
  EXPECT_EQ(node_.static_bytes(), 2 * 128 * kMiB);
  EXPECT_TRUE(node_.has_static_block(1));
  EXPECT_TRUE(node_.has_visible_block(2));
  EXPECT_FALSE(node_.has_dynamic_block(1));
}

TEST_F(DataNodeTest, DuplicateStaticBlockThrows) {
  node_.add_static_block(blk(1));
  EXPECT_THROW(node_.add_static_block(blk(1)), std::logic_error);
}

#if DARE_INVARIANTS_ENABLED
[[noreturn]] void throwing_handler(const InvariantViolation& v) {
  throw std::logic_error("invariant violated: " + v.message);
}
#endif

TEST_F(DataNodeTest, StaticCopyOverADynamicCopyTripsTheInvariant) {
#if DARE_INVARIANTS_ENABLED
  struct Guard {
    InvariantHandler previous = set_invariant_handler(&throwing_handler);
    ~Guard() { set_invariant_handler(previous); }
  } guard;
  ASSERT_TRUE(node_.insert_dynamic(blk(5)));  // live
  ASSERT_TRUE(node_.insert_dynamic(blk(6)));
  ASSERT_TRUE(node_.mark_for_deletion(6));  // tombstoned, still on disk
  // No node ever holds two physical copies of a block.
  EXPECT_THROW(node_.add_static_block(blk(5)), std::logic_error);
  EXPECT_THROW(node_.add_static_block(blk(6)), std::logic_error);
  EXPECT_FALSE(node_.has_static_block(5));
  EXPECT_FALSE(node_.has_static_block(6));
#else
  GTEST_SKIP() << "DARE_INVARIANT is compiled out of this build";
#endif
}

TEST_F(DataNodeTest, DynamicInsertVisibleAndCounted) {
  EXPECT_TRUE(node_.insert_dynamic(blk(5)));
  EXPECT_TRUE(node_.has_dynamic_block(5));
  EXPECT_TRUE(node_.has_visible_block(5));
  EXPECT_EQ(node_.dynamic_bytes(), 128 * kMiB);
  EXPECT_EQ(node_.dynamic_insertions(), 1u);
}

TEST_F(DataNodeTest, DynamicInsertRefusesDuplicates) {
  node_.add_static_block(blk(1));
  EXPECT_FALSE(node_.insert_dynamic(blk(1)));  // already static
  EXPECT_TRUE(node_.insert_dynamic(blk(2)));
  EXPECT_FALSE(node_.insert_dynamic(blk(2)));  // already dynamic
  EXPECT_EQ(node_.dynamic_insertions(), 1u);
}

TEST_F(DataNodeTest, MarkForDeletionHidesAndReleasesBudget) {
  node_.insert_dynamic(blk(5));
  EXPECT_TRUE(node_.mark_for_deletion(5));
  EXPECT_FALSE(node_.has_visible_block(5));
  EXPECT_FALSE(node_.has_dynamic_block(5));
  EXPECT_EQ(node_.dynamic_bytes(), 0);
  EXPECT_EQ(node_.marked_count(), 1u);
  EXPECT_EQ(node_.dynamic_evictions(), 1u);
}

TEST_F(DataNodeTest, MarkedBlockStillOccupiesDiskUntilReclaim) {
  node_.insert_dynamic(blk(5));
  node_.mark_for_deletion(5);
  // The tombstoned replica is still physically present: re-insert refused.
  EXPECT_FALSE(node_.insert_dynamic(blk(5)));
  EXPECT_EQ(node_.reclaim_marked(), 1u);
  EXPECT_EQ(node_.marked_count(), 0u);
  EXPECT_TRUE(node_.insert_dynamic(blk(5)));
}

TEST_F(DataNodeTest, MarkNonexistentReturnsFalse) {
  EXPECT_FALSE(node_.mark_for_deletion(42));
  node_.add_static_block(blk(1));
  EXPECT_FALSE(node_.mark_for_deletion(1));  // statics are never evictable
}

TEST_F(DataNodeTest, DrainReportCarriesAdditionsOnce) {
  node_.insert_dynamic(blk(5));
  node_.insert_dynamic(blk(6));
  auto report = node_.drain_report();
  EXPECT_EQ(report.added.size(), 2u);
  EXPECT_TRUE(report.removed.empty());
  // Second drain is empty.
  report = node_.drain_report();
  EXPECT_TRUE(report.added.empty());
  EXPECT_TRUE(report.removed.empty());
}

TEST_F(DataNodeTest, DrainReportCancelsAddRemoveWithinInterval) {
  node_.insert_dynamic(blk(5));
  node_.mark_for_deletion(5);
  const auto report = node_.drain_report();
  EXPECT_TRUE(report.added.empty());
  EXPECT_TRUE(report.removed.empty());
}

TEST_F(DataNodeTest, DrainReportCarriesRemovalOfPreviouslyReported) {
  node_.insert_dynamic(blk(5));
  (void)node_.drain_report();  // addition reported
  node_.mark_for_deletion(5);
  const auto report = node_.drain_report();
  EXPECT_TRUE(report.added.empty());
  ASSERT_EQ(report.removed.size(), 1u);
  EXPECT_EQ(report.removed[0], 5);
}

TEST_F(DataNodeTest, DynamicBlocksListsLiveOnly) {
  node_.insert_dynamic(blk(5));
  node_.insert_dynamic(blk(6));
  node_.mark_for_deletion(5);
  const auto blocks = node_.dynamic_blocks();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], 6);
}

TEST_F(DataNodeTest, ReadDurationScalesWithBytes) {
  const SimDuration d1 = node_.read_duration(128 * kMiB);
  EXPECT_GT(d1, 0);
  // 128 MiB at ~157.8 MB/s is around 0.81 s.
  EXPECT_NEAR(to_seconds(d1), 0.81, 0.15);
  EXPECT_EQ(node_.read_duration(0), 0);
  EXPECT_THROW(node_.read_duration(-1), std::invalid_argument);
}

TEST_F(DataNodeTest, DiskSamplesWithinProfile) {
  const auto profile = net::cct_profile();
  for (int i = 0; i < 1000; ++i) {
    const double mbps = node_.sample_disk_mbps();
    EXPECT_GE(mbps, profile.disk.floor);
    EXPECT_LE(mbps, profile.disk.ceiling);
  }
}

TEST_F(DataNodeTest, MixedSizeBudgetAccounting) {
  node_.insert_dynamic(blk(1, 0, 10));
  node_.insert_dynamic(blk(2, 0, 20));
  node_.insert_dynamic(blk(3, 1, 30));
  EXPECT_EQ(node_.dynamic_bytes(), 60);
  node_.mark_for_deletion(2);
  EXPECT_EQ(node_.dynamic_bytes(), 40);
}

}  // namespace
}  // namespace dare::storage
