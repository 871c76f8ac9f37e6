#include "metrics/run_metrics.h"

#include <gtest/gtest.h>

#include <string_view>
#include <variant>

#include "run_result_pattern.h"

namespace dare::metrics {
namespace {

JobMetrics job(JobId id, double arrival_s, double completion_s,
               std::size_t maps, std::size_t local,
               double dedicated_s) {
  JobMetrics jm;
  jm.id = id;
  jm.arrival = from_seconds(arrival_s);
  jm.completion = from_seconds(completion_s);
  jm.maps = maps;
  jm.local_maps = local;
  jm.dedicated_runtime_s = dedicated_s;
  return jm;
}

TEST(JobMetrics, DerivedQuantities) {
  const auto jm = job(1, 10.0, 30.0, 4, 3, 10.0);
  EXPECT_DOUBLE_EQ(jm.turnaround_s(), 20.0);
  EXPECT_DOUBLE_EQ(jm.slowdown(), 2.0);
  EXPECT_DOUBLE_EQ(jm.locality(), 0.75);
}

TEST(JobMetrics, ZeroGuards) {
  JobMetrics jm;
  EXPECT_EQ(jm.locality(), 0.0);
  EXPECT_EQ(jm.slowdown(), 0.0);
}

TEST(Finalize, AggregatesAcrossJobs) {
  RunResult result;
  result.jobs.push_back(job(1, 0.0, 10.0, 2, 2, 5.0));   // TT 10, sd 2
  result.jobs.push_back(job(2, 0.0, 40.0, 2, 0, 10.0));  // TT 40, sd 4
  result.dynamic_replicas_created = 6;
  finalize(result, {1.0, 2.0, 3.0});

  EXPECT_DOUBLE_EQ(result.locality, 0.5);  // 2 local of 4 maps
  EXPECT_NEAR(result.gmtt_s, 20.0, 1e-9);  // sqrt(10*40)
  EXPECT_DOUBLE_EQ(result.mean_slowdown, 3.0);
  EXPECT_DOUBLE_EQ(result.mean_map_time_s, 2.0);
  EXPECT_DOUBLE_EQ(result.blocks_created_per_job, 3.0);
}

TEST(Finalize, CountsJobsSkippedFromGmtt) {
  // A job whose completion equals its arrival has zero turnaround: it
  // cannot enter the log-domain geometric mean and used to vanish without
  // a trace, silently inflating GMTT. The skip count must surface it.
  RunResult result;
  result.jobs.push_back(job(1, 5.0, 5.0, 1, 1, 1.0));   // TT 0 -> skipped
  result.jobs.push_back(job(2, 0.0, 10.0, 1, 1, 5.0));  // TT 10
  finalize(result, {1.0});
  EXPECT_EQ(result.gmtt_skipped_jobs, 1u);
  EXPECT_NEAR(result.gmtt_s, 10.0, 1e-9);  // only job 2 enters the mean

  RunResult clean;
  clean.jobs.push_back(job(1, 0.0, 10.0, 1, 1, 5.0));
  finalize(clean, {1.0});
  EXPECT_EQ(clean.gmtt_skipped_jobs, 0u);
}

TEST(Fingerprint, EveryTableFieldFollowsItsDigestRule) {
  // Digest-compatibility contract, for every row of the run-metric table:
  // any one field set nonzero must be visible in the digest, and an
  // only-when-nonzero field back at zero must leave the digest of runs that
  // never touch it (the committed baselines) exactly as it was.
  RunResult base;
  base.jobs.push_back(job(1, 0.0, 10.0, 1, 1, 5.0));
  const auto base_digest = fingerprint(base);
  const auto fields = metric_fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    RunResult r = base;
    testing::set_pattern(r, fields[i]);
    EXPECT_NE(fingerprint(r), base_digest) << fields[i].name;
    if (fields[i].digest != MetricField::Digest::kWhenNonzero) continue;
    std::visit([&r](auto member) { r.*member = {}; }, fields[i].member);
    EXPECT_EQ(fingerprint(r), base_digest) << fields[i].name;
  }
}

TEST(Fingerprint, TableMatchesRecordedDigests) {
  // Recorded values. The empty result pins how many fields are always
  // mixed; the patterned one pins every field's position and kind; zeroing
  // each field of it in turn pins each field's digest rule at its position.
  // A new kWhenNonzero row leaves `empty` as it is and moves the other two,
  // which are then re-recorded; any other change invalidates committed
  // digests.
  EXPECT_EQ(fingerprint(RunResult{}), 0xe7f6c4b09523c5e5ULL);
  EXPECT_EQ(fingerprint(testing::patterned_result()), 0x7e0825f36af8dc8eULL);
  std::uint64_t zeroed_each = 0;
  for (std::size_t i = 0; i < metric_fields().size(); ++i) {
    zeroed_each = (zeroed_each * 0x100000001B3ULL) ^
                  fingerprint(testing::patterned_result(i));
  }
  EXPECT_EQ(zeroed_each, 0x4be415b5de060e21ULL);
}

TEST(Fingerprint, TableRowsNameDistinctFields) {
  // The sizeof check in run_metrics.cpp counts rows, so a row copied onto
  // an existing field would hide a field that has none.
  const auto fields = metric_fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    for (std::size_t j = i + 1; j < fields.size(); ++j) {
      EXPECT_NE(std::string_view(fields[i].name), fields[j].name);
      EXPECT_NE(fields[i].member, fields[j].member) << fields[i].name;
    }
  }
}

TEST(Finalize, EmptyRunIsSafe) {
  RunResult result;
  finalize(result, std::vector<double>{});
  EXPECT_EQ(result.locality, 0.0);
  EXPECT_EQ(result.gmtt_s, 0.0);
  EXPECT_EQ(result.mean_slowdown, 0.0);
  EXPECT_EQ(result.blocks_created_per_job, 0.0);
}

TEST(PopularityIndex, WeightsSizeByPopularity) {
  const double pi =
      popularity_index({100, 200}, {2.0, 0.5});
  EXPECT_DOUBLE_EQ(pi, 100 * 2.0 + 200 * 0.5);
}

TEST(PopularityIndex, SizeMismatchThrows) {
  EXPECT_THROW(popularity_index({100}, {1.0, 2.0}), std::invalid_argument);
}

TEST(PopularityIndex, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(popularity_index({}, {}), 0.0);
}

}  // namespace
}  // namespace dare::metrics
