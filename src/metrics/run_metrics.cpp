#include "metrics/run_metrics.h"

#include <bit>
#include <iterator>
#include <stdexcept>

#include "common/stats.h"

namespace dare::metrics {

void finalize(RunResult& result, const std::vector<double>& map_times_s) {
  OnlineStats map_stats;
  for (double t : map_times_s) map_stats.add(t);
  finalize(result, map_stats);
}

void finalize(RunResult& result, const OnlineStats& map_time_stats) {
  std::size_t total_maps = 0;
  std::size_t local_maps = 0;
  std::size_t rack_maps = 0;
  std::vector<double> turnarounds;
  turnarounds.reserve(result.jobs.size());
  double slowdown_sum = 0.0;
  std::size_t succeeded = 0;
  for (const auto& job : result.jobs) {
    // Failed jobs are terminally accounted (completion = kill time) but
    // excluded from the performance aggregates: a truncated turnaround
    // would make a churn-heavy run look artificially fast.
    if (job.failed) continue;
    ++succeeded;
    total_maps += job.maps;
    local_maps += job.local_maps;
    rack_maps += job.rack_local_maps;
    turnarounds.push_back(job.turnaround_s());
    slowdown_sum += job.slowdown();
  }
  result.locality = total_maps ? static_cast<double>(local_maps) /
                                     static_cast<double>(total_maps)
                               : 0.0;
  result.rack_locality =
      total_maps ? static_cast<double>(local_maps + rack_maps) /
                       static_cast<double>(total_maps)
                 : 0.0;
  std::size_t gmtt_skipped = 0;
  result.gmtt_s = geometric_mean(turnarounds, &gmtt_skipped);
  result.gmtt_skipped_jobs = static_cast<std::uint64_t>(gmtt_skipped);
  result.mean_slowdown =
      succeeded == 0 ? 0.0 : slowdown_sum / static_cast<double>(succeeded);
  result.mean_detection_latency_s =
      result.failures_detected == 0
          ? 0.0
          : result.detection_latency_total_s /
                static_cast<double>(result.failures_detected);
  result.mean_repair_latency_s =
      result.rereplicated_blocks == 0
          ? 0.0
          : result.repair_latency_total_s /
                static_cast<double>(result.rereplicated_blocks);
  result.mean_map_time_s = map_time_stats.mean();
  result.blocks_created_per_job =
      result.jobs.empty()
          ? 0.0
          : static_cast<double>(result.dynamic_replicas_created) /
                static_cast<double>(result.jobs.size());
}

double popularity_index(const std::vector<Bytes>& block_sizes,
                        const std::vector<double>& block_popularity) {
  if (block_sizes.size() != block_popularity.size()) {
    throw std::invalid_argument("popularity_index: size mismatch");
  }
  double pi = 0.0;
  for (std::size_t i = 0; i < block_sizes.size(); ++i) {
    pi += static_cast<double>(block_sizes[i]) * block_popularity[i];
  }
  return pi;
}

namespace {

constexpr auto kAlways = MetricField::Digest::kAlways;
constexpr auto kWhenNonzero = MetricField::Digest::kWhenNonzero;

/// The run-metric table: every scalar RunResult field, in digest order.
/// Adding a metric is one RunResult field plus one row here; the digest and
/// the farm row both read it from this table.
///
/// kWhenNonzero keeps committed digests valid: a field added after
/// baselines were recorded (BENCH_PR3.json, BENCH_PR8.json, the perfbench
/// workloads) is mixed only when nonzero, so quiet runs that never touch it
/// keep their recorded fingerprint while any run that does is
/// distinguishable. A new field takes kWhenNonzero (its position does not
/// matter while it is zero); changing an existing row's rule or position
/// invalidates recorded digests.
constexpr MetricField kFields[] = {
    {"locality", &RunResult::locality, kAlways},
    {"rack_locality", &RunResult::rack_locality, kAlways},
    {"gmtt_s", &RunResult::gmtt_s, kAlways},
    {"gmtt_skipped_jobs", &RunResult::gmtt_skipped_jobs, kWhenNonzero},
    {"mean_slowdown", &RunResult::mean_slowdown, kAlways},
    {"mean_map_time_s", &RunResult::mean_map_time_s, kAlways},
    {"dynamic_replicas_created", &RunResult::dynamic_replicas_created, kAlways},
    {"dynamic_replica_disk_writes", &RunResult::dynamic_replica_disk_writes,
     kAlways},
    {"blocks_created_per_job", &RunResult::blocks_created_per_job, kAlways},
    {"proactive_replication_bytes", &RunResult::proactive_replication_bytes,
     kAlways},
    {"task_reexecutions", &RunResult::task_reexecutions, kAlways},
    {"rereplicated_blocks", &RunResult::rereplicated_blocks, kAlways},
    {"blocks_lost", &RunResult::blocks_lost, kAlways},
    {"node_failures", &RunResult::node_failures, kAlways},
    {"transient_failures", &RunResult::transient_failures, kAlways},
    {"permanent_failures", &RunResult::permanent_failures, kAlways},
    {"failures_detected", &RunResult::failures_detected, kAlways},
    {"detection_latency_total_s", &RunResult::detection_latency_total_s,
     kAlways},
    {"mean_detection_latency_s", &RunResult::mean_detection_latency_s, kAlways},
    {"node_rejoins", &RunResult::node_rejoins, kAlways},
    {"overreplication_prunes", &RunResult::overreplication_prunes, kAlways},
    {"task_attempt_failures", &RunResult::task_attempt_failures, kAlways},
    {"failed_jobs", &RunResult::failed_jobs, kAlways},
    {"blacklisted_nodes", &RunResult::blacklisted_nodes, kAlways},
    {"corrupt_reads", &RunResult::corrupt_reads, kWhenNonzero},
    {"corrupt_replicas", &RunResult::corrupt_replicas, kWhenNonzero},
    {"replicas_quarantined", &RunResult::replicas_quarantined, kWhenNonzero},
    {"data_loss_events", &RunResult::data_loss_events, kWhenNonzero},
    {"repair_latency_total_s", &RunResult::repair_latency_total_s,
     kWhenNonzero},
    {"mean_repair_latency_s", &RunResult::mean_repair_latency_s, kWhenNonzero},
    {"unavailability_windows", &RunResult::unavailability_windows,
     kWhenNonzero},
    {"unavailability_total_s", &RunResult::unavailability_total_s,
     kWhenNonzero},
    {"speculative_launched", &RunResult::speculative_launched, kAlways},
    {"speculative_wins", &RunResult::speculative_wins, kAlways},
    {"speculative_killed", &RunResult::speculative_killed, kAlways},
    {"degraded_onsets", &RunResult::degraded_onsets, kWhenNonzero},
    {"degraded_recoveries", &RunResult::degraded_recoveries, kWhenNonzero},
    {"tail_inflations", &RunResult::tail_inflations, kWhenNonzero},
    {"stragglers_detected", &RunResult::stragglers_detected, kWhenNonzero},
    {"straggler_readmissions", &RunResult::straggler_readmissions,
     kWhenNonzero},
    {"clones_launched", &RunResult::clones_launched, kWhenNonzero},
    {"clone_wins", &RunResult::clone_wins, kWhenNonzero},
    {"clones_killed", &RunResult::clones_killed, kWhenNonzero},
    {"clone_wasted_work_s", &RunResult::clone_wasted_work_s, kWhenNonzero},
    {"partition_episodes", &RunResult::partition_episodes, kWhenNonzero},
    {"partitions_healed", &RunResult::partitions_healed, kWhenNonzero},
    {"link_degrade_episodes", &RunResult::link_degrade_episodes, kWhenNonzero},
    {"unreachable_reads", &RunResult::unreachable_reads, kWhenNonzero},
    {"repairs_enqueued", &RunResult::repairs_enqueued, kWhenNonzero},
    {"repairs_landed", &RunResult::repairs_landed, kWhenNonzero},
    {"repairs_abandoned", &RunResult::repairs_abandoned, kWhenNonzero},
    {"repair_retries", &RunResult::repair_retries, kWhenNonzero},
    {"repair_timeouts", &RunResult::repair_timeouts, kWhenNonzero},
    {"repair_preemptions", &RunResult::repair_preemptions, kWhenNonzero},
    {"one_replica_windows", &RunResult::one_replica_windows, kWhenNonzero},
    {"one_replica_total_s", &RunResult::one_replica_total_s, kWhenNonzero},
    {"cv_before", &RunResult::cv_before, kAlways},
    {"cv_after", &RunResult::cv_after, kAlways},
    {"makespan", &RunResult::makespan, kAlways},
};

// Every scalar RunResult field is 8 bytes wide, so a field declared without
// a row above changes sizeof(RunResult) and fails here.
static_assert(sizeof(double) == 8 && sizeof(SimTime) == 8);
static_assert(sizeof(RunResult) ==
                  sizeof(std::vector<JobMetrics>) +
                      std::size(kFields) * sizeof(std::uint64_t),
              "every scalar RunResult field needs a row in kFields");

/// FNV-1a over explicit 64-bit words: field widths are pinned here (rather
/// than hashing struct bytes) so padding and layout changes never alter the
/// digest semantics.
class Digest {
 public:
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void mix(std::int64_t value) { mix(static_cast<std::uint64_t>(value)); }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

}  // namespace

std::span<const MetricField> metric_fields() { return kFields; }

std::uint64_t fingerprint(const RunResult& result) {
  Digest d;
  d.mix(static_cast<std::uint64_t>(result.jobs.size()));
  for (const auto& job : result.jobs) {
    d.mix(job.id);
    d.mix(job.arrival);
    d.mix(job.completion);
    d.mix(static_cast<std::uint64_t>(job.maps));
    d.mix(static_cast<std::uint64_t>(job.local_maps));
    d.mix(static_cast<std::uint64_t>(job.rack_local_maps));
    d.mix(job.dedicated_runtime_s);
    d.mix(static_cast<std::uint64_t>(job.failed ? 1 : 0));
  }
  for (const auto& field : kFields) {
    std::visit(
        [&](auto member) {
          const auto value = result.*member;
          if (field.digest == kWhenNonzero && value == 0) return;
          d.mix(value);
        },
        field.member);
  }
  return d.value();
}

}  // namespace dare::metrics
