// Per-layer metrics of the benchmark: trace events counted by the simulator
// module that emits them, PhaseProfiler buckets turned into calls and CPU
// per call, and the ratios between them.
//
// Everything here reads the public observability types only (TraceCollector,
// PhaseProfiler) so the benchmark measures the simulator without changing it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/phase_profiler.h"
#include "obs/trace_collector.h"
#include "obs/trace_event.h"

namespace perfbench {

/// The src/ module that emits each trace kind ("cluster", "sched", "core",
/// "storage", "faults").
const char* kind_layer(dare::obs::EventKind kind);

/// Exact event counts per trace kind.
class KindCounts {
 public:
  explicit KindCounts(const dare::obs::TraceCollector& trace);
  std::uint64_t operator[](dare::obs::EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  /// Events whose kind belongs to `layer` (see kind_layer).
  std::uint64_t layer_total(const std::string& layer) const;
  std::uint64_t total() const;

 private:
  std::array<std::uint64_t,
             static_cast<std::size_t>(dare::obs::EventKind::kKindCount)>
      counts_{};
};

/// A ratio kept with its numerator and denominator. A zero denominator has
/// no value: the ratio is absent, never NaN or infinite.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  std::optional<double> value() const {
    if (den == 0.0) return std::nullopt;
    return num / den;
  }
};

/// One named metric. `ratio` is set for ratio metrics, whose value is then
/// ratio->value() and absent when the base is zero.
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
  std::optional<Ratio> ratio;
};

Metric count_metric(const std::string& name, double value,
                    const std::string& unit = "count");
Metric ratio_metric(const std::string& name, double num, double den);

/// Per-layer counts and ratios from the trace of one run:
/// storage.heartbeats, storage.disk_reclaims, sched.decisions,
/// sched.delay_waits, sched.delay_wait_ratio, core.adopted, core.skipped,
/// core.evicted, core.adopt_ratio, cluster.maps_launched,
/// cluster.maps_killed, cluster.maps_requeued, cluster.wasted_attempt_ratio,
/// cluster.repairs_landed, cluster.repair_retries,
/// cluster.repair_preemptions, faults.node_failures, faults.partitions,
/// faults.link_episodes, faults.corrupt_reads, faults.degraded_onsets,
/// obs.trace_events.
std::vector<Metric> trace_metrics(const KindCounts& counts);

/// Per-phase metrics from the PhaseProfiler of the same run:
/// storage.heartbeat_ns, sched.sweeps, sched.sweep_us, faults.churn_calls,
/// faults.churn_us, obs.sampling_ms and cluster.unattributed_frac
/// (1 - sum of the top-level phases / event loop, with the loop less that
/// sum and the loop as its base; kReplication, nested in kSchedule, is not
/// summed).
std::vector<Metric> phase_metrics(const dare::obs::PhaseProfiler& profiler);

}  // namespace perfbench
