// Self-test of the benchmark's per-layer code: trace-kind -> layer
// counting and the ratio metrics, run against a small hand-built
// TraceCollector and PhaseProfiler. Exits 0 when every check holds.
//
//   python3 perfbench/run.py --self-test    (builds and runs this)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "layers.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

const perfbench::Metric* find(const std::vector<perfbench::Metric>& ms,
                              const std::string& name) {
  for (const auto& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void check_value(const std::vector<perfbench::Metric>& ms,
                 const std::string& name, double expected) {
  const auto* m = find(ms, name);
  check(m != nullptr, name + " is reported");
  if (m == nullptr) return;
  check(m->value.has_value() && std::fabs(*m->value - expected) < 1e-9,
        name + " == " + std::to_string(expected));
}

void check_absent(const std::vector<perfbench::Metric>& ms,
                  const std::string& name) {
  const auto* m = find(ms, name);
  check(m != nullptr, name + " is reported");
  if (m == nullptr) return;
  check(!m->value.has_value(), name + " is absent");
}

void test_every_kind_has_a_layer() {
  using dare::obs::EventKind;
  const std::vector<std::string> layers = {"cluster", "sched", "core",
                                           "storage", "faults"};
  for (std::size_t k = 0; k < static_cast<std::size_t>(EventKind::kKindCount);
       ++k) {
    const std::string layer = perfbench::kind_layer(static_cast<EventKind>(k));
    bool known = false;
    for (const auto& l : layers) known = known || l == layer;
    check(known, "kind " + std::to_string(k) + " maps to a src/ module");
  }
}

void test_trace_counting() {
  using dare::obs::SkipReason;
  dare::obs::TraceCollector trace;
  for (int i = 0; i < 3; ++i) trace.heartbeat(i);
  trace.map_launched(0, 1, 0, 0, false);
  trace.map_launched(1, 1, 1, 2, false);
  trace.map_launched(2, 1, 2, 2, false);
  trace.map_launched(1, 1, 1, 1, /*speculative=*/true);
  trace.map_killed(2, 1, 2);
  trace.map_requeued(2, 1, 2);
  trace.scheduler_decision(0, 1, 0, 0.0);
  trace.scheduler_decision(1, 1, 2, 0.5);
  trace.delay_wait(1, 1);
  trace.replica_adopted(1, 7, 0.5);
  trace.replica_skipped(2, 8, SkipReason::kCoinFailed, 0.5);
  trace.replica_skipped(2, 9, SkipReason::kNoVictim, 0.5);
  trace.replica_evicted(1, 3, 1.0, 2);
  trace.disk_reclaim(1, 4);
  trace.node_failed(2, 0, 30.0);
  trace.partition_started(0, 20.0);
  trace.link_degraded(1, 40.0);
  trace.checksum_failed(0, 7);
  trace.node_degraded(1, false, 3.0);
  trace.block_repaired(0, 7);
  trace.repair_retried(8, 1);
  trace.repair_preempted(9);

  const perfbench::KindCounts counts(trace);
  check(counts.total() == trace.size(), "every event is counted once");
  check(counts.layer_total("storage") == 4, "storage: 3 beats + 1 reclaim");
  check(counts.layer_total("sched") == 3, "sched: 2 decisions + 1 wait");
  check(counts.layer_total("core") == 4, "core: adopt + 2 skips + evict");
  check(counts.layer_total("faults") == 5, "faults: 5 fault events");
  check(counts.layer_total("cluster") == 9, "cluster: 9 task/repair events");
  check(counts.layer_total("storage") + counts.layer_total("sched") +
                counts.layer_total("core") + counts.layer_total("faults") +
                counts.layer_total("cluster") ==
            counts.total(),
        "layers partition the trace");

  const auto ms = perfbench::trace_metrics(counts);
  check_value(ms, "storage.heartbeats", 3);
  check_value(ms, "storage.disk_reclaims", 1);
  check_value(ms, "sched.decisions", 2);
  check_value(ms, "sched.delay_waits", 1);
  check_value(ms, "sched.delay_wait_ratio", 0.5);
  check_value(ms, "core.adopted", 1);
  check_value(ms, "core.skipped", 2);
  check_value(ms, "core.evicted", 1);
  check_value(ms, "core.adopt_ratio", 1.0 / 3.0);
  check_value(ms, "cluster.maps_launched", 4);
  check_value(ms, "cluster.maps_killed", 1);
  check_value(ms, "cluster.maps_requeued", 1);
  check_value(ms, "cluster.wasted_attempt_ratio", 0.5);
  check_value(ms, "cluster.repairs_landed", 1);
  check_value(ms, "cluster.repair_retries", 1);
  check_value(ms, "cluster.repair_preemptions", 1);
  check_value(ms, "faults.node_failures", 1);
  check_value(ms, "faults.partitions", 1);
  check_value(ms, "faults.link_episodes", 1);
  check_value(ms, "faults.corrupt_reads", 1);
  check_value(ms, "faults.degraded_onsets", 1);
  check_value(ms, "obs.trace_events", static_cast<double>(trace.size()));

  const auto* ratio = find(ms, "core.adopt_ratio");
  check(ratio != nullptr && ratio->ratio && ratio->ratio->num == 1 &&
            ratio->ratio->den == 3,
        "core.adopt_ratio keeps its numerator and denominator");
}

void test_zero_bases_are_absent() {
  const dare::obs::TraceCollector empty;
  const auto ms = perfbench::trace_metrics(perfbench::KindCounts(empty));
  check_value(ms, "storage.heartbeats", 0);
  check_absent(ms, "sched.delay_wait_ratio");
  check_absent(ms, "core.adopt_ratio");
  check_absent(ms, "cluster.wasted_attempt_ratio");

  const auto r = perfbench::ratio_metric("x.ratio", 3, 0);
  check(!r.value && r.ratio && r.ratio->num == 3 && r.ratio->den == 0,
        "an absent ratio keeps its numerator and denominator");
}

void test_phase_metrics() {
  using dare::obs::Phase;
  dare::obs::PhaseProfiler profiler;
  profiler.add(Phase::kEventLoop, 10'000);
  profiler.add(Phase::kHeartbeat, 1'000);
  profiler.add(Phase::kHeartbeat, 3'000);
  profiler.add(Phase::kSchedule, 5'000);
  const auto ms = perfbench::phase_metrics(profiler);
  check_value(ms, "storage.heartbeat_ns", 2'000);
  check_value(ms, "sched.sweeps", 1);
  check_value(ms, "sched.sweep_us", 5);
  check_value(ms, "faults.churn_calls", 0);
  check_absent(ms, "faults.churn_us");
  check_value(ms, "obs.sampling_ms", 0);
  check_value(ms, "cluster.unattributed_frac", 0.1);

  // Policy time is measured inside the sweep that launches the map: it is
  // already in kSchedule and must not be subtracted from the loop twice.
  dare::obs::PhaseProfiler nested;
  nested.add(Phase::kEventLoop, 10'000);
  nested.add(Phase::kSchedule, 5'000);
  nested.add(Phase::kReplication, 2'000);
  nested.add(Phase::kChurn, 1'000);
  check_value(perfbench::phase_metrics(nested), "cluster.unattributed_frac",
              0.4);

  const auto idle = perfbench::phase_metrics(dare::obs::PhaseProfiler{});
  check_absent(idle, "cluster.unattributed_frac");
  check_absent(idle, "storage.heartbeat_ns");
}

}  // namespace

int main() {
  test_every_kind_has_a_layer();
  test_trace_counting();
  test_zero_bases_are_absent();
  test_phase_metrics();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench self-test: ok\n");
  return 0;
}
