// Benchmark runner: one measurement of one workload per process.
//
//   perfbench_runner run    key=value ...   untraced: set-up, then one
//                                           Cluster::run_stream
//   perfbench_runner traced key=value ...   the same run with a
//                                           TraceCollector and PhaseProfiler
//                                           attached, then the per-layer
//                                           replays over its trace
//
// Keys: nodes=<n> jobs=<n> wseed=<workload seed> speculation=0|1, plus any
// cluster::override_keys() knob (scheduler, policy, seed, faults, ...).
// The last line of stdout is one JSON object with the run's facts (for the
// output checks) and metrics. run.py starts one process per measurement:
// the kernel's RSS high-water mark never falls, so each peak needs a fresh
// process, and the traced run's trace buffer must never reach an untraced
// peak.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "cluster/experiment.h"
#include "common/config.h"
#include "common/rng.h"
#include "core/elephant_trap.h"
#include "core/greedy_lru.h"
#include "core/lfu.h"
#include "layers.h"
#include "metrics/run_metrics.h"
#include "net/profile.h"
#include "obs/phase_profiler.h"
#include "obs/trace_collector.h"
#include "sim/event_queue.h"
#include "storage/datanode.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace dare;
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double cpu_seconds() {
  return static_cast<double>(obs::PhaseProfiler::process_cpu_ns()) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Sink for replay results, so the timed loops cannot be optimised away.
volatile std::size_t g_sink = 0;

/// The runner's own keys; everything else must be a cluster override key.
const std::vector<std::string> kRunnerKeys = {"jobs", "nodes", "speculation",
                                              "wseed"};

struct WorkloadConfig {
  cluster::ClusterOptions options;
  workload::WorkloadOptions wopts;
};

/// bench_scale's wl2 stream (bench/bench_scale.cpp): per-node offered load
/// and catalog per node stay constant as the cluster grows. Kept draw for
/// draw identical so the recorded fingerprints match BENCH_PR8.json.
workload::WorkloadOptions scale_workload_options(std::size_t nodes,
                                                 std::size_t jobs,
                                                 std::uint64_t seed) {
  workload::WorkloadOptions wopts;
  wopts.num_jobs = jobs;
  wopts.seed = seed;
  const double factor = static_cast<double>(nodes) / 100.0;
  wopts.small_interarrival_s = 0.002 / factor;
  wopts.catalog.small_files =
      static_cast<std::size_t>(60 * factor < 60 ? 60 : 60 * factor);
  wopts.catalog.small_min_blocks = 2;
  wopts.catalog.small_max_blocks = 6;
  wopts.catalog.large_files =
      static_cast<std::size_t>(12 * factor < 12 ? 12 : 12 * factor);
  wopts.catalog.large_min_blocks = 16;
  wopts.catalog.large_max_blocks = 48;
  wopts.large_period = 20;
  return wopts;
}

WorkloadConfig parse_workload(const Config& cfg) {
  Config overrides;
  for (const auto& key : cfg.keys()) {
    if (std::find(kRunnerKeys.begin(), kRunnerKeys.end(), key) !=
        kRunnerKeys.end()) {
      continue;
    }
    const auto& known = cluster::override_keys();
    if (std::find(known.begin(), known.end(), key) == known.end() ||
        key == "nodes" || key == "profile") {
      throw std::invalid_argument("unknown key: " + key);
    }
    overrides.set(key, cfg.get_string(key, ""));
  }
  const std::int64_t nodes = cfg.get_int("nodes", 0);
  const std::int64_t jobs = cfg.get_int("jobs", 0);
  if (nodes < 2 || jobs < 1) {
    throw std::invalid_argument("nodes >= 2 and jobs >= 1 are required");
  }
  WorkloadConfig w;
  w.wopts = scale_workload_options(
      static_cast<std::size_t>(nodes), static_cast<std::size_t>(jobs),
      static_cast<std::uint64_t>(cfg.get_int("wseed", 7)));
  auto base = cluster::paper_defaults(
      net::ec2_profile(static_cast<std::size_t>(nodes)),
      cluster::SchedulerKind::kFifo, cluster::PolicyKind::kVanilla, 42);
  base.use_locality_index = true;
  base.enable_speculation = cfg.get_bool("speculation", false);
  w.options = cluster::apply_overrides(base, overrides);
  return w;
}

/// Stream with no jobs: a zero-job run_stream over a catalog measures the
/// catalog load from outside the Cluster.
class EmptyStream final : public workload::JobStream {
 public:
  std::optional<workload::JobTemplate> next() override { return std::nullopt; }
};

/// Facts and metrics of one measurement, printed as one JSON line.
class Report {
 public:
  void fact(const std::string& key, std::uint64_t value) {
    facts_.emplace_back(key, std::to_string(value));
  }
  void fact(const std::string& key, const std::string& value) {
    facts_.emplace_back(key, "\"" + value + "\"");
  }
  void metric(Metric m) { metrics_.push_back(std::move(m)); }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(count_metric(name, value, unit));
  }
  void metrics(const std::vector<Metric>& ms) {
    metrics_.insert(metrics_.end(), ms.begin(), ms.end());
  }
  void facts_from(const metrics::RunResult& r) {
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, metrics::fingerprint(r));
    fact("fingerprint", fp);
    fact("jobs", r.jobs.size());
    fact("failed_jobs", r.failed_jobs);
    fact("repairs_enqueued", r.repairs_enqueued);
    fact("repairs_landed", r.repairs_landed);
    fact("repairs_abandoned", r.repairs_abandoned);
    fact("speculative_launched", r.speculative_launched);
    fact("speculative_wins", r.speculative_wins);
    fact("speculative_killed", r.speculative_killed);
  }

  void print() const {
    std::string out = "{\"facts\": {";
    for (std::size_t i = 0; i < facts_.size(); ++i) {
      out += (i ? ", \"" : "\"") + facts_[i].first + "\": " + facts_[i].second;
    }
    out += "}, \"metrics\": {";
    char num[128];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i ? ", \"" : "\"") + m.name + "\": {\"unit\": \"" + m.unit +
             "\", \"value\": ";
      if (m.value) {
        std::snprintf(num, sizeof num, "%.17g", *m.value);
        out += num;
      } else {
        out += "null";
      }
      if (m.ratio) {
        std::snprintf(num, sizeof num, ", \"num\": %.17g, \"den\": %.17g",
                      m.ratio->num, m.ratio->den);
        out += num;
      }
      out += "}";
    }
    out += "}}";
    std::cout << out << std::endl;
  }

 private:
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<Metric> metrics_;
};

/// Wall time of one set-up: build the spec and construct the Cluster, plus
/// a zero-job run_stream over the same catalog on a second Cluster (the
/// catalog load, timed from outside).
double time_setup(const WorkloadConfig& w) {
  const auto s0 = SteadyClock::now();
  workload::WorkloadSpec spec = workload::make_wl2_spec(w.wopts);
  const cluster::Cluster sim(w.options);
  double seconds = seconds_since(s0);
  spec.num_jobs = 0;
  spec.open = [] {
    return std::unique_ptr<workload::JobStream>(
        std::make_unique<EmptyStream>());
  };
  cluster::Cluster loader(w.options);
  const auto l0 = SteadyClock::now();
  loader.run_stream(spec);
  return seconds + seconds_since(l0);
}

/// Set-ups per process: the median of several keeps one slow set-up (a
/// page-fault burst, a neighbour on the cache) out of setup_s.
constexpr int kSetupReps = 9;

/// Untraced measurement: one run_stream, then kSetupReps set-ups, so the
/// run starts in a fresh process and the set-ups never raise its peak RSS.
void run_untraced(const WorkloadConfig& w) {
  const workload::WorkloadSpec spec = workload::make_wl2_spec(w.wopts);
  cluster::Cluster sim(w.options);
  const std::uint64_t alloc0 = bench::allocation_count();
  const double cpu0 = cpu_seconds();
  const auto w0 = SteadyClock::now();
  const metrics::RunResult result = sim.run_stream(spec);
  const double wall = seconds_since(w0);
  const double cpu = cpu_seconds() - cpu0;
  const std::uint64_t allocs = bench::allocation_count() - alloc0;
  const double peak_rss_mb =
      static_cast<double>(bench::read_memory_stats().peak_rss_kb) / 1024.0;

  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(time_setup(w));

  Report report;
  report.facts_from(result);
  report.fact("allocations", allocs);
  report.metric("run_cpu_s", cpu, "s");
  report.metric("run_wall_s", wall, "s");
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", peak_rss_mb, "MiB");
  report.metric("locality", result.locality, "fraction");
  report.metric("gmtt_s", result.gmtt_s, "sim_s");
  report.metric("makespan_s", to_seconds(result.makespan), "sim_s");
  report.print();
}

std::unique_ptr<core::ReplicationPolicy> make_policy(
    const cluster::ClusterOptions& options, storage::DataNode& node,
    Bytes budget, Rng& rng) {
  switch (options.policy) {
    case cluster::PolicyKind::kVanilla:
      return std::make_unique<core::NullPolicy>();
    case cluster::PolicyKind::kGreedyLru:
      return std::make_unique<core::GreedyLruPolicy>(node, budget);
    case cluster::PolicyKind::kGreedyLfu:
      return std::make_unique<core::GreedyLfuPolicy>(node, budget);
    case cluster::PolicyKind::kElephantTrap:
      return std::make_unique<core::ElephantTrapPolicy>(node, budget,
                                                        options.trap, rng);
  }
  throw std::logic_error("unknown policy kind");
}

/// One step of the storage/core replay: a map launch handed to the node's
/// policy, or a lazy reclaim of the node's marked replicas.
struct ReplayOp {
  std::size_t node = 0;
  bool reclaim = false;
  bool local = false;
  storage::BlockMeta block;
};

/// Replays the traced map launches (resolved to blocks through the spec)
/// into fresh DataNodes and policies, interleaving the traced lazy
/// reclaims. Returns the launch blocks for the NameNode replay.
std::vector<BlockId> replay_policy(const cluster::Cluster& sim,
                                   const cluster::ClusterOptions& options,
                                   const workload::WorkloadSpec& spec,
                                   const obs::TraceCollector& trace,
                                   Report& report) {
  const auto g0 = SteadyClock::now();
  std::vector<std::size_t> file_of_job;  // job id == arrival position
  file_of_job.reserve(spec.num_jobs);
  const auto stream = spec.open();
  while (auto job = stream->next()) file_of_job.push_back(job->file_index);
  report.metric("workload.gen_ms", seconds_since(g0) * 1e3, "ms");

  const storage::NameNode& nn = sim.name_node();
  const std::vector<FileId> files = nn.all_files();  // catalog order
  if (files.size() != spec.catalog.size()) {
    throw std::logic_error("replay: NameNode files do not match the catalog");
  }
  std::vector<ReplayOp> ops;
  std::vector<BlockId> blocks;
  for (const auto& e : trace.events()) {
    const bool launch = e.kind == obs::EventKind::kMapLaunched ||
                        e.kind == obs::EventKind::kMapSpeculated;
    if (!launch && e.kind != obs::EventKind::kDiskReclaim) continue;
    ReplayOp op;
    op.node = static_cast<std::size_t>(e.node);
    op.reclaim = !launch;
    if (launch) {
      const FileId fid =
          files.at(file_of_job.at(static_cast<std::size_t>(e.job)));
      const BlockId bid = nn.file(fid).blocks.at(static_cast<std::size_t>(e.task));
      op.block = nn.block(bid);
      op.local = e.detail == 0;  // sched::Locality::kNodeLocal
      blocks.push_back(bid);
    }
    ops.push_back(op);
  }

  Rng rng(options.seed);
  std::vector<std::unique_ptr<storage::DataNode>> nodes;
  std::vector<std::unique_ptr<core::ReplicationPolicy>> policies;
  for (std::size_t i = 0; i < sim.worker_count(); ++i) {
    nodes.push_back(std::make_unique<storage::DataNode>(
        static_cast<NodeId>(i), options.profile.disk, rng));
    policies.push_back(
        make_policy(options, *nodes.back(), sim.node_budget_bytes(), rng));
  }
  std::size_t created = 0;
  const auto p0 = SteadyClock::now();
  for (const auto& op : ops) {
    if (op.reclaim) {
      nodes[op.node]->reclaim_marked();
      nodes[op.node]->drain_report();
    } else {
      created += policies[op.node]->on_map_task(op.block, op.local) ? 1 : 0;
    }
  }
  const double policy_s = seconds_since(p0);
  g_sink = g_sink + created;
  report.metric("core.policy_calls", static_cast<double>(blocks.size()),
                "count");
  report.metric(Metric{"core.policy_ns", "ns",
                       Ratio{policy_s * 1e9,
                             static_cast<double>(blocks.size())}.value(),
                       std::nullopt});
  return blocks;
}

/// NameNode::locations over the replayed launch blocks, median of 3 passes.
void replay_locations(const storage::NameNode& nn,
                      const std::vector<BlockId>& blocks, Report& report) {
  std::vector<double> ns;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t sum = 0;
    const auto t0 = SteadyClock::now();
    for (const BlockId bid : blocks) sum += nn.locations(bid).size();
    ns.push_back(seconds_since(t0) * 1e9);
    g_sink = g_sink + sum;
  }
  report.metric(Metric{
      "storage.locations_ns", "ns",
      Ratio{median(ns), static_cast<double>(blocks.size())}.value(),
      std::nullopt});
}

/// Replays the traced timeline through a fresh sim::EventQueue: each event
/// schedules the next traced one when it runs, keeping one pending event
/// per worker, about as many as the simulator's heartbeat chains.
void replay_event_queue(const obs::TraceCollector& trace,
                        std::size_t workers, Report& report) {
  struct Replay {
    sim::EventQueue queue;
    const std::vector<obs::TraceEvent>* events = nullptr;
    std::size_t next = 0;
    std::uint64_t ran = 0;
    void feed() {
      if (next >= events->size()) return;
      queue.schedule((*events)[next++].t, [this] {
        ++ran;
        feed();
      });
    }
  };
  Replay replay;
  replay.events = &trace.events();
  const auto t0 = SteadyClock::now();
  for (std::size_t i = 0; i < std::max<std::size_t>(workers, 1); ++i) {
    replay.feed();
  }
  while (!replay.queue.empty()) replay.queue.pop_and_run();
  const double ns = seconds_since(t0) * 1e9;
  report.metric("sim.replayed_events", static_cast<double>(replay.ran),
                "count");
  report.metric(Metric{"sim.event_ns", "ns",
                       Ratio{ns, static_cast<double>(replay.ran)}.value(),
                       std::nullopt});
}

void run_traced(const WorkloadConfig& w) {
  obs::TraceCollector trace;
  obs::PhaseProfiler profiler;
  cluster::ClusterOptions options = w.options;
  options.tracer = &trace;
  options.profiler = &profiler;
  const workload::WorkloadSpec spec = workload::make_wl2_spec(w.wopts);
  cluster::Cluster sim(options);
  const double cpu0 = cpu_seconds();
  const metrics::RunResult result = sim.run_stream(spec);
  const double cpu = cpu_seconds() - cpu0;

  Report report;
  report.facts_from(result);
  report.metric("traced_run_cpu_s", cpu, "s");
  const KindCounts counts(trace);
  report.metrics(trace_metrics(counts));
  report.metrics(phase_metrics(profiler));
  report.metric("cluster.repairs_enqueued",
                static_cast<double>(result.repairs_enqueued), "count");
  report.metric(ratio_metric(
      "cluster.repair_land_ratio",
      static_cast<double>(counts[obs::EventKind::kBlockRepaired]),
      static_cast<double>(result.repairs_enqueued)));
  for (const char* layer : {"cluster", "sched", "core", "storage", "faults"}) {
    report.metric(std::string(layer) + ".trace_events",
                  static_cast<double>(counts.layer_total(layer)), "count");
  }

  const auto blocks = replay_policy(sim, w.options, spec, trace, report);
  replay_locations(sim.name_node(), blocks, report);
  replay_event_queue(trace, sim.worker_count(), report);

  std::vector<double> fp_us;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = SteadyClock::now();
    g_sink = g_sink + metrics::fingerprint(result);
    fp_us.push_back(seconds_since(t0) * 1e6);
  }
  report.metric("metrics.fingerprint_us", median(fp_us), "us");
  report.print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const dare::Config cfg = dare::Config::from_args(args, &positional);
    if (positional.size() != 1 ||
        (positional[0] != "run" && positional[0] != "traced")) {
      std::cerr << "usage: perfbench_runner run|traced nodes=<n> jobs=<n> "
                   "[wseed=<n>] [speculation=0|1] [cluster overrides...]\n";
      return 1;
    }
    const auto workload = perfbench::parse_workload(cfg);
    if (positional[0] == "run") {
      perfbench::run_untraced(workload);
    } else {
      perfbench::run_traced(workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
