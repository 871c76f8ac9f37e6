#include "obs/trace_export.h"

#include <map>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "obs/trace_collector.h"

namespace dare::obs {

namespace {

// Chrome trace `tid` layout: fixed tracks first, then one per worker node.
constexpr int kSchedulerTid = 1;
constexpr int kNameNodeTid = 2;
constexpr int kNodeTidBase = 3;

int event_tid(const TraceEvent& e) {
  switch (kind_track(e.kind)) {
    case Track::kScheduler: return kSchedulerTid;
    case Track::kNameNode: return kNameNodeTid;
    case Track::kNode: break;
  }
  // Node-track events with no node (shouldn't happen) fall back to the
  // scheduler track rather than inventing a bogus tid.
  return e.node >= 0 ? kNodeTidBase + static_cast<int>(e.node)
                     : kSchedulerTid;
}

/// Kinds that open a duration slice on a node track.
bool is_open_kind(EventKind kind) {
  return kind == EventKind::kMapLaunched ||
         kind == EventKind::kMapSpeculated ||
         kind == EventKind::kCloneLaunched ||
         kind == EventKind::kReduceLaunched;
}

/// Kinds that close the matching slice (task attempt ends on the node).
bool is_close_kind(EventKind kind) {
  return kind == EventKind::kMapFinished ||
         kind == EventKind::kMapKilled ||
         kind == EventKind::kCloneKilled ||
         kind == EventKind::kTaskAttemptFault ||
         kind == EventKind::kReduceFinished ||
         kind == EventKind::kReduceRequeued;
}

bool is_reduce_event(const TraceEvent& e) {
  return e.kind == EventKind::kReduceLaunched ||
         e.kind == EventKind::kReduceFinished ||
         e.kind == EventKind::kReduceRequeued ||
         (e.kind == EventKind::kTaskAttemptFault && e.detail == 1);
}

/// Display name of a task-execution slice, keyed by its opening kind.
const char* slice_name(EventKind open_kind) {
  switch (open_kind) {
    case EventKind::kMapSpeculated: return "map (speculative)";
    case EventKind::kCloneLaunched: return "map (clone)";
    case EventKind::kReduceLaunched: return "reduce";
    default: return "map";
  }
}

void write_args(std::ostream& out, const TraceEvent& e) {
  out << "{\"job\":" << e.job << ",\"task\":" << e.task << ",\"detail\":"
      << e.detail << ",\"value\":" << format_double(e.value);
  if (e.kind == EventKind::kReplicaSkipped) {
    out << ",\"reason\":\""
        << skip_reason_name(static_cast<SkipReason>(e.detail)) << "\"";
  }
  out << "}";
}

class JsonEventWriter {
 public:
  explicit JsonEventWriter(std::ostream& out) : out_(out) {}

  std::ostream& begin() {
    out_ << (first_ ? "    " : ",\n    ");
    first_ = false;
    return out_;
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

}  // namespace

SlicePairing pair_task_slices(const std::vector<TraceEvent>& events) {
  // Key is (node, job, task, is_reduce); a stack tolerates pathological
  // nesting.
  using SliceKey = std::tuple<NodeId, JobId, std::int64_t, bool>;
  std::map<SliceKey, std::vector<std::size_t>> open;  // -> event indices
  SlicePairing pairing;
  pairing.opened_by.assign(events.size(), SlicePairing::kUnpaired);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (!is_open_kind(e.kind) && !is_close_kind(e.kind)) continue;
    auto& stack = open[SliceKey{e.node, e.job, e.task, is_reduce_event(e)}];
    if (is_open_kind(e.kind)) {
      stack.push_back(i);
    } else if (stack.empty()) {
      pairing.unpaired_ends.push_back(i);
    } else {
      pairing.opened_by[i] = stack.back();
      stack.pop_back();
    }
  }
  for (const auto& [key, stack] : open) {
    pairing.open.insert(pairing.open.end(), stack.begin(), stack.end());
  }
  return pairing;
}

void write_chrome_trace(const TraceCollector& trace, std::ostream& out) {
  const auto& events = trace.events();

  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  JsonEventWriter w(out);

  // Track-name metadata. Node tracks come from the set of nodes actually
  // seen, iterated in sorted order for byte-stable output.
  std::set<NodeId> nodes;
  for (const TraceEvent& e : events) {
    if (kind_track(e.kind) == Track::kNode && e.node >= 0) {
      nodes.insert(e.node);
    }
  }
  w.begin() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"dare-sim\"}}";
  w.begin() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
            << kSchedulerTid << ",\"args\":{\"name\":\"scheduler\"}}";
  w.begin() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
            << kNameNodeTid << ",\"args\":{\"name\":\"namenode\"}}";
  for (NodeId n : nodes) {
    w.begin() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
              << kNodeTidBase + static_cast<int>(n)
              << ",\"args\":{\"name\":\"node-" << n << "\"}}";
  }

  const auto write_instant = [&](const TraceEvent& e) {
    w.begin() << "{\"name\":\"" << kind_name(e.kind)
              << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
              << event_tid(e) << ",\"ts\":" << e.t << ",\"args\":";
    write_args(out, e);
    out << "}";
  };
  const SlicePairing slices = pair_task_slices(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // A launch is written with its end, or as an instant below.
    if (is_open_kind(e.kind)) continue;
    if (slices.opened_by[i] != SlicePairing::kUnpaired) {
      const TraceEvent& start = events[slices.opened_by[i]];
      w.begin() << "{\"name\":\"" << slice_name(start.kind)
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << event_tid(start)
                << ",\"ts\":" << start.t << ",\"dur\":" << (e.t - start.t)
                << ",\"args\":{\"job\":" << e.job << ",\"task\":" << e.task
                << ",\"end\":\"" << kind_name(e.kind) << "\",\"locality\":"
                << start.detail << ",\"value\":" << format_double(e.value)
                << "}}";
      continue;
    }
    // Not a task end, or an end with no matching launch (e.g. trace enabled
    // mid-run): an instant event, so the record is not lost.
    write_instant(e);
  }

  // Attempts still running when collection stopped: surface as instants.
  for (const std::size_t idx : slices.open) write_instant(events[idx]);

  // Time-series gauges as Perfetto counter tracks.
  for (const TimeSeriesSample& s : trace.series().samples()) {
    w.begin() << "{\"name\":\"backlog\",\"ph\":\"C\",\"pid\":1,\"ts\":"
              << s.t << ",\"args\":{\"pending_maps\":" << s.pending_maps
              << ",\"pending_reduces\":" << s.pending_reduces
              << ",\"running\":" << s.running_tasks << "}}";
    w.begin() << "{\"name\":\"slot_utilization\",\"ph\":\"C\",\"pid\":1,"
                 "\"ts\":" << s.t << ",\"args\":{\"util\":"
              << format_double(s.slot_utilization) << "}}";
    w.begin() << "{\"name\":\"budget_occupancy\",\"ph\":\"C\",\"pid\":1,"
                 "\"ts\":" << s.t << ",\"args\":{\"occupancy\":"
              << format_double(s.budget_occupancy) << "}}";
    w.begin() << "{\"name\":\"popularity_cv\",\"ph\":\"C\",\"pid\":1,"
                 "\"ts\":" << s.t << ",\"args\":{\"cv\":"
              << format_double(s.popularity_cv) << "}}";
  }

  out << "\n  ]\n}\n";
}

void write_events_csv(const TraceCollector& trace, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"t_us", "kind", "node", "job", "task", "detail", "value"});
  for (const TraceEvent& e : trace.events()) {
    csv.row({std::to_string(e.t), kind_name(e.kind),
             std::to_string(e.node), std::to_string(e.job),
             std::to_string(e.task), std::to_string(e.detail),
             format_double(e.value)});
  }
}

}  // namespace dare::obs
