// Exporters for a collected trace.
//
//  * write_chrome_trace — Chrome trace-event JSON ("traceEvents" array),
//    loadable in chrome://tracing and https://ui.perfetto.dev. One timeline
//    track per worker node plus dedicated scheduler and namenode tracks;
//    task executions become duration ("X") slices by pairing launch and
//    finish/kill events, everything else is an instant ("i") event.
//    Timestamps are the events' simulation-time microseconds verbatim.
//
//  * write_events_csv — flat CSV of every event (one row each) for the
//    analysis library and ad-hoc tooling.
//
// Both exporters are deterministic functions of the collected events: two
// traced runs of the same seed produce byte-identical output.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <vector>

#include "obs/trace_event.h"

namespace dare::obs {

class TraceCollector;

/// How a trace's task-attempt events pair into slices. Every attempt opens
/// a slice on its node's track (kMapLaunched, kMapSpeculated,
/// kCloneLaunched, kReduceLaunched) and every way it ends closes one
/// (kMapFinished, kMapKilled, kCloneKilled, kTaskAttemptFault,
/// kReduceFinished, kReduceRequeued), exactly once. Per (node, job, task,
/// map or reduce) an end closes the most recent open launch; an end with
/// nothing open (the trace was enabled mid-run) pairs with nothing.
struct SlicePairing {
  static constexpr std::size_t kUnpaired =
      std::numeric_limits<std::size_t>::max();
  /// Per event: the index of the launch it closes, or kUnpaired.
  std::vector<std::size_t> opened_by;
  /// Launches no end closed, ordered by slice key, then launch order.
  std::vector<std::size_t> open;
  /// Ends that closed no launch, in trace order.
  std::vector<std::size_t> unpaired_ends;
};

SlicePairing pair_task_slices(const std::vector<TraceEvent>& events);

void write_chrome_trace(const TraceCollector& trace, std::ostream& out);

void write_events_csv(const TraceCollector& trace, std::ostream& out);

}  // namespace dare::obs
