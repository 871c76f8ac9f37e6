// Slice balance of a traced run's map attempts. Every map attempt opens a
// slice on its node's track (kMapLaunched, kMapSpeculated, kCloneLaunched)
// and every way an attempt can end must close it (kMapFinished,
// kMapKilled, kCloneKilled, kTaskAttemptFault); a slice left open renders
// in Perfetto as an attempt that runs to the end of the trace.
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace_collector.h"

namespace dare::obs::testing {

/// The map slices `trace` leaves open, one line each ("node N job J map M
/// launched at T us"); empty when every slice closed. Pairs events the way
/// the Chrome-trace exporter does: per (node, job, map index), an end
/// closes the most recent open launch, and an end with nothing open (a
/// faulted clone's kCloneKilled after its kTaskAttemptFault) is ignored.
inline std::string open_map_slices(const TraceCollector& trace) {
  using Key = std::tuple<NodeId, JobId, std::int64_t>;
  std::map<Key, std::vector<SimTime>> open;
  for (const TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case EventKind::kMapLaunched:
      case EventKind::kMapSpeculated:
      case EventKind::kCloneLaunched:
        open[Key{e.node, e.job, e.task}].push_back(e.t);
        break;
      case EventKind::kMapFinished:
      case EventKind::kMapKilled:
      case EventKind::kCloneKilled:
      case EventKind::kTaskAttemptFault: {
        const auto it = open.find(Key{e.node, e.job, e.task});
        if (it != open.end() && !it->second.empty()) it->second.pop_back();
        break;
      }
      default:
        break;
    }
  }
  std::ostringstream out;
  for (const auto& [key, launches] : open) {
    for (const SimTime t : launches) {
      out << "node " << std::get<0>(key) << " job " << std::get<1>(key)
          << " map " << std::get<2>(key) << " launched at " << t << " us\n";
    }
  }
  return out.str();
}

}  // namespace dare::obs::testing
