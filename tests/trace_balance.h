// Slice balance of a traced run's task attempts, by the pairing rule the
// Chrome-trace exporter uses (obs::pair_task_slices): every map and reduce
// attempt ends with exactly one closing event. A slice left open renders in
// Perfetto as an attempt that runs to the end of the trace; an unpaired end
// renders as a stray instant.
#pragma once

#include <sstream>
#include <string>

#include "obs/trace_collector.h"
#include "obs/trace_export.h"

namespace dare::obs::testing {

/// The launches `trace` never ends and the ends that close no launch, one
/// line each ("reduce_launched node N job J task T at T us never ended");
/// empty when every launch has exactly one end.
inline std::string unbalanced_task_slices(const TraceCollector& trace) {
  const auto& events = trace.events();
  const SlicePairing pairing = pair_task_slices(events);
  std::ostringstream out;
  const auto describe = [&](std::size_t i, const char* what) {
    const TraceEvent& e = events[i];
    out << kind_name(e.kind) << " node " << e.node << " job " << e.job
        << " task " << e.task << " at " << e.t << " us " << what << '\n';
  };
  for (const std::size_t i : pairing.open) describe(i, "never ended");
  for (const std::size_t i : pairing.unpaired_ends) {
    describe(i, "closed nothing");
  }
  return out.str();
}

}  // namespace dare::obs::testing
