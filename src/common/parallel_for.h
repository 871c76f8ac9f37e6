// The one fan-out behind every parameter sweep.
//
// Parameter-sweep benches (Figs. 7-11) and the experiment farm run dozens
// of full cluster simulations; each simulation is single-threaded and
// deterministic, so sweeps parallelize across configurations, never within
// one simulation — reproducibility is preserved by construction.
#pragma once

#include <cstddef>
#include <functional>

namespace dare {

/// Apply `fn(i)` for every i in [0, n) on min(threads, n) fresh threads
/// (threads == 0 -> hardware concurrency, min 1). Threads claim indices in
/// ascending order from one shared counter, so a thread takes a new index
/// only when it is free: at most `threads` calls are in flight. Every call
/// finishes before parallel_for returns, even when some throw (`fn` and
/// the state it references must outlive no call); the exception from the
/// lowest index is then rethrown, so failure reports are deterministic.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace dare
