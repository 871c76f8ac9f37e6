#include "faults/episode_chain.h"

#include <string>
#include <utility>

#include "common/invariant.h"

namespace dare::faults {

EpisodeChain::EpisodeChain(sim::Simulation& sim, std::size_t subjects,
                           Hooks hooks)
    : sim_(&sim),
      hooks_(std::move(hooks)),
      state_(subjects, kIdle),
      event_(subjects) {}

void EpisodeChain::arm(std::size_t i) {
  DARE_INVARIANT(!event_[i].pending(),
                 "EpisodeChain: arm over a pending event doubles the chain");
  armed_ = true;
  event_[i] = sim_->after(hooks_.uptime(), [this, i] {
    if (hooks_.running()) hooks_.onset(i);
    continue_chain(i);
  });
}

bool EpisodeChain::begin(std::size_t i, SimDuration duration) {
  if (!hooks_.running() || state_[i] != kIdle) return false;
  if (hooks_.start && !hooks_.start(i, duration)) return false;
  event_[i].cancel();
  ++active_count_;
  if (duration == kNoEnd) {
    state_[i] = kEndless;
    return true;
  }
  state_[i] = kEnding;
  event_[i] = sim_->after(duration, [this, i] {
    state_[i] = kIdle;
    --active_count_;
    hooks_.ended(i);
    continue_chain(i);
  });
  return true;
}

void EpisodeChain::continue_chain(std::size_t i) {
  const bool live = hooks_.running();
  if (armed_ && live && state_[i] == kIdle && !event_[i].pending()) arm(i);
  DARE_INVARIANT(!live || consistent(i),
                 "EpisodeChain: subject " + std::to_string(i) +
                     " breaks the one-pending-event rule");
}

}  // namespace dare::faults
