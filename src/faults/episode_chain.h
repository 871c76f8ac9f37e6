// One onset -> episode -> end renewal process per subject (a node or a
// rack); node churn, degraded nodes, rack partitions and degraded uplinks
// are four instances whose owner supplies the draws and side effects as
// hooks.
//
// Invariant: a subject holds at most one pending event — its onset while
// idle, its end while active (none for an episode without an end, a
// permanent loss). begin() cancels the pending onset before it schedules
// the end, so a scripted episode never orphans an onset, and an onset that
// starts no episode re-arms, so an armed chain never dies while the run is
// live. Draw order, fixed whatever the subject states:
//   arm:   uptime() -> schedule the onset
//   onset: running() -> onset(i) draws the episode and calls begin(); a
//          subject left idle re-arms (uptime())
//   end:   ended(i) -> running() -> re-arm (uptime())
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace dare::faults {

class EpisodeChain {
 public:
  struct Hooks {
    std::function<bool()> running;           ///< false once the run is over
    std::function<SimDuration()> uptime;     ///< time to an idle's onset
    std::function<void(std::size_t)> onset;  ///< a live onset fired
    /// Optional start effects, run by begin() before the subject turns
    /// active; returning false absorbs the begin.
    std::function<bool(std::size_t, SimDuration)> start = nullptr;
    std::function<void(std::size_t)> ended;  ///< the subject is idle again
  };

  /// Duration of an episode that never ends: its subject stays active, with
  /// no event pending, and is never re-armed.
  static constexpr SimDuration kNoEnd = kTimeNever;

  EpisodeChain(sim::Simulation& sim, std::size_t subjects, Hooks hooks);
  EpisodeChain(const EpisodeChain&) = delete;  // callbacks capture `this`
  EpisodeChain& operator=(const EpisodeChain&) = delete;

  /// Draw subject `i`'s uptime and schedule its onset. A chain never armed
  /// is scripted-only: its ends do not re-arm.
  void arm(std::size_t i);
  /// Start an episode on subject `i` now, lasting `duration` (or kNoEnd).
  /// Returns false and changes nothing when the run is over, the subject is
  /// active, or the start hook refuses.
  bool begin(std::size_t i, SimDuration duration);
  /// Cancel every pending event; active subjects stay active.
  void cancel_all() {
    for (auto& handle : event_) handle.cancel();
  }

  bool active(std::size_t i) const { return state_[i] != kIdle; }
  std::size_t active_count() const { return active_count_; }

  /// The one-pending-event rule, for a live run: an event is pending iff
  /// the subject is active with an end, or idle in an armed chain.
  bool consistent(std::size_t i) const {
    return event_[i].pending() ==
           (state_[i] == kEnding || (state_[i] == kIdle && armed_));
  }
  bool consistent() const {
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (!consistent(i)) return false;
    }
    return true;
  }

 private:
  /// Re-arm an eventless subject of a live armed chain, then audit it.
  void continue_chain(std::size_t i);

  enum State : std::uint8_t { kIdle, kEnding, kEndless };

  sim::Simulation* sim_;
  Hooks hooks_;
  bool armed_ = false;
  std::size_t active_count_ = 0;
  std::vector<State> state_;
  std::vector<sim::EventHandle> event_;
};

}  // namespace dare::faults
