// Unit tests for the stochastic fault model (src/faults/): parameter
// validation, distribution sanity, bit-reproducibility of the sampled
// schedules, and the episode-chain engine's one-pending-event rule.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "faults/episode_chain.h"
#include "faults/fault_model.h"
#include "sim/simulation.h"

namespace dare::faults {
namespace {

FaultInjectionParams typical() {
  FaultInjectionParams p;
  p.enabled = true;
  p.mtbf_s = 120.0;
  p.mttr_s = 30.0;
  p.permanent_fraction = 0.25;
  p.rack_correlation = 0.4;
  p.task_failure_prob = 0.05;
  return p;
}

TEST(FaultModel, RejectsNonPositiveMtbf) {
  Rng rng(1);
  auto p = typical();
  p.mtbf_s = 0.0;
  EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
  p.mtbf_s = -5.0;
  EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
  p.mtbf_s = std::nan("");
  EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
}

TEST(FaultModel, RejectsNonPositiveMttr) {
  Rng rng(1);
  auto p = typical();
  p.mttr_s = 0.0;
  EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
  p.mttr_s = std::nan("");
  EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
}

TEST(FaultModel, RejectsOutOfRangeProbabilities) {
  Rng rng(1);
  for (double bad : {-0.1, 1.5}) {
    auto p = typical();
    p.permanent_fraction = bad;
    EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
    p = typical();
    p.rack_correlation = bad;
    EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
    p = typical();
    p.task_failure_prob = bad;
    EXPECT_THROW(FaultProcess(p, rng), std::invalid_argument);
  }
}

TEST(FaultModel, UptimeIsPositiveWithMeanNearMtbf) {
  Rng rng(7);
  FaultProcess proc(typical(), rng);
  double sum_s = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const SimDuration up = proc.sample_uptime();
    ASSERT_GT(up, 0);
    sum_s += to_seconds(up);
  }
  const double mean = sum_s / kSamples;
  // Exponential with mean 120 s; 20k samples pin the estimate well within
  // +-10%.
  EXPECT_NEAR(mean, 120.0, 12.0);
}

TEST(FaultModel, FailureMixMatchesConfiguredFractions) {
  Rng rng(11);
  FaultProcess proc(typical(), rng);
  int permanent = 0;
  int correlated = 0;
  double downtime_sum_s = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const FailureSample s = proc.sample_failure();
    ASSERT_GT(s.downtime, 0);  // drawn (and clamped) for every kind
    if (s.kind == FaultKind::kPermanent) ++permanent;
    if (s.rack_correlated) ++correlated;
    downtime_sum_s += to_seconds(s.downtime);
  }
  EXPECT_NEAR(static_cast<double>(permanent) / kSamples, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(correlated) / kSamples, 0.4, 0.02);
  EXPECT_NEAR(downtime_sum_s / kSamples, 30.0, 3.0);
}

TEST(FaultModel, TaskFailureRateMatchesProbability) {
  Rng rng(13);
  FaultProcess proc(typical(), rng);
  int failures = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (proc.sample_task_failure()) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / kSamples, 0.05, 0.01);
}

TEST(FaultModel, SampledScheduleIsReproducible) {
  Rng a(99);
  Rng b(99);
  FaultProcess pa(typical(), a);
  FaultProcess pb(typical(), b);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(pa.sample_uptime(), pb.sample_uptime());
    const FailureSample fa = pa.sample_failure();
    const FailureSample fb = pb.sample_failure();
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.downtime, fb.downtime);
    EXPECT_EQ(fa.rack_correlated, fb.rack_correlated);
    EXPECT_EQ(pa.sample_task_failure(), pb.sample_task_failure());
  }
}

TEST(FaultModel, DrawSequenceIsKindIndependent) {
  // The downtime is drawn even for permanent failures, so the number of RNG
  // draws per sample_failure() call never depends on the sampled kind —
  // otherwise two runs diverging in one coin flip would desynchronize every
  // later draw. Verified indirectly: with permanent_fraction 0 vs 1, the
  // *downtime* streams must still be identical.
  auto p0 = typical();
  p0.permanent_fraction = 0.0;
  auto p1 = typical();
  p1.permanent_fraction = 1.0;
  Rng a(5);
  Rng b(5);
  FaultProcess pa(p0, a);
  FaultProcess pb(p1, b);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(pa.sample_failure().downtime, pb.sample_failure().downtime);
  }
}

// --- EpisodeChain -----------------------------------------------------------

/// A chain over `subjects` with a fixed 10 s uptime and 3 s episodes, live
/// while `live` is set. Records every onset and end time.
struct ChainFixture {
  explicit ChainFixture(std::size_t subjects = 1) {
    EpisodeChain::Hooks hooks;
    hooks.running = [this] { return live; };
    hooks.uptime = [this] {
      ++uptime_draws;
      return from_seconds(10.0);
    };
    hooks.onset = [this](std::size_t i) {
      onsets.push_back(sim.now());
      chain->begin(i, from_seconds(3.0));
    };
    hooks.ended = [this](std::size_t) { ends.push_back(sim.now()); };
    chain.emplace(sim, subjects, std::move(hooks));
  }

  sim::Simulation sim;
  bool live = true;
  int uptime_draws = 0;
  std::vector<SimTime> onsets;
  std::vector<SimTime> ends;
  std::optional<EpisodeChain> chain;
};

TEST(EpisodeChain, ScriptedBeginCancelsPendingOnset) {
  ChainFixture f;
  f.chain->arm(0);  // onset due at 10 s
  f.sim.at(from_seconds(2.0), [&f] {
    EXPECT_TRUE(f.chain->begin(0, from_seconds(3.0)));
  });
  f.sim.at(from_seconds(20.0), [&f] { f.live = false; });
  f.sim.run();
  // The 10 s onset never fired: the end at 5 s re-armed for 15 s, whose
  // episode ended at 18 s and armed an onset that found the run over.
  EXPECT_EQ(f.onsets, (std::vector<SimTime>{from_seconds(15.0)}));
  EXPECT_EQ(f.ends, (std::vector<SimTime>{from_seconds(5.0),
                                          from_seconds(18.0)}));
  EXPECT_FALSE(f.chain->active(0));
  EXPECT_EQ(f.sim.now(), from_seconds(28.0));
}

TEST(EpisodeChain, BeginWhileActiveIsAbsorbed) {
  ChainFixture f;
  EXPECT_TRUE(f.chain->begin(0, from_seconds(5.0)));
  EXPECT_FALSE(f.chain->begin(0, from_seconds(1.0)));
  EXPECT_TRUE(f.chain->active(0));
  EXPECT_TRUE(f.chain->consistent());
  f.sim.run();
  // One end, at the first episode's time. The chain was never armed, so
  // it is scripted-only and the end does not re-arm.
  EXPECT_EQ(f.ends, (std::vector<SimTime>{from_seconds(5.0)}));
  EXPECT_EQ(f.uptime_draws, 0);
  EXPECT_TRUE(f.chain->consistent());
}

TEST(EpisodeChain, EndRearmsOnceAndNotAfterTheRun) {
  ChainFixture f;
  f.chain->arm(0);
  f.sim.step();  // the onset at 10 s begins an episode
  ASSERT_TRUE(f.chain->active(0));
  f.sim.step();  // its end at 13 s re-arms once
  EXPECT_EQ(f.uptime_draws, 2);
  EXPECT_EQ(f.sim.pending_events(), 1u);
  EXPECT_TRUE(f.chain->consistent());

  f.sim.step();  // the onset at 23 s begins a new episode
  ASSERT_TRUE(f.chain->active(0));
  f.live = false;
  f.sim.step();  // its end at 26 s finds the run over
  EXPECT_EQ(f.uptime_draws, 2);
  EXPECT_EQ(f.sim.pending_events(), 0u);
}

TEST(EpisodeChain, CancelAllEmptiesTheQueue) {
  ChainFixture f(4);
  for (std::size_t i = 0; i < 4; ++i) f.chain->arm(i);
  EXPECT_TRUE(f.chain->begin(2, from_seconds(3.0)));
  EXPECT_EQ(f.sim.pending_events(), 4u);
  f.chain->cancel_all();
  EXPECT_EQ(f.sim.pending_events(), 0u);
  EXPECT_TRUE(f.chain->active(2));  // active subjects stay active
  f.sim.run();
  EXPECT_TRUE(f.onsets.empty());
  EXPECT_TRUE(f.ends.empty());
}

TEST(EpisodeChain, NoEndEpisodeStaysActiveWithNothingPending) {
  ChainFixture f;
  EXPECT_TRUE(f.chain->begin(0, EpisodeChain::kNoEnd));
  EXPECT_TRUE(f.chain->active(0));
  EXPECT_EQ(f.chain->active_count(), 1u);
  EXPECT_EQ(f.sim.pending_events(), 0u);
  EXPECT_TRUE(f.chain->consistent());
  f.chain->cancel_all();  // nothing to cancel: the subject stays active
  EXPECT_TRUE(f.chain->active(0));
  EXPECT_TRUE(f.chain->consistent());
  f.sim.run();
  EXPECT_TRUE(f.ends.empty());
  EXPECT_TRUE(f.chain->active(0));
}

TEST(EpisodeChain, NoEndBeginCancelsOnsetAndIsNeverRearmed) {
  ChainFixture f;
  f.chain->arm(0);  // onset due at 10 s
  f.sim.at(from_seconds(2.0), [&f] {
    EXPECT_TRUE(f.chain->begin(0, EpisodeChain::kNoEnd));
    EXPECT_FALSE(f.chain->begin(0, from_seconds(3.0)));  // absorbed
    EXPECT_TRUE(f.chain->consistent());
  });
  f.sim.at(from_seconds(40.0), [&f] { f.live = false; });
  f.sim.run();
  // The 10 s onset never fired, no end ever came, and the only uptime
  // drawn was the first arm's.
  EXPECT_TRUE(f.onsets.empty());
  EXPECT_TRUE(f.ends.empty());
  EXPECT_EQ(f.uptime_draws, 1);
  EXPECT_TRUE(f.chain->active(0));
  EXPECT_EQ(f.sim.now(), from_seconds(40.0));
}

}  // namespace
}  // namespace dare::faults
