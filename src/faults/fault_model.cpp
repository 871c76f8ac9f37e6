#include "faults/fault_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/distributions.h"

namespace dare::faults {

namespace {

// Negated comparisons so NaN (which fails every comparison) is rejected by
// the same branch as an out-of-range value.
void require_positive(double x, const char* field) {
  if (!(x > 0.0)) {
    throw std::invalid_argument(std::string(field) + " must be positive");
  }
}

void require_nonnegative(double x, const char* field) {
  if (!(x >= 0.0)) {
    throw std::invalid_argument(std::string(field) + " must be non-negative");
  }
}

void require_fraction(double p, const char* field) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string(field) + " must be in [0, 1]");
  }
}

void require_at_least(double x, double lo, const char* field) {
  if (!(x >= lo)) {
    throw std::invalid_argument(std::string(field) + " must be at least " +
                                std::to_string(static_cast<int>(lo)));
  }
}

/// validate_fault_params minus the worker-count floor FaultProcess lacks.
void validate_fault_fields(const FaultInjectionParams& params) {
  require_positive(params.mtbf_s, "FaultInjectionParams.mtbf_s");
  require_positive(params.mttr_s, "FaultInjectionParams.mttr_s");
  require_fraction(params.permanent_fraction,
                   "FaultInjectionParams.permanent_fraction");
  require_fraction(params.rack_correlation,
                   "FaultInjectionParams.rack_correlation");
  require_fraction(params.task_failure_prob,
                   "FaultInjectionParams.task_failure_prob");
}

}  // namespace

SimDuration episode_time(Rng& rng, double mean_s) {
  return std::max<SimDuration>(from_millis(1.0),
                               from_seconds(rng.exponential(1.0 / mean_s)));
}

void validate_fault_params(const FaultInjectionParams& params,
                           std::size_t worker_count) {
  validate_fault_fields(params);
  // The floor only bites when the injector actually runs; small test
  // clusters routinely carry the default floor with churn disabled.
  if (params.enabled && params.min_live_workers >= worker_count) {
    throw std::invalid_argument(
        "FaultInjectionParams.min_live_workers must be below the worker "
        "count (the injector could otherwise never fire)");
  }
}

void validate_corruption_params(const CorruptionParams& params) {
  require_nonnegative(params.bitrot_per_gb, "CorruptionParams.bitrot_per_gb");
  require_nonnegative(params.sector_mtbf_s, "CorruptionParams.sector_mtbf_s");
  if (params.enabled && !(params.bitrot_per_gb > 0.0) &&
      !(params.sector_mtbf_s > 0.0)) {
    throw std::invalid_argument(
        "CorruptionParams.enabled requires bitrot_per_gb or sector_mtbf_s "
        "to be positive");
  }
}

void validate_straggler_params(const StragglerParams& params) {
  require_positive(params.degrade_mtbf_s, "StragglerParams.degrade_mtbf_s");
  require_positive(params.degrade_duration_s,
                   "StragglerParams.degrade_duration_s");
  require_at_least(params.compute_slowdown, 1.0,
                   "StragglerParams.compute_slowdown");
  require_at_least(params.disk_slowdown, 1.0, "StragglerParams.disk_slowdown");
  require_fraction(params.rack_correlation,
                   "StragglerParams.rack_correlation");
  require_fraction(params.tail_prob, "StragglerParams.tail_prob");
  require_positive(params.tail_alpha, "StragglerParams.tail_alpha");
  // The Pareto lower bound is pinned at 1 (no deflation), so the cap must
  // sit strictly above it for the sampler to have any support.
  if (!(params.tail_cap > 1.0)) {
    throw std::invalid_argument(
        "StragglerParams.tail_cap must be greater than 1");
  }
  require_positive(params.tail_sigma, "StragglerParams.tail_sigma");
}

void validate_netfault_params(const NetworkFaultParams& params) {
  require_positive(params.partition_mtbf_s,
                   "NetworkFaultParams.partition_mtbf_s");
  require_positive(params.partition_duration_s,
                   "NetworkFaultParams.partition_duration_s");
  require_positive(params.link_degrade_mtbf_s,
                   "NetworkFaultParams.link_degrade_mtbf_s");
  require_positive(params.link_degrade_duration_s,
                   "NetworkFaultParams.link_degrade_duration_s");
  // A zero cut would stall every cross-rack transfer forever; degraded
  // links limp, partitions are what tears connectivity.
  require_positive(params.bandwidth_cut, "NetworkFaultParams.bandwidth_cut");
  require_fraction(params.bandwidth_cut, "NetworkFaultParams.bandwidth_cut");
  require_at_least(params.latency_inflation, 1.0,
                   "NetworkFaultParams.latency_inflation");
  require_nonnegative(params.connect_timeout_s,
                      "NetworkFaultParams.connect_timeout_s");
}

FaultProcess::FaultProcess(const FaultInjectionParams& params, Rng& parent)
    : params_(params), rng_(parent.fork()) {
  validate_fault_fields(params_);
}

FailureSample FaultProcess::sample_failure() {
  FailureSample sample;
  sample.kind = rng_.bernoulli(params_.permanent_fraction)
                    ? FaultKind::kPermanent
                    : FaultKind::kTransient;
  // Downtime is drawn for every failure so the draw sequence (and therefore
  // everything downstream) does not depend on the kind chosen above.
  sample.downtime = episode_time(rng_, params_.mttr_s);
  sample.rack_correlated = rng_.bernoulli(params_.rack_correlation);
  return sample;
}

bool FaultProcess::sample_task_failure() {
  return rng_.bernoulli(params_.task_failure_prob);
}

CorruptionProcess::CorruptionProcess(const CorruptionParams& params,
                                     Rng& parent)
    : params_(params), rng_(parent.fork()) {
  validate_corruption_params(params_);
}

bool CorruptionProcess::sample_read_corruption(Bytes bytes) {
  // P(at least one flipped bit over `bytes` scanned) under a Poisson rate of
  // bitrot_per_gb events per GB; expm1 keeps tiny rates exact.
  const double p =
      -std::expm1(-params_.bitrot_per_gb * static_cast<double>(bytes) / 1e9);
  return rng_.bernoulli(p);
}

double CorruptionProcess::pick_fraction() { return rng_.uniform(); }

StragglerProcess::StragglerProcess(const StragglerParams& params, Rng& parent)
    : params_(params), rng_(parent.fork()) {
  validate_straggler_params(params_);
}

DegradeSample StragglerProcess::sample_degrade() {
  DegradeSample sample;
  // Both fields are drawn on every call so the draw sequence (and therefore
  // everything downstream) never depends on how a sample is used.
  sample.duration = episode_time(rng_, params_.degrade_duration_s);
  sample.rack_correlated = rng_.bernoulli(params_.rack_correlation);
  return sample;
}

double StragglerProcess::sample_task_inflation() {
  const bool tail = rng_.bernoulli(params_.tail_prob);
  // The factor is drawn whether or not the coin hit (fixed draw count per
  // call; see sample_failure for the same rule on the churn stream).
  double factor;
  if (params_.tail_lognormal) {
    factor = std::clamp(Lognormal(0.0, params_.tail_sigma).sample(rng_), 1.0,
                        params_.tail_cap);
  } else {
    factor =
        BoundedPareto(1.0, params_.tail_cap, params_.tail_alpha).sample(rng_);
  }
  return tail ? factor : 1.0;
}

NetworkFaultProcess::NetworkFaultProcess(const NetworkFaultParams& params,
                                         Rng& parent)
    : params_(params), rng_(parent.fork()) {
  validate_netfault_params(params_);
}

}  // namespace dare::faults
