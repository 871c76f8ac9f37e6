// A RunResult with every scalar field set to a nonzero value derived from
// the field's name, so a field keeps its value when rows are added around
// it in the run-metric table. Shared by the digest and farm-row tests,
// whose recorded values assume exactly this pattern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <variant>

#include "metrics/run_metrics.h"

namespace dare::metrics::testing {

/// FNV-1a of a field name: the seed of that field's pattern value.
constexpr std::uint64_t name_seed(std::string_view name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Counts take the seed, doubles its top 48 bits plus 0.25 (exact), times
/// its top 40 bits in microseconds.
struct PatternValue {
  RunResult& r;
  std::uint64_t seed;
  void operator()(std::uint64_t RunResult::*m) const { r.*m = seed; }
  void operator()(double RunResult::*m) const {
    r.*m = static_cast<double>(seed >> 16) + 0.25;
  }
  void operator()(SimTime RunResult::*m) const {
    r.*m = static_cast<SimTime>(seed >> 24);
  }
};

/// Sets `field` of `r` to its pattern value.
inline void set_pattern(RunResult& r, const MetricField& field) {
  std::visit(PatternValue{r, name_seed(field.name)}, field.member);
}

/// Every table field set to its pattern value, except table index `skip`,
/// which stays zero.
inline RunResult patterned_result(
    std::size_t skip = std::numeric_limits<std::size_t>::max()) {
  RunResult r;
  const auto fields = metric_fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != skip) set_pattern(r, fields[i]);
  }
  return r;
}

}  // namespace dare::metrics::testing
