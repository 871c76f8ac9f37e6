// Resumable experiment farm: expands a declarative parameter grid into
// deterministic, keyed work items, runs them as shared-nothing simulations
// on the common thread pool with bounded in-flight admission, journals
// every completion durably, and merges results in grid order.
//
// The design follows the SLASH2 update scheduler (doc/upsch.xdc): work is
// keyed per item, completed items are persisted immediately so a reboot
// resumes where it left off instead of redoing work, live status is
// observable while the sweep runs, and not all work needs to be in flight
// at once.
//
// Determinism contract: every item is a self-contained `Config` (cluster
// overrides plus the workload keys below), identified by its canonical
// key — the sorted `key=value` rendering of that Config. Simulations are
// single-threaded and seeded, so an item's RunResult (and therefore its
// metrics::fingerprint and formatted result row) is a pure function of its
// key. Merged CSV/JSON output is emitted in grid order, never completion
// order, so a resumed, killed-and-restarted, or differently-threaded sweep
// produces byte-identical merged output to an uninterrupted serial one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "common/config.h"
#include "metrics/run_metrics.h"

namespace dare::cluster {

/// Column schema of a farm result row: a fixed, ordered subset of the
/// run-metric table (metrics::metric_fields), by field name; a time field's
/// column is its name plus "_s" and holds seconds. Doubles are rendered
/// with format_double (shortest round-trip form), counters with
/// std::to_string, so a value parsed back from a journal is bit-identical
/// to the freshly computed one.
const std::vector<std::string>& farm_columns();

/// Item keys run_farm_item() recognizes beyond cluster::override_keys():
///   workload=wl1|wl2   jobs=<n>   wl_seed=<n>
/// (wl_seed defaults to 1 for wl1 and 2 for wl2, matching standard_wl*).
const std::vector<std::string>& farm_item_keys();

/// Canonical identity of a work item: its `key=value` pairs sorted by key
/// and joined with single spaces. Insertion order never matters.
std::string canonical_item_key(const Config& item);

/// Run one self-contained work item: paper_defaults + apply_overrides for
/// the cluster, standard_wl1/standard_wl2 for the workload, run_once for
/// the simulation. Unknown keys are ignored (same contract as
/// apply_overrides); malformed values for known keys throw.
metrics::RunResult run_farm_item(const Config& item);

/// One formatted result row, parallel to farm_columns().
struct FarmRow {
  std::vector<std::string> values;
};

FarmRow make_farm_row(const metrics::RunResult& result);

struct FarmResult {
  std::size_t index = 0;       ///< position in grid order
  std::string key;             ///< canonical_item_key of the item
  std::uint64_t fingerprint = 0;
  FarmRow row;
  bool from_journal = false;   ///< replayed, not re-run

  /// Numeric view of a row cell (std::from_chars — locale-independent and
  /// exact for round-trip forms). Throws std::out_of_range on an unknown
  /// column name.
  double metric(const std::string& column) const;
};

/// Expand a grid spec into work items. Every key whose raw value contains
/// commas is an axis (values in written order); single-valued keys are
/// constants. Axes iterate in sorted key order with the lexicographically
/// last key varying fastest — a deterministic grid order independent of
/// how the spec was written.
std::vector<Config> expand_grid(const Config& spec);

/// One journal record: `{"v":1,"key":"...","fingerprint":"%016x",
/// "row":["...",...]}` on a single line (JSONL).
struct JournalEntry {
  std::string key;
  std::uint64_t fingerprint = 0;
  FarmRow row;
};

std::string journal_line(const JournalEntry& entry);

/// Strict parse of one line; false on any malformation (wrong version,
/// truncated tail, row arity mismatch with farm_columns()).
bool parse_journal_line(const std::string& line, JournalEntry* out);

/// Replay a journal file. Tolerant of interruption artifacts: a missing
/// file yields an empty vector and parsing stops at the first malformed
/// (torn) line, discarding it and everything after.
std::vector<JournalEntry> read_journal(const std::string& path);

class ExperimentFarm {
 public:
  struct Options {
    /// Worker threads (0 -> hardware concurrency, min 1).
    std::size_t threads = 0;
    /// Bounded admission: at most this many items submitted but not yet
    /// completed (0 -> 2x the pool size). Keeps a huge grid from being
    /// enqueued all at once, upsch-style.
    std::size_t max_in_flight = 0;
    /// Completion journal. Empty disables journaling and resume. Appends
    /// are write-then-rename: the whole journal is rewritten to
    /// `<path>.tmp` and atomically renamed over `<path>`, so a kill at any
    /// instant leaves either the old or the new journal, never a torn one.
    std::string journal_path;
    /// Invoked after each item completes (journal append included) and
    /// once up front when a resume replays completed items. Same contract
    /// as run_parallel's SweepProgress (see experiment.h): may run
    /// concurrently, must not throw.
    SweepProgress progress;
  };

  /// Items run in the given (grid) order; each is canonicalized via
  /// canonical_item_key. Throws std::invalid_argument on duplicate keys —
  /// the journal could not tell such items apart.
  explicit ExperimentFarm(std::vector<Config> items);
  ExperimentFarm(std::vector<Config> items, Options options);

  const std::vector<Config>& items() const { return items_; }
  const std::vector<std::string>& keys() const { return keys_; }

  /// Run every item not already in the journal; replay the rest. Results
  /// are indexed in grid order regardless of completion order. The first
  /// exception thrown by an item (in grid order) is rethrown after all
  /// in-flight items finish.
  std::vector<FarmResult> run();

  /// Merged outputs, grid order. CSV columns: key, farm_columns...,
  /// fingerprint. JSON mirrors the same rows as an object array.
  static void write_csv(const std::vector<FarmResult>& results,
                        std::ostream& out);
  static void write_json(const std::vector<FarmResult>& results,
                         std::ostream& out);

 private:
  std::vector<Config> items_;
  std::vector<std::string> keys_;
  Options options_;
};

}  // namespace dare::cluster
