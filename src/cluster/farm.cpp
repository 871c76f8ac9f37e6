#include "cluster/farm.h"

#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <variant>

#include "common/csv.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace dare::cluster {

namespace {

std::string hex_fingerprint(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf);
}

/// Minimal JSON string escaping for journal fields: keys and formatted
/// numbers only ever contain printable ASCII, but a hostile config value
/// must not be able to break the line format.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Scanner for parse_journal_line: consume `expected` literally.
bool eat(const std::string& s, std::size_t& pos, const char* expected) {
  const std::size_t len = std::char_traits<char>::length(expected);
  if (s.compare(pos, len, expected) != 0) return false;
  pos += len;
  return true;
}

/// Parse a quoted, escaped JSON string starting at the opening quote.
bool eat_string(const std::string& s, std::size_t& pos, std::string* out) {
  if (pos >= s.size() || s[pos] != '"') return false;
  ++pos;
  out->clear();
  while (pos < s.size()) {
    const char c = s[pos];
    if (c == '"') {
      ++pos;
      return true;
    }
    if (c == '\\') {
      if (pos + 1 >= s.size()) return false;
      const char e = s[pos + 1];
      if (e == '"' || e == '\\') {
        out->push_back(e);
        pos += 2;
      } else if (e == 'u' && pos + 5 < s.size()) {
        unsigned code = 0;
        const auto res = std::from_chars(s.data() + pos + 2,
                                         s.data() + pos + 6, code, 16);
        if (res.ec != std::errc() || res.ptr != s.data() + pos + 6) {
          return false;
        }
        out->push_back(static_cast<char>(code));
        pos += 6;
      } else {
        return false;
      }
    } else {
      out->push_back(c);
      ++pos;
    }
  }
  return false;  // unterminated (torn) string
}

std::string trim_spaces(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// Serialized journal writer. Appends rewrite the whole journal to a temp
/// file and atomically rename it into place: a kill at any instant leaves
/// either the previous journal or the new one, never a torn line. The
/// rewrite is O(completed items) per append — grids are hundreds of items,
/// each costing a full cluster simulation, so durability wins over the
/// quadratic string copy.
struct JournalState {
  std::string path;
  Mutex mutex;
  std::vector<std::string> lines DARE_GUARDED_BY(mutex);

  void append(const JournalEntry& entry) {
    MutexLock lock(mutex);
    lines.push_back(journal_line(entry));
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) {
        throw std::runtime_error("ExperimentFarm: cannot write journal: " +
                                 tmp);
      }
      for (const auto& line : lines) out << line << '\n';
      out.flush();
      if (!out) {
        throw std::runtime_error("ExperimentFarm: journal write failed: " +
                                 tmp);
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("ExperimentFarm: journal rename failed: " +
                               path);
    }
  }
};

/// Formats one run-metric field by its kind: counts with std::to_string,
/// doubles with format_double, times as seconds with format_double.
struct CellFormatter {
  const metrics::RunResult& r;
  std::string operator()(std::uint64_t metrics::RunResult::*m) const {
    return std::to_string(r.*m);
  }
  std::string operator()(double metrics::RunResult::*m) const {
    return format_double(r.*m);
  }
  std::string operator()(SimTime metrics::RunResult::*m) const {
    return format_double(to_seconds(r.*m));
  }
};

/// The cell of farm column `column`: the run-metric table field of that
/// name, except that a time field's column carries an "_s" suffix
/// (`makespan_s` is `makespan`, in seconds).
std::string metric_cell(const metrics::RunResult& r,
                        const std::string& column) {
  for (const auto& field : metrics::metric_fields()) {
    const bool time =
        std::holds_alternative<SimTime metrics::RunResult::*>(field.member);
    if (column == (time ? std::string(field.name) + "_s" : field.name)) {
      return std::visit(CellFormatter{r}, field.member);
    }
  }
  throw std::logic_error("farm: column names no run metric: " + column);
}

}  // namespace

const std::vector<std::string>& farm_columns() {
  static const std::vector<std::string> columns = {
      "locality",
      "rack_locality",
      "gmtt_s",
      "gmtt_skipped_jobs",
      "mean_slowdown",
      "mean_map_time_s",
      "makespan_s",
      "dynamic_replicas_created",
      "dynamic_replica_disk_writes",
      "blocks_created_per_job",
      "node_failures",
      "failures_detected",
      "task_reexecutions",
      "rereplicated_blocks",
      "blocks_lost",
      "failed_jobs",
      "corrupt_reads",
      "replicas_quarantined",
      "data_loss_events",
      "unavailability_windows",
      "stragglers_detected",
      "speculative_launched",
      "speculative_wins",
      "clones_launched",
      "clone_wins",
      "cv_before",
      "cv_after",
  };
  return columns;
}

const std::vector<std::string>& farm_item_keys() {
  static const std::vector<std::string> keys = {"jobs", "wl_seed", "workload"};
  return keys;
}

std::string canonical_item_key(const Config& item) {
  std::string out;
  for (const auto& key : item.keys()) {  // Config::keys() is sorted
    if (!out.empty()) out.push_back(' ');
    out += key;
    out.push_back('=');
    out += item.get_string(key, "");
  }
  return out;
}

metrics::RunResult run_farm_item(const Config& item) {
  const ClusterOptions options = apply_overrides(
      paper_defaults(net::cct_profile(20), SchedulerKind::kFifo,
                     PolicyKind::kVanilla),
      item);
  const auto jobs = static_cast<std::size_t>(item.get_int("jobs", 500));
  const std::size_t nodes = options.profile.topology.nodes;
  const std::string wl = item.get_string("workload", "wl1");
  if (wl == "wl1") {
    const auto wl_seed =
        static_cast<std::uint64_t>(item.get_int("wl_seed", 1));
    return run_once(options, standard_wl1(nodes, jobs, wl_seed));
  }
  if (wl == "wl2") {
    const auto wl_seed =
        static_cast<std::uint64_t>(item.get_int("wl_seed", 2));
    return run_once(options, standard_wl2(nodes, jobs, wl_seed));
  }
  throw std::invalid_argument("run_farm_item: unknown workload: " + wl);
}

FarmRow make_farm_row(const metrics::RunResult& r) {
  FarmRow row;
  for (const auto& column : farm_columns()) {
    row.values.push_back(metric_cell(r, column));
  }
  return row;
}

double FarmResult::metric(const std::string& column) const {
  const auto& columns = farm_columns();
  for (std::size_t i = 0; i < columns.size() && i < row.values.size(); ++i) {
    if (columns[i] != column) continue;
    const std::string& cell = row.values[i];
    double value = 0.0;
    const auto res =
        std::from_chars(cell.data(), cell.data() + cell.size(), value);
    if (res.ec != std::errc() || res.ptr != cell.data() + cell.size()) {
      throw std::invalid_argument("FarmResult: cell '" + column +
                                  "' is not numeric: " + cell);
    }
    return value;
  }
  throw std::out_of_range("FarmResult: unknown column: " + column);
}

std::vector<Config> expand_grid(const Config& spec) {
  // Axis values in written order; axes themselves in sorted key order
  // (Config::keys() is sorted), last key varying fastest.
  std::vector<std::string> axis_keys;
  std::vector<std::vector<std::string>> axis_values;
  for (const auto& key : spec.keys()) {
    const std::string raw = spec.get_string(key, "");
    std::vector<std::string> values;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = raw.find(',', start);
      values.push_back(trim_spaces(raw.substr(start, comma - start)));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    axis_keys.push_back(key);
    axis_values.push_back(std::move(values));
  }

  std::vector<Config> items;
  std::vector<std::size_t> odometer(axis_keys.size(), 0);
  while (true) {
    Config item;
    for (std::size_t a = 0; a < axis_keys.size(); ++a) {
      item.set(axis_keys[a], axis_values[a][odometer[a]]);
    }
    items.push_back(std::move(item));
    // Advance the odometer, last axis fastest.
    std::size_t a = axis_keys.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < axis_values[a].size()) break;
      odometer[a] = 0;
      if (a == 0) return items;
    }
    if (axis_keys.empty()) return items;
  }
}

std::string journal_line(const JournalEntry& entry) {
  std::string out = "{\"v\":1,\"key\":\"" + json_escape(entry.key) +
                    "\",\"fingerprint\":\"" +
                    hex_fingerprint(entry.fingerprint) + "\",\"row\":[";
  for (std::size_t i = 0; i < entry.row.values.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('"');
    out += json_escape(entry.row.values[i]);
    out.push_back('"');
  }
  out += "]}";
  return out;
}

bool parse_journal_line(const std::string& line, JournalEntry* out) {
  std::size_t pos = 0;
  if (!eat(line, pos, "{\"v\":1,\"key\":")) return false;
  if (!eat_string(line, pos, &out->key)) return false;
  if (!eat(line, pos, ",\"fingerprint\":")) return false;
  std::string fp_hex;
  if (!eat_string(line, pos, &fp_hex)) return false;
  if (fp_hex.size() != 16) return false;
  std::uint64_t fp = 0;
  const auto res =
      std::from_chars(fp_hex.data(), fp_hex.data() + fp_hex.size(), fp, 16);
  if (res.ec != std::errc() || res.ptr != fp_hex.data() + fp_hex.size()) {
    return false;
  }
  out->fingerprint = fp;
  if (!eat(line, pos, ",\"row\":[")) return false;
  out->row.values.clear();
  if (pos < line.size() && line[pos] == ']') {
    ++pos;
  } else {
    while (true) {
      std::string cell;
      if (!eat_string(line, pos, &cell)) return false;
      out->row.values.push_back(std::move(cell));
      if (pos >= line.size()) return false;
      if (line[pos] == ',') {
        ++pos;
        continue;
      }
      if (line[pos] == ']') {
        ++pos;
        break;
      }
      return false;
    }
  }
  if (!eat(line, pos, "}")) return false;
  if (pos != line.size()) return false;
  return out->row.values.size() == farm_columns().size();
}

std::vector<JournalEntry> read_journal(const std::string& path) {
  std::vector<JournalEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;  // no journal yet: nothing to resume
  std::string line;
  while (std::getline(in, line)) {
    JournalEntry entry;
    // A malformed line means the tail was torn by an interrupted write;
    // everything after it is untrustworthy, so stop replaying there. (With
    // write-then-rename appends this should never trigger, but journals
    // edited or truncated by hand must still resume safely.)
    if (!parse_journal_line(line, &entry)) break;
    entries.push_back(std::move(entry));
  }
  return entries;
}

ExperimentFarm::ExperimentFarm(std::vector<Config> items)
    : ExperimentFarm(std::move(items), Options()) {}

ExperimentFarm::ExperimentFarm(std::vector<Config> items, Options options)
    : items_(std::move(items)), options_(std::move(options)) {
  keys_.reserve(items_.size());
  std::set<std::string> seen;
  for (const auto& item : items_) {
    std::string key = canonical_item_key(item);
    if (!seen.insert(key).second) {
      throw std::invalid_argument("ExperimentFarm: duplicate item key: " +
                                  key);
    }
    keys_.push_back(std::move(key));
  }
}

std::vector<FarmResult> ExperimentFarm::run() {
  const std::size_t total = items_.size();
  std::vector<FarmResult> results(total);

  JournalState journal;
  journal.path = options_.journal_path;
  std::map<std::string, JournalEntry> replayable;
  if (!journal.path.empty()) {
    for (auto& entry : read_journal(journal.path)) {
      // Keep every surviving line in the rewrite image — including entries
      // this grid does not recognize (e.g. a widened sweep resuming over an
      // older journal) — so resuming never discards completed work.
      journal.lines.push_back(journal_line(entry));
      std::string key = entry.key;
      replayable[std::move(key)] = std::move(entry);
    }
  }

  std::vector<std::size_t> todo;
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < total; ++i) {
    results[i].index = i;
    results[i].key = keys_[i];
    const auto it = replayable.find(keys_[i]);
    if (it != replayable.end()) {
      results[i].fingerprint = it->second.fingerprint;
      results[i].row = it->second.row;
      results[i].from_journal = true;
      ++replayed;
    } else {
      todo.push_back(i);
    }
  }
  if (options_.progress && replayed != 0) options_.progress(replayed, total);
  if (todo.empty()) return results;

  ThreadPool pool(options_.threads);
  const std::size_t cap =
      options_.max_in_flight != 0 ? options_.max_in_flight : 2 * pool.size();

  struct Admission {
    Mutex mutex;
    std::condition_variable_any cv;
    std::size_t in_flight DARE_GUARDED_BY(mutex) = 0;
    std::size_t finished DARE_GUARDED_BY(mutex) = 0;
  } adm;
  {
    MutexLock lock(adm.mutex);
    adm.finished = replayed;
  }

  std::vector<std::future<void>> futures;
  futures.reserve(todo.size());
  for (const std::size_t idx : todo) {
    {
      // Bounded admission: block until a slot frees up before submitting
      // the next item, so at most `cap` items are queued or running.
      UniqueMutexLock lock(adm.mutex);
      while (adm.in_flight >= cap) adm.cv.wait(lock);
      ++adm.in_flight;
    }
    futures.push_back(
        pool.submit([this, idx, total, &results, &adm, &journal] {
          try {
            const metrics::RunResult run = run_farm_item(items_[idx]);
            FarmResult result;
            result.index = idx;
            result.key = keys_[idx];
            result.fingerprint = metrics::fingerprint(run);
            result.row = make_farm_row(run);
            if (!journal.path.empty()) {
              journal.append({result.key, result.fingerprint, result.row});
            }
            // Distinct pre-sized slot per item: no lock needed, and the
            // futures' get() below synchronizes before results are read.
            results[idx] = std::move(result);
          } catch (...) {
            {
              MutexLock lock(adm.mutex);
              --adm.in_flight;
              ++adm.finished;
            }
            adm.cv.notify_all();
            throw;
          }
          std::size_t finished_now = 0;
          {
            MutexLock lock(adm.mutex);
            --adm.in_flight;
            finished_now = ++adm.finished;
          }
          adm.cv.notify_all();
          // Outside the lock; see the SweepProgress contract.
          if (options_.progress) options_.progress(finished_now, total);
        }));
  }

  // Wait for everything, then rethrow the first failure in grid order —
  // deterministic, like ThreadPool::parallel_for.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

void ExperimentFarm::write_csv(const std::vector<FarmResult>& results,
                               std::ostream& out) {
  CsvWriter csv(out);
  std::vector<std::string> header = {"key"};
  for (const auto& column : farm_columns()) header.push_back(column);
  header.push_back("fingerprint");
  csv.header(header);
  for (const auto& result : results) {
    std::vector<std::string> cells = {result.key};
    for (const auto& value : result.row.values) cells.push_back(value);
    cells.push_back(hex_fingerprint(result.fingerprint));
    csv.row(cells);
  }
}

void ExperimentFarm::write_json(const std::vector<FarmResult>& results,
                                std::ostream& out) {
  const auto& columns = farm_columns();
  out << "{\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FarmResult& result = results[i];
    out << "    {\"key\": \"" << json_escape(result.key)
        << "\", \"fingerprint\": \"" << hex_fingerprint(result.fingerprint)
        << "\", \"row\": {";
    for (std::size_t c = 0;
         c < columns.size() && c < result.row.values.size(); ++c) {
      if (c != 0) out << ", ";
      // Row cells are format_double / to_string renderings, i.e. valid
      // JSON numbers by construction — emitted unquoted.
      out << '"' << columns[c] << "\": " << result.row.values[c];
    }
    out << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace dare::cluster
