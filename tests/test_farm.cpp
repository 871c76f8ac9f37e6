// Tests for the resumable experiment farm: grid expansion order, canonical
// item keys, journal round-trip/torn-tail handling, parallel-vs-serial
// determinism, and byte-identical resume of an interrupted sweep.
#include "cluster/farm.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "run_result_pattern.h"

namespace dare::cluster {
namespace {

/// A grid small enough for unit tests: 6 nodes, 25 jobs, 2 schedulers x
/// 2 policies = 4 items.
Config small_grid() {
  Config spec;
  spec.set("profile", "cct");
  spec.set("nodes", "6");
  spec.set("jobs", "25");
  spec.set("scheduler", "fifo,fair");
  spec.set("policy", "vanilla,elephant-trap");
  spec.set("seed", "7");
  spec.set("workload", "wl1");
  return spec;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(ExpandGrid, CartesianProductInSortedKeyOrder) {
  const auto items = expand_grid(small_grid());
  ASSERT_EQ(items.size(), 4u);
  // Axes iterate in sorted key order ("policy" < "scheduler") with the
  // last key varying fastest, regardless of spec insertion order.
  EXPECT_EQ(items[0].get_string("policy", ""), "vanilla");
  EXPECT_EQ(items[0].get_string("scheduler", ""), "fifo");
  EXPECT_EQ(items[1].get_string("policy", ""), "vanilla");
  EXPECT_EQ(items[1].get_string("scheduler", ""), "fair");
  EXPECT_EQ(items[2].get_string("policy", ""), "elephant-trap");
  EXPECT_EQ(items[2].get_string("scheduler", ""), "fifo");
  EXPECT_EQ(items[3].get_string("policy", ""), "elephant-trap");
  EXPECT_EQ(items[3].get_string("scheduler", ""), "fair");
  // Constant keys are carried into every item verbatim.
  for (const auto& item : items) {
    EXPECT_EQ(item.get_string("nodes", ""), "6");
    EXPECT_EQ(item.get_string("workload", ""), "wl1");
  }
}

TEST(ExpandGrid, SingleValuedSpecYieldsOneItem) {
  Config spec;
  spec.set("nodes", "8");
  spec.set("seed", "1");
  const auto items = expand_grid(spec);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].get_string("nodes", ""), "8");
}

TEST(CanonicalItemKey, InsertionOrderIndependent) {
  Config a;
  a.set("scheduler", "fifo");
  a.set("nodes", "6");
  a.set("policy", "vanilla");
  Config b;
  b.set("policy", "vanilla");
  b.set("scheduler", "fifo");
  b.set("nodes", "6");
  EXPECT_EQ(canonical_item_key(a), canonical_item_key(b));
  EXPECT_EQ(canonical_item_key(a), "nodes=6 policy=vanilla scheduler=fifo");
}

TEST(RunFarmItem, MatchesDirectRunOnce) {
  Config item;
  item.set("profile", "cct");
  item.set("nodes", "6");
  item.set("scheduler", "fifo");
  item.set("policy", "vanilla");
  item.set("seed", "7");
  item.set("workload", "wl1");
  item.set("jobs", "25");
  const auto farm_result = run_farm_item(item);
  // Same cluster options + same workload => identical fingerprint. wl_seed
  // defaults to 1 for wl1, matching standard_wl1's own default.
  const auto direct = run_once(
      paper_defaults(net::cct_profile(6), SchedulerKind::kFifo,
                     PolicyKind::kVanilla, 7),
      standard_wl1(6, 25, 1));
  EXPECT_EQ(metrics::fingerprint(farm_result), metrics::fingerprint(direct));
}

TEST(FarmRowMetric, RoundTripsAndRejectsUnknownColumns) {
  Config item;
  item.set("nodes", "6");
  item.set("jobs", "25");
  item.set("seed", "7");
  const auto result = run_farm_item(item);
  FarmResult fr;
  fr.row = make_farm_row(result);
  ASSERT_EQ(fr.row.values.size(), farm_columns().size());
  // The row's shortest-round-trip rendering parses back to the exact
  // double the simulation produced.
  EXPECT_EQ(fr.metric("locality"), result.locality);
  EXPECT_EQ(fr.metric("makespan_s"), to_seconds(result.makespan));
  EXPECT_THROW(fr.metric("no_such_column"), std::out_of_range);
}

TEST(FarmRow, CellsMatchRecordedRendering) {
  // One fixed RunResult, rendered as recorded: counts as integers, doubles
  // in shortest round-trip form, makespan in seconds.
  const std::vector<std::string> recorded = {
      "192214084086872.25",   "214651542487956.25",   "70883492012895.25",
      "16961078081214114695", "225272053343664.25",   "123319278474199.25",
      "316329.640875",        "17607919606364544389", "3803699646120526684",
      "38338355679401.25",    "7402939282923413757",  "18173249050952618845",
      "16721329332142396203", "3043448840220612828",  "18207801856027427778",
      "9950767167895201361",  "2147201545771130296",  "11721196221998064715",
      "16591132477669169503", "5668735737209392155",  "4342530714062270072",
      "8293736253533477231",  "14001704964719323350", "2408110376284969278",
      "10618781361927700308", "262672048242883.25",   "61188858438858.25"};
  EXPECT_EQ(make_farm_row(metrics::testing::patterned_result()).values,
            recorded);
}

TEST(Journal, LineRoundTripsIncludingEscapes) {
  JournalEntry entry;
  entry.key = "nodes=6 note=\"quoted\\slash\" policy=vanilla";
  entry.fingerprint = 0xdeadbeefcafef00dULL;
  entry.row.values.assign(farm_columns().size(), "0");
  entry.row.values[0] = "0.8571428571428571";
  const auto line = journal_line(entry);
  JournalEntry parsed;
  ASSERT_TRUE(parse_journal_line(line, &parsed));
  EXPECT_EQ(parsed.key, entry.key);
  EXPECT_EQ(parsed.fingerprint, entry.fingerprint);
  EXPECT_EQ(parsed.row.values, entry.row.values);
}

TEST(Journal, TruncatedPrefixesAllFailParse) {
  JournalEntry entry;
  entry.key = "nodes=6";
  entry.fingerprint = 42;
  entry.row.values.assign(farm_columns().size(), "1.5");
  const auto line = journal_line(entry);
  // Every proper prefix is a torn write and must be rejected, never
  // misparsed into a bogus entry.
  JournalEntry parsed;
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(parse_journal_line(line.substr(0, len), &parsed))
        << "prefix of length " << len << " parsed unexpectedly";
  }
  ASSERT_TRUE(parse_journal_line(line, &parsed));
}

TEST(Journal, ReadStopsAtTornTail) {
  const std::string path = temp_path("dare_farm_torn.jsonl");
  JournalEntry entry;
  entry.key = "nodes=6";
  entry.fingerprint = 1;
  entry.row.values.assign(farm_columns().size(), "2");
  const auto good = journal_line(entry);
  {
    std::ofstream out(path, std::ios::trunc);
    out << good << '\n' << good << '\n'
        << good.substr(0, good.size() / 2);  // torn final line
  }
  const auto entries = read_journal(path);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "nodes=6");
  std::remove(path.c_str());
  // Missing file: empty journal, not an error.
  EXPECT_TRUE(read_journal(path).empty());
}

TEST(ExperimentFarm, DuplicateItemKeysThrow) {
  Config item;
  item.set("nodes", "6");
  std::vector<Config> items = {item, item};
  EXPECT_THROW(ExperimentFarm farm(std::move(items)), std::invalid_argument);
}

TEST(ExperimentFarm, ParallelMatchesSerialFingerprints) {
  const auto items = expand_grid(small_grid());

  ExperimentFarm::Options serial_options;
  serial_options.threads = 1;
  serial_options.max_in_flight = 1;
  ExperimentFarm serial(items, serial_options);
  const auto serial_results = serial.run();

  ExperimentFarm::Options parallel_options;
  parallel_options.threads = 4;
  ExperimentFarm parallel(items, parallel_options);
  const auto parallel_results = parallel.run();

  ASSERT_EQ(serial_results.size(), items.size());
  ASSERT_EQ(parallel_results.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(serial_results[i].index, i);
    EXPECT_EQ(serial_results[i].key, canonical_item_key(items[i]));
    EXPECT_EQ(serial_results[i].fingerprint, parallel_results[i].fingerprint);
    EXPECT_EQ(serial_results[i].row.values, parallel_results[i].row.values);
    // Each item's result equals a standalone run of the same Config.
    EXPECT_EQ(serial_results[i].fingerprint,
              metrics::fingerprint(run_farm_item(items[i])));
  }

  std::ostringstream serial_csv, parallel_csv;
  ExperimentFarm::write_csv(serial_results, serial_csv);
  ExperimentFarm::write_csv(parallel_results, parallel_csv);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(ExperimentFarm, ResumeFromTruncatedJournalIsByteIdentical) {
  const std::string path = temp_path("dare_farm_resume.jsonl");
  std::remove(path.c_str());
  const auto items = expand_grid(small_grid());

  ExperimentFarm::Options options;
  options.threads = 2;
  options.journal_path = path;

  // Full run writes one journal line per item.
  ExperimentFarm full(items, options);
  const auto full_results = full.run();
  ASSERT_EQ(full_results.size(), 4u);
  for (const auto& result : full_results) {
    EXPECT_FALSE(result.from_journal);
  }

  // Simulate a kill after two completions: truncate the journal to its
  // first two lines.
  {
    std::ifstream in(path);
    std::string line1, line2;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line1)));
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line2)));
    std::ofstream out(path, std::ios::trunc);
    out << line1 << '\n' << line2 << '\n';
  }

  // Resume: two items replay from the journal, two run fresh.
  std::size_t replayed_progress = 0;
  options.progress = [&replayed_progress](std::size_t done, std::size_t) {
    if (replayed_progress == 0) replayed_progress = done;
  };
  ExperimentFarm resumed(items, options);
  const auto resumed_results = resumed.run();
  ASSERT_EQ(resumed_results.size(), 4u);
  EXPECT_EQ(replayed_progress, 2u);  // first progress call reports replays
  std::size_t from_journal = 0;
  for (const auto& result : resumed_results) {
    from_journal += result.from_journal ? 1 : 0;
  }
  EXPECT_EQ(from_journal, 2u);

  // Merged outputs are byte-identical to the uninterrupted run's.
  std::ostringstream full_csv, resumed_csv, full_json, resumed_json;
  ExperimentFarm::write_csv(full_results, full_csv);
  ExperimentFarm::write_csv(resumed_results, resumed_csv);
  ExperimentFarm::write_json(full_results, full_json);
  ExperimentFarm::write_json(resumed_results, resumed_json);
  EXPECT_EQ(full_csv.str(), resumed_csv.str());
  EXPECT_EQ(full_json.str(), resumed_json.str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dare::cluster
