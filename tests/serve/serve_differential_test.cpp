// The §5k acceptance matrix: a ServeTable maintained by N delta-applies
// must be field-for-field identical to a fresh fused rebuild over the
// same prefix of rows — after EVERY apply, at {1,2,4,8} threads
// (honoured exactly, so low-core CI still shards), from store inputs and
// from a persisted per-day snapshot chain. Also pins the day-window
// publication: version N's day_window equals a fresh RowWindow snapshot
// over day N's rows, and prev_window chains from version N-1.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "analysis/input.h"
#include "corpus/snapshot.h"
#include "serve/serve_table.h"

#include "serve_test_util.h"

namespace scent::serve {
namespace {

using test::append_day;
using test::expect_same_table;
using test::kTsan;
using test::make_bgp;

struct DayCorpus {
  core::ObservationStore store;
  std::vector<std::size_t> day_begin;  ///< day_begin[d] .. day_begin[d+1]
};

DayCorpus make_day_corpus(std::uint64_t seed, std::size_t days,
                          std::size_t rows_per_day) {
  DayCorpus corpus;
  for (std::size_t day = 0; day < days; ++day) {
    corpus.day_begin.push_back(corpus.store.size());
    append_day(corpus.store, seed, static_cast<std::int64_t>(day),
               rows_per_day);
  }
  corpus.day_begin.push_back(corpus.store.size());
  return corpus;
}

TEST(ServeDifferential, DeltaChainMatchesFreshRebuildAtEveryDay) {
  const std::size_t days = kTsan ? 10 : 30;
  const std::size_t rows_per_day = kTsan ? 300 : 1000;
  const std::vector<unsigned> thread_counts =
      kTsan ? std::vector<unsigned>{2, 8}
            : std::vector<unsigned>{1, 2, 4, 8};

  const routing::BgpTable bgp = make_bgp();
  const DayCorpus corpus = make_day_corpus(0xD1FF, days, rows_per_day);

  for (const unsigned threads : thread_counts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ServeOptions options;
    options.bgp = &bgp;
    options.threads = threads;
    ServeTable table{options};

    core::Snapshot::Map previous_day_map;
    for (std::size_t day = 0; day < days; ++day) {
      SCOPED_TRACE(testing::Message() << "day=" << day);
      const std::size_t begin = corpus.day_begin[day];
      const std::size_t end = corpus.day_begin[day + 1];
      table.apply(analysis::StoreInput{corpus.store, begin, end},
                  static_cast<std::int64_t>(day));

      const auto version = table.current();
      ASSERT_NE(version, nullptr);
      EXPECT_EQ(version->version, day + 1);

      // Fresh rebuild over the same prefix — always serial, so this also
      // asserts cross-thread-count equality of the maintained state.
      analysis::AnalysisOptions fresh_options;
      fresh_options.windows = {analysis::RowWindow{begin, end}};
      const analysis::AggregateTable fresh =
          analysis::analyze(analysis::StoreInput{corpus.store, 0, end}, &bgp,
                  fresh_options);
      analysis::AggregateTable fresh_no_windows = fresh;
      fresh_no_windows.window_snapshots.clear();
      expect_same_table(fresh_no_windows, version->table);

      ASSERT_EQ(fresh.window_snapshots.size(), 1u);
      EXPECT_EQ(version->day_window.map(), fresh.window_snapshots[0].map());
      EXPECT_EQ(version->prev_window.map(), previous_day_map);
      previous_day_map = version->day_window.map();
    }
  }
}

struct TempDir {
  std::string path;
  std::vector<std::string> files;
  TempDir() { path = ::testing::TempDir(); }
  ~TempDir() {
    for (const auto& f : files) std::remove(f.c_str());
  }
  std::string next(std::size_t i) {
    files.push_back(path + "/scent_serve_chain_" +
                    std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                    "_" + std::to_string(i) + ".snap");
    return files.back();
  }
};

TEST(ServeDifferential, ChainInputDeltasMatchStoreDeltas) {
  const std::size_t days = kTsan ? 6 : 12;
  const std::size_t rows_per_day = kTsan ? 250 : 600;
  const routing::BgpTable bgp = make_bgp();
  const DayCorpus corpus = make_day_corpus(0xC4A1, days, rows_per_day);

  // Persist each day as one snapshot file — the campaign's checkpoint
  // chain shape.
  TempDir dir;
  std::vector<std::string> paths;
  for (std::size_t day = 0; day < days; ++day) {
    corpus::SnapshotWriter writer;
    writer.append(
        corpus.store.view(corpus.day_begin[day], corpus.day_begin[day + 1]));
    paths.push_back(dir.next(day));
    ASSERT_TRUE(writer.write(paths.back()));
  }

  ServeOptions options;
  options.bgp = &bgp;
  options.threads = kTsan ? 8 : 4;
  ServeTable from_chain{options};
  ServeTable from_store{options};
  for (std::size_t day = 0; day < days; ++day) {
    from_chain.apply(analysis::ChainInput{{paths[day]}},
                     static_cast<std::int64_t>(day));
    from_store.apply(
        analysis::StoreInput{corpus.store, corpus.day_begin[day],
                             corpus.day_begin[day + 1]},
        static_cast<std::int64_t>(day));
  }

  const auto chain_version = from_chain.current();
  const auto store_version = from_store.current();
  ASSERT_NE(chain_version, nullptr);
  ASSERT_NE(store_version, nullptr);
  expect_same_table(store_version->table, chain_version->table);
  EXPECT_EQ(chain_version->day_window.map(),
            store_version->day_window.map());
  EXPECT_EQ(chain_version->prev_window.map(),
            store_version->prev_window.map());

  const analysis::AggregateTable fresh = analysis::analyze(corpus.store, &bgp);
  expect_same_table(fresh, chain_version->table);
}

}  // namespace
}  // namespace scent::serve
