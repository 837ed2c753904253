// Tests for the shared example CLI (examples/example_util.h), pinning the
// usage-error contract: a --threads= value that is not a plain decimal in
// [0, kMaxThreads], or an --out-dir that cannot be created, must make
// require_valid() return nonzero, so examples exit loudly instead of
// silently running with a different thread count or writing nothing. Every
// other numeric flag goes through the same bounded parse_decimal. The
// companion ctest entries (CliOutDirFailure.* and CliBadNumber.*,
// WILL_FAIL) hold each example binary to actually honoring it. The
// benches' --threads= / SCENT_THREADS parsing (bench/bench_util.h) goes
// through the same validator and exits with status 2 on a bad value.

#include "bench_util.h"
#include "example_util.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace scent::examples {
namespace {

Cli parse_args(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test"));
  for (std::string& a : args) argv.push_back(a.data());
  return Cli::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliExamples, SharedFlagsParse) {
  const Cli cli = parse_args({"--threads=8", "--trace-out=t.json"});
  EXPECT_EQ(cli.threads, 8u);
  EXPECT_TRUE(cli.threads_ok);
  EXPECT_EQ(cli.trace_out, "t.json");
  EXPECT_EQ(cli.out_dir, ".");
  EXPECT_TRUE(cli.out_dir_ok);
  EXPECT_EQ(cli.require_valid(), 0);
}

TEST(CliExamples, ThreadsAcceptOnlyPlainDecimalsUpToTheCap) {
  // Negative (strtoul would wrap it to 4294967295), non-numeric (strtoul
  // would read 0 = all cores), trailing junk, empty, and past kMaxThreads
  // (including a value that overflows 32 bits).
  for (const char* bad : {"-1", "abc", "4x", "", "99999999999", "1025"}) {
    const Cli cli = parse_args({std::string{"--threads="} + bad});
    EXPECT_FALSE(cli.threads_ok) << "--threads=" << bad;
    EXPECT_EQ(cli.require_valid(), 2) << "--threads=" << bad;
  }
  // 0 (hardware concurrency) and the cap itself are valid requests.
  for (const unsigned good : {0u, kMaxThreads}) {
    const Cli cli = parse_args({"--threads=" + std::to_string(good)});
    EXPECT_TRUE(cli.threads_ok) << "--threads=" << good;
    EXPECT_EQ(cli.threads, good);
    EXPECT_EQ(cli.require_valid(), 0);
  }
}

TEST(CliExamples, DecimalParserRejectsWhatStrtoulWouldMangle) {
  // "-1" wraps to 4294967295 (or 2^64-1) under strtoul, "" reads as 0,
  // "12x" reads as 12; each cap is exceeded by one.
  unsigned days = 6;
  for (const char* bad : {"-1", "", "12x", "3651", "+5", " 5", "5 "}) {
    EXPECT_FALSE(parse_decimal(bad, kMaxDays, days)) << '"' << bad << '"';
    EXPECT_EQ(days, 6u) << "out is untouched on failure";
  }
  std::uint64_t rows = 7;
  for (const char* bad : {"-1", "", "12x", "134217729",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_decimal(bad, std::uint64_t{8} << 24, rows)) << bad;
    EXPECT_EQ(rows, 7u);
  }
  long kill_day = -1;
  for (const char* bad : {"-1", "", "12x", "3651"}) {
    EXPECT_FALSE(parse_decimal(bad, long{kMaxDays}, kill_day)) << bad;
    EXPECT_EQ(kill_day, -1);
  }
  // The cap itself, zero and leading zeros are valid.
  ASSERT_TRUE(parse_decimal("3650", kMaxDays, days));
  EXPECT_EQ(days, kMaxDays);
  ASSERT_TRUE(parse_decimal("0", kMaxDays, days));
  EXPECT_EQ(days, 0u);
  ASSERT_TRUE(parse_decimal("0012", kMaxDays, days));
  EXPECT_EQ(days, 12u);
  ASSERT_TRUE(parse_decimal("134217728", std::uint64_t{8} << 24, rows));
  EXPECT_EQ(rows, std::uint64_t{8} << 24);
  // A cap at the type's maximum parses it exactly and rejects one more.
  std::uint64_t big = 0;
  ASSERT_TRUE(parse_decimal("18446744073709551615", UINT64_MAX, big));
  EXPECT_EQ(big, UINT64_MAX);
  EXPECT_FALSE(parse_decimal("18446744073709551616", UINT64_MAX, big));
}

TEST(CliExamples, FlagParserIgnoresOtherArgumentsAndRejectsBadValues) {
  unsigned query_threads = 2;
  EXPECT_TRUE(parse_flag("--days=-1", "--query-threads=", kMaxThreads,
                         query_threads));
  EXPECT_TRUE(parse_flag("--query-threads=8", "--query-threads=",
                         kMaxThreads, query_threads));
  EXPECT_EQ(query_threads, 8u);
  for (const char* bad : {"--query-threads=-1", "--query-threads=",
                          "--query-threads=12x", "--query-threads=1025"}) {
    EXPECT_FALSE(parse_flag(bad, "--query-threads=", kMaxThreads,
                            query_threads))
        << bad;
    EXPECT_EQ(query_threads, 8u);
  }
}

TEST(CliExamples, CreatesMissingOutDir) {
  const std::string dir = std::string{::testing::TempDir()} +
                          "/scent_cli_ok_" +
                          std::to_string(reinterpret_cast<std::uintptr_t>(&dir));
  const Cli cli = parse_args({"--out-dir=" + dir + "/nested"});
  EXPECT_TRUE(cli.out_dir_ok);
  EXPECT_EQ(cli.require_valid(), 0);
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/nested"));
  EXPECT_EQ(cli.path("x.tsv"), dir + "/nested/x.tsv");
  std::filesystem::remove_all(dir);
}

TEST(CliExamples, ExistingOutDirIsAccepted) {
  const Cli cli = parse_args({"--out-dir=" + std::string{::testing::TempDir()}});
  EXPECT_TRUE(cli.out_dir_ok);
  EXPECT_EQ(cli.require_valid(), 0);
}

TEST(CliExamples, UncreatableOutDirFailsLoudly) {
  // /dev/null is a file, so a directory can never be created beneath it.
  const Cli cli = parse_args({"--out-dir=/dev/null/sub"});
  EXPECT_FALSE(cli.out_dir_ok);
  EXPECT_EQ(cli.require_valid(), 2);
}

TEST(CliExamples, EmptyOutDirFallsBackToDot) {
  const Cli cli = parse_args({"--out-dir="});
  EXPECT_EQ(cli.out_dir, ".");
  EXPECT_TRUE(cli.out_dir_ok);
}

// ---- Bench thread requests -------------------------------------------------

/// `--threads=-1` wraps to 4294967295 under strtoul, `abc` reads as 0 (all
/// cores), and 4294967296 overflows 32 bits to 0.
constexpr const char* kBadThreadCounts[] = {"-1", "abc", "4294967296"};

bool bench_threads(const char* env, std::vector<std::string> args,
                   unsigned& threads, std::string& bad) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("bench"));
  for (std::string& a : args) argv.push_back(a.data());
  return bench::threads_request(env, static_cast<int>(argv.size()),
                                argv.data(), threads, bad);
}

TEST(CliBench, ThreadRequestsRejectWhatStrtoulWouldMangle) {
  for (const char* value : kBadThreadCounts) {
    unsigned threads = 1;
    std::string bad;
    EXPECT_FALSE(bench_threads(nullptr, {std::string{"--threads="} + value},
                               threads, bad))
        << value;
    EXPECT_EQ(bad, std::string{"--threads="} + value);
    EXPECT_FALSE(bench_threads(value, {}, threads, bad)) << value;
    EXPECT_EQ(bad, std::string{"SCENT_THREADS="} + value);
    EXPECT_EQ(threads, 1u);
  }
}

TEST(CliBench, ThreadRequestsFlagWinsOverEnvironment) {
  unsigned threads = 1;
  std::string bad;
  ASSERT_TRUE(bench_threads("0", {}, threads, bad));
  EXPECT_EQ(threads, 0u);
  ASSERT_TRUE(bench_threads("3", {"--threads=8"}, threads, bad));
  EXPECT_EQ(threads, 8u);
  // A valid flag does not excuse a bad environment value.
  EXPECT_FALSE(bench_threads("-1", {"--threads=8"}, threads, bad));
}

TEST(CliBenchDeathTest, BadThreadCountExitsWithStatus2) {
  for (const char* value : kBadThreadCounts) {
    std::string flag = std::string{"--threads="} + value;
    char* argv[] = {const_cast<char*>("bench"), flag.data()};
    EXPECT_EXIT(bench::parse_threads(2, argv), ::testing::ExitedWithCode(2),
                "is not a number")
        << flag;
    EXPECT_EXIT(
        {
          ::setenv("SCENT_THREADS", value, 1);
          bench::parse_threads(1, argv);
        },
        ::testing::ExitedWithCode(2), "SCENT_THREADS")
        << value;
  }
}

}  // namespace
}  // namespace scent::examples
