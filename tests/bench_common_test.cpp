// Unit tests for the helpers every bench binary shares (bench/common.h):
// unknown-flag rejection and the tagging of oversubscribed thread counts in
// printed tables and JSON records.

#include "bench/common.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using dtree::util::Cli;
namespace bench = dtree::bench;

Cli make_cli(std::vector<std::string> args) {
    args.insert(args.begin(), "bench");
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    return Cli(static_cast<int>(argv.size()), argv.data());
}

/// The integers of the JSON array stored under `key` in `text`.
std::vector<unsigned> json_uint_array(const std::string& text,
                                      const std::string& key) {
    std::vector<unsigned> out;
    const auto at = text.find("\"" + key + "\"");
    if (at == std::string::npos) return out;
    const auto open = text.find('[', at);
    const auto close = text.find(']', open);
    std::istringstream is(text.substr(open + 1, close - open - 1));
    unsigned v = 0;
    char comma = 0;
    while (is >> v) {
        out.push_back(v);
        is >> comma;
    }
    return out;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// A misspelt flag is named and rejected; known flags and --json pass.
TEST(BenchCommon, RejectUnknownFlagsNamesEachOne) {
    const Cli ok = make_cli({"--threads=1", "--json=out.json"});
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::reject_unknown_flags(ok, {"threads", "scale"}));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    const Cli bad = make_cli({"--thread=1", "--scale=40", "--fast"});
    testing::internal::CaptureStderr();
    EXPECT_TRUE(bench::reject_unknown_flags(bad, {"threads", "scale"}));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown flag --thread\n"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown flag --fast\n"), std::string::npos) << err;
    EXPECT_EQ(err.find("unknown flag --scale"), std::string::npos) << err;
}

// Only counts above hardware_concurrency() carry the '*' mark.
TEST(BenchCommon, ThreadLabelsMarkOnlyOversubscribedCounts) {
    const unsigned hw = std::thread::hardware_concurrency();
    ASSERT_GT(hw, 0u);
    EXPECT_EQ(bench::thread_label(1), "1");
    EXPECT_EQ(bench::thread_label(hw), std::to_string(hw));
    EXPECT_EQ(bench::thread_label(hw + 1), std::to_string(hw + 1) + "*");
    EXPECT_EQ(bench::thread_labels({hw, 2 * hw}),
              (std::vector<std::string>{std::to_string(hw),
                                        std::to_string(2 * hw) + "*"}));
}

// The JSON config lists each oversubscribed count once, sorted, whatever
// the order and repetition of the sweeps that requested it; every point
// still runs.
TEST(BenchCommon, JsonReportListsOversubscribedThreads) {
    const unsigned hw = std::thread::hardware_concurrency();
    ASSERT_GT(hw, 0u);
    const std::string path =
        testing::TempDir() + "bench_common_oversubscribed.json";
    const Cli cli =
        make_cli({"--json=" + path, "--threads=1," + std::to_string(hw + 8) +
                                        "," + std::to_string(hw + 1)});
    bench::JsonReport report("bench_common_test", cli);
    EXPECT_EQ(report.thread_list(cli, {1, 2}),
              (std::vector<unsigned>{1, hw + 8, hw + 1}));
    report.note_threads({hw, hw + 1});
    ASSERT_TRUE(report.write());
    EXPECT_EQ(json_uint_array(slurp(path), "oversubscribed"),
              (std::vector<unsigned>{hw + 1, hw + 8}));

    // Noted, none oversubscribed: the key is present with an empty list.
    bench::JsonReport within("bench_common_test", make_cli({"--json=" + path}));
    within.note_threads({1, hw});
    ASSERT_TRUE(within.write());
    const std::string text = slurp(path);
    EXPECT_NE(text.find("\"oversubscribed\""), std::string::npos) << text;
    EXPECT_TRUE(json_uint_array(text, "oversubscribed").empty()) << text;
    std::remove(path.c_str());
}

} // namespace
