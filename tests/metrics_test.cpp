// Metrics registry + JSON writer coverage. This target compiles with
// DATATREE_METRICS defined (per-target, see tests/CMakeLists.txt), so the
// real sharded registry is under test; every other test binary keeps the
// no-op macros. Single-TU binary: the per-target define is ODR-safe.

#include "core/btree.h"
#include "core/hints.h"
#include "util/json.h"
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using dtree::metrics::Counter;
namespace metrics = dtree::metrics;
namespace json = dtree::json;

// -- json::Writer ------------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndScalars) {
    std::ostringstream os;
    json::Writer w(os, /*pretty=*/false);
    w.begin_object();
    w.kv("name", "bench");
    w.kv("count", std::uint64_t{42});
    w.kv("ratio", 0.5);
    w.kv("ok", true);
    w.key("xs");
    w.begin_array();
    w.value(1).value(2).value(3);
    w.end_array();
    w.key("nothing");
    w.null();
    w.end_object();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(os.str(),
              "{\"name\":\"bench\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
              "\"xs\":[1,2,3],\"nothing\":null}\n");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
    EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json::escape("tab\there"), "tab\\there");
    EXPECT_EQ(json::escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    std::ostringstream os;
    json::Writer w(os, /*pretty=*/false);
    w.begin_array();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.value(1.5);
    w.end_array();
    EXPECT_EQ(os.str(), "[null,null,1.5]\n");
}

TEST(JsonWriter, PrettyOutputIsIndented) {
    std::ostringstream os;
    json::Writer w(os);
    w.begin_object();
    w.kv("a", 1);
    w.end_object();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}\n");
}

// -- metrics registry --------------------------------------------------------

TEST(Metrics, CompiledInAndCountable) {
    ASSERT_TRUE(metrics::enabled());
    metrics::reset();
    metrics::inc(Counter::btree_restarts);
    metrics::add(Counter::arena_bytes, 100);
    metrics::add(Counter::arena_bytes, 23);
    EXPECT_EQ(metrics::value(Counter::btree_restarts), 1u);
    EXPECT_EQ(metrics::value(Counter::arena_bytes), 123u);
    const auto snap = metrics::snapshot();
    EXPECT_EQ(snap[Counter::btree_restarts], 1u);
    EXPECT_EQ(snap[Counter::arena_bytes], 123u);
    EXPECT_EQ(snap[Counter::lock_write_spins], 0u);
    metrics::reset();
    EXPECT_EQ(metrics::value(Counter::arena_bytes), 0u);
}

TEST(Metrics, CounterNamesAreUniqueAndNamed) {
    std::set<std::string> names;
    for (unsigned i = 0; i < metrics::counter_count; ++i) {
        const std::string name = metrics::counter_name(static_cast<Counter>(i));
        EXPECT_NE(name, "?") << "counter " << i << " missing a name";
        EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
    }
}

TEST(Metrics, ConcurrentIncrementsAllLand) {
    metrics::reset();
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPer = 10000;
    std::vector<std::thread> team;
    for (unsigned t = 0; t < kThreads; ++t) {
        team.emplace_back([] {
            for (std::uint64_t i = 0; i < kPer; ++i) {
                metrics::inc(Counter::lock_validations_failed);
            }
        });
    }
    for (auto& th : team) th.join();
    EXPECT_EQ(metrics::value(Counter::lock_validations_failed), kThreads * kPer);
    metrics::reset();
}

TEST(Metrics, ScopedTimerAccumulatesNanoseconds) {
    metrics::reset();
    {
        metrics::ScopedTimer timer(Counter::datalog_merge_ns);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(metrics::value(Counter::datalog_merge_ns), 1'000'000u);
    metrics::reset();
}

TEST(Metrics, SnapshotJsonContainsEveryCounter) {
    metrics::reset();
    metrics::add(Counter::btree_leaf_splits, 7);
    std::ostringstream os;
    json::Writer w(os, /*pretty=*/false);
    metrics::snapshot().write_json(w);
    EXPECT_TRUE(w.complete());
    const std::string out = os.str();
    for (unsigned i = 0; i < metrics::counter_count; ++i) {
        EXPECT_NE(out.find(metrics::counter_name(static_cast<Counter>(i))),
                  std::string::npos);
    }
    EXPECT_NE(out.find("\"btree_leaf_splits\":7"), std::string::npos);
    metrics::reset();
}

// -- instrumented layers ----------------------------------------------------

// HintStats mirrors every per-object hit/miss into the global hint_* block
// (laid out in HintKind order).
TEST(Metrics, HintStatsMirrorIntoRegistry) {
    metrics::reset();
    dtree::HintStats s;
    s.hit(dtree::HintKind::Insert);
    s.hit(dtree::HintKind::Upper);
    s.miss(dtree::HintKind::Contains);
    EXPECT_EQ(metrics::value(Counter::hint_hits_insert), 1u);
    EXPECT_EQ(metrics::value(Counter::hint_hits_upper), 1u);
    EXPECT_EQ(metrics::value(Counter::hint_misses_contains), 1u);
    EXPECT_EQ(metrics::value(Counter::hint_hits_contains), 0u);
    metrics::reset();
}

// Driving a small-node tree through enough inserts must light up the split,
// root-replacement, and allocation counters.
TEST(Metrics, BTreeSplitsAreCounted) {
    metrics::reset();
    dtree::btree_set<std::uint64_t, dtree::ThreeWayComparator<std::uint64_t>, 3> t;
    auto h = t.create_hints();
    for (std::uint64_t i = 0; i < 200; ++i) t.insert(i, h);
    EXPECT_GT(metrics::value(Counter::btree_leaf_splits), 0u);
    EXPECT_GT(metrics::value(Counter::btree_inner_splits), 0u);
    EXPECT_GT(metrics::value(Counter::btree_root_replacements), 0u);
    EXPECT_GT(metrics::value(Counter::alloc_leaf_nodes), 0u);
    EXPECT_GT(metrics::value(Counter::alloc_inner_nodes), 0u);
    EXPECT_GT(metrics::value(Counter::hint_hits_insert) +
                  metrics::value(Counter::hint_misses_insert),
              0u);
    metrics::reset();
}

// btree_leaf_retries counts conflicts only: a single writer never loses a
// lease or an upgrade, so at 1 thread every leaf_insert restart is a split
// restart, on the sorted-leaf (v1) and the fingerprint-leaf (v2) paths alike.
template <typename Tree>
void check_single_writer_restarts() {
    std::vector<std::uint64_t> keys(20000);
    for (std::uint64_t i = 0; i < keys.size(); ++i) keys[i] = i * 7919;
    std::mt19937_64 rng(42);
    std::shuffle(keys.begin(), keys.end(), rng);
    metrics::reset();
    Tree t;
    auto h = t.create_hints();
    for (std::uint64_t k : keys) t.insert(k, h);
    EXPECT_EQ(metrics::value(Counter::btree_leaf_retries), 0u);
    EXPECT_GT(metrics::value(Counter::btree_split_restarts), 100u);
    // Each point-insert leaf split is followed by exactly one restart.
    EXPECT_EQ(metrics::value(Counter::btree_split_restarts),
              metrics::value(Counter::btree_leaf_splits));
    metrics::reset();
}

TEST(Metrics, SingleWriterRestartsAreSplitsNotRetries) {
    check_single_writer_restarts<dtree::btree_set<std::uint64_t>>();
    check_single_writer_restarts<dtree::fp_btree_set<std::uint64_t>>();
}

// The arena allocator reports chunk reservations and bytes served.
TEST(Metrics, ArenaAllocationIsCounted) {
    metrics::reset();
    dtree::arena_btree_set<std::uint64_t> t;
    auto h = t.create_hints();
    for (std::uint64_t i = 0; i < 1000; ++i) t.insert(i, h);
    EXPECT_GT(metrics::value(Counter::arena_chunks), 0u);
    EXPECT_GT(metrics::value(Counter::arena_bytes), 0u);
    metrics::reset();
}

} // namespace
