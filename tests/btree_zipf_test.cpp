// Duplicate-heavy (Zipf) insert workloads on the tree's ordinary insert
// paths: Alg. 1 over sorted leaves (v1) and over fingerprint leaves (v2,
// DESIGN.md §15). Datalog re-derives the same tuples over and over, so most
// inserts into a hot relation end on the duplicate check of a few hot leaves.
//
// Every run is checked against a std::set / std::multiset oracle: each insert
// verdict, the final size, byte-identical iteration and check_invariants —
// sequentially at BlockSize 3/4/5/default, and with racing writers, clean and
// under injected lease failures, leaf retries and stretched split windows.
// Compiled with DATATREE_METRICS (the 1-thread runs assert the restart
// counters: duplicates never split, and a single writer never conflicts) and
// DATATREE_FAILPOINTS (the injected storms; the sanitizer legs run them).

#include "core/btree.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace {

namespace fail = dtree::fail;
namespace metrics = dtree::metrics;
using metrics::Counter;

using Key = std::uint64_t;
using Cmp = dtree::ThreeWayComparator<Key>;
constexpr unsigned kDefaultB = dtree::detail::default_block_size<Key>();

template <unsigned B>
using Set = dtree::btree_set<Key, Cmp, B>;
template <unsigned B>
using Multi = dtree::btree_multiset<Key, Cmp, B>;
template <unsigned B>
using FpSet = dtree::fp_btree_set<Key, Cmp, B>;
template <unsigned B>
using FpMulti = dtree::fp_btree_multiset<Key, Cmp, B>;

class ZipfTest : public ::testing::Test {
public:
    void SetUp() override {
        fail::reset();
        metrics::reset();
    }
    void TearDown() override {
        fail::reset();
        metrics::reset();
    }

    /// Zipf ranks over a small universe, scattered across the key space
    /// (injective, so the distinct count is preserved) so hot keys live in
    /// distinct leaves.
    static std::vector<Key> zipf_sequence(std::size_t n, std::size_t keys,
                                          double s, std::uint64_t seed) {
        dtree::util::Zipf zipf(keys, s);
        dtree::util::Rng rng(seed);
        std::vector<Key> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(static_cast<Key>(zipf(rng)) * 2654435761ull);
        }
        return out;
    }
};

// -- sequential: one writer against the oracle --------------------------------

template <typename Tree>
void run_set_oracle(std::uint64_t seed) {
    const auto ops = ZipfTest::zipf_sequence(20000, 2000, 1.0, seed);
    Tree tree;
    std::set<Key> oracle;
    auto h = tree.create_hints();
    std::size_t dups = 0;
    for (Key k : ops) {
        const bool fresh = oracle.insert(k).second;
        dups += fresh ? 0 : 1;
        ASSERT_EQ(tree.insert(k, h), fresh) << "insert verdict on key " << k;
    }
    ASSERT_GT(dups, ops.size() / 2) << "the sequence is not duplicate-heavy";
    const std::string err = tree.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(tree.size(), oracle.size());
    const std::vector<Key> got(tree.begin(), tree.end());
    const std::vector<Key> want(oracle.begin(), oracle.end());
    EXPECT_EQ(got, want);
    for (Key k : oracle) ASSERT_TRUE(tree.contains(k, h)) << k;
    // A single writer never loses a lease or an upgrade: every restart is a
    // split restart, however many inserts ended on the duplicate check.
    EXPECT_EQ(metrics::value(Counter::btree_leaf_retries), 0u);
    EXPECT_GT(metrics::value(Counter::btree_split_restarts), 0u);
    EXPECT_EQ(metrics::value(Counter::btree_split_restarts),
              metrics::value(Counter::btree_leaf_splits));
}

TEST_F(ZipfTest, SetMatchesOracleBlock3) { run_set_oracle<Set<3>>(21); }
TEST_F(ZipfTest, SetMatchesOracleBlock4) { run_set_oracle<Set<4>>(22); }
TEST_F(ZipfTest, SetMatchesOracleBlock5) { run_set_oracle<Set<5>>(23); }
TEST_F(ZipfTest, SetMatchesOracleDefaultBlock) {
    run_set_oracle<Set<kDefaultB>>(24);
}
TEST_F(ZipfTest, FpSetMatchesOracleBlock3) { run_set_oracle<FpSet<3>>(25); }
TEST_F(ZipfTest, FpSetMatchesOracleDefaultBlock) {
    run_set_oracle<FpSet<kDefaultB>>(26);
}

template <typename Tree>
void run_multiset_oracle(std::uint64_t seed) {
    // A multiset inserts duplicates for real: every insert succeeds and the
    // hot keys' runs grow across leaf boundaries.
    const auto ops = ZipfTest::zipf_sequence(6000, 400, 1.1, seed);
    Tree tree;
    std::multiset<Key> oracle;
    auto h = tree.create_hints();
    for (Key k : ops) {
        oracle.insert(k);
        ASSERT_TRUE(tree.insert(k, h)) << "multiset refused key " << k;
    }
    const std::string err = tree.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(tree.size(), ops.size()) << "a multiset keeps every duplicate";
    const std::vector<Key> got(tree.begin(), tree.end());
    const std::vector<Key> want(oracle.begin(), oracle.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(metrics::value(Counter::btree_leaf_retries), 0u);
    EXPECT_GT(metrics::value(Counter::btree_split_restarts), 0u);
}

TEST_F(ZipfTest, MultisetMatchesOracleBlock3) {
    run_multiset_oracle<Multi<3>>(31);
}
TEST_F(ZipfTest, MultisetMatchesOracleBlock4) {
    run_multiset_oracle<Multi<4>>(32);
}
TEST_F(ZipfTest, MultisetMatchesOracleDefaultBlock) {
    run_multiset_oracle<Multi<kDefaultB>>(33);
}
TEST_F(ZipfTest, FpMultisetMatchesOracleBlock4) {
    run_multiset_oracle<FpMulti<4>>(34);
}

// Re-deriving a relation that is already complete is the common late
// fixpoint iteration: every insert must report a duplicate and leave the
// tree untouched — no split, no restart, no allocation.
template <typename Tree>
void run_complete_rederivation(std::uint64_t seed) {
    const auto ops = ZipfTest::zipf_sequence(20000, 2000, 1.0, seed);
    Tree tree;
    auto h = tree.create_hints();
    for (Key k : ops) tree.insert(k, h);
    const std::vector<Key> before(tree.begin(), tree.end());
    metrics::reset();
    for (Key k : ops) ASSERT_FALSE(tree.insert(k, h)) << k;
    const std::vector<Key> after(tree.begin(), tree.end());
    EXPECT_EQ(before, after);
    EXPECT_EQ(metrics::value(Counter::btree_leaf_splits), 0u);
    EXPECT_EQ(metrics::value(Counter::btree_split_restarts), 0u);
    EXPECT_EQ(metrics::value(Counter::btree_leaf_retries), 0u);
    EXPECT_EQ(metrics::value(Counter::alloc_leaf_nodes), 0u);
}

TEST_F(ZipfTest, CompleteRederivationChangesNothing) {
    run_complete_rederivation<Set<4>>(41);
}
TEST_F(ZipfTest, FpCompleteRederivationChangesNothing) {
    run_complete_rederivation<FpSet<4>>(42);
}

// -- racing writers: 4 threads against the 1-thread oracle ---------------------

template <typename Tree>
void run_concurrent_storm(std::uint64_t seed) {
    constexpr unsigned kThreads = 4;
    constexpr std::size_t kPerThread = 5000;
    std::vector<std::vector<Key>> input(kThreads);
    std::set<Key> oracle;
    for (unsigned t = 0; t < kThreads; ++t) {
        input[t] =
            ZipfTest::zipf_sequence(kPerThread, 512, 1.2, seed * 100 + t);
        oracle.insert(input[t].begin(), input[t].end());
    }

    Tree tree;
    dtree::util::parallel_blocks(
        kThreads, kThreads, [&](unsigned tid, std::size_t, std::size_t) {
            auto h = tree.create_hints();
            for (Key k : input[tid]) tree.insert(k, h);
        });

    const std::string err = tree.check_invariants();
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(tree.size(), oracle.size());
    const std::vector<Key> got(tree.begin(), tree.end());
    const std::vector<Key> want(oracle.begin(), oracle.end());
    ASSERT_EQ(got, want) << "racing inserts diverged from the set oracle";
}

TEST_F(ZipfTest, ConcurrentStormBlock3) { run_concurrent_storm<Set<3>>(51); }
TEST_F(ZipfTest, ConcurrentStormBlock4) { run_concurrent_storm<Set<4>>(52); }
TEST_F(ZipfTest, ConcurrentStormDefaultBlock) {
    run_concurrent_storm<Set<kDefaultB>>(53);
}
TEST_F(ZipfTest, FpConcurrentStormBlock4) {
    run_concurrent_storm<FpSet<4>>(54);
}

// leaf_retry and validate_fail keep the optimistic protocol failing on the
// hot leaves; split_delay stretches every split window while the other
// writers pile onto the same version words.
template <typename Tree>
void run_injected_storm(std::uint64_t seed) {
    fail::set_seed(seed);
    fail::set_probability(fail::Site::leaf_retry, 0.05);
    fail::set_probability(fail::Site::validate_fail, 0.02);
    fail::set_probability(fail::Site::split_delay, 0.25);
    fail::set_delay(fail::Site::split_delay, 300);
    run_concurrent_storm<Tree>(seed + 1);
    EXPECT_GT(fail::fires(fail::Site::leaf_retry), 0u);
    EXPECT_GT(fail::fires(fail::Site::validate_fail), 0u);
    EXPECT_GT(fail::fires(fail::Site::split_delay), 0u);
    EXPECT_GE(metrics::value(Counter::btree_leaf_retries),
              fail::fires(fail::Site::leaf_retry))
        << "every injected leaf retry is a conflict retry";
}

TEST_F(ZipfTest, InjectedStormStaysEquivalent) {
    run_injected_storm<Set<4>>(61);
}
TEST_F(ZipfTest, FpInjectedStormStaysEquivalent) {
    run_injected_storm<FpSet<4>>(62);
}

} // namespace
