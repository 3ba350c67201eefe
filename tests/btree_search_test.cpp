// Search-policy equivalence suite (DESIGN.md §10): BinarySearch and, for
// dense scalar keys, SimdSearch must be observationally identical to
// LinearSearch — same lower_bound / upper_bound / contains answers, same
// iteration order — on sets and multisets, across tiny and default block
// sizes, on tuple keys with heavy first-column duplication and on scalar
// keys crossing the sign bit. Also pins the SIMD lane-width boundaries
// (partial final vector, exactly-one-vector, vector+scalar-tail node fills)
// against the scalar kernel on a standalone node, and which policy
// DefaultSearch picks per key shape.
//
// The Fp* tests extend the same equivalence contract to leaf layout v2
// (WithFingerprints, DESIGN.md §15): fingerprint membership + append-zone
// leaves must answer every query identically to the sorted v1 layout and
// iterate byte-for-byte the same, across sets/multisets, tiny and default
// blocks, append-zone boundary fills, and adversarial fingerprint-byte
// collisions (where every probe nominates slots that full-key verification
// must reject).
//
// Compiled with DATATREE_METRICS (per-target) so the suite can assert the
// vector kernel actually ran where the build/CPU support it, and that the
// fp_* counters tick exactly when the v2 policy is on.

#include "core/btree.h"
#include "core/tuple.h"
#include "util/metrics.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

namespace {

using dtree::Tuple;
using dtree::ThreeWayComparator;
namespace detail = dtree::detail;

using Point = Tuple<2>;

/// Key mix with heavy first-column duplication: ~16 tuples share each first
/// column, so in-node searches constantly resolve on the second element.
std::vector<Point> tie_heavy_points(std::size_t n, unsigned seed) {
    std::vector<Point> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(Point{i / 16, (i * 2654435761u) % 1024});
    }
    dtree::util::Rng rng(seed);
    std::shuffle(pts.begin(), pts.end(), rng);
    return pts;
}

std::vector<std::uint64_t> scalar_keys(std::size_t n, unsigned seed) {
    std::vector<std::uint64_t> ks;
    ks.reserve(n);
    // Include values with the top bit set: the AVX2 kernel orders unsigned
    // columns via a sign-bit flip, which this distribution exercises.
    for (std::size_t i = 0; i < n; ++i) {
        ks.push_back((i % 2 ? 0x8000000000000000ull : 0ull) | (i * 7919));
    }
    dtree::util::Rng rng(seed);
    std::shuffle(ks.begin(), ks.end(), rng);
    return ks;
}

// ---------------------------------------------------------------------------
// Cross-policy equivalence on full trees
// ---------------------------------------------------------------------------

/// Applies the same inserts to a LinearSearch v1 reference tree and to
/// `Tree`, and demands identical observable behaviour: insert verdicts,
/// sizes, byte-identical iteration, every probe's contains / lower_bound /
/// upper_bound answer by value, contains ≡ (find != end) on both trees, and
/// multiset duplicate-run widths.
template <typename Tree>
void check_against_linear(const std::vector<typename Tree::key_type>& keys,
                          const std::vector<typename Tree::key_type>& probes) {
    using Key = typename Tree::key_type;
    using C = ThreeWayComparator<Key>;
    constexpr bool Multi = Tree::allow_duplicates;
    using Ref = dtree::btree<Key, C, Tree::block_size, detail::LinearSearch,
                             dtree::ConcurrentAccess, Multi>;
    Ref ref;
    Tree t;
    auto hr = ref.create_hints();
    auto ht = t.create_hints();
    for (const auto& k : keys) {
        const bool rr = ref.insert(k, hr);
        const bool rt = t.insert(k, ht);
        ASSERT_EQ(rr, rt);
    }
    ASSERT_TRUE(ref.check_invariants().empty()) << ref.check_invariants();
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    ASSERT_EQ(ref.size(), t.size());

    // Iteration order must be byte-identical — also for v2's physically
    // unsorted leaves.
    std::vector<Key> seq_ref(ref.begin(), ref.end());
    std::vector<Key> seq_t(t.begin(), t.end());
    ASSERT_EQ(seq_ref, seq_t);

    C comp;
    auto value_at = [&](const auto& tree, auto it) {
        return it == tree.end() ? std::optional<Key>{} : std::optional<Key>{*it};
    };
    for (const auto& p : probes) {
        SCOPED_TRACE(::testing::Message() << "probe " << p);
        const bool hit = ref.contains(p, hr);
        ASSERT_EQ(hit, t.contains(p, ht));
        // The first-class contains() fast path must agree with the iterator
        // answer on both trees (the Relation/LocalView routing contract).
        ASSERT_EQ(hit, ref.find(p, hr) != ref.end());
        ASSERT_EQ(hit, t.find(p, ht) != t.end());
        ASSERT_EQ(value_at(ref, ref.lower_bound(p, hr)),
                  value_at(t, t.lower_bound(p, ht)));
        ASSERT_EQ(value_at(ref, ref.upper_bound(p, hr)),
                  value_at(t, t.upper_bound(p, ht)));
        // Duplicate-run boundaries: a multiset lower_bound must land on the
        // FIRST duplicate, so the distance to upper_bound equals the
        // multiplicity under every configuration.
        if constexpr (Multi) {
            const auto dr = std::distance(ref.lower_bound(p, hr),
                                          ref.upper_bound(p, hr));
            const auto dt = std::distance(t.lower_bound(p, ht),
                                          t.upper_bound(p, ht));
            ASSERT_EQ(dr, dt);
            const auto expect = std::count_if(
                seq_ref.begin(), seq_ref.end(),
                [&](const Key& k) { return comp.equal(k, p); });
            ASSERT_EQ(dt, expect);
        }
    }
}

template <typename Key, unsigned BlockSize, bool Multi, typename Search>
using PolicyTree = dtree::btree<Key, ThreeWayComparator<Key>, BlockSize,
                                Search, dtree::ConcurrentAccess, Multi>;

/// Every in-node search policy that can index Key answers like LinearSearch:
/// BinarySearch always, SimdSearch for dense scalar keys.
template <typename Key, unsigned BlockSize, bool Multi>
void check_policy_equivalence(const std::vector<Key>& keys,
                              const std::vector<Key>& probes) {
    check_against_linear<
        PolicyTree<Key, BlockSize, Multi, detail::BinarySearch>>(keys, probes);
    if constexpr (detail::SimdSearch::viable<Key, ThreeWayComparator<Key>>) {
        check_against_linear<
            PolicyTree<Key, BlockSize, Multi, detail::SimdSearch>>(keys,
                                                                   probes);
    }
}

template <typename Key>
std::vector<Key> probe_mix(const std::vector<Key>& keys) {
    std::vector<Key> probes;
    // Present keys, plus neighbours straddling them (absent, tie-adjacent).
    for (std::size_t i = 0; i < keys.size(); i += 7) {
        probes.push_back(keys[i]);
        Key below = keys[i];
        Key above = keys[i];
        if constexpr (std::is_same_v<Key, Point>) {
            below[1] = below[1] > 0 ? below[1] - 1 : 0;
            above[1] = above[1] + 1;
        } else {
            below = below > 0 ? below - 1 : 0;
            above = above + 1;
        }
        probes.push_back(below);
        probes.push_back(above);
    }
    return probes;
}

TEST(SearchEquivalence, TupleSetTinyBlocks) {
    const auto keys = tie_heavy_points(4000, 1);
    const auto probes = probe_mix(keys);
    check_policy_equivalence<Point, 3, false>(keys, probes);
    check_policy_equivalence<Point, 4, false>(keys, probes);
    check_policy_equivalence<Point, 5, false>(keys, probes);
}

TEST(SearchEquivalence, TupleSetDefaultBlock) {
    const auto keys = tie_heavy_points(6000, 2);
    check_policy_equivalence<Point, detail::default_block_size<Point>(), false>(
        keys, probe_mix(keys));
}

TEST(SearchEquivalence, TupleMultisetHeavyDuplicates) {
    auto keys = tie_heavy_points(1500, 3);
    // Triple every 5th key: genuine multiset duplicates on top of the
    // first-column ties.
    const std::size_t base = keys.size();
    for (std::size_t i = 0; i < base; i += 5) {
        keys.push_back(keys[i]);
        keys.push_back(keys[i]);
    }
    const auto probes = probe_mix(keys);
    check_policy_equivalence<Point, 3, true>(keys, probes);
    check_policy_equivalence<Point, detail::default_block_size<Point>(), true>(
        keys, probes);
}

TEST(SearchEquivalence, ScalarSetSignBitBoundary) {
    const auto keys = scalar_keys(4000, 4);
    const auto probes = probe_mix(keys);
    check_policy_equivalence<std::uint64_t, 3, false>(keys, probes);
    check_policy_equivalence<std::uint64_t,
                             detail::default_block_size<std::uint64_t>(), false>(
        keys, probes);
}

TEST(SearchEquivalence, ScalarMultiset) {
    auto keys = scalar_keys(1000, 5);
    const std::size_t base = keys.size();
    for (std::size_t i = 0; i < base; i += 3) keys.push_back(keys[i]);
    check_policy_equivalence<std::uint64_t, 4, true>(keys, probe_mix(keys));
}

// ---------------------------------------------------------------------------
// Lane-width boundaries on a standalone node
// ---------------------------------------------------------------------------

/// Fills a single node with n sorted keys and compares SimdSearch against
/// LinearSearch for every interesting probe. n sweeps across the AVX2 lane
/// boundaries (4 u64 lanes per vector): below one vector, exactly one/two
/// vectors, and one-past (vector + scalar tail).
template <typename Key, unsigned BlockSize>
void check_node_boundaries(unsigned n, const std::vector<Key>& sorted_keys) {
    ASSERT_LE(n, BlockSize);
    ASSERT_LE(n, sorted_keys.size());
    detail::Node<Key, BlockSize, dtree::SeqAccess> node(/*is_inner=*/false);
    for (unsigned i = 0; i < n; ++i) {
        node.template key_store<dtree::SeqAccess>(i, sorted_keys[i]);
    }
    node.num_elements.store(n);

    ThreeWayComparator<Key> comp;
    std::vector<Key> probes(sorted_keys.begin(), sorted_keys.begin() + n);
    probes.insert(probes.end(), sorted_keys.begin() + n, sorted_keys.end());
    for (const auto& p : probes) {
        const unsigned lo_ref = detail::LinearSearch::lower<dtree::SeqAccess>(
            node.keys, n, p, comp);
        const unsigned hi_ref = detail::LinearSearch::upper<dtree::SeqAccess>(
            node.keys, n, p, comp);
        const unsigned lo =
            detail::SimdSearch::lower_node<dtree::SeqAccess>(&node, n, p, comp);
        const unsigned hi =
            detail::SimdSearch::upper_node<dtree::SeqAccess>(&node, n, p, comp);
        ASSERT_EQ(lo, lo_ref) << "n=" << n << " probe " << p;
        ASSERT_EQ(hi, hi_ref) << "n=" << n << " probe " << p;
    }
}

TEST(SimdLaneBoundaries, ScalarU64) {
    std::vector<std::uint64_t> keys;
    // Duplicate-free ascending with sign-bit crossers.
    for (unsigned i = 0; i < 24; ++i) {
        keys.push_back(i * 3 + (i >= 12 ? 0x8000000000000000ull : 0));
    }
    for (unsigned n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u}) {
        check_node_boundaries<std::uint64_t, 24>(n, keys);
    }
}

// ---------------------------------------------------------------------------
// Leaf layout v2 equivalence (WithFingerprints, DESIGN.md §15)
// ---------------------------------------------------------------------------

/// The v2 tree under test: fingerprint leaves on top of SimdSearch where
/// the key is a dense scalar, else on the default search.
template <typename Key, unsigned BlockSize, bool Multi>
using FpTree = dtree::btree<
    Key, ThreeWayComparator<Key>, BlockSize,
    std::conditional_t<
        detail::SimdSearch::viable<Key, ThreeWayComparator<Key>>,
        detail::SimdSearch,
        detail::DefaultSearch<Key, ThreeWayComparator<Key>, BlockSize>>,
    dtree::ConcurrentAccess, Multi, /*WithSnapshots=*/false,
    /*WithFingerprints=*/true>;

template <typename Key, unsigned BlockSize, bool Multi>
void check_fp_equivalence(const std::vector<Key>& keys,
                          const std::vector<Key>& probes) {
    check_against_linear<FpTree<Key, BlockSize, Multi>>(keys, probes);
}

TEST(SearchEquivalence, FpTupleSetTinyBlocks) {
    const auto keys = tie_heavy_points(4000, 21);
    const auto probes = probe_mix(keys);
    check_fp_equivalence<Point, 3, false>(keys, probes);
    check_fp_equivalence<Point, 4, false>(keys, probes);
    check_fp_equivalence<Point, 5, false>(keys, probes);
}

TEST(SearchEquivalence, FpTupleSetDefaultBlock) {
    const auto keys = tie_heavy_points(6000, 22);
    check_fp_equivalence<Point, detail::default_block_size<Point>(), false>(
        keys, probe_mix(keys));
}

TEST(SearchEquivalence, FpTupleMultisetHeavyDuplicates) {
    auto keys = tie_heavy_points(1500, 23);
    const std::size_t base = keys.size();
    for (std::size_t i = 0; i < base; i += 5) {
        keys.push_back(keys[i]);
        keys.push_back(keys[i]);
    }
    const auto probes = probe_mix(keys);
    check_fp_equivalence<Point, 3, true>(keys, probes);
    check_fp_equivalence<Point, detail::default_block_size<Point>(), true>(
        keys, probes);
}

TEST(SearchEquivalence, FpScalarSetSignBitBoundary) {
    const auto keys = scalar_keys(4000, 24);
    const auto probes = probe_mix(keys);
    check_fp_equivalence<std::uint64_t, 3, false>(keys, probes);
    check_fp_equivalence<std::uint64_t,
                         detail::default_block_size<std::uint64_t>(), false>(
        keys, probes);
}

TEST(SearchEquivalence, FpScalarMultiset) {
    auto keys = scalar_keys(1000, 25);
    const std::size_t base = keys.size();
    for (std::size_t i = 0; i < base; i += 3) keys.push_back(keys[i]);
    check_fp_equivalence<std::uint64_t, 4, true>(keys, probe_mix(keys));
}

/// Append-zone boundary fills: fills that end exactly AT node capacity, one
/// past it (first split, consolidating the unsorted tail), and several nodes
/// deep — under ascending inserts (every append advances the sorted
/// watermark), descending inserts (every in-leaf insert lands in the tail),
/// and a zig-zag interleave. Contents and iteration are pinned against a
/// std::set oracle, and every present/absent probe is re-checked.
template <unsigned BlockSize>
void check_append_zone_fills(unsigned seed_base) {
    using Key = std::uint64_t;
    const std::size_t sizes[] = {BlockSize - 1, BlockSize,     BlockSize + 1,
                                 2 * BlockSize, 2 * BlockSize + 1,
                                 5 * BlockSize + 2};
    for (std::size_t n : sizes) {
        for (int pattern = 0; pattern < 3; ++pattern) {
            SCOPED_TRACE(::testing::Message()
                         << "BlockSize=" << BlockSize << " n=" << n
                         << " pattern=" << pattern << " seed=" << seed_base);
            FpTree<Key, BlockSize, false> t;
            auto h = t.create_hints();
            std::set<Key> oracle;
            for (std::size_t i = 0; i < n; ++i) {
                Key k = 0;
                switch (pattern) {
                case 0: k = 2 * i; break;              // ascending
                case 1: k = 2 * (n - 1 - i); break;    // descending
                default: k = (i % 2) ? 2 * (2 * n - i) : 2 * i; break;
                }
                ASSERT_EQ(t.insert(k, h), oracle.insert(k).second);
            }
            ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
            std::vector<Key> got(t.begin(), t.end());
            std::vector<Key> want(oracle.begin(), oracle.end());
            ASSERT_EQ(got, want);
            auto hq = t.create_hints();
            for (Key k : want) {
                ASSERT_TRUE(t.contains(k, hq)) << "present key " << k;
                ASSERT_FALSE(t.contains(k + 1, hq)) << "absent key " << k + 1;
            }
        }
    }
}

TEST(SearchEquivalence, FpAppendZoneBoundaryFills) {
    check_append_zone_fills<3>(31);
    check_append_zone_fills<4>(32);
    check_append_zone_fills<5>(33);
    check_append_zone_fills<detail::default_block_size<std::uint64_t>()>(34);
}

/// Adversarial fingerprint collisions: every key in the tree AND every probe
/// shares one fingerprint byte, so the byte-compare nominates slots on
/// every probe and full-key verification does all the rejecting. Answers
/// must stay exact and the false-hit counter must show the path ran.
TEST(SearchEquivalence, FpCollisionAdversarialScalar) {
    using Key = std::uint64_t;
    const std::uint8_t target = dtree::key_fingerprint<Key>(0);
    std::vector<Key> present, absent;
    for (Key k = 1; present.size() < 1500 || absent.size() < 1500; ++k) {
        ASSERT_LT(k, 4'000'000u) << "fingerprint byte is not well-spread";
        if (dtree::key_fingerprint(k) != target) continue;
        if (((present.size() + absent.size()) & 1) == 0) {
            present.push_back(k);
        } else {
            absent.push_back(k);
        }
    }
    dtree::util::Rng rng(41);
    std::shuffle(present.begin(), present.end(), rng);

    namespace metrics = dtree::metrics;
    metrics::reset();
    FpTree<Key, 4, false> tiny;
    FpTree<Key, detail::default_block_size<Key>(), false> big;
    auto ht = tiny.create_hints();
    auto hb = big.create_hints();
    for (Key k : present) {
        ASSERT_TRUE(tiny.insert(k, ht));
        ASSERT_TRUE(big.insert(k, hb));
    }
    ASSERT_TRUE(tiny.check_invariants().empty()) << tiny.check_invariants();
    ASSERT_TRUE(big.check_invariants().empty()) << big.check_invariants();
    for (Key k : present) {
        ASSERT_TRUE(tiny.contains(k, ht));
        ASSERT_TRUE(big.contains(k, hb));
    }
    for (Key k : absent) {
        ASSERT_FALSE(tiny.contains(k, ht)) << "false positive on " << k;
        ASSERT_FALSE(big.contains(k, hb)) << "false positive on " << k;
    }
    const auto snap = metrics::snapshot();
    EXPECT_GT(snap[metrics::Counter::fp_probes], 0u);
    EXPECT_GT(snap[metrics::Counter::fp_false_hits], 0u)
        << "colliding probes never nominated a non-matching slot";
}

/// Tuple flavour: colliding Tuple<2> keys exercise the FNV-combine hash and
/// the comparator-verified rejection on multi-column keys.
TEST(SearchEquivalence, FpCollisionAdversarialTuple) {
    const std::uint8_t target = dtree::key_fingerprint(Point{0, 0});
    std::vector<Point> present, absent;
    for (std::uint64_t x = 0;
         present.size() < 800 || absent.size() < 800; ++x) {
        ASSERT_LT(x, 20'000u) << "fingerprint byte is not well-spread";
        for (std::uint64_t y = 0; y < 64; ++y) {
            if (dtree::key_fingerprint(Point{x, y}) != target) continue;
            if (((present.size() + absent.size()) & 1) == 0) {
                present.push_back(Point{x, y});
            } else {
                absent.push_back(Point{x, y});
            }
        }
    }
    dtree::util::Rng rng(42);
    std::shuffle(present.begin(), present.end(), rng);

    FpTree<Point, 4, false> t;
    auto h = t.create_hints();
    for (const auto& p : present) ASSERT_TRUE(t.insert(p, h));
    ASSERT_TRUE(t.check_invariants().empty()) << t.check_invariants();
    for (const auto& p : present) ASSERT_TRUE(t.contains(p, h));
    for (const auto& p : absent) {
        ASSERT_FALSE(t.contains(p, h)) << "false positive on " << p;
    }
}

// ---------------------------------------------------------------------------
// Metrics: the vector kernel actually runs where supported
// ---------------------------------------------------------------------------

// SimdSearch indexes dense scalar keys only; DefaultSearch picks it for
// them at >= 256 B of keys per node and keeps tuple keys on the early-exit
// linear scan up to 768 B of keys, binary search beyond.
static_assert(detail::SimdSearch::viable<std::uint64_t,
                                         ThreeWayComparator<std::uint64_t>>);
static_assert(
    detail::SimdSearch::viable<Tuple<1>, ThreeWayComparator<Tuple<1>>>);
static_assert(!detail::search_policy_viable<detail::SimdSearch, Point,
                                            ThreeWayComparator<Point>>());
static_assert(!detail::search_policy_viable<detail::SimdSearch, Tuple<4>,
                                            ThreeWayComparator<Tuple<4>>>());
static_assert(std::is_same_v<detail::DefaultSearch<std::uint64_t>,
                             detail::SimdSearch>);
static_assert(
    std::is_same_v<detail::DefaultSearch<Point>, detail::LinearSearch>);
static_assert(std::is_same_v<
              detail::DefaultSearch<Point, ThreeWayComparator<Point>, 128>,
              detail::BinarySearch>);

TEST(SearchMetrics, SimdProbesCountedWhereSupported) {
    namespace metrics = dtree::metrics;
    metrics::reset();
    dtree::btree_set<std::uint64_t, ThreeWayComparator<std::uint64_t>, 32,
                     detail::SimdSearch>
        t;
    auto h = t.create_hints();
    for (const auto k : scalar_keys(2000, 8)) t.insert(k, h);
    for (const auto k : scalar_keys(2000, 8)) t.contains(k, h);
    const auto snap = metrics::snapshot();
    if (dtree::detail::simd::vector_active<std::uint64_t>()) {
        EXPECT_GT(snap[metrics::Counter::search_simd_probes], 0u);
    } else {
        EXPECT_EQ(snap[metrics::Counter::search_simd_probes], 0u);
        EXPECT_GT(snap[metrics::Counter::search_scalar_fallbacks], 0u);
    }
}

/// The fp_* counters must tick exactly when the v2 policy is compiled in:
/// a policy-off tree leaves all five at zero (the bit-identical-layout
/// contract scripts/bench.sh gates on), a v2 tree drives all of them.
TEST(SearchMetrics, FpCountersTickOnlyWithPolicyOn) {
    namespace metrics = dtree::metrics;
    using Key = std::uint64_t;
    const auto keys = scalar_keys(3000, 26);

    metrics::reset();
    {
        dtree::btree_set<Key> off; // v1: no fingerprint machinery anywhere
        auto h = off.create_hints();
        for (Key k : keys) off.insert(k, h);
        for (Key k : keys) {
            off.contains(k, h);
            off.contains(k + 1, h);
        }
    }
    auto snap = metrics::snapshot();
    EXPECT_EQ(snap[metrics::Counter::fp_probes], 0u);
    EXPECT_EQ(snap[metrics::Counter::fp_skips], 0u);
    EXPECT_EQ(snap[metrics::Counter::fp_false_hits], 0u);
    EXPECT_EQ(snap[metrics::Counter::append_inserts], 0u);
    EXPECT_EQ(snap[metrics::Counter::leaf_consolidations], 0u);

    metrics::reset();
    {
        dtree::fp_btree_set<Key> on;
        auto h = on.create_hints();
        for (Key k : keys) on.insert(k, h);
        for (Key k : keys) {
            on.contains(k, h);
            on.contains(k + 1, h); // mostly-miss probes: the fp_skips source
        }
    }
    snap = metrics::snapshot();
    EXPECT_GT(snap[metrics::Counter::fp_probes], 0u);
    EXPECT_GT(snap[metrics::Counter::fp_skips], 0u);
    EXPECT_GT(snap[metrics::Counter::append_inserts], 0u);
    EXPECT_GT(snap[metrics::Counter::leaf_consolidations], 0u)
        << "3000 random inserts must have split (and so consolidated) leaves";
}

} // namespace
