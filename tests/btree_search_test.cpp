// Search-policy equivalence suite (DESIGN.md §10): SimdSearch must be
// observationally identical to LinearSearch and BinarySearch — same
// lower_bound / upper_bound / contains answers, same iteration order — on
// sets and multisets, across tiny and default block sizes, under key
// distributions with heavy first-column duplication (the tie-range fallback
// path). Also pins the SIMD lane-width boundaries (partial final vector,
// exactly-one-vector, vector+scalar-tail node fills) against the scalar
// kernel on a standalone node, and checks the SoA first-column cache stays
// coherent through splits and insert_sorted_run.
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
/// column, so SimdSearch's tie-range comparator fallback runs constantly.
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

/// Instantiates the tree with each policy, applies the same inserts, and
/// compares every probe's lower_bound/upper_bound/contains answer *by value*
/// plus the full iteration order byte-for-byte.
template <typename Key, unsigned BlockSize, bool Multi>
void check_policy_equivalence(const std::vector<Key>& keys,
                              const std::vector<Key>& probes) {
    using C = ThreeWayComparator<Key>;
    using Lin = dtree::btree<Key, C, BlockSize, detail::LinearSearch,
                             dtree::ConcurrentAccess, Multi>;
    using Bin = dtree::btree<Key, C, BlockSize, detail::BinarySearch,
                             dtree::ConcurrentAccess, Multi>;
    using Simd = dtree::btree<Key, C, BlockSize, detail::SimdSearch,
                              dtree::ConcurrentAccess, Multi>;
    Lin lin;
    Bin bin;
    Simd simd;
    auto hl = lin.create_hints();
    auto hb = bin.create_hints();
    auto hs = simd.create_hints();
    for (const auto& k : keys) {
        const bool rl = lin.insert(k, hl);
        const bool rb = bin.insert(k, hb);
        const bool rs = simd.insert(k, hs);
        ASSERT_EQ(rl, rs);
        ASSERT_EQ(rb, rs);
    }
    ASSERT_TRUE(lin.check_invariants().empty()) << lin.check_invariants();
    ASSERT_TRUE(simd.check_invariants().empty()) << simd.check_invariants();
    ASSERT_EQ(lin.size(), simd.size());
    ASSERT_EQ(bin.size(), simd.size());

    // Iteration order must be byte-identical across policies.
    std::vector<Key> seq_lin(lin.begin(), lin.end());
    std::vector<Key> seq_bin(bin.begin(), bin.end());
    std::vector<Key> seq_simd(simd.begin(), simd.end());
    ASSERT_EQ(seq_lin, seq_simd);
    ASSERT_EQ(seq_bin, seq_simd);

    C comp;
    auto value_at = [&](const auto& tree, auto it) {
        return it == tree.end() ? std::optional<Key>{} : std::optional<Key>{*it};
    };
    for (const auto& p : probes) {
        SCOPED_TRACE(::testing::Message() << "probe " << p);
        ASSERT_EQ(lin.contains(p, hl), simd.contains(p, hs));
        ASSERT_EQ(bin.contains(p, hb), simd.contains(p, hs));
        ASSERT_EQ(value_at(lin, lin.lower_bound(p, hl)),
                  value_at(simd, simd.lower_bound(p, hs)));
        ASSERT_EQ(value_at(bin, bin.lower_bound(p, hb)),
                  value_at(simd, simd.lower_bound(p, hs)));
        ASSERT_EQ(value_at(lin, lin.upper_bound(p, hl)),
                  value_at(simd, simd.upper_bound(p, hs)));
        ASSERT_EQ(value_at(bin, bin.upper_bound(p, hb)),
                  value_at(simd, simd.upper_bound(p, hs)));
        // Duplicate-run boundaries: a multiset lower_bound must land on the
        // FIRST duplicate, so the distance to upper_bound equals the
        // multiplicity under every policy.
        if constexpr (Multi) {
            const auto dl = std::distance(lin.lower_bound(p, hl),
                                          lin.upper_bound(p, hl));
            const auto ds = std::distance(simd.lower_bound(p, hs),
                                          simd.upper_bound(p, hs));
            ASSERT_EQ(dl, ds);
            const auto expect = std::count_if(
                seq_simd.begin(), seq_simd.end(),
                [&](const Key& k) { return comp.equal(k, p); });
            ASSERT_EQ(ds, expect);
        }
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
    ASSERT_TRUE(node.column_in_sync());

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

TEST(SimdLaneBoundaries, TupleWithTies) {
    std::vector<Point> keys;
    // First columns repeat in pairs: every probe lands in a tie range.
    for (unsigned i = 0; i < 24; ++i) keys.push_back(Point{i / 2, i % 2});
    for (unsigned n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u}) {
        check_node_boundaries<Point, 24>(n, keys);
    }
}

// ---------------------------------------------------------------------------
// Column-cache coherence through structural churn
// ---------------------------------------------------------------------------

TEST(ColumnCache, CoherentAfterPointInsertSplits) {
    // BlockSize 3 maximises split frequency; check_invariants verifies
    // col_[i] == keys[i][0] on every node.
    dtree::btree_set<Point, ThreeWayComparator<Point>, 3, detail::SimdSearch> t;
    auto h = t.create_hints();
    for (const auto& p : tie_heavy_points(3000, 6)) t.insert(p, h);
    EXPECT_TRUE(t.check_invariants().empty()) << t.check_invariants();
}

TEST(ColumnCache, CoherentAfterSortedRunAndFromSorted) {
    auto pts = tie_heavy_points(5000, 7);
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

    using Tree =
        dtree::btree_set<Point, ThreeWayComparator<Point>, 4, detail::SimdSearch>;
    auto packed = Tree::from_sorted(pts.begin(), pts.end());
    EXPECT_TRUE(packed.check_invariants().empty()) << packed.check_invariants();
    EXPECT_EQ(packed.size(), pts.size());

    Tree merged;
    auto h = merged.create_hints();
    // Seed with every other key, then bulk-merge the full run on top so
    // leaf_fill_sorted exercises both fresh fills and in-place merges.
    for (std::size_t i = 0; i < pts.size(); i += 2) merged.insert(pts[i], h);
    const std::size_t fresh = merged.insert_sorted_run(pts.begin(), pts.end(), h);
    EXPECT_EQ(fresh, pts.size() - (pts.size() + 1) / 2);
    EXPECT_TRUE(merged.check_invariants().empty()) << merged.check_invariants();
    EXPECT_TRUE(std::equal(merged.begin(), merged.end(), pts.begin(), pts.end()));
}

// ---------------------------------------------------------------------------
// Leaf layout v2 equivalence (WithFingerprints, DESIGN.md §15)
// ---------------------------------------------------------------------------

/// The v2 tree under test: fingerprint leaves on top of the SimdSearch
/// kernel (the configuration `--fingerprints` selects everywhere).
template <typename Key, unsigned BlockSize, bool Multi>
using FpTree = dtree::btree<Key, ThreeWayComparator<Key>, BlockSize,
                            detail::SimdSearch, dtree::ConcurrentAccess, Multi,
                            /*WithSnapshots=*/false,
                            /*WithFingerprints=*/true>;

/// Applies the same inserts to a v1 reference tree and a v2 fingerprint tree
/// and demands identical observable behaviour: insert verdicts, sizes,
/// byte-identical iteration, every probe's contains / lower_bound /
/// upper_bound answer, contains ≡ (find != end) on BOTH trees, and multiset
/// duplicate-run widths.
template <typename Key, unsigned BlockSize, bool Multi>
void check_fp_equivalence(const std::vector<Key>& keys,
                          const std::vector<Key>& probes) {
    using C = ThreeWayComparator<Key>;
    using Ref = dtree::btree<Key, C, BlockSize, detail::LinearSearch,
                             dtree::ConcurrentAccess, Multi>;
    using Fp = FpTree<Key, BlockSize, Multi>;
    Ref ref;
    Fp fp;
    auto hr = ref.create_hints();
    auto hf = fp.create_hints();
    for (const auto& k : keys) {
        const bool rr = ref.insert(k, hr);
        const bool rf = fp.insert(k, hf);
        ASSERT_EQ(rr, rf);
    }
    ASSERT_TRUE(fp.check_invariants().empty()) << fp.check_invariants();
    ASSERT_EQ(ref.size(), fp.size());

    // v2's physically unsorted leaves must still ITERATE in sorted order,
    // byte-identical to the v1 layout.
    std::vector<Key> seq_ref(ref.begin(), ref.end());
    std::vector<Key> seq_fp(fp.begin(), fp.end());
    ASSERT_EQ(seq_ref, seq_fp);

    C comp;
    auto value_at = [&](const auto& tree, auto it) {
        return it == tree.end() ? std::optional<Key>{} : std::optional<Key>{*it};
    };
    for (const auto& p : probes) {
        SCOPED_TRACE(::testing::Message() << "probe " << p);
        const bool hit = ref.contains(p, hr);
        ASSERT_EQ(hit, fp.contains(p, hf));
        // The first-class contains() fast path must agree with the iterator
        // answer on both layouts (the Relation/LocalView routing contract).
        ASSERT_EQ(hit, ref.find(p, hr) != ref.end());
        ASSERT_EQ(hit, fp.find(p, hf) != fp.end());
        ASSERT_EQ(value_at(ref, ref.lower_bound(p, hr)),
                  value_at(fp, fp.lower_bound(p, hf)));
        ASSERT_EQ(value_at(ref, ref.upper_bound(p, hr)),
                  value_at(fp, fp.upper_bound(p, hf)));
        if constexpr (Multi) {
            const auto dr = std::distance(ref.lower_bound(p, hr),
                                          ref.upper_bound(p, hr));
            const auto df = std::distance(fp.lower_bound(p, hf),
                                          fp.upper_bound(p, hf));
            ASSERT_EQ(dr, df);
            const auto expect = std::count_if(
                seq_ref.begin(), seq_ref.end(),
                [&](const Key& k) { return comp.equal(k, p); });
            ASSERT_EQ(df, expect);
        }
    }
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

TEST(SearchMetrics, SimdProbesCountedWhereSupported) {
    namespace metrics = dtree::metrics;
    metrics::reset();
    // The default heuristic is measured per (key, block size): dense scalar
    // columns take the vector kernel at the default node size, pair keys
    // (Tuple<2>) only at large nodes — at their default 32-key nodes the
    // early-exit linear scan still wins (see DefaultSearch's notes).
    static_assert(
        std::is_same_v<detail::DefaultSearch<std::uint64_t>,
                       detail::SimdSearch>,
        "DefaultSearch must select SimdSearch for scalar keys at the default "
        "block size");
    static_assert(
        std::is_same_v<detail::DefaultSearch<Point>, detail::LinearSearch>,
        "DefaultSearch must keep LinearSearch for Tuple<2> at the default "
        "block size");
    static_assert(
        std::is_same_v<
            detail::DefaultSearch<Point, ThreeWayComparator<Point>, 128>,
            detail::SimdSearch>,
        "DefaultSearch must select SimdSearch for Tuple<2> at 2 KiB nodes");
    dtree::btree_set<Point, ThreeWayComparator<Point>, 32, detail::SimdSearch>
        t;
    auto h = t.create_hints();
    for (const auto& p : tie_heavy_points(2000, 8)) t.insert(p, h);
    for (const auto& p : tie_heavy_points(2000, 8)) t.contains(p, h);
    const auto snap = metrics::snapshot();
    if (dtree::detail::simd::vector_active<Point::value_type>()) {
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
