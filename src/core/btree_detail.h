#pragma once

// Node machinery, in-node search policies, and the in-order iterator of the
// specialized B-tree (§3). This is a *classic* B-tree — keys live in inner
// nodes too — matching the structure the paper describes: a split keeps half
// of the keys in the existing node, moves half to a new sibling, and promotes
// the median to the parent.
//
// Concurrency-relevant layout rules (§3.1):
//   * every node carries its own OptimisticReadWriteLock;
//   * a node's keys, element count and child pointers are protected by the
//     node's own lock;
//   * a node's parent pointer and position-in-parent are protected by the
//     *parent's* lock (or the tree's root lock for the root node);
//   * nodes are never freed or moved while the tree lives, so stale pointers
//     read under a failed lease are always safe to *hold* (never to use).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/comparator.h"
#include "core/optimistic_lock.h"
#include "core/race_access.h"
#include "core/tuple.h"
#include "util/metrics.h"

#if DTREE_SIMD_VECTOR
#include <immintrin.h>
#endif

namespace dtree::detail {

/// Prefetch the hot head of a node: its lock/header line plus the start of
/// the key array (which directly follows the header, see Node below).
/// Issued on the pointer loaded during descent, BEFORE the parent's lease is
/// validated — prefetching is side-effect-free, so even a stale pointer that
/// validation is about to reject is safe to prefetch (nodes are never freed
/// while the tree lives, §3.1).
template <typename NodePtr>
inline void prefetch_node(const NodePtr* n) {
    if (!n) return;
    const char* p = reinterpret_cast<const char*>(n);
    __builtin_prefetch(p, 0, 3);
    __builtin_prefetch(p + 64, 0, 3);
}

/// Default number of keys per node: targets ~512 bytes of key payload, the
/// sweet spot found by the ablation_node_size bench (several cache lines per
/// node amortise the per-node traversal cost; cf. Google's btree defaults).
template <typename Key>
constexpr unsigned default_block_size() {
    constexpr std::size_t target = 512;
    constexpr std::size_t n = target / sizeof(Key);
    return n < 3 ? 3u : static_cast<unsigned>(n);
}

/// True when the key array is itself a dense, fully-covering first-column
/// array: scalars and Tuple<1> (layout-compatible with one).
template <typename Key>
constexpr bool dense_column_key() {
    using FC = dtree::first_column<Key>;
    return FC::covers && sizeof(Key) == sizeof(typename FC::type) &&
           std::is_standard_layout_v<Key>;
}

// ---------------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------------

template <typename Key, unsigned BlockSize, typename Access, bool WithSnapshots,
          bool WithFingerprints>
struct InnerNode;

// ---------------------------------------------------------------------------
// Snapshot images (DESIGN.md §11) — only instantiated for WithSnapshots trees
// ---------------------------------------------------------------------------

/// Immutable copy-on-write image of a node's content as of some epoch.
/// `epoch` is the mod_epoch the content carried when it was captured: the
/// image is the correct view of the node for every snapshot boundary B with
/// epoch < B <= (epoch of the NEXT-newer image, or the node's live
/// mod_epoch). Images chain newest-first through `next` with strictly
/// decreasing epochs, are allocated from the tree's RetainArena, and are
/// never freed until the tree is cleared/destroyed (the never-free model).
template <typename Key, unsigned BlockSize>
struct SnapImage {
    SnapImage* next = nullptr; ///< next-older image, or null
    std::uint64_t epoch = 0;   ///< mod_epoch of the captured content
    std::uint32_t n = 0;       ///< valid keys in keys[]
    bool inner = false;        ///< downcast marker for SnapInnerImage
    Key keys[BlockSize];
};

/// Inner-node image: additionally captures the child pointers. Children are
/// live node pointers — safe to hold forever (nodes are never freed or moved
/// while the tree lives); a snapshot reader recursing through them applies
/// the same per-node version selection, so post-boundary structural changes
/// below are invisible.
template <typename Key, unsigned BlockSize, typename NodeT>
struct SnapInnerImage : SnapImage<Key, BlockSize> {
    NodeT* children[BlockSize + 1];
};

/// Per-node snapshot state: the epoch of the node's last modification and
/// the head of its immutable version chain. Both are protected by the node's
/// write lock for writers; snapshot readers load them under a lease (or
/// follow the acquire-published chain). Specialised to an empty member for
/// non-snapshot trees so their node layout stays bit-identical to the seed.
template <typename Key, unsigned BlockSize, bool Concurrent, bool Present>
struct SnapState {
    using ImageT = SnapImage<Key, BlockSize>;
    /// Epoch of the last modification (0 until first touched/marked).
    relaxed_value<std::uint64_t, Concurrent> mod_epoch{};
    /// Newest-first chain of retained images; store_release on publish.
    relaxed_value<ImageT*, Concurrent> versions{};
};
template <typename Key, unsigned BlockSize, bool Concurrent>
struct SnapState<Key, BlockSize, Concurrent, false> {};

// ---------------------------------------------------------------------------
// Leaf layout v2 state (fingerprints + append zone, DESIGN.md §15)
// ---------------------------------------------------------------------------

/// Number of fingerprint bytes a v2 node stores: BlockSize rounded up to a
/// whole 256-bit vector so the AVX2 probe's unaligned loads never read past
/// the array (the tail bytes beyond the valid count are masked out).
constexpr unsigned fp_padded_size(unsigned block_size) {
    return (block_size + 31u) & ~31u;
}

/// Per-node leaf-layout-v2 state (WithFingerprints trees only; specialised
/// to an empty member otherwise so the default node layout stays
/// bit-identical to the seed — same discipline as SnapState):
///
///   fp[i]      one-byte fingerprint of keys[i] (dtree::key_fingerprint),
///              maintained by key_store/key_move/key_copy_from for LEAVES
///              under exactly the locks protecting keys[] itself. The
///              membership probe compares a whole vector of these bytes
///              before touching any key. Inner nodes carry the array (they
///              share the node header) but never read or maintain it.
///   sorted     length of the leaf's sorted prefix: slots [0, sorted) are in
///              key order, slots [sorted, n) are the append zone (arrival
///              order). Consolidation (split / bulk-fill time) merges the
///              zone back and restores sorted == n. Inner nodes are always
///              fully sorted and never read this.
///   min_key /  cached copies of the leaf's extreme keys, so leaf_covers
///   max_key    stays two comparisons even when keys[0]/keys[n-1] are no
///              longer the extremes (append zone). Updated incrementally on
///              append under the write lock; racy readers copy them via
///              Access and validate their lease, like any other node field.
template <typename Key, unsigned BlockSize, bool Concurrent, bool Present>
struct FpState {
    std::uint8_t fp[fp_padded_size(BlockSize)] = {};
    relaxed_value<std::uint32_t, Concurrent> sorted{0};
    Key min_key{};
    Key max_key{};
};
template <typename Key, unsigned BlockSize, bool Concurrent>
struct FpState<Key, BlockSize, Concurrent, false> {};

/// Common node header + key storage. Leaf nodes are exactly this; inner
/// nodes extend it with a child-pointer array.
///
/// The node layout does not depend on the search policy: SimdSearch only
/// runs on dense scalar keys (scalars, Tuple<1>), whose key array is itself
/// the column it scans (DESIGN.md §10), so no node stores a column mirror.
template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false>
struct Node {
    static constexpr bool concurrent = Access::concurrent;
    static constexpr bool with_snapshots = WithSnapshots;
    static constexpr bool with_fingerprints = WithFingerprints;
    using Inner = InnerNode<Key, BlockSize, Access, WithSnapshots,
                            WithFingerprints>;
    using SnapImageT = SnapImage<Key, BlockSize>;
    using SnapInnerImageT = SnapInnerImage<Key, BlockSize, Node>;

    /// Per-node optimistic read-write lock (unused by the sequential
    /// instantiation; one idle word keeps the layouts identical).
    OptimisticReadWriteLock lock;

    /// Parent node, or nullptr for the root. Protected by the parent's lock.
    relaxed_value<Inner*, concurrent> parent{nullptr};

    /// Index of this node within parent->children. Protected by the parent's
    /// lock.
    relaxed_value<std::uint32_t, concurrent> position{0};

    /// Number of valid keys in keys[]. Protected by this node's lock.
    relaxed_value<std::uint32_t, concurrent> num_elements{0};

    /// Immutable after construction; distinguishes Inner from leaf nodes.
    const bool inner;

    /// Key storage; slots [0, num_elements) are valid. Protected by this
    /// node's lock; racy readers copy elements via Access and validate.
    Key keys[BlockSize];

    /// Snapshot version state (empty for non-snapshot trees; see SnapState).
    [[no_unique_address]] SnapState<Key, BlockSize, concurrent, WithSnapshots>
        snap;

    /// Leaf layout v2 state (empty for default trees; see FpState).
    [[no_unique_address]] FpState<Key, BlockSize, concurrent, WithFingerprints>
        fpst;

    explicit Node(bool is_inner) : inner(is_inner) {}

    std::uint32_t size() const { return num_elements.load(); }
    bool full() const { return size() == BlockSize; }

    // -- leaf layout v2 accessors (only instantiated when WithFingerprints) --

    const std::uint8_t* fp_bytes() const { return fpst.fp; }
    std::uint32_t fp_sorted() const { return fpst.sorted.load(); }
    void fp_sorted_store(std::uint32_t s) { fpst.sorted.store(s); }

    /// Publishes the fingerprint byte for slot i. Release-ordered in the
    /// concurrent tree so a probe that observes the published byte also
    /// observes the complete key the slot write just stored (the append
    /// path's publish ordering; the seqlock validation remains the actual
    /// safety net — see the race_access.h notes).
    template <typename A>
    void fp_publish(unsigned i, std::uint8_t b) {
        if constexpr (A::concurrent) {
            std::atomic_ref<std::uint8_t>(fpst.fp[i])
                .store(b, std::memory_order_release);
        } else {
            fpst.fp[i] = b;
        }
    }

    // -- key mutation (the ONLY writers of keys[] / the fingerprints) --------
    // A = SeqAccess for exclusive or unpublished nodes, the tree's Access
    // policy when racy readers may be scanning (i.e. under a held write
    // lock in the concurrent tree).

    /// keys[i] = k; a v2 leaf's fingerprint byte is kept in sync.
    template <typename A>
    void key_store(unsigned i, const Key& k) {
        A::store(keys[i], k);
        if constexpr (WithFingerprints) {
            // Fingerprint AFTER the key elements: a racy probe that sees the
            // byte sees the whole key (release publish, fp_publish above).
            // Inner separators are never fingerprint-probed — skip them.
            if (!inner) fp_publish<A>(i, dtree::key_fingerprint(k));
        }
    }

    /// keys[dst] = keys[src] within this node (shift loops). Plain reads of
    /// our own slots are fine: the caller has exclusive write access.
    template <typename A>
    void key_move(unsigned dst, unsigned src) {
        A::store(keys[dst], keys[src]);
        if constexpr (WithFingerprints) {
            if (!inner) fp_publish<A>(dst, fpst.fp[src]);
        }
    }

    /// keys[dst] = src_node.keys[src] (node splits; dst is unpublished or
    /// write-locked, src is write-locked; both sides are the same kind).
    template <typename A>
    void key_copy_from(unsigned dst, const Node& src_node, unsigned src) {
        A::store(keys[dst], src_node.keys[src]);
        if constexpr (WithFingerprints) {
            if (!inner) fp_publish<A>(dst, src_node.fpst.fp[src]);
        }
    }

    Inner* as_inner() {
        assert(inner);
        return static_cast<Inner*>(this);
    }
    const Inner* as_inner() const {
        assert(inner);
        return static_cast<const Inner*>(this);
    }
};

template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false>
struct InnerNode : Node<Key, BlockSize, Access, WithSnapshots,
                        WithFingerprints> {
    using Base = Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>;
    static constexpr bool concurrent = Access::concurrent;

    /// children[i] precedes keys[i]; children[num_elements] is the last.
    /// Protected by this node's lock.
    relaxed_value<Base*, concurrent> children[BlockSize + 1];

    InnerNode() : Base(/*is_inner=*/true) {
        for (auto& c : children) c.store(nullptr);
    }
};

/// Frees a node and, recursively, everything below it. Only safe without
/// concurrent users (destructor / clear()).
template <typename Key, unsigned BlockSize, typename Access, bool WithSnapshots,
          bool WithFingerprints>
void free_subtree(
    Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>* n) {
    if (!n) return;
    if (n->inner) {
        auto* in = n->as_inner();
        const std::uint32_t cnt = in->num_elements.load();
        for (std::uint32_t i = 0; i <= cnt; ++i) free_subtree(in->children[i].load());
        delete in;
    } else {
        delete n;
    }
}

// ---------------------------------------------------------------------------
// In-node search policies (ablation: bench/ablation_search)
// ---------------------------------------------------------------------------

/// Linear scan with the 3-way comparator. For small nodes and cheap keys the
/// branch predictor makes this faster than binary search.
struct LinearSearch {
    /// First index in [0, n) whose key is >= k, else n.
    template <typename Access, typename Key, typename Comp>
    static unsigned lower(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned i = 0;
        while (i < n && comp(Access::load(keys[i]), k) < 0) ++i;
        return i;
    }

    /// First index in [0, n) whose key is > k, else n.
    template <typename Access, typename Key, typename Comp>
    static unsigned upper(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned i = 0;
        while (i < n && comp(Access::load(keys[i]), k) <= 0) ++i;
        return i;
    }
};

/// Binary search; O(log B) comparisons per node, the right choice for wide
/// nodes and expensive comparators.
struct BinarySearch {
    template <typename Access, typename Key, typename Comp>
    static unsigned lower(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned lo = 0, hi = n;
        while (lo < hi) {
            const unsigned mid = lo + (hi - lo) / 2;
            if (comp(Access::load(keys[mid]), k) < 0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

    template <typename Access, typename Key, typename Comp>
    static unsigned upper(const Key* keys, unsigned n, const Key& k, const Comp& comp) {
        unsigned lo = 0, hi = n;
        while (lo < hi) {
            const unsigned mid = lo + (hi - lo) / 2;
            if (comp(Access::load(keys[mid]), k) <= 0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }
};

// ---------------------------------------------------------------------------
// Vectorized column scan (the SimdSearch kernel)
// ---------------------------------------------------------------------------

namespace simd {

/// Result of one column scan: how many of the n sorted column entries are
/// strictly less than / less-or-equal to the probe column. `lt` is the first
/// index whose column >= probe, `le` the first whose column > probe;
/// [lt, le) is the run of entries equal to the probe.
struct Bounds {
    unsigned lt = 0;
    unsigned le = 0;
};

/// Sign-flip mask mapping this column type onto signed integers with the
/// same ordering: AVX2 has only signed compares, so unsigned columns are
/// XOR-ed with the sign bit (probe AND every loaded lane — both sides must
/// shift by the same constant) before comparing. Signed columns need none.
template <typename C>
constexpr auto order_mask() {
    if constexpr (sizeof(C) == 8) {
        return std::is_signed_v<C> ? 0ll
                                   : static_cast<long long>(1ull << 63);
    } else {
        return std::is_signed_v<C> ? 0 : static_cast<int>(0x80000000u);
    }
}

/// Maps a column value onto a signed integer with the same ordering.
template <typename C>
constexpr auto to_ordered(C v) {
    if constexpr (sizeof(C) == 8) {
        return static_cast<long long>(v) ^ order_mask<C>();
    } else {
        return static_cast<int>(v) ^ order_mask<C>();
    }
}

/// Column types the vector kernel handles: 4- or 8-byte integers. Floating
/// and exotic columns take the scalar (branch-free) path below.
template <typename C>
inline constexpr bool vectorizable =
    std::is_integral_v<C> && (sizeof(C) == 8 || sizeof(C) == 4);

#if DTREE_SIMD_VECTOR

/// One-shot runtime ISA dispatch: the kernels are compiled with the
/// target("avx2") attribute (no global -mavx2 codegen shift) and only taken
/// when the CPU reports AVX2.
inline bool have_avx2() {
    // __builtin_cpu_supports reads a libgcc global initialised before main —
    // no function-local static (whose thread-safe guard would cost an
    // acquire-load + branch on every node visited).
    return __builtin_cpu_supports("avx2") != 0;
}

/// AVX2 count of (col[i] < c, col[i] <= c) over 64-bit columns. The loads
/// are RACY BY DESIGN — see the vector-load shim notes in race_access.h:
/// they run only inside a start_read/validate window (or under a held write
/// lock), every lane contributes 0 or 1 so even torn data yields counts in
/// [0, n], and results are discarded unless the lease validates.
__attribute__((target("avx2"))) inline Bounds bounds_avx2_64(
    const void* col, unsigned n, long long c, long long mask) {
    const auto* p = static_cast<const long long*>(col);
    const __m256i vc = _mm256_set1_epi64x(c);
    const __m256i vm = _mm256_set1_epi64x(mask);
    unsigned lt = 0, le = 0, i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), vm);
        const unsigned mlt = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vc, v))));
        const unsigned mgt = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, vc))));
        lt += static_cast<unsigned>(__builtin_popcount(mlt));
        le += 4u - static_cast<unsigned>(__builtin_popcount(mgt));
        // Sorted column: a lane above the probe means every later entry is
        // above too — stop without touching the remaining cache lines.
        if (mgt != 0) return Bounds{lt, le};
    }
    for (; i < n; ++i) {
        const long long v = p[i] ^ mask;
        lt += v < c;
        le += v <= c;
        if (v > c) break;
    }
    return Bounds{lt, le};
}

/// AVX2 count over 32-bit columns (8 lanes per vector).
__attribute__((target("avx2"))) inline Bounds bounds_avx2_32(
    const void* col, unsigned n, int c, int mask) {
    const auto* p = static_cast<const int*>(col);
    const __m256i vc = _mm256_set1_epi32(c);
    const __m256i vm = _mm256_set1_epi32(mask);
    unsigned lt = 0, le = 0, i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i v = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), vm);
        const unsigned mlt = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vc, v))));
        const unsigned mgt = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(v, vc))));
        lt += static_cast<unsigned>(__builtin_popcount(mlt));
        le += 8u - static_cast<unsigned>(__builtin_popcount(mgt));
        if (mgt != 0) return Bounds{lt, le};
    }
    for (; i < n; ++i) {
        const int v = p[i] ^ mask;
        lt += v < c;
        le += v <= c;
        if (v > c) break;
    }
    return Bounds{lt, le};
}

/// AVX2 byte-equality mask over one 32-byte fingerprint chunk: bit i of the
/// result is set iff p[i] == b. The load is RACY BY DESIGN (race_access.h
/// shim notes, extended for fingerprints): it runs only inside a
/// start_read/validate window or under a held write lock, a matching bit
/// only *nominates* a slot for full key verification, and the final answer
/// is discarded unless the lease validates.
__attribute__((target("avx2"))) inline std::uint32_t fp_eq_mask_avx2(
    const std::uint8_t* p, std::uint8_t b) {
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(b));
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, needle)));
}

#else

inline bool have_avx2() { return false; }

#endif // DTREE_SIMD_VECTOR

/// Whether probes on this column type actually take the vector kernel in
/// this build on this CPU (tests and bench.sh condition their counter
/// assertions on it).
template <typename C>
inline bool vector_active() {
    return DTREE_SIMD_VECTOR != 0 && vectorizable<C> && have_avx2();
}

/// Branch-free scalar column scan — the TSan-clean fallback. Reads go
/// through Access::load (relaxed atomic_ref in the concurrent tree), so the
/// sanitizer sees a well-ordered seqlock reader; the setcc-style accumulation
/// keeps it free of data-dependent branches like the vector path.
template <typename Access, typename C>
inline Bounds bounds_scalar(const C* col, unsigned n, C c) {
    Bounds b;
    for (unsigned i = 0; i < n; ++i) {
        const C v = Access::load(col[i]);
        b.lt += static_cast<unsigned>(v < c);
        b.le += static_cast<unsigned>(v <= c);
    }
    return b;
}

/// Column scan entry point: vector kernel when compiled in + CPU-supported +
/// the column width qualifies, else the scalar fallback. Counter accounting
/// (search_simd_probes / search_scalar_fallbacks) lives here so every caller
/// reports uniformly.
///
/// Guarded controls the O(1) boundary guards. They pay off on *inner*
/// nodes — cache-resident, and in a multiset often one duplicated key end to
/// end, where first == last resolves with two loads instead of a scan.
/// They are turned OFF for cold leaf key arrays: there, touching col[n - 1]
/// costs the node's last cache line on the critical path while the
/// early-exit scan usually stops well before it.
template <typename Access, typename C, bool Guarded = true>
inline Bounds column_bounds(const C* col, unsigned n, C c) {
    if (n == 0) return Bounds{0, 0};
    if constexpr (Guarded) {
        // Guard loads follow the same Access discipline as the scan
        // (racy-by-design under the optimistic protocol, results discarded
        // on validation failure).
        const C first = Access::load(col[0]);
        if (c < first) return Bounds{0, 0};
        const C last = Access::load(col[n - 1]);
        if (c > last) return Bounds{n, n};
        if (first == last) return Bounds{0, n}; // c == first == last
    }
#if DTREE_SIMD_VECTOR
    if constexpr (vectorizable<C>) {
        if (have_avx2()) {
            DTREE_METRIC_INC(search_simd_probes);
            if constexpr (sizeof(C) == 8) {
                return bounds_avx2_64(col, n, to_ordered(c), order_mask<C>());
            } else {
                return bounds_avx2_32(col, n, to_ordered(c), order_mask<C>());
            }
        }
    }
#endif
    DTREE_METRIC_INC(search_scalar_fallbacks);
    return bounds_scalar<Access>(col, n, c);
}

/// Fingerprint membership probe over a v2 leaf's byte array (DESIGN.md §15):
/// compares all n fingerprint bytes against `b` — one _mm256_cmpeq_epi8 per
/// 32 slots on the vector path — and hands each matching slot to `verify`
/// (which loads the slot's key through the caller's Access discipline and
/// compares it). Returns the first verified slot, or -1. The common Datalog
/// case — a fresh derivation whose fingerprint matches no slot — answers
/// with ZERO key loads (fp_skips counts those; fp_false_hits counts byte
/// matches the key comparison rejected).
///
/// The fingerprint array is padded to a whole vector (fp_padded_size), so
/// the final unaligned load never reads out of bounds; bytes at and beyond
/// n are masked out. Bytes within [0, n) left stale by a racing writer can
/// only cause a spurious verify (discarded by the caller's lease validation)
/// or a missed match (the caller restarts on validation failure) — the same
/// discard-on-conflict argument as every other racy read.
template <typename Access, typename Verify>
inline int fp_find(const std::uint8_t* fp, unsigned n, std::uint8_t b,
                   Verify&& verify) {
    DTREE_METRIC_INC(fp_probes);
    bool any = false;
#if DTREE_SIMD_VECTOR
    if (have_avx2()) {
        for (unsigned base = 0; base < n; base += 32) {
            std::uint32_t m = fp_eq_mask_avx2(fp + base, b);
            const unsigned rem = n - base;
            if (rem < 32) m &= 0xffffffffu >> (32 - rem);
            while (m != 0) {
                const unsigned slot =
                    base + static_cast<unsigned>(__builtin_ctz(m));
                any = true;
                if (verify(slot)) return static_cast<int>(slot);
                DTREE_METRIC_INC(fp_false_hits);
                m &= m - 1;
            }
        }
        if (!any) DTREE_METRIC_INC(fp_skips);
        return -1;
    }
#endif
    // Scalar fallback (TSan builds, non-AVX2 hosts, -DDATATREE_SIMD=OFF):
    // byte loads through the Access discipline, same candidate handling.
    for (unsigned i = 0; i < n; ++i) {
        if (Access::load(fp[i]) != b) continue;
        any = true;
        if (verify(i)) return static_cast<int>(i);
        DTREE_METRIC_INC(fp_false_hits);
    }
    if (!any) DTREE_METRIC_INC(fp_skips);
    return -1;
}

} // namespace simd

/// Vectorized in-node search for dense scalar keys (DESIGN.md §10): scalars
/// and Tuple<1>, whose key array is itself a dense column of 4- or 8-byte
/// integers (or another arithmetic type, scanned by the scalar fallback).
/// The column order IS the key order, so the column bounds are the final
/// answers and the 3-way comparator is never called. Requires a comparator
/// consistent with that order (comparator.h's
/// comparator_respects_first_column); DefaultSearch checks both before
/// selecting it, and the btree static_asserts them for explicit
/// configuration. Seqlock-correct per the race_access.h shim notes: the racy
/// vector loads only ever run between start_read/validate or under a write
/// lock, and their results are discarded on validation failure.
struct SimdSearch {
    /// Can this policy be instantiated for (Key, Comp)? Surfaced so
    /// DefaultSearch and the btree's static_assert give a clear diagnostic
    /// instead of a template error novel.
    template <typename Key, typename Comp>
    static constexpr bool viable =
        dense_column_key<Key>() &&
        dtree::comparator_respects_first_column<Comp, Key>;

    /// [lt, le) = the run of keys equal to the probe; the counts are the
    /// lower and upper bound. Boundary guards on for hot inner nodes, off
    /// for cold leaves (see column_bounds).
    template <typename Access, typename NodeT, typename Key>
    static simd::Bounds bounds(const NodeT* node, unsigned n, const Key& k) {
        static_assert(dense_column_key<Key>(),
                      "SimdSearch indexes dense scalar keys only (a scalar "
                      "or Tuple<1>); configure LinearSearch or BinarySearch "
                      "for this key type");
        using FC = dtree::first_column<Key>;
        using C = typename FC::type;
        const C* col = reinterpret_cast<const C*>(node->keys);
        if (node->inner) {
            return simd::column_bounds<Access, C, true>(col, n, FC::extract(k));
        }
        return simd::column_bounds<Access, C, false>(col, n, FC::extract(k));
    }

    template <typename Access, typename NodeT, typename Key, typename Comp>
    static unsigned lower_node(const NodeT* node, unsigned n, const Key& k,
                               const Comp&) {
        return bounds<Access>(node, n, k).lt;
    }

    template <typename Access, typename NodeT, typename Key, typename Comp>
    static unsigned upper_node(const NodeT* node, unsigned n, const Key& k,
                               const Comp&) {
        return bounds<Access>(node, n, k).le;
    }
};

// ---------------------------------------------------------------------------
// Node-aware search dispatch
// ---------------------------------------------------------------------------

/// True iff `Search` can run over (Key, Comp). Policies without a `viable`
/// member (LinearSearch, BinarySearch, user policies) work for every key.
template <typename Search, typename Key, typename Comp>
constexpr bool search_policy_viable() {
    if constexpr (requires { Search::template viable<Key, Comp>; }) {
        return Search::template viable<Key, Comp>;
    } else {
        return true;
    }
}

/// Dispatches an in-node lower_bound to the policy: node-aware policies
/// (SimdSearch — it guards inner nodes and leaves differently) get the node,
/// classic policies get the raw key array. All call sites in core/btree.h
/// funnel through these two, so a policy only has to implement one shape.
template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_lower(const NodeT* node, unsigned n, const Key& k,
                           const Comp& comp) {
    if constexpr (requires {
                      Search::template lower_node<Access>(node, n, k, comp);
                  }) {
        return Search::template lower_node<Access>(node, n, k, comp);
    } else {
        return Search::template lower<Access>(node->keys, n, k, comp);
    }
}

template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_upper(const NodeT* node, unsigned n, const Key& k,
                           const Comp& comp) {
    if constexpr (requires {
                      Search::template upper_node<Access>(node, n, k, comp);
                  }) {
        return Search::template upper_node<Access>(node, n, k, comp);
    } else {
        return Search::template upper<Access>(node->keys, n, k, comp);
    }
}

/// Sentinel for "no predicted slot" (core/hints.h hands these in).
inline constexpr std::uint32_t kNoSlotHint = 0xffffffffu;

/// Hinted lower_bound: operation hints remember the slot the previous
/// operation landed on; two boundary comparisons verify the guess — correct
/// iff keys[guess-1] < k <= keys[guess] with virtual sentinels at the ends —
/// and only a failed guess pays for the full in-node search. Sequential and
/// repeated probes (sorted merges, re-derived Datalog tuples) hit the guess
/// almost always.
template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_lower_hinted(const NodeT* node, unsigned n, const Key& k,
                                  const Comp& comp, std::uint32_t guess) {
    if (guess <= n) {
        const bool left_ok =
            guess == 0 || comp(Access::load(node->keys[guess - 1]), k) < 0;
        if (left_ok &&
            (guess == n || comp(Access::load(node->keys[guess]), k) >= 0)) {
            return guess;
        }
    }
    return node_lower<Search, Access>(node, n, k, comp);
}

/// Hinted upper_bound: correct iff keys[guess-1] <= k < keys[guess].
template <typename Search, typename Access, typename NodeT, typename Key,
          typename Comp>
inline unsigned node_upper_hinted(const NodeT* node, unsigned n, const Key& k,
                                  const Comp& comp, std::uint32_t guess) {
    if (guess <= n) {
        const bool left_ok =
            guess == 0 || comp(Access::load(node->keys[guess - 1]), k) <= 0;
        if (left_ok &&
            (guess == n || comp(Access::load(node->keys[guess]), k) > 0)) {
            return guess;
        }
    }
    return node_upper<Search, Access>(node, n, k, comp);
}

/// Descent prefetch of the *adjacent* child in SimdSearch trees: when the
/// probe equals the separator at `pos` (a multiset's duplicates straddle
/// children[pos] and children[pos+1], and a descent frequently visits
/// both), pull the sibling's header in too. One scalar column compare
/// decides; a no-op under the classic policies.
template <typename Search, typename Access, typename NodeT, typename Key>
inline void prefetch_tie_sibling(const NodeT* node, unsigned pos, unsigned n,
                                 const Key& k) {
    if constexpr (std::is_same_v<Search, SimdSearch>) {
        using FC = dtree::first_column<Key>;
        using C = typename FC::type;
        if (pos >= n) return;
        if (Access::load(reinterpret_cast<const C*>(node->keys)[pos]) ==
            FC::extract(k)) {
            prefetch_node(node->as_inner()->children[pos + 1].load());
        }
    }
}

/// Default in-node search policy, chosen per (key, comparator, block size).
/// Thresholds are measured, not guessed (bench/ablation_search, best-of-5,
/// 1M random inserts; EXPERIMENTS.md search-ablation note):
///   * SimdSearch for dense scalar keys once the node spans >= 4 cache lines
///     of keys — 1.27x over the old binary default at the default 64-key
///     u64 nodes — while on 2-line nodes the early-exit linear scan still
///     wins (the out-of-line, runtime-dispatched AVX2 kernel can't inline
///     into generic-ISA callers, and that call overhead needs a few cache
///     lines of scanning to amortise);
///   * otherwise the classic pair, keyed on the node's actual key payload:
///     the branch-predictable early-exit linear scan up to ~768 B of keys
///     per node, binary search beyond.
template <typename Key, typename Compare = ThreeWayComparator<Key>,
          unsigned BlockSize = default_block_size<Key>()>
using DefaultSearch = std::conditional_t<
    SimdSearch::viable<Key, Compare> &&
        (std::size_t{BlockSize} * sizeof(Key) >= 256),
    SimdSearch,
    std::conditional_t<(std::size_t{BlockSize} * sizeof(Key) <= 768),
                       LinearSearch, BinarySearch>>;

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

/// Rank→slot table for iterating a v2 leaf whose append zone is non-empty:
/// idx[rank] is the physical slot of the rank-th key in merged order (sorted
/// prefix and tail interleaved; ties keep prefix-before-tail, tail in slot
/// order — exactly the order point inserts into a sorted leaf would have
/// produced). Built lazily on first dereference so iterators created merely
/// for comparison (contains() == end()) never read the leaf's keys, and
/// cached per leaf (built_for). Empty when the policy is off.
template <unsigned BlockSize, bool Present>
struct IterOrder {
    const void* built_for = nullptr;
    bool active = false;
    std::uint16_t idx[BlockSize];
};
template <unsigned BlockSize>
struct IterOrder<BlockSize, false> {};

/// Placeholder comparator type for non-fingerprint iterators (the merged
/// view is the only thing an iterator ever compares keys for).
struct IterNoComp {};

/// Forward in-order iterator over a (phase-concurrently read) B-tree.
/// Holds (node, index); incrementing performs the classic in-order walk:
/// after consuming an inner key, descend to the leftmost leaf of the right
/// child; after the last key of a leaf, climb until a pending separator key
/// is found. Iteration is only defined while no writer is active (§2's
/// two-phase guarantee).
///
/// Leaf layout v2 (WithFingerprints): the index is a RANK in the leaf's
/// merged (sorted-prefix + append-zone) view; dereferencing maps it to the
/// physical slot through a lazily built order table. Positions and counts
/// are unchanged, so the walk itself is identical.
template <typename Key, unsigned BlockSize, typename Access,
          bool WithSnapshots = false, bool WithFingerprints = false,
          typename Compare = void>
class Iterator {
public:
    using NodeT = Node<Key, BlockSize, Access, WithSnapshots, WithFingerprints>;
    using value_type = Key;
    using reference = const Key&;
    using pointer = const Key*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;
    using CompT = std::conditional_t<WithFingerprints, Compare, IterNoComp>;

    Iterator() = default;
    Iterator(const NodeT* node, unsigned pos, CompT comp = CompT{})
        : node_(node), pos_(pos), comp_(comp) {}

    reference operator*() const { return node_->keys[slot(pos_)]; }
    pointer operator->() const { return &node_->keys[slot(pos_)]; }

    Iterator& operator++() {
        if (node_->inner) {
            // Consumed separator keys[pos_]; next is the smallest key of the
            // right child's subtree.
            const NodeT* n = node_->as_inner()->children[pos_ + 1].load();
            while (n->inner) n = n->as_inner()->children[0].load();
            node_ = n;
            pos_ = 0;
        } else {
            ++pos_;
            climb_exhausted();
        }
        return *this;
    }

    Iterator operator++(int) {
        Iterator tmp = *this;
        ++*this;
        return tmp;
    }

    friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.node_ == b.node_ && a.pos_ == b.pos_;
    }

    const NodeT* node() const { return node_; }
    unsigned pos() const { return pos_; }

private:
    /// While positioned one past the last key of a node, climb to the parent
    /// separator; reaching one past the root means end().
    void climb_exhausted() {
        while (node_ && pos_ == node_->num_elements.load()) {
            const NodeT* parent = node_->parent.load();
            pos_ = node_->position.load();
            node_ = parent;
        }
        if (!node_) {
            pos_ = 0; // normalise to end()
            return;
        }
        if (node_->inner) {
            // The walk resumes in children[pos_ + 1] right after this
            // separator is consumed: start pulling that subtree root in now,
            // overlapping its miss with the separator's consumption.
            prefetch_node(node_->as_inner()->children[pos_ + 1].load());
        }
    }

    /// Map a rank to a physical slot. Identity for inner nodes (always
    /// sorted), for v1 leaves, and for v2 leaves with an empty append zone.
    unsigned slot(unsigned rank) const {
        if constexpr (WithFingerprints) {
            if (!node_->inner) {
                if (order_.built_for != node_) build_order();
                if (order_.active) return order_.idx[rank];
            }
        }
        return rank;
    }

    /// Build the merged rank→slot table for the current leaf. Called only
    /// from dereference, i.e. during a read phase with no concurrent writer
    /// (the iterator contract) — plain reads of keys/sorted are fine here.
    void build_order() const requires WithFingerprints {
        const unsigned n = node_->num_elements.load();
        const unsigned s = node_->fp_sorted();
        order_.built_for = node_;
        order_.active = (s < n);
        if (!order_.active) return;
        for (unsigned i = 0; i < n; ++i)
            order_.idx[i] = static_cast<std::uint16_t>(i);
        // Stable insertion sort of the tail into the prefix: strict `> 0`
        // keeps prefix-before-tail at ties and tail entries in slot order —
        // the order point inserts into a sorted leaf would have produced.
        for (unsigned i = s; i < n; ++i) {
            const std::uint16_t v = order_.idx[i];
            unsigned j = i;
            while (j > 0 && comp_(node_->keys[order_.idx[j - 1]],
                                   node_->keys[v]) > 0) {
                order_.idx[j] = order_.idx[j - 1];
                --j;
            }
            order_.idx[j] = v;
        }
    }

    const NodeT* node_ = nullptr;
    unsigned pos_ = 0;
    mutable IterOrder<BlockSize, WithFingerprints> order_{};
    [[no_unique_address]] CompT comp_{};
};

} // namespace dtree::detail
