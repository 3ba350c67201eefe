#pragma once

// Tracing storage adapter for the benchmark's traced pass.
//
// Traced<S> wraps a storage adapter S (the surface Engine<Storage> and
// Relation<Storage> are templated on) and forwards every call, counting
// calls per core operation in per-thread slots and timing one call in
// kSampleEvery (bulk merges, builds, pins and size walks are timed every
// time: they are few and coarse). Nothing under src/ changes: the engine
// simply runs Engine<Traced<S>> in the traced pass.
//
// Relation probes storage capabilities with `requires`, so a wrapper that
// lacked one would silently switch the engine onto another path (without
// the bulk surface it falls back to point-insert staging). Every forwarded
// member is therefore constrained on the wrapped adapter having it, and
// check_parity<S>() pins each probe Relation makes to the same answer for
// Traced<S> as for S.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "datalog/relation.h"

namespace perfbench {

enum class CoreOp : unsigned {
    Insert,   ///< point insert (local or adapter)
    Contains, ///< point membership (local or adapter)
    Range,    ///< bounded range scan
    Merge,    ///< insert_sorted_run + build_sorted
    Pin,      ///< snapshot()
    Size,     ///< size() walk
    Count
};
constexpr unsigned kCoreOps = static_cast<unsigned>(CoreOp::Count);

/// Per-thread counters. Only the owning thread writes a slot (plain load +
/// store on relaxed atomics: no read-modify-write on the hot path); other
/// threads read after the phase ended.
struct alignas(64) CoreSlot {
    std::atomic<std::uint64_t> calls[kCoreOps] = {};
    std::atomic<std::uint64_t> sampled[kCoreOps] = {};
    std::atomic<std::uint64_t> sampled_ns[kCoreOps] = {};
    /// Insert: fresh keys; Contains: hits; Range: tuples visited;
    /// Merge: fresh keys.
    std::atomic<std::uint64_t> yield[kCoreOps] = {};
    /// Merge: keys offered.
    std::atomic<std::uint64_t> keys[kCoreOps] = {};
};

inline double clock_overhead_ns();

/// Sum (or one thread's share) of the slot counters at a point in time.
struct CoreTotals {
    std::uint64_t calls[kCoreOps] = {};
    std::uint64_t sampled[kCoreOps] = {};
    std::uint64_t sampled_ns[kCoreOps] = {};
    std::uint64_t yield[kCoreOps] = {};
    std::uint64_t keys[kCoreOps] = {};

    /// Mean sampled duration of one call, less the clock overhead.
    double ns_per_call(CoreOp op) const {
        const auto i = static_cast<unsigned>(op);
        if (!sampled[i]) return 0.0;
        const double mean = static_cast<double>(sampled_ns[i]) / static_cast<double>(sampled[i]);
        return std::max(0.0, mean - clock_overhead_ns());
    }
    /// Estimated nanoseconds spent in op: ns_per_call x calls.
    double est_ns(CoreOp op) const {
        return ns_per_call(op) * static_cast<double>(calls[static_cast<unsigned>(op)]);
    }
    double est_ns_all() const {
        double t = 0;
        for (unsigned i = 0; i < kCoreOps; ++i) t += est_ns(static_cast<CoreOp>(i));
        return t;
    }

    CoreTotals& operator+=(const CoreTotals& o) {
        for (unsigned i = 0; i < kCoreOps; ++i) {
            calls[i] += o.calls[i];
            sampled[i] += o.sampled[i];
            sampled_ns[i] += o.sampled_ns[i];
            yield[i] += o.yield[i];
            keys[i] += o.keys[i];
        }
        return *this;
    }

    CoreTotals operator-(const CoreTotals& o) const {
        CoreTotals d;
        for (unsigned i = 0; i < kCoreOps; ++i) {
            d.calls[i] = calls[i] - o.calls[i];
            d.sampled[i] = sampled[i] - o.sampled[i];
            d.sampled_ns[i] = sampled_ns[i] - o.sampled_ns[i];
            d.yield[i] = yield[i] - o.yield[i];
            d.keys[i] = keys[i] - o.keys[i];
        }
        return d;
    }
};

class CoreRegistry {
public:
    static constexpr unsigned kSlots = 64;
    static constexpr std::uint64_t kSampleEvery = 64; ///< power of two

    static CoreRegistry& instance() {
        static CoreRegistry r;
        return r;
    }

    /// The calling thread's slot index, claimed on first use (spans use it
    /// as the thread id).
    unsigned slot_index() {
        thread_local const unsigned idx = claim();
        return idx;
    }

    CoreSlot& slot() { return slots_[slot_index()]; }

    unsigned claimed() const {
        return claimed_.load(std::memory_order_acquire);
    }

    CoreTotals totals(unsigned slot) const {
        CoreTotals t;
        const CoreSlot& s = slots_[slot];
        for (unsigned i = 0; i < kCoreOps; ++i) {
            t.calls[i] = s.calls[i].load(std::memory_order_relaxed);
            t.sampled[i] = s.sampled[i].load(std::memory_order_relaxed);
            t.sampled_ns[i] = s.sampled_ns[i].load(std::memory_order_relaxed);
            t.yield[i] = s.yield[i].load(std::memory_order_relaxed);
            t.keys[i] = s.keys[i].load(std::memory_order_relaxed);
        }
        return t;
    }

    CoreTotals totals() const {
        CoreTotals t;
        for (unsigned s = 0; s < claimed(); ++s) t += totals(s);
        return t;
    }

private:
    unsigned claim() {
        const unsigned i = claimed_.fetch_add(1, std::memory_order_acq_rel);
        if (i >= kSlots) {
            std::fprintf(stderr, "perfbench: more than %u traced threads\n", kSlots);
            std::abort();
        }
        return i;
    }

    CoreSlot slots_[kSlots];
    std::atomic<unsigned> claimed_{0};
};

inline void bump(std::atomic<std::uint64_t>& a, std::uint64_t n) {
    a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// What one timed region costs with nothing in it (median of back-to-back
/// clock reads); subtracted from every sampled duration's mean.
inline double clock_overhead_ns() {
    static const double overhead = [] {
        std::uint64_t d[1001];
        for (auto& x : d) {
            const std::uint64_t t0 = now_ns();
            x = now_ns() - t0;
        }
        std::nth_element(d, d + 500, d + 1001);
        return static_cast<double>(d[500]);
    }();
    return overhead;
}

/// Counts one call of `op` and times it if it is the sampled one (or if
/// `always`). fn returns the call's result; `yield(result)` gives the
/// amount added to the op's yield counter.
template <CoreOp Op, bool Always = false, typename Fn, typename Yield>
auto traced_call(Fn&& fn, Yield&& yield) {
    constexpr auto i = static_cast<unsigned>(Op);
    CoreSlot& s = CoreRegistry::instance().slot();
    const std::uint64_t n = s.calls[i].load(std::memory_order_relaxed);
    s.calls[i].store(n + 1, std::memory_order_relaxed);
    if (!Always && (n & (CoreRegistry::kSampleEvery - 1)) != 0) {
        auto r = fn();
        bump(s.yield[i], yield(r));
        return r;
    }
    const std::uint64_t t0 = now_ns();
    auto r = fn();
    const std::uint64_t t1 = now_ns();
    bump(s.sampled[i], 1);
    bump(s.sampled_ns[i], t1 - t0);
    bump(s.yield[i], yield(r));
    return r;
}

/// A range scan counts its tuples; the sampled one is timed without the
/// time its callback takes (the callback runs the rest of the join, whose
/// core calls are counted on their own).
template <typename Scan, typename Fn>
void traced_range(Scan&& scan, Fn& fn) {
    constexpr auto i = static_cast<unsigned>(CoreOp::Range);
    CoreSlot& s = CoreRegistry::instance().slot();
    const std::uint64_t n = s.calls[i].load(std::memory_order_relaxed);
    s.calls[i].store(n + 1, std::memory_order_relaxed);
    std::uint64_t tuples = 0;
    if ((n & (CoreRegistry::kSampleEvery - 1)) != 0) {
        scan([&](const auto& k) {
            ++tuples;
            fn(k);
        });
    } else {
        std::uint64_t inside = 0;
        const std::uint64_t t0 = now_ns();
        scan([&](const auto& k) {
            ++tuples;
            const std::uint64_t c0 = now_ns();
            fn(k);
            inside += now_ns() - c0;
        });
        bump(s.sampled[i], 1);
        bump(s.sampled_ns[i], now_ns() - t0 - inside);
    }
    bump(s.yield[i], tuples);
}

template <typename S>
class Traced {
public:
    using key_type = typename S::key_type;
    static constexpr bool thread_safe = S::thread_safe;
    static constexpr bool ordered = S::ordered;
    static const char* name() { return S::name(); }

    class local {
    public:
        explicit local(typename S::local inner) : inner_(std::move(inner)) {}

        bool insert(const key_type& k) {
            return traced_call<CoreOp::Insert>([&] { return inner_.insert(k); },
                                               [](bool f) { return f ? 1u : 0u; });
        }
        bool contains(const key_type& k) const {
            return traced_call<CoreOp::Contains>(
                [&] { return inner_.contains(k); },
                [](bool f) { return f ? 1u : 0u; });
        }

        template <typename Fn>
        void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const
            requires requires(typename S::local& l) {
                l.for_each_in_range(lo, hi, fn);
            }
        {
            traced_range([&](auto&& visit) { inner_.for_each_in_range(lo, hi, visit); }, fn);
        }

        template <typename It>
        std::size_t insert_sorted_run(It first, It last)
            requires requires(typename S::local& l) { l.insert_sorted_run(first, last); }
        {
            const auto offered = static_cast<std::uint64_t>(std::distance(first, last));
            bump(CoreRegistry::instance().slot().keys[static_cast<unsigned>(CoreOp::Merge)],
                 offered);
            return traced_call<CoreOp::Merge, true>(
                [&] { return inner_.insert_sorted_run(first, last); },
                [](std::size_t f) { return f; });
        }

        decltype(auto) stats() const
            requires requires(const typename S::local& l) { l.stats(); }
        {
            return inner_.stats();
        }

    private:
        mutable typename S::local inner_;
    };

    bool insert(const key_type& k) {
        return traced_call<CoreOp::Insert>([&] { return inner_.insert(k); },
                                           [](bool f) { return f ? 1u : 0u; });
    }
    bool contains(const key_type& k) const
        requires requires(const S& s) { s.contains(k); }
    {
        return traced_call<CoreOp::Contains>([&] { return inner_.contains(k); },
                                             [](bool f) { return f ? 1u : 0u; });
    }
    std::size_t size() const {
        return traced_call<CoreOp::Size, true>([&] { return inner_.size(); },
                                               [](std::size_t) { return 0u; });
    }
    bool empty() const
        requires requires(const S& s) { s.empty(); }
    {
        return inner_.empty();
    }
    void clear() { inner_.clear(); }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        inner_.for_each(fn);
    }

    template <typename Fn>
    void for_each_in_range(const key_type& lo, const key_type& hi, Fn&& fn) const
        requires requires(const S& s) { s.for_each_in_range(lo, hi, fn); }
    {
        traced_range([&](auto&& visit) { inner_.for_each_in_range(lo, hi, visit); }, fn);
    }

    // -- sorted bulk-merge surface -------------------------------------------

    auto begin() const
        requires requires(const S& s) { s.begin(); }
    {
        return inner_.begin();
    }
    auto end() const
        requires requires(const S& s) { s.end(); }
    {
        return inner_.end();
    }
    auto lower_bound(const key_type& k) const
        requires requires(const S& s) { s.lower_bound(k); }
    {
        return inner_.lower_bound(k);
    }
    auto partition_keys(std::size_t target) const
        requires requires(const S& s) { s.partition_keys(target); }
    {
        return inner_.partition_keys(target);
    }
    template <typename It>
    void build_sorted(It first, It last, std::size_t n)
        requires requires(S& s) { s.build_sorted(first, last, n); }
    {
        bump(CoreRegistry::instance().slot().keys[static_cast<unsigned>(CoreOp::Merge)],
             n);
        traced_call<CoreOp::Merge, true>(
            [&] {
                inner_.build_sorted(first, last, n);
                return n;
            },
            [](std::size_t f) { return f; });
    }

    local make_local(unsigned tid) { return local(inner_.make_local(tid)); }
    void finalize(unsigned threads) { inner_.finalize(threads); }

    // -- snapshot surface ----------------------------------------------------

    using snapshot_type = typename S::snapshot_type;

    auto snapshot() const
        requires requires(const S& s) { s.snapshot(); }
    {
        return traced_call<CoreOp::Pin, true>([&] { return inner_.snapshot(); },
                                              [](const auto&) { return 0u; });
    }
    std::uint64_t advance_epoch()
        requires requires(S& s) { s.advance_epoch(); }
    {
        return inner_.advance_epoch();
    }
    auto snap_stats() const
        requires requires(const S& s) { s.snap_stats(); }
    {
        return inner_.snap_stats();
    }

    // -- combining surface ---------------------------------------------------

    void set_combine_threshold(std::uint32_t t)
        requires requires(S& s) { s.set_combine_threshold(t); }
    {
        inner_.set_combine_threshold(t);
    }

private:
    S inner_;
};

/// Every storage capability Relation<Storage> detects with `requires`,
/// evaluated for one storage type (see relation.h: bulk_mergeable,
/// snapshot_capable, combine_capable, LocalView::has_local_range and the
/// empty()/contains()/local stats() probes).
template <typename S>
struct Capabilities {
    using R = dtree::datalog::Relation<S>;
    using T = dtree::datalog::StorageTuple;
    static constexpr bool ordered = S::ordered;
    static constexpr bool bulk_mergeable = R::bulk_mergeable;
    static constexpr bool snapshot_capable = R::snapshot_capable;
    static constexpr bool combine_capable = R::combine_capable;
    static constexpr bool local_range = requires(typename S::local& l, const T& t) {
        l.for_each_in_range(t, t, [](const T&) {});
    };
    static constexpr bool has_empty = requires(const S& s) { s.empty(); };
    static constexpr bool has_contains = requires(const S& s, const T& t) {
        s.contains(t);
    };
    static constexpr bool local_stats = requires(typename S::local& l) { l.stats(); };
};

template <typename S>
constexpr bool check_parity() {
    using A = Capabilities<S>;
    using B = Capabilities<Traced<S>>;
    static_assert(A::ordered == B::ordered, "Traced<S>: ordered differs");
    static_assert(A::bulk_mergeable == B::bulk_mergeable,
                  "Traced<S>: bulk_mergeable differs (engine would stage by point inserts)");
    static_assert(A::snapshot_capable == B::snapshot_capable,
                  "Traced<S>: snapshot_capable differs");
    static_assert(A::combine_capable == B::combine_capable,
                  "Traced<S>: combine_capable differs");
    static_assert(A::local_range == B::local_range,
                  "Traced<S>: LocalView::has_local_range differs");
    static_assert(A::has_empty == B::has_empty, "Traced<S>: empty() detection differs");
    static_assert(A::has_contains == B::has_contains,
                  "Traced<S>: contains() detection differs");
    static_assert(A::local_stats == B::local_stats,
                  "Traced<S>: local stats() detection differs");
    return true;
}

} // namespace perfbench
