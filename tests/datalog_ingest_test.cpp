// Incremental ingestion (DESIGN.md §12): ingesting facts in K batches after
// an initial fixpoint — Engine::ingest() + refixpoint() — must converge to
// EXACTLY the relations a one-shot load derives: same tuples, same order, on
// every bundled workload, at 1 thread and a full team, with and without the
// snapshot-enabled storage. Snapshots pinned by concurrent readers while
// batches commit must stay prefix-closed (sorted, duplicate-free, replayable,
// a subset of the final relation). Ingestion into a relation whose positive
// derivation closure is read under negation must be rejected up front.

#include "datalog/program.h"
#include "datalog/workloads.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace dtree::datalog;

using SnapEngine = Engine<storage::OurBTreeSnap>;
using Contents = std::vector<StorageTuple>;
using RelationMap = std::map<std::string, Contents>;

/// The workload's facts split into an initial load plus K ingest batches.
/// Relations named in `keep_whole` (ingest-unsafe ones, e.g. ec2's negated
/// `blocked`) load entirely up front; every other relation holds back about
/// a third of its facts, spread round-robin over the batches.
struct SplitWorkload {
    std::vector<std::pair<std::string, Contents>> initial;
    std::vector<RelationMap> batches;
};

SplitWorkload split_facts(const Workload& w, unsigned batches,
                          const std::set<std::string>& keep_whole) {
    SplitWorkload out;
    out.batches.resize(batches);
    for (const auto& [rel, facts] : w.facts) {
        Contents init;
        if (keep_whole.count(rel)) {
            init = facts;
        } else {
            for (std::size_t i = 0; i < facts.size(); ++i) {
                if (i % 3 == 2) {
                    out.batches[(i / 3) % batches][rel].push_back(facts[i]);
                } else {
                    init.push_back(facts[i]);
                }
            }
        }
        out.initial.emplace_back(rel, std::move(init));
    }
    return out;
}

template <typename EngineT>
RelationMap drain(const EngineT& engine) {
    RelationMap out;
    for (const auto& d : engine.analyzed().decls) {
        out[d.name] = engine.tuples(d.name);
    }
    return out;
}

template <typename EngineT>
RelationMap one_shot(const Workload& w, unsigned threads) {
    EngineT engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(threads);
    return drain(engine);
}

template <typename EngineT>
RelationMap incremental(const Workload& w, unsigned threads, unsigned batches,
                        const std::set<std::string>& keep_whole) {
    const SplitWorkload split = split_facts(w, batches, keep_whole);
    EngineT engine(compile(w.source));
    for (const auto& [rel, facts] : split.initial) {
        engine.add_facts(rel, facts);
    }
    engine.run(threads);

    std::uint64_t expect_batches = 0;
    for (const auto& batch : split.batches) {
        std::size_t fresh = 0;
        for (const auto& [rel, facts] : batch) {
            fresh += engine.ingest(rel, facts);
            ++expect_batches;
        }
        const std::uint64_t iters = engine.refixpoint(threads);
        if (fresh == 0) {
            EXPECT_EQ(iters, 0u) << w.name << ": refixpoint ran on an empty commit";
        }
    }
    const EngineStats s = engine.stats();
    EXPECT_EQ(s.ingest_batches, expect_batches) << w.name;
    if (expect_batches) {
        EXPECT_GT(s.ingest_tuples, 0u) << w.name;
        EXPECT_GT(s.refixpoint_iterations, 0u) << w.name;
    }
    return drain(engine);
}

void expect_equal(const RelationMap& got, const RelationMap& want,
                  const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (const auto& [rel, tuples] : want) {
        const auto it = got.find(rel);
        ASSERT_NE(it, got.end()) << label << "/" << rel;
        EXPECT_EQ(it->second, tuples)
            << label << "/" << rel
            << ": incremental ingest diverges from the one-shot fixpoint";
    }
}

void check_workload(const Workload& w,
                    const std::set<std::string>& keep_whole = {}) {
    const unsigned full = dtree::util::env_threads(8);
    constexpr unsigned kBatches = 4;

    const RelationMap want = one_shot<DefaultEngine>(w, 1);
    expect_equal(incremental<DefaultEngine>(w, 1, kBatches, keep_whole), want,
                 w.name + "/default/1T");
    expect_equal(incremental<DefaultEngine>(w, full, kBatches, keep_whole), want,
                 w.name + "/default/fullT");

    // Snapshot-enabled storage derives the same relations, batch or not.
    const RelationMap want_snap = one_shot<SnapEngine>(w, 1);
    expect_equal(want_snap, want, w.name + "/snap-one-shot-vs-default");
    expect_equal(incremental<SnapEngine>(w, 1, kBatches, keep_whole), want_snap,
                 w.name + "/snap/1T");
    expect_equal(incremental<SnapEngine>(w, full, kBatches, keep_whole),
                 want_snap, w.name + "/snap/fullT");
}

TEST(DatalogIngest, TransitiveClosureRandom) {
    check_workload(make_transitive_closure(GraphKind::Random, 120, 360, 11));
}

TEST(DatalogIngest, TransitiveClosureChain) {
    // Long chain: each batch re-opens a deep recursion, so refixpoint runs
    // many rotations per commit.
    check_workload(make_transitive_closure(GraphKind::Chain, 120, 119, 3));
}

TEST(DatalogIngest, DoopLike) { check_workload(make_doop_like(180, 7)); }

TEST(DatalogIngest, Ec2Like) {
    // `blocked` feeds negations, so it must load whole; edge/same_group
    // growth is monotone and ingests freely.
    check_workload(make_ec2_like(60, 5), {"blocked"});
}

// A hand-written program whose tag-delta variant of the `hit` rule compiles
// delta-first (index_selection.h): the lead atom carries the constant 7 and
// the repeated variable b, and `w != b` becomes checkable at the lead instead
// of after the second atom. Every storage's K-batch result must equal the
// GoogleBTree one-shot fixpoint.
Workload delta_first_workload() {
    Workload w;
    w.name = "delta_first";
    w.source = R"(
.decl edge(a:number, b:number) input
.decl tag(k:number, x:number, y:number, w:number) input
.decl skip(x:number) input
.decl reach(a:number, b:number)
.decl hit(a:number, b:number) output
reach(a,b) :- edge(a,b).
reach(a,c) :- reach(a,b), edge(b,c).
hit(b,c) :- reach(b,c), tag(7,b,b,w), w != b, !skip(c).
)";
    constexpr Value kNodes = 40;
    Contents edge, tag, skip;
    for (Value v = 0; v < kNodes; ++v) {
        edge.push_back(StorageTuple{v, (v * 7 + 3) % kNodes});
        if (v % 3 == 0) edge.push_back(StorageTuple{v, (v * 11 + 5) % kNodes});
        // Three or four tags per node, so every kind lands in some batch.
        tag.push_back(StorageTuple{7, v, v, v});           // fails w != b
        tag.push_back(StorageTuple{7, v, v + 1, 100 + v}); // repeated-variable miss
        tag.push_back(StorageTuple{3, v, v, 100 + v});     // constant miss
        if (v % 2 == 1) tag.push_back(StorageTuple{7, v, v, 200 + v}); // match
        if (v % 6 == 0) skip.push_back(StorageTuple{v});
    }
    w.facts.emplace_back("edge", std::move(edge));
    w.facts.emplace_back("tag", std::move(tag));
    w.facts.emplace_back("skip", std::move(skip));
    w.output_relations = {"hit"};
    return w;
}

/// Tuples per relation in sorted order (hash storages drain unordered).
RelationMap sorted(RelationMap m) {
    for (auto& [rel, tuples] : m) std::sort(tuples.begin(), tuples.end());
    return m;
}

template <typename... Storages>
void expect_batches_match_one_shot(const Workload& w, const RelationMap& want,
                                   const std::set<std::string>& keep_whole) {
    const unsigned full = dtree::util::env_threads(8);
    (
        [&] {
            using E = Engine<Storages>;
            const std::string label = w.name + "/" + Storages::name();
            expect_equal(sorted(incremental<E>(w, 1, 4, keep_whole)), want,
                         label + "/1T");
            expect_equal(sorted(incremental<E>(w, full, 4, keep_whole)), want,
                         label + "/fullT");
        }(),
        ...);
}

TEST(DatalogIngest, DeltaFirstVariantOnAllStorages) {
    const Workload w = delta_first_workload();
    const AnalyzedProgram prog = compile(w.source);
    const IndexSelection sel = select_indexes(prog);
    ASSERT_EQ(sel.rules[2].deltas.size(), 2u);
    ASSERT_EQ(sel.rules[2].deltas[1].delta_pos, 0) << "tag-delta must lead";
    ASSERT_EQ(sel.rules[2].deltas[1].body[0].relation, prog.relation_id("tag"));

    const RelationMap want = sorted(one_shot<Engine<storage::GoogleBTree>>(w, 1));
    ASSERT_FALSE(want.at("hit").empty());
    expect_batches_match_one_shot<storage::OurBTree, storage::OurBTreeSnap,
                                  storage::OurBTreeFp, storage::OurBTreeNoHints,
                                  storage::StlSet,
                                  storage::StlHashSet, storage::GoogleBTree,
                                  storage::TbbHashSet>(w, want, {"skip"});
}

// Serve-probe shape: reader threads pin snapshots and self-check WHILE
// ingest batches commit (this is the configuration the TSan CI leg runs).
TEST(DatalogIngest, SnapshotReadersDuringIngest) {
    const unsigned threads = dtree::util::env_threads(4);
    const Workload w = make_transitive_closure(GraphKind::Random, 120, 360, 13);
    const RelationMap want = one_shot<SnapEngine>(w, 1);
    const SplitWorkload split = split_facts(w, 6, {});

    SnapEngine engine(compile(w.source));
    for (const auto& [rel, facts] : split.initial) engine.add_facts(rel, facts);
    engine.run(threads);

    std::vector<std::string> names;
    for (const auto& d : engine.analyzed().decls) names.push_back(d.name);

    struct Observation {
        std::uint64_t epoch;
        Contents tuples;
    };
    struct ReaderLog {
        std::map<std::string, std::vector<Observation>> per_relation;
        bool ok = true;
    };
    std::atomic<bool> stop{false};
    std::vector<ReaderLog> logs(2);
    std::vector<std::thread> readers;
    for (unsigned r = 0; r < logs.size(); ++r) {
        readers.emplace_back([&, r] {
            do {
                for (const auto& name : names) {
                    const auto snap = engine.relation(name).snapshot();
                    Observation obs{snap.epoch(), {}};
                    snap.for_each(
                        [&](const StorageTuple& t) { obs.tuples.push_back(t); });
                    Contents replay;
                    snap.for_each(
                        [&](const StorageTuple& t) { replay.push_back(t); });
                    if (replay != obs.tuples) logs[r].ok = false;
                    if (!std::is_sorted(obs.tuples.begin(), obs.tuples.end())) {
                        logs[r].ok = false;
                    }
                    logs[r].per_relation[name].push_back(std::move(obs));
                }
                // One more sweep after stop: covers the final epoch publish.
            } while (!stop.load(std::memory_order_acquire));
        });
    }

    for (const auto& batch : split.batches) {
        for (const auto& [rel, facts] : batch) engine.ingest(rel, facts);
        engine.refixpoint(threads);
    }

    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();

    const RelationMap fin = drain(engine);
    expect_equal(fin, want, "tc/snap/readers-during-ingest");

    for (const auto& log : logs) {
        ASSERT_TRUE(log.ok) << "a mid-ingest snapshot was unsorted or torn";
        for (const auto& [name, observations] : log.per_relation) {
            const Contents& final_rel = fin.at(name);
            std::vector<const Observation*> by_epoch;
            for (const auto& o : observations) by_epoch.push_back(&o);
            std::stable_sort(by_epoch.begin(), by_epoch.end(),
                             [](const Observation* a, const Observation* b) {
                                 return a->epoch < b->epoch;
                             });
            for (std::size_t i = 0; i < by_epoch.size(); ++i) {
                const Observation& obs = *by_epoch[i];
                ASSERT_TRUE(std::includes(final_rel.begin(), final_rel.end(),
                                          obs.tuples.begin(), obs.tuples.end()))
                    << name << " epoch " << obs.epoch
                    << ": snapshot holds tuples missing from the final relation";
                if (i == 0) continue;
                const Observation& prev = *by_epoch[i - 1];
                ASSERT_TRUE(std::includes(obs.tuples.begin(), obs.tuples.end(),
                                          prev.tuples.begin(),
                                          prev.tuples.end()))
                    << name << ": epoch " << obs.epoch
                    << " lost tuples visible at epoch " << prev.epoch;
            }
        }
    }
}

TEST(DatalogIngest, RejectsIngestIntoNegatedClosure) {
    const Workload w = make_ec2_like(40, 3);
    DefaultEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(2);

    // `blocked` is read under negation: growth could invalidate derivations
    // the insert-only storage can never retract.
    EXPECT_THROW(engine.ingest("blocked", {StorageTuple{1, 2, 0, 0}}),
                 std::runtime_error);
    // Monotone relations ingest freely.
    EXPECT_NO_THROW(engine.ingest("edge", {StorageTuple{1, 2, 0, 0}}));
}

TEST(DatalogIngest, UnknownRelationThrows) {
    const Workload w = make_transitive_closure(GraphKind::Chain, 10, 9, 1);
    DefaultEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(1);
    EXPECT_THROW(engine.ingest("nonesuch", {StorageTuple{1, 2, 0, 0}}),
                 std::runtime_error);
}

TEST(DatalogIngest, DuplicateIngestIsNoop) {
    const Workload w = make_transitive_closure(GraphKind::Random, 60, 180, 2);
    DefaultEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(2);
    const RelationMap before = drain(engine);

    // Re-ingesting facts already in FULL buffers nothing and the commit is
    // a no-op fixpoint.
    const Contents& edges = w.facts.front().second;
    const Contents dup(edges.begin(),
                       edges.begin() + static_cast<std::ptrdiff_t>(
                                           std::min<std::size_t>(8, edges.size())));
    EXPECT_EQ(engine.ingest("edge", dup), 0u);
    EXPECT_EQ(engine.refixpoint(2), 0u);
    expect_equal(drain(engine), before, "tc/duplicate-ingest");

    const EngineStats s = engine.stats();
    EXPECT_EQ(s.ingest_batches, 1u);
    EXPECT_EQ(s.ingest_tuples, 0u);
    EXPECT_EQ(s.refixpoint_iterations, 0u);
}

TEST(DatalogIngest, PendingBatchDeduplicatesAcrossIngests) {
    const Workload w = make_transitive_closure(GraphKind::Chain, 20, 19, 4);
    DefaultEngine engine(compile(w.source));
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    engine.run(1);

    const Contents fresh{StorageTuple{100, 101, 0, 0}};
    EXPECT_EQ(engine.ingest("edge", fresh), 1u);
    // Same tuple again before the commit: already pending, not double-counted.
    EXPECT_EQ(engine.ingest("edge", fresh), 0u);
    EXPECT_GT(engine.refixpoint(1), 0u);

    const Contents edge_now = engine.tuples("edge");
    EXPECT_EQ(std::count(edge_now.begin(), edge_now.end(),
                         StorageTuple{100, 101, 0, 0}),
              1);
    const Contents path_now = engine.tuples("path");
    EXPECT_NE(std::find(path_now.begin(), path_now.end(),
                        StorageTuple{100, 101, 0, 0}),
              path_now.end())
        << "the committed edge never derived its path tuple";
}

} // namespace
