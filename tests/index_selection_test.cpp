// Focused tests for the index selection machinery (simplified [29]): chain
// cover minimality on crafted signature sets, permutation correctness, the
// evaluator actually using secondary indexes (observable via counters), and
// which semi-naïve delta variants compile delta-first.

#include "datalog/index_selection.h"
#include "datalog/program.h"
#include "datalog/workloads.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace dtree::datalog;

TEST(ChainCover, ThreeNestedSignaturesOneIndex) {
    // t probed with {0}, {0,1}, {0,1,2}: all nested -> identity serves all.
    auto prog = compile(R"(
.decl t(a:number, b:number, c:number) input
.decl s(x:number)
.decl r1(x:number)
.decl r2(x:number)
.decl r3(x:number)
r1(a) :- s(a), t(a,_,_).
r2(b) :- s(a), s(b), t(a,b,_).
r3(c) :- s(a), s(b), s(c), t(a,b,c).
)");
    const auto sel = select_indexes(prog);
    EXPECT_EQ(sel.relation_indexes[prog.relation_id("t")].size(), 1u);
}

TEST(ChainCover, DisjointSignaturesNeedSeparateIndexes) {
    // t probed with {0} and {1} and {2}: pairwise incomparable -> 3 chains,
    // identity covers {0}, two extra indexes.
    auto prog = compile(R"(
.decl t(a:number, b:number, c:number) input
.decl s(x:number)
.decl r1(x:number)
.decl r2(x:number)
.decl r3(x:number)
r1(a) :- s(a), t(a,_,_).
r2(b) :- s(b), t(_,b,_).
r3(c) :- s(c), t(_,_,c).
)");
    const auto sel = select_indexes(prog);
    const auto& indexes = sel.relation_indexes[prog.relation_id("t")];
    EXPECT_EQ(indexes.size(), 3u);
    // Each signature must be served by some index.
    bool col1 = false, col2 = false;
    for (const auto& idx : indexes) {
        if (idx.served_prefix(0b010) >= 0) col1 = true;
        if (idx.served_prefix(0b100) >= 0) col2 = true;
    }
    EXPECT_TRUE(col1);
    EXPECT_TRUE(col2);
}

TEST(ChainCover, OverlappingButChainableShareIndex) {
    // Signatures {1} and {1,2}: one chain -> one extra index ordered (b,c,..).
    auto prog = compile(R"(
.decl t(a:number, b:number, c:number) input
.decl s(x:number)
.decl r1(x:number)
.decl r2(x:number)
r1(b) :- s(b), t(_,b,_).
r2(c) :- s(b), s(c), t(_,b,c).
)");
    const auto sel = select_indexes(prog);
    const auto& indexes = sel.relation_indexes[prog.relation_id("t")];
    ASSERT_EQ(indexes.size(), 2u);
    EXPECT_EQ(indexes[1].order[0], 1u);
    EXPECT_EQ(indexes[1].order[1], 2u);
    EXPECT_EQ(indexes[1].served_prefix(0b010), 1);
    EXPECT_EQ(indexes[1].served_prefix(0b110), 2);
}

TEST(ChainCover, FullyBoundNeedsNoExtraIndex) {
    auto prog = compile(R"(
.decl t(a:number, b:number) input
.decl s(x:number)
.decl r(x:number)
r(a) :- s(a), s(b), t(a,b).
)");
    const auto sel = select_indexes(prog);
    EXPECT_EQ(sel.relation_indexes[prog.relation_id("t")].size(), 1u);
    const auto& plan = sel.rules[0].base.body[2].plan;
    EXPECT_FALSE(plan.full_scan);
    EXPECT_EQ(plan.bound_prefix, 2u);
}

TEST(ChainCover, NegatedAtomsNeverCreateIndexes) {
    auto prog = compile(R"(
.decl t(a:number, b:number) input
.decl s(x:number)
.decl r(x:number)
r(a) :- s(a), s(b), !t(b,a).
)");
    const auto sel = select_indexes(prog);
    EXPECT_EQ(sel.relation_indexes[prog.relation_id("t")].size(), 1u);
}

// The engine must actually exercise a secondary index: probing e by its
// second column with an ordered storage produces range queries (bounds
// counters), not full scans.
TEST(IndexUse, SecondaryIndexServesReversedJoin) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl start(x:number) input
.decl pred(x:number) output
pred(p) :- start(x), e(p,x).
)");
    Engine<storage::OurBTree> engine(prog);
    std::vector<StorageTuple> edges;
    for (Value i = 0; i < 1000; ++i) edges.push_back(StorageTuple{i, i % 10});
    engine.add_facts("e", edges);
    engine.add_facts("start", {StorageTuple{3}});
    engine.run(1);
    EXPECT_EQ(engine.relation("pred").size(), 100u);
    const auto ops = engine.relation("e").counters();
    EXPECT_GT(ops.lower_bound_calls, 0u) << "join must use a range query";
    // Secondary index insertion doubles e's storage; verify it exists.
    EXPECT_EQ(engine.relation("e").index_count(), 2u);
}

TEST(IndexUse, UnorderedStorageFallsBackToScans) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl start(x:number) input
.decl pred(x:number) output
pred(p) :- start(x), e(p,x).
)");
    Engine<storage::TbbHashSet> engine(prog);
    std::vector<StorageTuple> edges;
    for (Value i = 0; i < 200; ++i) edges.push_back(StorageTuple{i, i % 10});
    engine.add_facts("e", edges);
    engine.add_facts("start", {StorageTuple{3}});
    engine.run(1);
    EXPECT_EQ(engine.relation("pred").size(), 20u);
    // Hash storage keeps only the primary index and cannot range-query.
    EXPECT_EQ(engine.relation("e").index_count(), 1u);
    EXPECT_EQ(engine.relation("e").counters().lower_bound_calls, 0u);
}

TEST(IndexOrderTest, PermutationRoundTripInsideRelation) {
    // A relation with a secondary index must return tuples in SOURCE column
    // order from scans over either index.
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl s(x:number)
.decl out(x:number) output
out(a) :- s(b), e(a,b).
)");
    Engine<storage::OurBTree> engine(prog);
    engine.add_facts("e", {StorageTuple{10, 1}, StorageTuple{20, 2}});
    engine.add_facts("s", {StorageTuple{2}});
    engine.run(1);
    const auto got = engine.tuples("out");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0][0], 20u) << "un-permutation must restore source order";
}

// -- delta-first variants ----------------------------------------------------

/// (rule, k) of every delta variant compiled delta-first. Variant 0 always
/// leads with its delta, so only k > 0 can be reordered.
std::set<std::pair<std::size_t, std::size_t>> reordered(const IndexSelection& sel) {
    std::set<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t r = 0; r < sel.rules.size(); ++r) {
        const auto& deltas = sel.rules[r].deltas;
        for (std::size_t k = 1; k < deltas.size(); ++k) {
            if (deltas[k].delta_pos == 0) out.insert({r, k});
        }
    }
    return out;
}

/// Every relation's index orders as "name:(cols)(cols)" strings.
std::vector<std::string> index_orders(const AnalyzedProgram& prog,
                                      const IndexSelection& sel) {
    std::vector<std::string> out;
    for (std::size_t r = 0; r < prog.decls.size(); ++r) {
        std::string s = prog.decls[r].name + ":";
        for (const IndexOrder& o : sel.relation_indexes[r]) {
            s += "(";
            for (unsigned i = 0; i < o.arity; ++i) s += std::to_string(o.order[i]);
            s += ")";
        }
        out.push_back(s);
    }
    return out;
}

TEST(DeltaFirst, Ec2ReordersThreeVariants) {
    const auto prog = compile(make_ec2_like(100, 1).source);
    const auto sel = select_indexes(prog);
    // 0: permitted(a,b) :- same_group(a,g), same_group(b,g), !blocked(a,b).
    // 1: reach(a,b) :- edge(a,b), permitted(a,b).
    // 2: reach(a,c) :- reach(a,b), edge(b,c), permitted(a,c), !blocked(b,c).
    const std::set<std::pair<std::size_t, std::size_t>> want{{0, 1}, {1, 1}, {2, 2}};
    EXPECT_EQ(reordered(sel), want);

    // permitted-delta of rule 2: reach probed by a (identity prefix), edge
    // and the negation become membership tests.
    const CompiledRule& v = sel.rules[2].deltas[2];
    ASSERT_EQ(v.body.size(), 4u);
    EXPECT_EQ(v.body[0].relation, prog.relation_id("permitted"));
    EXPECT_EQ(v.body[1].relation, prog.relation_id("reach"));
    EXPECT_EQ(v.body[1].bound_mask, 0b01u);
    EXPECT_EQ(v.body[2].relation, prog.relation_id("edge"));
    EXPECT_EQ(v.body[2].plan.bound_prefix, 2u);
    EXPECT_TRUE(v.body[3].negated);

    // edge-delta of rule 2 would probe reach(·,b): no index serves it, so
    // the variant keeps source order and reads DELTA at position 1.
    const CompiledRule& kept = sel.rules[2].deltas[1];
    EXPECT_EQ(kept.delta_pos, 1);
    EXPECT_EQ(kept.body[0].relation, prog.relation_id("reach"));
}

TEST(DeltaFirst, DoopReordersHptAndCalledge) {
    const auto prog = compile(make_doop_like(100, 1).source);
    const auto sel = select_indexes(prog);
    // 2: hpt(bh,f,h) :- store(base,f,from), vpt(base,bh), vpt(from,h).
    // 4: calledge(to,from) :- invoke(site,m), actual(site,from), formal(m,to).
    const std::set<std::pair<std::size_t, std::size_t>> want{{2, 1}, {4, 1}};
    EXPECT_EQ(reordered(sel), want);
    EXPECT_EQ(prog.program.rules[2].head.relation, "hpt");
    EXPECT_EQ(prog.program.rules[4].head.relation, "calledge");
}

TEST(DeltaFirst, NonlinearClosureKeepsSourceOrder) {
    const auto prog = compile(R"(
.decl edge(x:number, y:number) input
.decl path(x:number, y:number) output
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), path(y,z).
)");
    const auto sel = select_indexes(prog);
    // path(y,z)-first would probe path(·,y): unserved.
    EXPECT_TRUE(reordered(sel).empty());
    ASSERT_EQ(sel.rules[1].deltas.size(), 2u);
    EXPECT_EQ(sel.rules[1].deltas[0].delta_pos, 0);
    EXPECT_EQ(sel.rules[1].deltas[1].delta_pos, 1);
}

TEST(DeltaFirst, VariantsAddNoIndex) {
    // The index sets the base forms alone select.
    const auto ec2 = compile(make_ec2_like(100, 1).source);
    EXPECT_EQ(index_orders(ec2, select_indexes(ec2)),
              (std::vector<std::string>{"edge:(01)", "same_group:(01)(10)",
                                        "blocked:(01)", "permitted:(01)",
                                        "reach:(01)", "exposed:(0)"}));
    const auto doop = compile(make_doop_like(100, 1).source);
    EXPECT_EQ(index_orders(doop, select_indexes(doop)),
              (std::vector<std::string>{"alloc:(01)", "move:(01)", "load:(012)",
                                        "store:(012)", "invoke:(01)", "actual:(01)",
                                        "formal:(01)", "vpt:(01)", "hpt:(012)",
                                        "calledge:(01)"}));
    const auto tc = compile(R"(
.decl edge(x:number, y:number) input
.decl path(x:number, y:number) output
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), path(y,z).
)");
    EXPECT_EQ(index_orders(tc, select_indexes(tc)),
              (std::vector<std::string>{"edge:(01)", "path:(01)"}));
}

TEST(DeltaFirst, ConstraintMovesToTheLead) {
    auto prog = compile(R"(
.decl r(a:number, b:number)
.decl t(k:number, x:number, y:number, w:number)
.decl hit(a:number, b:number)
hit(b,c) :- r(b,c), t(7,b,b,w), w != b.
)");
    const auto sel = select_indexes(prog);
    const RulePlans& rp = sel.rules[0];
    // Base order: w is first bound by t, at position 1.
    ASSERT_EQ(rp.base.constraints.size(), 1u);
    EXPECT_EQ(rp.base.constraints[0].ready_after, 1);
    // t-first: its constant is the lookup prefix, its second b is checked
    // against the first, and `w != b` is checkable right at the lead.
    ASSERT_EQ(rp.deltas.size(), 2u);
    const CompiledRule& v = rp.deltas[1];
    EXPECT_EQ(v.delta_pos, 0);
    EXPECT_EQ(v.body[0].relation, prog.relation_id("t"));
    EXPECT_EQ(v.body[0].bound_mask, 0b0001u);
    EXPECT_FALSE(v.body[0].plan.full_scan);
    EXPECT_EQ(v.body[0].plan.bound_prefix, 1u);
    EXPECT_EQ(v.body[0].cols[2].kind, ColumnRef::Kind::Bound);
    EXPECT_EQ(v.constraints[0].ready_after, 0);
    EXPECT_EQ(v.body[1].bound_mask, 0b01u);
}

} // namespace
