// Regression suite: larger Datalog programs exercising every engine feature
// in combination — constraints, negation across strata, 4-ary relations,
// wildcards, constant heads, mutual recursion, empty relations, and classic
// textbook programs with independently known answers.

#include "datalog/program.h"
#include "datalog/service.h"
#include "util/json.h"
#include "util/random.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>

namespace {

using namespace dtree::datalog;

// -- comparison constraints ------------------------------------------------------

TEST(Constraints, FilterJoinResults) {
    DefaultEngine engine(compile(R"(
.decl e(x:number, y:number)
.decl up(x:number, y:number) output
e(1,5). e(2,2). e(3,1). e(4,9).
up(x,y) :- e(x,y), x < y.
)"));
    engine.run(1);
    const auto got = engine.tuples("up");
    ASSERT_EQ(got.size(), 2u); // (1,5) and (4,9)
    EXPECT_EQ(got[0][0], 1u);
    EXPECT_EQ(got[1][0], 4u);
}

TEST(Constraints, AllOperators) {
    DefaultEngine engine(compile(R"(
.decl n(x:number)
.decl lt(x:number) output
.decl le(x:number) output
.decl gt(x:number) output
.decl ge(x:number) output
.decl eq(x:number) output
.decl ne(x:number) output
n(1). n(2). n(3).
lt(x) :- n(x), x < 2.
le(x) :- n(x), x <= 2.
gt(x) :- n(x), x > 2.
ge(x) :- n(x), x >= 2.
eq(x) :- n(x), x = 2.
ne(x) :- n(x), x != 2.
)"));
    engine.run(1);
    EXPECT_EQ(engine.relation("lt").size(), 1u);
    EXPECT_EQ(engine.relation("le").size(), 2u);
    EXPECT_EQ(engine.relation("gt").size(), 1u);
    EXPECT_EQ(engine.relation("ge").size(), 2u);
    EXPECT_EQ(engine.relation("eq").size(), 1u);
    EXPECT_EQ(engine.relation("ne").size(), 2u);
}

TEST(Constraints, CrossAtomComparison) {
    // Ascending triangles: a < b < c with all three edges present.
    DefaultEngine engine(compile(R"(
.decl e(x:number, y:number)
.decl tri(a:number, b:number, c:number) output
e(1,2). e(2,3). e(1,3). e(3,1). e(2,1).
tri(a,b,c) :- e(a,b), e(b,c), e(a,c), a < b, b < c.
)"));
    engine.run(1);
    const auto got = engine.tuples("tri");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0][0], 1u);
    EXPECT_EQ(got[0][1], 2u);
    EXPECT_EQ(got[0][2], 3u);
}

TEST(Constraints, ConstantOnlyGate) {
    DefaultEngine engine(compile(R"(
.decl a(x:number) output
.decl b(x:number) output
a(7) :- 1 < 2.
b(7) :- 2 < 1.
)"));
    engine.run(1);
    EXPECT_EQ(engine.relation("a").size(), 1u);
    EXPECT_EQ(engine.relation("b").size(), 0u);
}

TEST(Constraints, InRecursiveRuleBoundsDerivation) {
    // Paths that only ever move to higher node ids.
    DefaultEngine engine(compile(R"(
.decl e(x:number, y:number)
.decl up(x:number, y:number) output
e(1,2). e(2,3). e(3,2). e(3,4).
up(x,y) :- e(x,y), x < y.
up(x,z) :- up(x,y), e(y,z), y < z.
)"));
    engine.run(1);
    std::set<std::pair<Value, Value>> got;
    for (const auto& t : engine.tuples("up")) got.emplace(t[0], t[1]);
    const std::set<std::pair<Value, Value>> expect{
        {1, 2}, {2, 3}, {3, 4}, {1, 3}, {1, 4}, {2, 4}};
    EXPECT_EQ(got, expect);
}

TEST(Constraints, UnboundVariableRejected) {
    EXPECT_THROW(compile(R"(
.decl a(x:number)
.decl b(x:number)
b(x) :- a(x), x < y.
)"),
                 std::runtime_error);
}

TEST(Constraints, ConstraintInHeadPositionRejected) {
    EXPECT_THROW(compile(".decl a(x:number)\n1 < 2 :- a(1)."), std::runtime_error);
}

// -- textbook programs -------------------------------------------------------------

TEST(Regress, SameGeneration) {
    // Classic same-generation on a balanced binary tree of depth 3.
    DefaultEngine engine(compile(R"(
.decl parent(c:number, p:number)
.decl sg(x:number, y:number) output
parent(2,1). parent(3,1).
parent(4,2). parent(5,2). parent(6,3). parent(7,3).
sg(x,y) :- parent(x,p), parent(y,p).
sg(x,y) :- parent(x,px), sg(px,py), parent(y,py).
)"));
    engine.run(2);
    std::set<std::pair<Value, Value>> got;
    for (const auto& t : engine.tuples("sg")) got.emplace(t[0], t[1]);
    // Leaves 4..7 are all same-generation with each other; 2,3 likewise.
    EXPECT_TRUE(got.count({4, 7}));
    EXPECT_TRUE(got.count({7, 4}));
    EXPECT_TRUE(got.count({2, 3}));
    EXPECT_FALSE(got.count({2, 4}));
    EXPECT_FALSE(got.count({1, 4}));
}

TEST(Regress, AncestorWithGenerationCount) {
    DefaultEngine engine(compile(R"(
.decl parent(c:number, p:number)
.decl ancestor(c:number, a:number) output
parent(1,2). parent(2,3). parent(3,4).
ancestor(c,a) :- parent(c,a).
ancestor(c,a) :- parent(c,p), ancestor(p,a).
)"));
    engine.run(1);
    EXPECT_EQ(engine.relation("ancestor").size(), 6u); // 3+2+1
}

TEST(Regress, WinMove) {
    // win(X) :- move(X,Y), !win(Y). — the canonical stratification test:
    // must be REJECTED (win depends negatively on itself).
    EXPECT_THROW(compile(R"(
.decl move(x:number, y:number)
.decl win(x:number)
win(x) :- move(x,y), !win(y).
)"),
                 std::runtime_error);
}

TEST(Regress, ThreeStrataPipeline) {
    DefaultEngine engine(compile(R"(
.decl edge(x:number, y:number)
.decl reach(x:number, y:number)
.decl unreach_pair(x:number, y:number)
.decl summary(x:number) output
edge(1,2). edge(2,3). edge(4,5).
reach(x,y) :- edge(x,y).
reach(x,z) :- reach(x,y), edge(y,z).
unreach_pair(x,y) :- edge(x,_), edge(y,_), !reach(x,y), x != y.
summary(x) :- unreach_pair(x,_).
)"));
    engine.run(2);
    EXPECT_GT(engine.relation("summary").size(), 0u);
    // 1 reaches 2,3 but not 4; so (1,4) is an unreach pair => 1 in summary.
    bool found1 = false;
    for (const auto& t : engine.tuples("summary")) found1 |= (t[0] == 1);
    EXPECT_TRUE(found1);
}

TEST(Regress, QuaternaryRelationsJoin) {
    DefaultEngine engine(compile(R"(
.decl q(a:number, b:number, c:number, d:number)
.decl proj(a:number, d:number) output
q(1,2,3,4). q(1,2,9,8). q(5,6,7,8).
proj(a,d) :- q(a,2,_,d).
)"));
    engine.run(1);
    const auto got = engine.tuples("proj");
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0][1], 4u);
    EXPECT_EQ(got[1][1], 8u);
}

TEST(Regress, EmptyInputRelationsProduceEmptyOutputs) {
    DefaultEngine engine(compile(R"(
.decl e(x:number, y:number) input
.decl p(x:number, y:number) output
p(x,y) :- e(x,y).
p(x,z) :- p(x,y), e(y,z).
)"));
    engine.run(4);
    EXPECT_EQ(engine.relation("p").size(), 0u);
}

TEST(Regress, SelfJoinOnSameRelation) {
    DefaultEngine engine(compile(R"(
.decl e(x:number, y:number)
.decl two_hop(x:number, z:number) output
e(1,2). e(2,3). e(3,4). e(2,4).
two_hop(x,z) :- e(x,y), e(y,z).
)"));
    engine.run(1);
    std::set<std::pair<Value, Value>> got;
    for (const auto& t : engine.tuples("two_hop")) got.emplace(t[0], t[1]);
    // 1->3 (via 2), 1->4 (via 2), 2->4 (via 3)
    EXPECT_TRUE(got.count({1, 3}));
    EXPECT_TRUE(got.count({1, 4}));
    EXPECT_TRUE(got.count({2, 4}));
    EXPECT_EQ(got.size(), 3u);
}

TEST(Regress, ConstantInHeadAndBody) {
    DefaultEngine engine(compile(R"(
.decl e(x:number, y:number)
.decl flagged(tag:number, x:number) output
e(1,2). e(3,4).
flagged(99, x) :- e(x, 2).
)"));
    engine.run(1);
    const auto got = engine.tuples("flagged");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0][0], 99u);
    EXPECT_EQ(got[0][1], 1u);
}

TEST(Regress, DiamondDependencyEvaluatesOnce) {
    DefaultEngine engine(compile(R"(
.decl base(x:number)
.decl left(x:number)
.decl right(x:number)
.decl top(x:number) output
base(1). base(2).
left(x) :- base(x).
right(x) :- base(x).
top(x) :- left(x), right(x).
)"));
    engine.run(1);
    EXPECT_EQ(engine.relation("top").size(), 2u);
}

TEST(Regress, RuleProfileAccountsForEvaluations) {
    DefaultEngine engine(compile(R"(
.decl e(x:number, y:number) input
.decl tc(x:number, y:number) output
tc(x,y) :- e(x,y).
tc(x,z) :- tc(x,y), e(y,z).
)"));
    std::vector<StorageTuple> edges;
    for (Value i = 0; i + 1 < 200; ++i) edges.push_back(StorageTuple{i, i + 1});
    engine.add_facts("e", edges);
    EXPECT_TRUE(engine.profile().empty()) << "no profile before run()";
    engine.run(2);
    const auto profile = engine.profile();
    ASSERT_EQ(profile.size(), 2u);
    // Sorted by time: the recursive rule dominates a 200-chain closure.
    EXPECT_TRUE(profile[0].recursive);
    EXPECT_EQ(profile[0].head, "tc");
    EXPECT_GE(profile[0].seconds, 0.0);
    // The recursive rule re-evaluates once per fixpoint iteration; the
    // non-recursive rule exactly once.
    EXPECT_GT(profile[0].evaluations, 100u);
    EXPECT_EQ(profile[1].evaluations, 1u);

    // Per variant: the one-shot run only evaluates the tc-delta variant of
    // the recursive rule and the base form of the other one.
    ASSERT_EQ(profile[0].variants.size(), 1u);
    EXPECT_EQ(profile[0].variants[0].delta_atom, 0);
    EXPECT_EQ(profile[0].variants[0].lead, "tc");
    EXPECT_EQ(profile[0].variants[0].evaluations, profile[0].evaluations);
    EXPECT_EQ(profile[0].variants[0].seconds, profile[0].seconds);
    ASSERT_EQ(profile[1].variants.size(), 1u);
    EXPECT_EQ(profile[1].variants[0].delta_atom, -1);
    EXPECT_EQ(profile[1].variants[0].lead, "e");
    EXPECT_EQ(profile[1].variants[0].outer_tuples, 199u);

    // A commit on e runs the e-delta variants; the rule totals stay the sum
    // of their variants. tc(·,y) has no index, so the recursive rule's
    // e-delta variant keeps source order and still leads with tc.
    engine.ingest("e", {StorageTuple{199, 200}});
    engine.refixpoint(2);
    for (const RuleProfile& p : engine.profile()) {
        std::uint64_t evaluations = 0;
        for (const VariantProfile& v : p.variants) evaluations += v.evaluations;
        EXPECT_EQ(evaluations, p.evaluations) << "rule #" << p.rule_index;
    }
    const auto after = engine.profile();
    const RuleProfile& rec = after[0].recursive ? after[0] : after[1];
    ASSERT_EQ(rec.variants.size(), 2u);
    EXPECT_EQ(rec.variants[1].delta_atom, 1);
    EXPECT_EQ(rec.variants[1].lead, "tc");
    EXPECT_EQ(rec.variants[1].evaluations, 1u);

    std::ostringstream os;
    dtree::json::Writer w(os);
    rec.write_json(w);
    EXPECT_NE(os.str().find("\"variants\""), std::string::npos);
    EXPECT_NE(os.str().find("\"outer_tuples\""), std::string::npos);
}

// Relation::scan_prefix on plain (non-snapshot) ordered storage used to pass
// the prefix's exclusive successor to the adapter's inclusive range scan, so
// a scan of prefix 1 also returned (2,0).
TEST(Regress, ScanPrefixStaysInsideItsPrefix) {
    constexpr Value kMax = std::numeric_limits<Value>::max();
    DefaultEngine engine(compile(R"(
.decl s(a:number, b:number) input
)"));
    engine.add_facts("s", {StorageTuple{1, 5}, StorageTuple{1, 7}, StorageTuple{2, 0},
                           StorageTuple{kMax, 3}, StorageTuple{kMax, kMax}});
    engine.run(1);
    EngineService<DefaultEngine> service(engine);
    auto scan = [&](StorageTuple bound, unsigned prefix) {
        std::vector<StorageTuple> out;
        service.scan("s", bound, prefix, [&](const StorageTuple& t) { out.push_back(t); });
        return out;
    };
    using Tuples = std::vector<StorageTuple>;
    EXPECT_EQ(scan(StorageTuple{1}, 1), (Tuples{{1, 5}, {1, 7}}));
    EXPECT_EQ(scan(StorageTuple{2}, 1), (Tuples{{2, 0}}));
    EXPECT_EQ(scan(StorageTuple{1, 7}, 2), (Tuples{{1, 7}}));
    EXPECT_TRUE(scan(StorageTuple{3}, 1).empty());
    // All-max prefixes: no exclusive successor exists.
    EXPECT_EQ(scan(StorageTuple{kMax}, 1), (Tuples{{kMax, 3}, {kMax, kMax}}));
    EXPECT_EQ(scan(StorageTuple{kMax, kMax}, 2), (Tuples{{kMax, kMax}}));
    EXPECT_EQ(scan(StorageTuple{}, 0).size(), 5u);
}

TEST(Regress, LargeRandomTcParallelStressAcrossSeeds) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        dtree::util::Rng rng(seed);
        std::vector<StorageTuple> edges;
        for (int i = 0; i < 400; ++i) {
            edges.push_back(StorageTuple{
                dtree::util::uniform_int<Value>(rng, 0, 120),
                dtree::util::uniform_int<Value>(rng, 0, 120)});
        }
        std::size_t seq_size = 0;
        {
            DefaultEngine engine(compile(R"(
.decl e(x:number, y:number) input
.decl tc(x:number, y:number) output
tc(x,y) :- e(x,y).
tc(x,z) :- tc(x,y), e(y,z).
)"));
            engine.add_facts("e", edges);
            engine.run(1);
            seq_size = engine.relation("tc").size();
        }
        DefaultEngine engine(compile(R"(
.decl e(x:number, y:number) input
.decl tc(x:number, y:number) output
tc(x,y) :- e(x,y).
tc(x,z) :- tc(x,y), e(y,z).
)"));
        engine.add_facts("e", edges);
        engine.run(8);
        EXPECT_EQ(engine.relation("tc").size(), seq_size) << "seed " << seed;
    }
}

} // namespace
