// Frontend tests for soufflette: lexer, parser, semantic analysis (including
// stratification) and index selection.

#include "datalog/index_selection.h"
#include "datalog/lexer.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "datalog/semantics.h"

#include <gtest/gtest.h>

namespace {

using namespace dtree::datalog;

// -- lexer ---------------------------------------------------------------------

TEST(Lexer, TokenisesBasicClauses) {
    // path ( x , 1 ) :- edge ( x , y ) . <eof>
    auto tokens = lex("path(x,1) :- edge(x,y).");
    ASSERT_EQ(tokens.size(), 15u); // incl. End
    EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[0].text, "path");
    EXPECT_EQ(tokens[4].kind, TokenKind::Number);
    EXPECT_EQ(tokens[4].number, 1u);
    EXPECT_EQ(tokens[6].kind, TokenKind::ColonDash);
    EXPECT_EQ(tokens[13].kind, TokenKind::Dot);
    EXPECT_EQ(tokens.back().kind, TokenKind::End);
}

TEST(Lexer, DirectivesFuseDotAndKeyword) {
    // .decl edge ( x : number , y : number ) <eof>
    auto tokens = lex(".decl edge(x:number, y:number)");
    EXPECT_EQ(tokens[0].kind, TokenKind::Directive);
    EXPECT_EQ(tokens[0].text, "decl");
    EXPECT_EQ(tokens[4].kind, TokenKind::Colon);
}

TEST(Lexer, SkipsComments) {
    auto tokens = lex("// line comment\n/* block\ncomment */ edge(1,2).");
    EXPECT_EQ(tokens[0].text, "edge");
}

TEST(Lexer, TracksLineNumbers) {
    auto tokens = lex("a(1).\nb(2).");
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[5].line, 2); // 'b'
}

TEST(Lexer, RejectsInvalidCharacters) {
    EXPECT_THROW(lex("edge(1,2) @ foo."), std::runtime_error);
    EXPECT_THROW(lex("/* unterminated"), std::runtime_error);
}

// -- parser --------------------------------------------------------------------

TEST(Parser, ParsesDeclarationsAndRules) {
    auto prog = parse(R"(
.decl edge(x:number, y:number) input
.decl path(x:number, y:number) output
path(x,y) :- edge(x,y).
path(x,z) :- path(x,y), edge(y,z).
edge(1,2).
)");
    ASSERT_EQ(prog.declarations.size(), 2u);
    EXPECT_TRUE(prog.declarations[0].is_input);
    EXPECT_TRUE(prog.declarations[1].is_output);
    ASSERT_EQ(prog.rules.size(), 3u);
    EXPECT_FALSE(prog.rules[0].is_fact());
    EXPECT_TRUE(prog.rules[2].is_fact());
    EXPECT_EQ(prog.rules[2].head.args[0].constant, 1u);
}

TEST(Parser, ParsesNegation) {
    auto prog = parse(R"(
.decl a(x:number)
.decl b(x:number)
.decl c(x:number)
c(x) :- a(x), !b(x).
)");
    ASSERT_EQ(prog.rules.size(), 1u);
    EXPECT_FALSE(prog.rules[0].body[0].negated);
    EXPECT_TRUE(prog.rules[0].body[1].negated);
}

TEST(Parser, WildcardsBecomeFreshVariables) {
    auto prog = parse(R"(
.decl e(x:number, y:number)
.decl n(x:number)
n(x) :- e(x,_), e(_,x).
)");
    const auto& body = prog.rules[0].body;
    EXPECT_NE(body[0].args[1].var, body[1].args[0].var)
        << "each wildcard must be a distinct variable";
}

TEST(Parser, SeparateInputOutputDirectives) {
    auto prog = parse(R"(
.decl e(x:number, y:number)
.input e
.output e
)");
    EXPECT_TRUE(prog.declarations[0].is_input);
    EXPECT_TRUE(prog.declarations[0].is_output);
}

TEST(Parser, SyntaxErrorsCarryLocation) {
    try {
        parse(".decl e(x:number,)");
        FAIL() << "expected parse error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("1:"), std::string::npos) << e.what();
    }
    EXPECT_THROW(parse("e(1,2)"), std::runtime_error);   // missing dot
    EXPECT_THROW(parse("!e(1) :- f(1)."), std::runtime_error); // negated head
    EXPECT_THROW(parse(".decl e(a,b,c,d,e)"), std::runtime_error); // arity > max
}

// -- semantic analysis ------------------------------------------------------------

TEST(Semantics, RejectsUndeclaredAndArityMismatch) {
    EXPECT_THROW(compile(".decl a(x:number)\na(x) :- b(x)."), std::runtime_error);
    EXPECT_THROW(compile(".decl a(x:number)\n.decl b(x:number, y:number)\n"
                         "a(x) :- b(x)."),
                 std::runtime_error);
    EXPECT_THROW(compile(".decl a(x:number)\n.decl a(y:number)\n"), std::runtime_error);
}

TEST(Semantics, RejectsUngroundedHeadsAndNegation) {
    EXPECT_THROW(compile(".decl a(x:number)\n.decl b(x:number)\na(y) :- b(x)."),
                 std::runtime_error);
    EXPECT_THROW(compile(".decl a(x:number)\n.decl b(x:number)\n.decl c(x:number)\n"
                         "a(x) :- b(x), !c(y)."),
                 std::runtime_error);
    EXPECT_THROW(compile(".decl a(x:number)\na(x)."), std::runtime_error); // variable fact
}

TEST(Semantics, RejectsArityBeyondTupleCapacity) {
    // The parser guards arity for textual programs, but a Program built
    // programmatically goes straight to analyze(); before the fix an
    // arity-33 declaration sailed through and the engine's fixed-capacity
    // StorageTuple writes would run past the tuple. The analyzer must
    // reject it with a diagnostic naming the relation and the capacity.
    Program program;
    RelationDecl wide;
    wide.name = "wide";
    for (int i = 0; i < 33; ++i) {
        wide.attribute_names.push_back("c" + std::to_string(i));
        wide.attribute_types.push_back(AttrType::Number);
    }
    program.declarations.push_back(wide);
    try {
        analyze(std::move(program));
        FAIL() << "expected a semantic error for arity 33";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("wide"), std::string::npos) << msg;
        EXPECT_NE(msg.find("arity 33"), std::string::npos) << msg;
        EXPECT_NE(msg.find("at most 4"), std::string::npos) << msg;
    }
}

TEST(Semantics, RejectsUnstratifiableNegation) {
    EXPECT_THROW(compile(R"(
.decl a(x:number)
.decl b(x:number)
a(x) :- b(x).
b(x) :- a(x), !b(x).
)"),
                 std::runtime_error);
}

TEST(Semantics, StratifiesDependenciesInOrder) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl tc(x:number, y:number)
.decl not_reached(x:number, y:number) output
tc(x,y) :- e(x,y).
tc(x,z) :- tc(x,y), e(y,z).
not_reached(x,y) :- e(x,y), !tc(y,x).
)");
    // e's stratum before tc's before not_reached's.
    std::size_t s_e = 0, s_tc = 0, s_nr = 0;
    for (std::size_t s = 0; s < prog.strata.size(); ++s) {
        for (std::size_t r : prog.strata[s].relations) {
            if (prog.decls[r].name == "e") s_e = s;
            if (prog.decls[r].name == "tc") s_tc = s;
            if (prog.decls[r].name == "not_reached") s_nr = s;
        }
    }
    EXPECT_LT(s_e, s_tc);
    EXPECT_LT(s_tc, s_nr);
    // tc is recursive, not_reached is not.
    for (const auto& st : prog.strata) {
        for (std::size_t r : st.relations) {
            if (prog.decls[r].name == "tc") EXPECT_TRUE(st.recursive);
            if (prog.decls[r].name == "not_reached") EXPECT_FALSE(st.recursive);
        }
    }
}

TEST(Semantics, MutualRecursionSharesAStratum) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl odd(x:number, y:number)
.decl even(x:number, y:number)
even(x,x) :- e(x,_).
odd(x,z) :- even(x,y), e(y,z).
even(x,z) :- odd(x,y), e(y,z).
)");
    std::size_t s_odd = 99, s_even = 98;
    for (std::size_t s = 0; s < prog.strata.size(); ++s) {
        for (std::size_t r : prog.strata[s].relations) {
            if (prog.decls[r].name == "odd") s_odd = s;
            if (prog.decls[r].name == "even") s_even = s;
        }
    }
    EXPECT_EQ(s_odd, s_even);
}

// -- rule compilation & index selection ---------------------------------------------

TEST(IndexSelection, BoundMaskTracksEarlierAtoms) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl p(x:number, y:number)
p(x,z) :- p(x,y), e(y,z).
)");
    const auto cr = compile_rule(prog, 0);
    ASSERT_EQ(cr.body.size(), 2u);
    EXPECT_EQ(cr.body[0].bound_mask, 0u) << "first atom has nothing bound";
    EXPECT_EQ(cr.body[1].bound_mask, 0b01u) << "e's first column bound by p's y";
    EXPECT_EQ(cr.num_vars, 3u);
}

TEST(IndexSelection, ConstantsCountAsBound) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl q(y:number)
q(y) :- e(7,y).
)");
    const auto cr = compile_rule(prog, 0);
    EXPECT_EQ(cr.body[0].bound_mask, 0b01u);
    EXPECT_EQ(cr.body[0].cols[0].kind, ColumnRef::Kind::Constant);
    EXPECT_EQ(cr.body[0].cols[0].constant, 7u);
}

TEST(IndexSelection, NegatedAtomsMoveToTheEnd) {
    auto prog = compile(R"(
.decl a(x:number)
.decl b(x:number)
.decl c(x:number)
c(x) :- !b(x), a(x).
)");
    const auto cr = compile_rule(prog, 0);
    ASSERT_EQ(cr.body.size(), 2u);
    EXPECT_FALSE(cr.body[0].negated);
    EXPECT_TRUE(cr.body[1].negated);
    EXPECT_EQ(cr.body[1].bound_mask, 0b1u) << "negated atom fully bound after reorder";
}

TEST(IndexSelection, PrimaryServesPrefixSignatures) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl p(x:number, y:number)
p(x,z) :- p(x,y), e(y,z).
)");
    const auto sel = select_indexes(prog);
    const auto e_id = prog.relation_id("e");
    // e is probed with column 0 bound: identity order serves it; exactly one
    // index needed.
    EXPECT_EQ(sel.relation_indexes[e_id].size(), 1u);
    const auto& plan_rec = sel.rules[0].base.body[1].plan;
    EXPECT_FALSE(plan_rec.full_scan);
    EXPECT_EQ(plan_rec.index, 0u);
    EXPECT_EQ(plan_rec.bound_prefix, 1u);
}

TEST(IndexSelection, NonPrefixSignatureGetsSecondaryIndex) {
    auto prog = compile(R"(
.decl e(x:number, y:number) input
.decl q(x:number)
.decl r(x:number)
r(x) :- q(x), e(y,x).
)");
    const auto sel = select_indexes(prog);
    const auto e_id = prog.relation_id("e");
    // e probed with column 1 bound: needs an index ordered (y-first).
    ASSERT_EQ(sel.relation_indexes[e_id].size(), 2u);
    EXPECT_EQ(sel.relation_indexes[e_id][1].order[0], 1u);
    const auto& plan = sel.rules[0].base.body[1].plan;
    EXPECT_FALSE(plan.full_scan);
    EXPECT_EQ(plan.index, 1u);
    EXPECT_EQ(plan.bound_prefix, 1u);
}

TEST(IndexSelection, ChainedSignaturesShareOneIndex) {
    auto prog = compile(R"(
.decl t(x:number, y:number, z:number) input
.decl a(x:number)
.decl q1(x:number)
.decl q2(x:number)
q1(x) :- a(x), t(x,_,_).
q2(z) :- a(x), a(y), t(x,y,z).
)");
    const auto sel = select_indexes(prog);
    const auto t_id = prog.relation_id("t");
    // Signatures {0} and {0,1} chain onto the identity order: one index.
    EXPECT_EQ(sel.relation_indexes[t_id].size(), 1u);
}

TEST(IndexSelection, ServedPrefixSemantics) {
    IndexOrder identity;
    identity.arity = 3;
    identity.order = {0, 1, 2, 0};
    EXPECT_EQ(identity.served_prefix(0b001), 1);
    EXPECT_EQ(identity.served_prefix(0b011), 2);
    EXPECT_EQ(identity.served_prefix(0b111), 3);
    EXPECT_EQ(identity.served_prefix(0b010), -1);
    EXPECT_EQ(identity.served_prefix(0b110), -1);
    EXPECT_EQ(identity.served_prefix(0), 0);
}

} // namespace
