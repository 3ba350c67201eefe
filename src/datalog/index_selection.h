#pragma once

// Rule compilation and automatic index selection (a simplified take on the
// paper's companion work [29], "Optimal On The Fly Index Selection").
//
// Each rule compiles to a base form (positive atoms in source order, then
// the negations) and one semi-naïve delta variant per positive atom k.
// Within a compiled form every body atom has a *search signature*: the set
// of columns whose values are known before the atom is looked up (constants
// + variables bound by earlier atoms). An ordered index whose column order
// starts with exactly those columns answers the lookup as one range query.
// Signatures that are subsets of one another can share an index (the
// smaller set is a prefix of the larger one's order), so the minimum number
// of indexes per relation is a minimum chain cover of its signature set —
// approximated here greedily by chaining the base forms' signatures in
// increasing-cardinality order.
//
// Delta variants are planned against those indexes and add none: variant k
// moves atom k to the front (the join starts from the small DELTA) when
// every later positive atom is then a membership test or a prefix lookup an
// existing index serves; otherwise it keeps the base order and reads DELTA
// at position k.

#include <array>
#include <cstdint>
#include <vector>

#include "datalog/ast.h"
#include "datalog/semantics.h"

namespace dtree::datalog {

/// How one atom column is obtained during evaluation.
struct ColumnRef {
    enum class Kind : std::uint8_t {
        Constant, ///< fixed value
        Bound,    ///< variable already bound (earlier atom or earlier column)
        Free      ///< first occurrence: binds the variable
    };
    Kind kind = Kind::Free;
    Value constant = 0; ///< Kind::Constant
    unsigned var = 0;   ///< Kind::Bound / Kind::Free
};

/// How one atom lookup executes.
struct AtomPlan {
    bool full_scan = true;  ///< no usable signature: iterate everything
    unsigned index = 0;     ///< which of the relation's indexes to use
    unsigned bound_prefix = 0; ///< how many leading index columns are fixed
};

/// A rule body atom lowered to positional form.
struct CompiledAtom {
    std::size_t relation = 0; ///< AnalyzedProgram decl index
    unsigned arity = 0;
    bool negated = false;
    std::array<ColumnRef, kMaxArity> cols{};
    /// Columns whose values are known BEFORE this atom is searched
    /// (constants + variables from earlier atoms) — the search signature.
    std::uint8_t bound_mask = 0;
    /// The lookup serving bound_mask; filled in by select_indexes().
    AtomPlan plan{};
};

/// A lowered comparison constraint: checked as soon as both sides are bound.
struct CompiledConstraint {
    Constraint::Op op;
    ColumnRef lhs, rhs; ///< Constant or Bound (never Free; semantics checked)
    /// Index of the body atom after whose binding the constraint is
    /// evaluable; -1 if both sides are constants (checked before any atom).
    int ready_after = -1;
};

/// A whole rule in evaluation order; head columns are Constant or Bound.
struct CompiledRule {
    CompiledAtom head;
    std::vector<CompiledAtom> body;
    std::vector<CompiledConstraint> constraints;
    unsigned num_vars = 0;
    /// Body position that reads DELTA; -1 for the base form.
    int delta_pos = -1;
};

/// Lowers rule `rule_idx`, numbering variables by first occurrence. The base
/// order is the positive atoms in source order, then the negated ones;
/// `lead` >= 0 moves base position `lead` (a positive atom) to the front.
CompiledRule compile_rule(const AnalyzedProgram& prog, std::size_t rule_idx,
                          int lead = -1);

/// One index: a permutation of the relation's columns (bound columns first).
struct IndexOrder {
    std::array<std::uint8_t, kMaxArity> order{}; ///< order[i] = source column of position i
    unsigned arity = 0;

    /// Does a lookup with this signature match a prefix of the order?
    /// Returns the prefix length, or -1 if not served.
    int served_prefix(std::uint8_t signature) const;
};

/// Every planned form of one rule.
struct RulePlans {
    CompiledRule base; ///< the non-recursive form; delta_pos == -1
    /// deltas[k]: the variant reading DELTA at base position k, one per
    /// positive atom (they lead the base order). delta_pos == 0 for k > 0
    /// means the variant was reordered delta-first.
    std::vector<CompiledRule> deltas;
};

struct IndexSelection {
    /// Per relation (by decl index): its index orders. Index 0 always exists
    /// and is the identity order (the primary index).
    std::vector<std::vector<IndexOrder>> relation_indexes;
    /// Per program rule (facts stay empty): its planned forms.
    std::vector<RulePlans> rules;

    /// The form reading DELTA at base position `delta_atom` (-1: base).
    const CompiledRule& variant(std::size_t rule, int delta_atom) const {
        const RulePlans& r = rules[rule];
        return delta_atom < 0 ? r.base
                              : r.deltas[static_cast<std::size_t>(delta_atom)];
    }
};

/// Computes indexes for every relation and plans every form of every rule.
IndexSelection select_indexes(const AnalyzedProgram& prog);

} // namespace dtree::datalog
