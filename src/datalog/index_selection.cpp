#include "datalog/index_selection.h"

#include <algorithm>
#include <bit>
#include <map>
#include <string>

namespace dtree::datalog {

namespace {

ColumnRef lower_argument(const Argument& arg,
                         std::map<std::string, unsigned>& var_ids,
                         bool& fresh) {
    ColumnRef ref;
    if (!arg.is_variable()) {
        ref.kind = ColumnRef::Kind::Constant;
        ref.constant = arg.constant;
        fresh = false;
        return ref;
    }
    auto it = var_ids.find(arg.var);
    if (it == var_ids.end()) {
        const unsigned id = static_cast<unsigned>(var_ids.size());
        var_ids.emplace(arg.var, id);
        ref.kind = ColumnRef::Kind::Free;
        ref.var = id;
        fresh = true;
    } else {
        ref.kind = ColumnRef::Kind::Bound;
        ref.var = it->second;
        fresh = false;
    }
    return ref;
}

} // namespace

CompiledRule compile_rule(const AnalyzedProgram& prog, std::size_t rule_idx,
                          int lead) {
    const Rule& rule = prog.program.rules[rule_idx];
    CompiledRule out;
    std::map<std::string, unsigned> var_ids;

    // Negated atoms are pure membership filters; evaluate them after every
    // positive atom so their variables are guaranteed bound (negation is
    // order-independent, so this reordering preserves semantics).
    std::vector<const Atom*> ordered_body;
    for (const Atom& atom : rule.body) {
        if (!atom.negated) ordered_body.push_back(&atom);
    }
    for (const Atom& atom : rule.body) {
        if (atom.negated) ordered_body.push_back(&atom);
    }
    if (lead > 0) {
        // The rest keep their relative order.
        const auto first = ordered_body.begin();
        std::rotate(first, first + lead, first + lead + 1);
    }

    // Track which body atom (by compiled position) first binds each variable
    // so constraints can be scheduled at the earliest sound point.
    std::map<unsigned, int> first_binder;

    for (const Atom* atom_ptr : ordered_body) {
        const Atom& atom = *atom_ptr;
        const int atom_pos = static_cast<int>(out.body.size());
        CompiledAtom ca;
        ca.relation = prog.relation_id(atom.relation);
        ca.arity = static_cast<unsigned>(atom.args.size());
        ca.negated = atom.negated;
        // Signature: columns known before this atom runs — snapshot the
        // variable table first.
        const std::map<std::string, unsigned> before = var_ids;
        for (unsigned c = 0; c < ca.arity; ++c) {
            const Argument& arg = atom.args[c];
            bool fresh = false;
            ca.cols[c] = lower_argument(arg, var_ids, fresh);
            if (fresh) first_binder[ca.cols[c].var] = atom_pos;
            const bool known_before =
                !arg.is_variable() || before.count(arg.var) > 0;
            if (known_before) ca.bound_mask |= static_cast<std::uint8_t>(1u << c);
        }
        out.body.push_back(ca);
    }

    // Lower constraints; both sides are Constant or Bound (analyze() rejects
    // variables not bound by a positive atom).
    for (const Constraint& c : rule.constraints) {
        CompiledConstraint cc;
        cc.op = c.op;
        auto lower_side = [&](const Argument& arg) -> ColumnRef {
            ColumnRef ref;
            if (!arg.is_variable()) {
                ref.kind = ColumnRef::Kind::Constant;
                ref.constant = arg.constant;
            } else {
                ref.kind = ColumnRef::Kind::Bound;
                ref.var = var_ids.at(arg.var);
                cc.ready_after = std::max(cc.ready_after, first_binder.at(ref.var));
            }
            return ref;
        };
        cc.lhs = lower_side(c.lhs);
        cc.rhs = lower_side(c.rhs);
        out.constraints.push_back(cc);
    }

    // Head: groundedness was checked in analyze(); every variable is bound.
    out.head.relation = prog.relation_id(rule.head.relation);
    out.head.arity = static_cast<unsigned>(rule.head.args.size());
    for (unsigned c = 0; c < out.head.arity; ++c) {
        bool fresh = false;
        out.head.cols[c] = lower_argument(rule.head.args[c], var_ids, fresh);
    }
    out.num_vars = static_cast<unsigned>(var_ids.size());
    return out;
}

int IndexOrder::served_prefix(std::uint8_t signature) const {
    // signature must equal the column set of some prefix of `order`.
    std::uint8_t prefix = 0;
    if (signature == 0) return 0;
    for (unsigned i = 0; i < arity; ++i) {
        prefix |= static_cast<std::uint8_t>(1u << order[i]);
        if (prefix == signature) return static_cast<int>(i) + 1;
        // Once the prefix contains a column outside the signature, no longer
        // prefix can equal it.
        if ((prefix & ~signature) != 0) return -1;
    }
    return -1;
}

namespace {

IndexOrder identity_order(unsigned arity) {
    IndexOrder o;
    o.arity = arity;
    for (unsigned i = 0; i < arity; ++i) o.order[i] = static_cast<std::uint8_t>(i);
    return o;
}

/// Builds an index order from a chain of nested signatures: columns of the
/// smallest signature first, then each increment, then the leftovers —
/// within each group in ascending column number for determinism.
IndexOrder order_from_chain(const std::vector<std::uint8_t>& chain, unsigned arity) {
    IndexOrder o;
    o.arity = arity;
    unsigned n = 0;
    std::uint8_t placed = 0;
    for (std::uint8_t sig : chain) {
        for (unsigned c = 0; c < arity; ++c) {
            if ((sig & (1u << c)) && !(placed & (1u << c))) {
                o.order[n++] = static_cast<std::uint8_t>(c);
                placed |= static_cast<std::uint8_t>(1u << c);
            }
        }
    }
    for (unsigned c = 0; c < arity; ++c) {
        if (!(placed & (1u << c))) o.order[n++] = static_cast<std::uint8_t>(c);
    }
    return o;
}

AtomPlan plan_atom(const CompiledAtom& atom,
                   const std::vector<IndexOrder>& indexes) {
    AtomPlan plan;
    const std::uint8_t full = static_cast<std::uint8_t>((1u << atom.arity) - 1);
    if (atom.negated || atom.bound_mask == full) {
        // Fully bound: membership test on the primary index.
        plan.full_scan = false;
        plan.index = 0;
        plan.bound_prefix = atom.arity;
    } else if (atom.bound_mask != 0) {
        for (unsigned i = 0; i < indexes.size(); ++i) {
            const int prefix = indexes[i].served_prefix(atom.bound_mask);
            if (prefix >= 0) {
                plan.full_scan = false;
                plan.index = i;
                plan.bound_prefix = static_cast<unsigned>(prefix);
                break;
            }
        }
        // Unserved: a full scan remains correct. Of the plans kept, only a
        // delta-first lead's constant columns can end up here.
    }
    return plan;
}

} // namespace

IndexSelection select_indexes(const AnalyzedProgram& prog) {
    IndexSelection out;
    const std::size_t R = prog.decls.size();
    out.relation_indexes.resize(R);
    out.rules.resize(prog.program.rules.size());

    // Gather the signature set per relation from the base forms (negated
    // atoms are always fully bound and answered by a membership test).
    std::vector<std::vector<std::uint8_t>> signatures(R);
    for (std::size_t r = 0; r < prog.program.rules.size(); ++r) {
        if (prog.program.rules[r].is_fact()) continue;
        out.rules[r].base = compile_rule(prog, r);
        for (const CompiledAtom& atom : out.rules[r].base.body) {
            const std::uint8_t full =
                static_cast<std::uint8_t>((1u << atom.arity) - 1);
            if (!atom.negated && atom.bound_mask != 0 && atom.bound_mask != full) {
                signatures[atom.relation].push_back(atom.bound_mask);
            }
        }
    }

    // Greedy chain cover per relation: process signatures small to large,
    // appending each to the first chain whose top is a subset of it.
    for (std::size_t rel = 0; rel < R; ++rel) {
        auto& sigs = signatures[rel];
        std::sort(sigs.begin(), sigs.end(), [](std::uint8_t a, std::uint8_t b) {
            const int pa = std::popcount(a), pb = std::popcount(b);
            return pa != pb ? pa < pb : a < b;
        });
        sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());

        std::vector<std::vector<std::uint8_t>> chains;
        for (std::uint8_t s : sigs) {
            bool placed = false;
            for (auto& chain : chains) {
                if ((chain.back() & ~s) == 0) { // top ⊆ s
                    chain.push_back(s);
                    placed = true;
                    break;
                }
            }
            if (!placed) chains.push_back({s});
        }

        const unsigned arity = static_cast<unsigned>(prog.decls[rel].arity());
        auto& indexes = out.relation_indexes[rel];
        indexes.push_back(identity_order(arity)); // primary index, always
        for (const auto& chain : chains) {
            const IndexOrder candidate = order_from_chain(chain, arity);
            // The identity order may already serve this chain.
            bool redundant = true;
            for (std::uint8_t s : chain) {
                if (indexes[0].served_prefix(s) < 0) {
                    redundant = false;
                    break;
                }
            }
            if (!redundant) indexes.push_back(candidate);
        }
    }

    auto plan_rule = [&](CompiledRule& cr) {
        for (CompiledAtom& atom : cr.body) {
            atom.plan = plan_atom(atom, out.relation_indexes[atom.relation]);
        }
    };

    // Plan the base forms, then one variant per positive atom k. Delta-first
    // only when no later atom falls back to a full scan — each is then a
    // membership test or a prefix an existing index serves — else the base
    // order reading DELTA at k.
    for (std::size_t r = 0; r < prog.program.rules.size(); ++r) {
        if (prog.program.rules[r].is_fact()) continue;
        RulePlans& rp = out.rules[r];
        plan_rule(rp.base);
        for (std::size_t k = 0; k < rp.base.body.size() && !rp.base.body[k].negated;
             ++k) {
            CompiledRule v = rp.base;
            v.delta_pos = static_cast<int>(k);
            if (k > 0) {
                CompiledRule first = compile_rule(prog, r, static_cast<int>(k));
                plan_rule(first);
                if (std::none_of(first.body.begin() + 1, first.body.end(),
                                 [](const CompiledAtom& a) { return a.plan.full_scan; })) {
                    first.delta_pos = 0;
                    v = std::move(first);
                }
            }
            rp.deltas.push_back(std::move(v));
        }
    }
    return out;
}

} // namespace dtree::datalog
