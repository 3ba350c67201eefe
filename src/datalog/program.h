#pragma once

// Facade: one call from Datalog source text to an analyzed, evaluable
// program, plus the storage configurations the Fig. 5 experiment sweeps.

#include <string>

#include "baselines/adapters.h"
#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/semantics.h"

namespace dtree::datalog {

/// Lex + parse + semantic analysis. Throws std::runtime_error on any error.
AnalyzedProgram compile(const std::string& source);

/// The engine storage configurations used by the Fig. 5 experiment.
/// Non-thread-safe reference structures are wrapped in a global lock, which
/// is exactly how the paper ran them in the parallel engine.
namespace storage {
using OurBTree = baselines::OurBTreeAdapter<StorageTuple>;
/// Snapshot-enabled flavour (DESIGN.md §11): same tree + Relation::snapshot()
/// for consistent reads concurrent with evaluation (soufflette --serve-probe).
using OurBTreeSnap = baselines::OurBTreeSnapAdapter<StorageTuple>;
/// Leaf-layout-v2 flavour (DESIGN.md §15): per-leaf fingerprint membership +
/// append-zone inserts (soufflette --fingerprints).
using OurBTreeFp = baselines::OurBTreeFpAdapter<StorageTuple>;
using OurBTreeNoHints = baselines::OurBTreeNoHintsAdapter<StorageTuple>;
using StlSet = baselines::GlobalLockAdapter<baselines::StlSetAdapter<StorageTuple>>;
using StlHashSet = baselines::GlobalLockAdapter<baselines::StlHashSetAdapter<StorageTuple>>;
using GoogleBTree = baselines::GlobalLockAdapter<baselines::ClassicBTreeAdapter<StorageTuple>>;
using TbbHashSet = baselines::TbbLikeHashSetAdapter<StorageTuple>;
} // namespace storage

/// Default engine type used by the examples and tests.
using DefaultEngine = Engine<storage::OurBTree>;

} // namespace dtree::datalog
