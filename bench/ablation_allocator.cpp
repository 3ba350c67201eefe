// Ablation: node allocation policy — default operator new vs the arena
// (bump) allocator that the tree's never-free lifetime model enables
// (node_allocator.h). Random insertion maximises split (allocation) rate.
//
//   ./build/bench/ablation_allocator [--n=1000000] [--threads=1,2,4] [--json=FILE]

#include "bench/common.h"

#include "core/btree.h"
#include "util/parallel.h"

namespace {

using namespace dtree;
using namespace dtree::bench;

template <typename Tree>
double run(const std::vector<Point>& pts, unsigned threads) {
    Tree tree;
    util::Timer t;
    util::parallel_blocks(pts.size(), threads, [&](unsigned, std::size_t b, std::size_t e) {
        auto hints = tree.create_hints();
        for (std::size_t i = b; i < e; ++i) tree.insert(pts[i], hints);
    });
    return static_cast<double>(pts.size()) / t.elapsed_s() / 1e6;
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (reject_unknown_flags(cli, {"n", "threads"})) return 2;
    JsonReport report("ablation_allocator", cli);
    const std::size_t n = cli.get_u64("n", 1'000'000);
    const auto threads = report.thread_list(cli, {1, 2, 4});

    std::size_t side = 1;
    while (side * side < n) ++side;
    auto pts = grid_points(side);
    pts.resize(n);

    for (bool ordered : {true, false}) {
        auto input = ordered ? pts : shuffled(pts, 13);
        util::SeriesTable table(std::string("[ablation] node allocator, ") +
                                    (ordered ? "ordered" : "random") +
                                    " insertion, M inserts/s",
                                "threads");
        table.set_x(thread_labels(threads));
        for (unsigned t : threads) {
            table.add("operator new", run<btree_set<Point>>(input, t));
        }
        for (unsigned t : threads) {
            table.add("arena (bump)", run<arena_btree_set<Point>>(input, t));
        }
        table.print();
        report.add_table(table);
    }
    return report.write() ? 0 : 1;
}
