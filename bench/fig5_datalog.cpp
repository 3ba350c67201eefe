// Reproduces Figure 5 (a, b): end-to-end Datalog evaluation runtime with
// different relation data structures plugged into the soufflette engine.
//
//   ./build/bench/fig5_datalog [--full] [--scale=N] [--threads=1,2,4,8]
//                              [--sched=blocks|steal] [--grain=N] [--json=FILE]
//
// --sched / --grain A/B the engine's parallel scheduler (persistent pool
// with work stealing vs the seed's static blocks, runtime/scheduler.h);
// defaults: steal, grain 64 (or DATATREE_SCHED / DATATREE_GRAIN).
// Thread counts above hardware_concurrency() still run; they are marked '*'
// in the tables and listed under "oversubscribed" in the JSON config.
//
// (a) Doop-style context-insensitive var-points-to (insertion-heavy)
// (b) EC2-style security reachability analysis (read-heavy)
//
// Thread-unsafe reference structures run behind a global lock (exactly the
// paper's setup). Expected shape (§4.3): the optimistic btree leads at every
// thread count (~1.5x over the google-style btree sequentially, ~4x over the
// TBB-like hash set on (a), ~2x on (b)); hints add up to 10% on (a) and up
// to ~1.5x on (b); globally locked structures show some scaling only on the
// read-heavy workload (reads bypass the lock).
//
// The "btree (fp)" row is the same engine on leaf layout v2 (fingerprint
// membership + append-zone inserts, DESIGN.md §15), so every record carries
// what that policy pays end to end next to the default tree.

#include "bench/common.h"

#include "datalog/program.h"
#include "datalog/workloads.h"

#include <cstdio>

namespace {

using namespace dtree;
using namespace dtree::bench;
using namespace dtree::datalog;

struct SchedConfig {
    bool mode_set = false;
    runtime::SchedMode mode = runtime::SchedMode::Steal;
    std::size_t grain = 0; // 0: engine default
};
SchedConfig g_sched;

template <typename Storage>
double run_engine(const Workload& w, unsigned threads) {
    Engine<Storage> engine(compile(w.source));
    if (g_sched.mode_set) engine.set_scheduler_mode(g_sched.mode);
    if (g_sched.grain) engine.set_grain(g_sched.grain);
    for (const auto& [rel, facts] : w.facts) engine.add_facts(rel, facts);
    util::Timer t;
    engine.run(threads);
    return t.elapsed_s();
}

void run_section(const char* title, const Workload& w,
                 const std::vector<unsigned>& threads, JsonReport& report) {
    util::SeriesTable table(title, "threads");
    table.set_x(thread_labels(threads));

    auto sweep = [&]<typename Storage>(const char* name) {
        for (unsigned t : threads) table.add(name, run_engine<Storage>(w, t));
    };
    sweep.template operator()<storage::OurBTree>("btree");
    sweep.template operator()<storage::OurBTreeNoHints>("btree (n/h)");
    sweep.template operator()<storage::OurBTreeFp>("btree (fp)");
    sweep.template operator()<storage::StlSet>("STL rbtset");
    sweep.template operator()<storage::StlHashSet>("STL hashset");
    sweep.template operator()<storage::GoogleBTree>("google btree");
    sweep.template operator()<storage::TbbHashSet>("TBB hashset");
    table.print();
    report.add_table(table);
}

} // namespace

int main(int argc, char** argv) {
    dtree::util::Cli cli(argc, argv);
    if (reject_unknown_flags(cli, {"full", "scale", "threads", "sched",
                                   "grain"})) {
        return 2;
    }
    JsonReport report("fig5_datalog", cli);
    const bool full = cli.get_bool("full");
    // Quick-mode scales keep the quadratic full-scan joins of the hash-based
    // engines inside a couple of minutes; raise with --scale on big machines.
    const std::size_t doop_scale = cli.get_u64("scale", full ? 20000 : 500);
    const std::size_t ec2_scale = cli.get_u64("scale", full ? 20000 : 700);
    const auto threads = report.thread_list(
        cli, full ? std::vector<unsigned>{1, 2, 4, 8, 16, 24, 32}
                  : std::vector<unsigned>{1, 2, 4, 8, 16});
    const std::string sched = cli.get_str("sched", "");
    if (!sched.empty() && sched != "1") {
        if (!dtree::runtime::parse_mode(sched, g_sched.mode)) {
            std::fprintf(stderr, "unknown --sched=%s (blocks|steal)\n", sched.c_str());
            return 2;
        }
        g_sched.mode_set = true;
    }
    g_sched.grain = cli.get_u64("grain", 0);

    const Workload doop = make_doop_like(doop_scale, 7);
    const Workload ec2 = make_ec2_like(ec2_scale, 11);

    char title[160];
    std::snprintf(title, sizeof(title),
                  "[fig 5a] var-points-to analysis (insertion heavy, scale %zu), runtime [s]",
                  doop_scale);
    run_section(title, doop, threads, report);
    std::snprintf(title, sizeof(title),
                  "[fig 5b] security vulnerability analysis (read heavy, scale %zu), runtime [s]",
                  ec2_scale);
    run_section(title, ec2, threads, report);
    return report.write() ? 0 : 1;
}
