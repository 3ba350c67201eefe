// perfbench: the measuring binary of the repository benchmark (perfbench/run.py
// drives it; see perfbench/README.md for the workloads and metrics).
//
//   perfbench oracle --workload=W --seed=N --out=FILE
//       Reference run: Engine<storage::GoogleBTree>, 1 thread, over the
//       initial facts and over all facts. Writes one line per relation and
//       fixpoint: which fixpoint, relation, tuple count and an
//       order-independent digest.
//
//   perfbench run --workload=W --seed=N --seconds=S --trace=0|1 --oracle=FILE
//                 [--trace-out=FILE] [--scale=N] [--batches=N] [--holdback=N]
//       Timed run, in rounds for about S seconds. A round sets up (compile +
//       add_facts) and evaluates the initial facts to fixpoint, then commits
//       the held-back facts through EngineService::commit in closed-loop
//       batches, with reader threads issuing query/scan/count meanwhile
//       (serve-ec2) or between commits on the quiescent engine (ec2-seq).
//       One untimed warm-up round comes first. Every fixpoint and every
//       final state is checked against the oracle file, every reader
//       result against the rules in README.md. --trace=0 prints
//       the end-to-end metrics; --trace=1 adds a traced pass (Engine over
//       Traced<Storage>, spans written to --trace-out) and prints the
//       per-layer metrics. The last stdout line is one JSON object:
//       {"correct", "attempted", "failed", "metrics"}. Exit code 1 when any
//       check failed, 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datalog/program.h"
#include "datalog/service.h"
#include "datalog/workloads.h"
#include "runtime/scheduler.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/timer.h"

#include "trace.h"
#include "traced_storage.h"

namespace {

using namespace dtree;
using datalog::StorageTuple;
using datalog::Workload;
using perfbench::CoreOp;
using perfbench::CoreRegistry;
using perfbench::CoreTotals;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// -- workloads ----------------------------------------------------------------

// Both workloads run the ec2-like reachability program (make_ec2_like).
const std::string kQueryRel = "reach";    ///< point queries and prefix scans
const std::string kLoadWhole = "blocked"; ///< read under negation: never held back

struct Config {
    std::string name;
    std::size_t scale;        ///< make_ec2_like scale (network nodes)
    unsigned jobs;            ///< Engine::run and EngineService::commit threads
    unsigned readers;         ///< reader threads beside the commits (0: quiescent reads between them)
    bool snapshots;           ///< storage::OurBTreeSnap instead of storage::OurBTree
    unsigned holdback;        ///< every holdback-th fact is committed later
    unsigned batches;         ///< commits per round
    unsigned evals_per_round; ///< fixpoints per round before its commit phase
    std::string count_rel;    ///< relation the readers count
    /// Prefix scans in the reader mix. Only on snapshot storage: on plain
    /// storage Relation::scan_prefix passes its exclusive upper bound to the
    /// adapter's inclusive range scan and so also returns the first tuple
    /// of the next prefix, which the scan check rejects (README.md).
    bool scans;
};

const std::vector<Config>& configs() {
    static const std::vector<Config> all = {
        {.name = "ec2-seq", .scale = 1000, .jobs = 1, .readers = 0,
         .snapshots = false, .holdback = 100, .batches = 24, .evals_per_round = 1,
         .count_rel = "reach", .scans = false},
        {.name = "serve-ec2", .scale = 1000, .jobs = 2, .readers = 2,
         .snapshots = true, .holdback = 3, .batches = 120, .evals_per_round = 10,
         .count_rel = "exposed", .scans = true},
    };
    return all;
}

using Batch = std::map<std::string, std::vector<StorageTuple>>;

/// The generated fact base: the facts loaded before the first fixpoint, and
/// the held-back rest as commit batches (round-robin, so every batch
/// touches every ingest-safe relation).
struct Inputs {
    Workload w;
    std::vector<std::pair<std::string, std::vector<StorageTuple>>> initial;
    std::vector<Batch> batches;
    std::uint64_t held = 0;
};

Inputs make_inputs(const Config& c, std::uint64_t seed) {
    Inputs in;
    in.w = datalog::make_ec2_like(c.scale, seed);
    in.batches.resize(c.batches);
    for (const auto& [rel, facts] : in.w.facts) {
        std::vector<StorageTuple> init;
        for (std::size_t f = 0; f < facts.size(); ++f) {
            if (rel != kLoadWhole && f % c.holdback == c.holdback - 1) {
                in.batches[(f / c.holdback) % c.batches][rel].push_back(facts[f]);
                ++in.held;
            } else {
                init.push_back(facts[f]);
            }
        }
        in.initial.emplace_back(rel, std::move(init));
    }
    return in;
}

// -- digests ------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/// Tuple count plus the sum of per-tuple hashes: independent of the order
/// the storage yields tuples in.
struct Digest {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void add(const StorageTuple& t, std::size_t arity) {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ arity;
        for (std::size_t c = 0; c < arity; ++c) h = mix64(h ^ t[c]) + c;
        ++count;
        sum += h;
    }
    bool operator==(const Digest&) const = default;
};

using Digests = std::map<std::string, Digest>;

template <typename EngineT>
Digests digests(const EngineT& e) {
    Digests out;
    for (const auto& d : e.analyzed().decls) {
        Digest& dg = out[d.name];
        e.relation(d.name).for_each(
            [&](const StorageTuple& t) { dg.add(t, d.arity()); });
    }
    return out;
}

/// The reference result: the fixpoint over the initial facts (what every
/// repetition computes) and over all facts (the state after the commits).
struct Oracle {
    Digests initial;
    Digests final;
};

/// Reference evaluation with an independent storage: the google-style btree
/// behind a global lock, one thread; the two fixpoints run side by side
/// (the oracle is not timed).
Oracle compute_oracle(const Config& c, std::uint64_t seed) {
    const Inputs in = make_inputs(c, seed);
    auto eval = [&](const auto& facts) {
        datalog::Engine<datalog::storage::GoogleBTree> e(datalog::compile(in.w.source));
        for (const auto& [rel, f] : facts) e.add_facts(rel, f);
        e.run(1);
        return digests(e);
    };
    Oracle o;
    std::thread initial([&] { o.initial = eval(in.initial); });
    o.final = eval(in.w.facts);
    initial.join();
    return o;
}

bool write_oracle(const std::string& path, const Oracle& o) {
    std::ofstream os(path);
    for (const auto& [key, ds] : {std::pair{"initial", &o.initial}, {"final", &o.final}}) {
        for (const auto& [rel, d] : *ds) {
            os << key << ' ' << rel << ' ' << d.count << ' ' << d.sum << '\n';
        }
    }
    return static_cast<bool>(os);
}

Oracle read_oracle(const std::string& path) {
    std::ifstream is(path);
    if (!is) throw std::runtime_error("cannot read oracle file " + path);
    Oracle o;
    std::string key, rel;
    Digest d;
    while (is >> key >> rel >> d.count >> d.sum) {
        if (key != "initial" && key != "final") {
            throw std::runtime_error("bad oracle key " + key + " in " + path);
        }
        (key == "initial" ? o.initial : o.final)[rel] = d;
    }
    if (o.initial.empty() || o.final.empty()) {
        throw std::runtime_error("incomplete oracle file " + path);
    }
    return o;
}

// -- samples ------------------------------------------------------------------

/// Fixed-memory sample store: once full it keeps every other sample and
/// halves its sampling rate, so what it holds is always an evenly spaced
/// sample of the whole phase. The buffer is touched up front, so the
/// process's resident memory does not depend on how many samples arrive.
class Samples {
public:
    explicit Samples(std::size_t cap) : cap_(cap) {
        v_.resize(cap_);
        v_.clear();
    }
    void add(std::uint64_t ns) {
        if (seen_++ % stride_ != 0) return;
        if (v_.size() == cap_) {
            for (std::size_t i = 0; i < cap_ / 2; ++i) v_[i] = v_[2 * i];
            v_.resize(cap_ / 2);
            stride_ *= 2;
            if ((seen_ - 1) % stride_ != 0) return;
        }
        v_.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX)));
    }
    const std::vector<std::uint32_t>& values() const { return v_; }
    std::uint64_t seen() const { return seen_; }
    void clear() {
        v_.clear();
        seen_ = 0;
        stride_ = 1;
    }

private:
    std::size_t cap_;
    std::vector<std::uint32_t> v_;
    std::uint64_t seen_ = 0;
    std::uint64_t stride_ = 1;
};

/// Nearest-rank percentile of raw samples (p in (0, 100]).
template <typename T>
double percentile(std::vector<T> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

template <typename T>
double median(const std::vector<T>& v) {
    return percentile(v, 50);
}

// -- run record ---------------------------------------------------------------

std::string host_model() {
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// Milliseconds a fixed chain of dependent integer steps takes: printed
/// before and after the timed pass, so a reader can tell a slower host
/// (lower clock, busier neighbours) from a slower program.
double host_probe_ms() {
    util::Timer t;
    std::uint64_t x = 1;
    for (std::uint32_t i = 0; i < 50'000'000; ++i) x = mix64(x + i);
    const double ms = static_cast<double>(t.elapsed_ns()) / 1e6;
    if (x == 0) std::printf("(probe %llu)\n", static_cast<unsigned long long>(x));
    return ms;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

// -- reads --------------------------------------------------------------------

/// Tuples the readers query: `must` were present when reads began and must
/// always be found; `cand` are the same tuples with the last column
/// re-drawn, present or not, and are checked against the final state.
struct Pools {
    std::vector<StorageTuple> must;
    std::vector<StorageTuple> cand;
};

/// Samples up to 4096 evenly spaced tuples of `rel` in one pass over it
/// (no copy of the relation, so the pools barely add to peak memory).
template <typename RelationT>
Pools make_pools(const RelationT& rel, std::size_t arity, std::uint64_t seed) {
    Pools p;
    const std::size_t size = rel.size();
    if (size == 0) return p;
    const std::size_t n = std::min<std::size_t>(4096, size);
    p.must.reserve(n);
    datalog::Value hi = 0;
    std::size_t i = 0;
    rel.for_each([&](const StorageTuple& t) {
        hi = std::max(hi, t[arity - 1]);
        if (p.must.size() < n && i == p.must.size() * size / n) p.must.push_back(t);
        ++i;
    });
    util::Rng rng(seed);
    p.cand.reserve(p.must.size());
    for (StorageTuple c : p.must) {
        c[arity - 1] = util::uniform_int<datalog::Value>(rng, 0, hi);
        p.cand.push_back(c);
    }
    return p;
}

/// One reader's latency samples over a whole pass (allocated once, so the
/// pass's resident memory does not grow with the number of commit phases).
struct ReaderSamples {
    Samples query{1u << 20}, scan{1u << 17}, count{1u << 17};
    void clear() {
        query.clear();
        scan.clear();
        count.clear();
    }
};

/// Summed latency and calls of one kind of read in one commit phase.
struct ReadTotal {
    std::uint64_t ns = 0, calls = 0;
};

struct ReaderLog {
    ReaderSamples* samples = nullptr;
    ReadTotal queries, scans, counts;
    std::vector<std::uint8_t> cand_seen; ///< 0 never, 1 not found, 2 found
    std::uint64_t ops = 0;
    std::uint64_t must_missed = 0, bad_scans = 0, count_drops = 0;
    std::uint64_t last_count = 0;
    // Traced pass: benchmark-timed snapshot size() walks (serve counts).
    std::uint64_t size_calls = 0, size_ns = 0;
    unsigned slot = 0;
};

constexpr unsigned kQueriesPerRound = 8;

void record(Samples& samples, ReadTotal& total, std::uint64_t ns) {
    samples.add(ns);
    total.ns += ns;
    ++total.calls;
}

/// One reader: rounds of 8 queries, 1 prefix scan (if c.scans) and 1 count,
/// each timed, until `stop` (closed loop beside commits) or, without one,
/// for `seconds` (quiescent reads between commits). Misses are checked
/// against the final state, so only the misses of the last call are kept.
template <typename Svc>
void reader_loop(const Svc& svc, const Config& c, const Pools& pools, ReaderLog& log,
                 std::uint64_t seed, const std::atomic<bool>* stop, double seconds,
                 bool traced) {
    util::Rng rng(seed);
    if (traced) log.slot = CoreRegistry::instance().slot_index();
    log.cand_seen.resize(pools.cand.size());
    std::replace(log.cand_seen.begin(), log.cand_seen.end(), std::uint8_t{1}, std::uint8_t{0});
    const std::size_t n = pools.must.size();
    const util::Timer timer;
    while (stop ? !stop->load(std::memory_order_acquire) : timer.elapsed_s() < seconds) {
        for (unsigned q = 0; q < kQueriesPerRound; ++q) {
            const bool must = rng() & 1;
            const std::size_t i = rng() % n;
            const StorageTuple& t = must ? pools.must[i] : pools.cand[i];
            const std::uint64_t t0 = perfbench::now_ns();
            const bool found = svc.query(kQueryRel, t).found;
            record(log.samples->query, log.queries, perfbench::now_ns() - t0);
            ++log.ops;
            if (must) {
                if (!found) ++log.must_missed;
            } else if (log.cand_seen[i] != 2) {
                log.cand_seen[i] = found ? 2 : 1;
            }
        }
        if (c.scans) {
            const StorageTuple& bound = pools.must[rng() % n];
            StorageTuple prev{};
            std::uint64_t seen = 0;
            bool ok = true, has_bound = false;
            const std::uint64_t t0 = perfbench::now_ns();
            svc.scan(kQueryRel, bound, 1, [&](const StorageTuple& t) {
                if (t[0] != bound[0]) ok = false;
                if (seen && !(prev < t)) ok = false;
                if (t == bound) has_bound = true;
                prev = t;
                ++seen;
            });
            record(log.samples->scan, log.scans, perfbench::now_ns() - t0);
            ++log.ops;
            if (!ok || !has_bound) ++log.bad_scans;
        }
        {
            std::uint64_t tuples = 0;
            const std::uint64_t t0 = perfbench::now_ns();
            if constexpr (Svc::snapshots) {
                if (traced) {
                    // The benchmark splits the pin (timed by Traced) from the
                    // size() walk on the pinned snapshot.
                    const auto snap = svc.engine().relation(c.count_rel).snapshot();
                    const std::uint64_t s0 = perfbench::now_ns();
                    tuples = snap.size();
                    log.size_ns += perfbench::now_ns() - s0;
                    ++log.size_calls;
                } else {
                    tuples = svc.count(c.count_rel).tuples;
                }
            } else {
                tuples = svc.count(c.count_rel).tuples;
            }
            record(log.samples->count, log.counts, perfbench::now_ns() - t0);
            ++log.ops;
            if (tuples < log.last_count) ++log.count_drops;
            log.last_count = tuples;
        }
    }
}

// -- one pass -----------------------------------------------------------------

struct PassResult {
    std::vector<double> setup_s, eval_s;
    std::vector<double> commit_ms, ingest_ms, refix_ms;
    std::uint64_t fresh = 0;
    double commit_total_s = 0;
    std::vector<ReaderSamples> reads; ///< one per reader thread (or the quiescent reader)
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;

    datalog::EngineStats eval_stats;   ///< after the last fixpoint
    datalog::EngineStats commit_stats; ///< after the last commit
    std::vector<datalog::RuleProfile> profile;
    runtime::SchedulerStats sched_eval; ///< delta over the last fixpoint
    double last_eval_s = 0;
    // Sums over every commit phase of the pass.
    std::uint64_t commit_regions = 0, epoch_advances = 0, refixpoint_iterations = 0;

    // Traced pass only.
    CoreTotals core_eval, core_reads;
    std::uint64_t read_size_calls = 0, read_size_ns = 0;

    /// Every reader's kept samples of one kind.
    std::vector<std::uint32_t> all(Samples ReaderSamples::*kind) const {
        std::vector<std::uint32_t> v;
        for (const auto& r : reads) {
            v.insert(v.end(), (r.*kind).values().begin(), (r.*kind).values().end());
        }
        return v;
    }
    std::uint64_t seen(Samples ReaderSamples::*kind) const {
        std::uint64_t n = 0;
        for (const auto& r : reads) n += (r.*kind).seen();
        return n;
    }

    /// Forgets every timing and counter gathered so far; keeps the checks.
    void drop_samples() {
        PassResult kept;
        kept.attempted = attempted;
        kept.failed = failed;
        kept.failures = std::move(failures);
        kept.reads = std::move(reads);
        for (auto& r : kept.reads) r.clear();
        *this = std::move(kept);
    }

    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20) failures.push_back(what);
        }
    }
};

runtime::SchedulerStats operator-(const runtime::SchedulerStats& a,
                                  const runtime::SchedulerStats& b) {
    runtime::SchedulerStats d;
    d.threads_spawned = a.threads_spawned - b.threads_spawned;
    d.regions = a.regions - b.regions;
    d.tasks = a.tasks - b.tasks;
    d.steals = a.steals - b.steals;
    d.steal_failures = a.steal_failures - b.steal_failures;
    d.idle_ns = a.idle_ns - b.idle_ns;
    return d;
}

std::vector<CoreTotals> core_by_slot() {
    std::vector<CoreTotals> v;
    auto& reg = CoreRegistry::instance();
    for (unsigned s = 0; s < reg.claimed(); ++s) v.push_back(reg.totals(s));
    return v;
}

struct PassPlan {
    double budget_s;          ///< rounds start while one more still fits
    bool warmup;              ///< one untimed round before the timed ones
    unsigned setup_only_reps; ///< extra compile + add_facts per round, for setup_s
    double read_s;            ///< quiescent reads per commit phase, spread over its commits
    unsigned min_commits;     ///< rounds go on past the budget until this many commits
};

/// Commits the held-back facts on an engine at fixpoint while
/// readers run beside the commits or, without concurrent readers, reads the
/// quiescent engine afterwards; then checks the final state and every read.
template <typename EngineT>
void commit_phase(const Config& c, EngineT& engine, const Inputs& in, const Digests& want, double read_s, std::uint64_t seed, Tracer* tracer,
                  PassResult& res) {
    using Svc = datalog::EngineService<EngineT>;
    auto& reg = CoreRegistry::instance();
    Svc svc(engine);
    const auto arity = svc.decl(kQueryRel).arity();
    const Pools pools = make_pools(engine.relation(kQueryRel), arity, seed ^ 0x5eed);
    res.check(!pools.must.empty(), "query relation empty after the first fixpoint");
    if (pools.must.empty()) return;

    std::vector<ReaderLog> logs(res.reads.size());
    for (std::size_t r = 0; r < logs.size(); ++r) logs[r].samples = &res.reads[r];
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    const auto core_reads0 = reg.totals();
    ScopedSpan serve_span(tracer, "serve", 0);
    const std::uint64_t serve_start = perfbench::now_ns();
    for (unsigned r = 0; r < c.readers; ++r) {
        readers.emplace_back([&, r] {
            reader_loop(svc, c, pools, logs[r], seed + 101 * (r + 1), &stop, 0,
                        tracer != nullptr);
        });
    }

    // Without concurrent readers, the engine is read after every commit, so
    // the reads sample the whole phase rather than one moment of it.
    std::uint64_t window = 0;
    auto quiescent_reads = [&] {
        const auto r0 = reg.totals();
        reader_loop(svc, c, pools, logs[0], seed + 101 + window++, nullptr,
                    read_s / static_cast<double>(in.batches.size()), tracer != nullptr);
        res.core_reads += reg.totals() - r0;
    };

    const auto before = engine.stats();
    const auto sched0 = runtime::Scheduler::instance().stats();
    std::uint64_t total_ns = 0;
    for (const Batch& b : in.batches) {
        Batch batch = b;
        if (tracer) {
            // The traced pass makes EngineService::commit's two calls itself
            // so that ingest and refixpoint get spans of their own.
            ScopedSpan commit(tracer, "commit", serve_span.id());
            util::Timer t;
            double ingest_ns = 0;
            {
                ScopedSpan span(tracer, "ingest", commit.id());
                util::Timer ti;
                for (const auto& [rel, facts] : batch) res.fresh += engine.ingest(rel, facts);
                ingest_ns = static_cast<double>(ti.elapsed_ns());
            }
            {
                ScopedSpan span(tracer, "refixpoint", commit.id());
                util::Timer tr;
                engine.refixpoint(c.jobs);
                res.refix_ms.push_back(static_cast<double>(tr.elapsed_ns()) / 1e6);
            }
            const std::uint64_t ns = t.elapsed_ns();
            res.ingest_ms.push_back(ingest_ns / 1e6);
            res.commit_ms.push_back(static_cast<double>(ns) / 1e6);
            total_ns += ns;
        } else {
            util::Timer t;
            res.fresh += svc.commit(batch, c.jobs).fresh;
            const std::uint64_t ns = t.elapsed_ns();
            res.commit_ms.push_back(static_cast<double>(ns) / 1e6);
            total_ns += ns;
        }
        ++res.attempted;
        if (c.readers == 0) quiescent_reads();
    }
    res.commit_total_s += static_cast<double>(total_ns) / 1e9;
    const auto after = engine.stats();
    const auto sched = runtime::Scheduler::instance().stats() - sched0;
    res.commit_regions += sched.regions;
    res.epoch_advances += after.epoch_advances - before.epoch_advances;
    res.refixpoint_iterations += after.refixpoint_iterations - before.refixpoint_iterations;
    res.commit_stats = after;

    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    if (c.readers > 0) res.core_reads += reg.totals() - core_reads0;

    // -- checks --------------------------------------------------------------
    const auto got = digests(engine);
    for (const auto& [rel, d] : want) {
        const auto it = got.find(rel);
        res.check(it != got.end() && it->second == d,
                  "relation " + rel + " differs from the oracle after the commits");
    }
    res.check(got.size() == want.size(), "relation set differs from the oracle");

    // The readers have stopped, so the quiescent read surface is safe.
    const auto present = [&](const StorageTuple& t) {
        return engine.relation(kQueryRel).contains(t);
    };
    const std::uint64_t final_count = engine.relation(c.count_rel).size();
    for (auto& log : logs) {
        res.attempted += log.ops;
        res.failed += log.must_missed + log.bad_scans + log.count_drops;
        auto note = [&](std::uint64_t n, const char* what) {
            if (n && res.failures.size() < 20) {
                res.failures.push_back(std::to_string(n) + " reads: " + what);
            }
        };
        note(log.must_missed, "a tuple present when reads began was not found");
        note(log.bad_scans, "a scan was unsorted, left its prefix or missed its bound");
        note(log.count_drops, "a count decreased");
        for (std::size_t i = 0; i < log.cand_seen.size(); ++i) {
            if (log.cand_seen[i] == 2) {
                res.check(present(pools.cand[i]), "reader found a tuple absent from the final state");
            } else if (log.cand_seen[i] == 1 && c.readers == 0) {
                res.check(!present(pools.cand[i]), "quiescent reader missed a present tuple");
            }
        }
        if (c.readers == 0) {
            res.check(log.last_count == final_count, "quiescent count differs from the final size");
        } else {
            res.check(log.last_count <= final_count, "reader count exceeds the final size");
        }
        res.read_size_calls += log.size_calls;
        res.read_size_ns += log.size_ns;
    }
    if (tracer) {
        for (const auto& log : logs) {
            tracer->aggregate("read.query", serve_span.id(), log.slot, serve_start,
                              log.queries.ns, log.queries.calls);
            tracer->aggregate("read.scan", serve_span.id(), log.slot, serve_start,
                              log.scans.ns, log.scans.calls);
            tracer->aggregate("read.count", serve_span.id(), log.slot, serve_start,
                              log.counts.ns, log.counts.calls);
        }
    }
}

/// Runs one pass over Engine<Storage> in rounds: set up and evaluate the
/// initial facts (evals_per_round times), then commit the held-back facts on
/// the last engine and read it. Rounds repeat while one more still fits the
/// budget, so every metric samples the whole run.
template <typename Storage>
PassResult run_pass(const Config& c, const Inputs& in,
                    const Oracle& oracle, const PassPlan& plan, std::uint64_t seed,
                    Tracer* tracer) {
    using EngineT = datalog::Engine<Storage>;
    PassResult res;
    res.reads.resize(std::max(1u, c.readers));

    auto setup = [&](std::uint64_t parent) {
        ScopedSpan span(tracer, "setup", parent);
        util::Timer t;
        auto e = std::make_unique<EngineT>(datalog::compile(in.w.source));
        for (const auto& [rel, facts] : in.initial) e->add_facts(rel, facts);
        res.setup_s.push_back(t.elapsed_s());
        return e;
    };

    /// Set-up and fixpoint, checked against the oracle.
    auto eval_rep = [&] {
        ScopedSpan rep_span(tracer, "rep", 0);
        auto engine = setup(rep_span.id());
        const auto sched0 = runtime::Scheduler::instance().stats();
        const auto core0 = core_by_slot();
        double eval = 0;
        std::uint64_t eval_start = 0, eval_id = 0;
        {
            ScopedSpan span(tracer, "eval", rep_span.id());
            eval_id = span.id();
            eval_start = perfbench::now_ns();
            util::Timer t;
            engine->run(c.jobs);
            eval = t.elapsed_s();
        }
        res.eval_s.push_back(eval);
        res.last_eval_s = eval;
        res.sched_eval = runtime::Scheduler::instance().stats() - sched0;
        const auto core1 = core_by_slot();
        std::vector<CoreTotals> by_slot;
        res.core_eval = CoreTotals{};
        for (std::size_t s = 0; s < core1.size(); ++s) {
            by_slot.push_back(s < core0.size() ? core1[s] - core0[s] : core1[s]);
            res.core_eval += by_slot.back();
        }
        if (tracer) {
            static const char* names[perfbench::kCoreOps] = {
                "core.insert", "core.contains", "core.range",
                "core.merge",  "core.pin",      "core.size"};
            for (std::size_t s = 0; s < by_slot.size(); ++s) {
                const CoreTotals& d = by_slot[s];
                for (unsigned op = 0; op < perfbench::kCoreOps; ++op) {
                    tracer->aggregate(names[op], eval_id, static_cast<unsigned>(s),
                                      eval_start,
                                      static_cast<std::uint64_t>(
                                          d.est_ns(static_cast<CoreOp>(op))),
                                      d.calls[op]);
                }
            }
        }
        res.check(digests(*engine) == oracle.initial, "fixpoint differs from the oracle");
        res.eval_stats = engine->stats();
        res.profile = engine->profile();
        return engine;
    };

    auto round = [&](std::uint64_t round_seed) {
        for (unsigned r = 0; r < plan.setup_only_reps; ++r) setup(0);
        auto engine = eval_rep();
        for (unsigned e = 1; e < c.evals_per_round; ++e) {
            engine.reset(); // one engine at a time, so peak RSS is one engine's
            engine = eval_rep();
        }
        commit_phase(c, *engine, in, oracle.final, plan.read_s, round_seed, tracer, res);
    };

    if (plan.warmup) {
        // The first fixpoints of a process run several times slower while the
        // allocator grows its heap (page faults); one untimed round brings the
        // allocator and the caches to the state later rounds run in. Its
        // checks count, its samples are dropped.
        round(seed);
        res.drop_samples();
    }
    util::Timer budget;
    for (unsigned r = 1;; ++r) {
        round(seed + r);
        if (res.commit_ms.size() >= plan.min_commits &&
            budget.elapsed_s() * (r + 1) / r > plan.budget_s) {
            break;
        }
    }
    return res;
}

/// The one-shot baseline for commit_to_oneshot_ratio: every fact at once,
/// evaluated at the workload's thread count.
template <typename Storage>
double oneshot_s(const Config& c, const Workload& w) {
    datalog::Engine<Storage> e(datalog::compile(w.source));
    for (const auto& [rel, facts] : w.facts) e.add_facts(rel, facts);
    util::Timer t;
    e.run(c.jobs);
    return t.elapsed_s();
}

// -- output -------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_result(const PassResult& r, const std::vector<Metric>& metrics) {
    std::ostringstream os;
    json::Writer w(os, /*pretty=*/false);
    w.begin_object();
    w.kv("correct", r.failed == 0);
    w.kv("attempted", r.attempted);
    w.kv("failed", r.failed);
    w.key("metrics");
    w.begin_object();
    for (const auto& m : metrics) {
        w.key(m.name);
        w.begin_object();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::cout << os.str() << std::flush;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const PassResult& r) {
    return {
        {"eval_s", median(r.eval_s), "s"},
        {"setup_s", median(r.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"commit_p50_ms", median(r.commit_ms), "ms"},
        {"commit_p90_ms", percentile(r.commit_ms, 90), "ms"},
        {"ingest_tuples_per_s", ratio(static_cast<double>(r.fresh), r.commit_total_s), "1/s"},
        {"query_p50_us", median(r.all(&ReaderSamples::query)) / 1e3, "us"},
        {"query_p99_us", percentile(r.all(&ReaderSamples::query), 99) / 1e3, "us"},
        {"count_p50_us", median(r.all(&ReaderSamples::count)) / 1e3, "us"},
    };
}

std::vector<Metric> per_layer(const Config& c, const PassResult& t, const PassResult& u,
                              double oneshot) {
    const CoreTotals& k = t.core_eval;
    auto calls = [&](CoreOp op) { return static_cast<double>(k.calls[static_cast<unsigned>(op)]); };
    auto yield = [&](CoreOp op) { return static_cast<double>(k.yield[static_cast<unsigned>(op)]); };
    auto per_call_ns = [](const CoreTotals& tot, CoreOp op) { return tot.ns_per_call(op); };
    const auto& h = t.eval_stats.hints;
    auto hint = [&](unsigned kind) {
        return ratio(static_cast<double>(h.hits[kind]),
                     static_cast<double>(h.hits[kind] + h.misses[kind]));
    };
    double rule_s = 0, top_rule_s = 0;
    for (const auto& p : t.profile) {
        rule_s += p.seconds;
        top_rule_s = std::max(top_rule_s, p.seconds);
    }
    const double commits = static_cast<double>(t.commit_ms.size());
    const auto& se = t.sched_eval;
    const double count_ns =
        c.snapshots ? std::max(0.0, ratio(static_cast<double>(t.read_size_ns),
                                          static_cast<double>(t.read_size_calls)) -
                                        perfbench::clock_overhead_ns())
                    : per_call_ns(t.core_reads, CoreOp::Size);
    const auto& snap = t.commit_stats;
    return {
        {"core.insert.calls", calls(CoreOp::Insert), "count"},
        {"core.insert.fresh_ratio", ratio(yield(CoreOp::Insert), calls(CoreOp::Insert)), "ratio"},
        {"core.insert.ns_per_call", per_call_ns(k, CoreOp::Insert), "ns"},
        {"core.merge.keys", static_cast<double>(k.keys[static_cast<unsigned>(CoreOp::Merge)]), "count"},
        {"core.merge.fresh_ratio",
         ratio(yield(CoreOp::Merge), static_cast<double>(k.keys[static_cast<unsigned>(CoreOp::Merge)])),
         "ratio"},
        {"core.merge.s", k.est_ns(CoreOp::Merge) / 1e9, "s"},
        {"core.contains.calls", calls(CoreOp::Contains), "count"},
        {"core.contains.hit_ratio", ratio(yield(CoreOp::Contains), calls(CoreOp::Contains)), "ratio"},
        {"core.contains.ns_per_call", per_call_ns(k, CoreOp::Contains), "ns"},
        {"core.range.calls", calls(CoreOp::Range), "count"},
        {"core.range.tuples_per_call", ratio(yield(CoreOp::Range), calls(CoreOp::Range)), "count"},
        {"core.range.ns_per_call", per_call_ns(k, CoreOp::Range), "ns"},
        {"core.hint.hit_ratio.insert", hint(0), "ratio"},
        {"core.hint.hit_ratio.contains", hint(1), "ratio"},
        {"core.hint.hit_ratio.lower", hint(2), "ratio"},
        {"core.hint.hit_ratio.upper", hint(3), "ratio"},
        {"core.snapshot.pin_ns", per_call_ns(t.core_reads, CoreOp::Pin), "ns"},
        {"core.count.ns_per_call", count_ns, "ns"},
        {"core.snapshot.epoch_advances_per_commit",
         ratio(static_cast<double>(t.epoch_advances), commits), "count"},
        {"core.snapshot.cow_images", static_cast<double>(snap.snapshot_cow_images), "count"},
        {"core.snapshot.retained_mb", static_cast<double>(snap.snapshot_retained_bytes) / (1 << 20),
         "MiB"},
        {"datalog.iterations", static_cast<double>(t.eval_stats.iterations), "count"},
        {"datalog.derived_tuples", static_cast<double>(t.eval_stats.produced_tuples), "count"},
        {"datalog.rule_eval_s", rule_s, "s"},
        {"datalog.top_rule_share", ratio(top_rule_s, rule_s), "ratio"},
        {"datalog.core_share", ratio(k.est_ns_all() / 1e9, c.jobs * t.last_eval_s), "ratio"},
        {"datalog.ingest_ms_per_commit", median(t.ingest_ms), "ms"},
        {"datalog.refixpoint_ms_per_commit", median(t.refix_ms), "ms"},
        {"datalog.refixpoint_iterations_per_commit",
         ratio(static_cast<double>(t.refixpoint_iterations), commits),
         "count"},
        {"datalog.service.range_p50_us", median(u.all(&ReaderSamples::scan)) / 1e3, "us"},
        {"datalog.commit_to_oneshot_ratio", ratio(median(u.commit_ms) / 1e3, oneshot), "ratio"},
        {"runtime.regions", static_cast<double>(se.regions), "count"},
        {"runtime.tasks_per_region", ratio(static_cast<double>(se.tasks), static_cast<double>(se.regions)),
         "count"},
        {"runtime.steal_success_ratio",
         ratio(static_cast<double>(se.steals), static_cast<double>(se.steals + se.steal_failures)),
         "ratio"},
        {"runtime.idle_share", ratio(static_cast<double>(se.idle_ns) / 1e9, c.jobs * t.last_eval_s),
         "ratio"},
        {"runtime.regions_per_commit", ratio(static_cast<double>(t.commit_regions), commits),
         "count"},
        {"trace.eval_overhead_ratio", ratio(median(t.eval_s), median(u.eval_s)), "ratio"},
        {"trace.commit_overhead_ratio", ratio(median(t.commit_ms), median(u.commit_ms)), "ratio"},
    };
}

void print_record(const Config& c, std::uint64_t seed, bool trace) {
    std::ostringstream os;
    json::Writer w(os, /*pretty=*/false);
    w.begin_object();
    w.kv("record", "perfbench");
    w.kv("workload", c.name);
    w.kv("seed", seed);
    w.kv("trace", trace);
    w.kv("scale", c.scale);
    w.kv("jobs", c.jobs);
    w.kv("readers", c.readers);
    w.kv("batches", c.batches);
    w.kv("host", host_model());
    w.kv("nproc", std::thread::hardware_concurrency());
    w.kv("compiler", PERFBENCH_COMPILER);
    w.kv("compiler_version", __VERSION__);
    w.kv("flags", PERFBENCH_FLAGS);
    w.kv("datatree_simd", DATATREE_SIMD);
    w.kv("metrics_enabled", metrics::enabled());
    w.end_object();
    std::cout << os.str();
}

void print_samples(const PassResult& r, const char* pass) {
    std::printf("%s: %zu setups, %zu fixpoints, %zu commits (%llu fresh tuples), "
                "%zu/%llu query, %zu/%llu scan and %zu/%llu count samples kept\n",
                pass, r.setup_s.size(), r.eval_s.size(), r.commit_ms.size(),
                static_cast<unsigned long long>(r.fresh), r.all(&ReaderSamples::query).size(),
                static_cast<unsigned long long>(r.seen(&ReaderSamples::query)),
                r.all(&ReaderSamples::scan).size(),
                static_cast<unsigned long long>(r.seen(&ReaderSamples::scan)),
                r.all(&ReaderSamples::count).size(),
                static_cast<unsigned long long>(r.seen(&ReaderSamples::count)));
    std::printf("%s: %llu fixpoint iterations, %llu derived tuples\n", pass,
                static_cast<unsigned long long>(r.eval_stats.iterations),
                static_cast<unsigned long long>(r.eval_stats.produced_tuples));
    std::printf("%s: eval_s", pass);
    for (double v : r.eval_s) std::printf(" %.4f", v);
    std::printf("\n");
    for (const auto& f : r.failures) std::printf("%s: FAILED %s\n", pass, f.c_str());
}

template <typename Storage>
int run_workload(const Config& c, std::uint64_t seed, double seconds, bool trace,
                 const Oracle& oracle, const std::string& trace_out) {
    using Traced = perfbench::Traced<Storage>;
    static_assert(perfbench::check_parity<Storage>());

    const Inputs in = make_inputs(c, seed);
    print_record(c, seed, trace);
    std::printf("workload %s: %llu facts held back for %u commits per round\n", c.name.c_str(),
                static_cast<unsigned long long>(in.held), c.batches);

    const PassPlan timed{seconds, true, 8, seconds * 0.01, 100};
    if (!trace) {
        const double probe0 = host_probe_ms();
        PassResult r = run_pass<Storage>(c, in, oracle, timed, seed, nullptr);
        const auto metrics = end_to_end(r); // reads peak RSS before the samples are copied
        print_samples(r, "timed");
        std::printf("host probe: %.1f ms before, %.1f ms after the timed pass\n", probe0,
                    host_probe_ms());
        print_result(r, metrics);
        return r.failed ? 1 : 0;
    }

    // Traced run: an untraced pass (the base of the overhead ratios and of
    // the parity check), the one-shot baseline, then the traced pass.
    const PassPlan light{seconds * 0.5, true, 0, seconds * 0.01, 0};
    PassResult u = run_pass<Storage>(c, in, oracle, light, seed, nullptr);
    const double oneshot = oneshot_s<Storage>(c, in.w);
    Tracer tracer(c.name, c.name + "-" + std::to_string(seed));
    const PassPlan one_round{0, false, 0, seconds * 0.01, 0};
    PassResult t = run_pass<Traced>(c, in, oracle, one_round, seed, &tracer);
    print_samples(u, "untraced");
    print_samples(t, "traced");

    // Parity: the traced engine took the same paths as the untraced one.
    PassResult out = t;
    out.attempted += u.attempted;
    out.failed += u.failed;
    const auto& a = u.eval_stats;
    const auto& b = t.eval_stats;
    out.check(a.iterations == b.iterations, "traced iterations differ");
    out.check(a.produced_tuples == b.produced_tuples, "traced produced tuples differ");
    out.check(a.ops.inserts == b.ops.inserts, "traced inserts differ");
    out.check(a.ops.membership_tests == b.ops.membership_tests, "traced membership tests differ");
    if (c.jobs == 1) {
        for (int i = 0; i < 4; ++i) {
            out.check(a.hints.hits[i] == b.hints.hits[i], "traced hint hits differ at 1 thread");
        }
    }
    // Bypass predictions (README.md): layers a workload must not reach.
    const auto& s = t.commit_stats;
    if (!c.snapshots) {
        out.check(s.epoch_advances == 0 && s.snapshot_pins == 0 && s.snapshot_cow_images == 0 &&
                      s.snapshot_retained_bytes == 0 &&
                      t.core_reads.calls[static_cast<unsigned>(CoreOp::Pin)] == 0,
                  "snapshot counters are not zero on a workload without snapshots");
    } else {
        out.check(t.epoch_advances > 0, "no epoch advances during commits");
    }
    if (c.jobs == 1) {
        out.check(u.sched_eval.regions == 0 && u.commit_regions == 0 &&
                      t.sched_eval.regions == 0 && t.commit_regions == 0,
                  "scheduler regions on a one-thread workload");
    }
    for (std::size_t f = t.failures.size(); f < out.failures.size(); ++f) {
        std::printf("traced: FAILED %s\n", out.failures[f].c_str());
    }
    if (!trace_out.empty() && !tracer.write(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 2;
    }
    print_result(out, per_layer(c, t, u, oneshot));
    return out.failed ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) {
            std::fprintf(stderr, "usage: perfbench oracle|run --workload=W --seed=N ...\n");
            return 2;
        }
        const std::string mode = argv[1];
        util::Cli cli(argc - 1, argv + 1);
        const std::string name = cli.get_str("workload", "");
        const auto& all = configs();
        const auto it = std::find_if(all.begin(), all.end(),
                                     [&](const Config& c) { return c.name == name; });
        if (it == all.end()) {
            std::fprintf(stderr, "perfbench: unknown --workload=%s\n", name.c_str());
            return 2;
        }
        Config c = *it;
        c.scale = cli.get_u64("scale", c.scale);
        c.batches = static_cast<unsigned>(cli.get_u64("batches", c.batches));
        c.holdback = static_cast<unsigned>(cli.get_u64("holdback", c.holdback));
        const std::uint64_t seed = cli.get_u64("seed", 1);

        if (mode == "oracle") {
            return write_oracle(cli.get_str("out", ""), compute_oracle(c, seed)) ? 0 : 2;
        }
        if (mode != "run") {
            std::fprintf(stderr, "perfbench: unknown mode %s\n", mode.c_str());
            return 2;
        }
        if (metrics::enabled()) {
            std::fprintf(stderr, "perfbench: timed binary built with DATATREE_METRICS\n");
            return 2;
        }
        const unsigned nproc = std::thread::hardware_concurrency();
        if (c.jobs + c.readers > nproc) {
            std::fprintf(stderr, "perfbench: %s needs %u threads, host has %u\n",
                         c.name.c_str(), c.jobs + c.readers, nproc);
            return 2;
        }
        const double seconds = static_cast<double>(cli.get_u64("seconds", 10));
        const bool trace = cli.get_u64("trace", 0) != 0;
        const auto oracle = read_oracle(cli.get_str("oracle", ""));
        const std::string trace_out = cli.get_str("trace-out", "");
        return c.snapshots
                   ? run_workload<datalog::storage::OurBTreeSnap>(c, seed, seconds, trace,
                                                                  oracle, trace_out)
                   : run_workload<datalog::storage::OurBTree>(c, seed, seconds, trace, oracle,
                                                              trace_out);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
