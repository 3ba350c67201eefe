#pragma once

// Spans for the benchmark's traced pass, recorded from the benchmark's own
// code around each call into a layer (datalog: Engine / EngineService calls;
// core: the aggregated per-thread totals of traced_storage.h; reads: the
// reader threads' aggregated per-kind totals). Spans stay in memory and are
// written out once, when the pass ends.
//
// Span tree:
//   rep    -> setup, eval -> core.<op> (aggregated, one per thread and op)
//   serve  -> commit -> ingest, refixpoint
//          -> read.query / read.scan / read.count (aggregated per reader)
//
// Self time is computed per thread: a span's duration minus the part its
// children on the same thread cover.

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "traced_storage.h"
#include "util/json.h"

namespace perfbench {

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;
    unsigned thread = 0; ///< CoreRegistry slot index of the recording thread
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t calls = 0; ///< aggregated spans: calls folded into this one
    bool aggregated = false;
};

class Tracer {
public:
    Tracer(std::string workload, std::string run_id)
        : workload_(std::move(workload)), run_id_(std::move(run_id)) {}

    std::uint64_t open(const std::string& name, std::uint64_t parent) {
        Span s;
        s.name = name;
        s.parent = parent;
        s.thread = CoreRegistry::instance().slot_index();
        s.start_ns = now_ns();
        std::lock_guard<std::mutex> lk(mu_);
        s.id = spans_.size() + 1;
        spans_.push_back(s);
        return s.id;
    }

    void close(std::uint64_t id) {
        const std::uint64_t t = now_ns();
        std::lock_guard<std::mutex> lk(mu_);
        spans_[id - 1].end_ns = t;
    }

    /// Records `calls` operations on `thread` totalling `ns` as one span
    /// starting at `start_ns`.
    void aggregate(const std::string& name, std::uint64_t parent, unsigned thread,
                   std::uint64_t start_ns, std::uint64_t ns, std::uint64_t calls) {
        if (calls == 0) return;
        Span s;
        s.name = name;
        s.parent = parent;
        s.thread = thread;
        s.start_ns = start_ns;
        s.end_ns = start_ns + ns;
        s.calls = calls;
        s.aggregated = true;
        std::lock_guard<std::mutex> lk(mu_);
        s.id = spans_.size() + 1;
        spans_.push_back(s);
    }

    /// Per (name, thread): span count, summed duration and summed self time.
    struct SelfTime {
        std::uint64_t spans = 0;
        std::uint64_t calls = 0;
        std::uint64_t total_ns = 0;
        std::int64_t self_ns = 0;
    };
    std::map<std::pair<std::string, unsigned>, SelfTime> self_times() const {
        std::vector<std::uint64_t> covered(spans_.size() + 1, 0);
        for (const Span& s : spans_) {
            if (s.parent && spans_[s.parent - 1].thread == s.thread) {
                covered[s.parent] += s.end_ns - s.start_ns;
            }
        }
        std::map<std::pair<std::string, unsigned>, SelfTime> out;
        for (const Span& s : spans_) {
            SelfTime& t = out[{s.name, s.thread}];
            const std::uint64_t d = s.end_ns - s.start_ns;
            ++t.spans;
            t.calls += s.calls;
            t.total_ns += d;
            t.self_ns += static_cast<std::int64_t>(d) -
                         static_cast<std::int64_t>(covered[s.id]);
        }
        return out;
    }

    bool write(const std::string& path) const {
        std::ofstream os(path);
        if (!os) return false;
        dtree::json::Writer w(os);
        w.begin_object();
        w.kv("workload", workload_);
        w.kv("run", run_id_);
        w.key("spans");
        w.begin_array();
        for (const Span& s : spans_) {
            w.begin_object();
            w.kv("id", s.id);
            w.kv("parent", s.parent);
            w.kv("name", s.name);
            w.kv("thread", s.thread);
            w.kv("start_ns", s.start_ns);
            w.kv("end_ns", s.end_ns);
            if (s.aggregated) w.kv("calls", s.calls);
            w.end_object();
        }
        w.end_array();
        w.key("self_time");
        w.begin_array();
        for (const auto& [key, t] : self_times()) {
            w.begin_object();
            w.kv("name", key.first);
            w.kv("thread", key.second);
            w.kv("spans", t.spans);
            w.kv("calls", t.calls);
            w.kv("total_ns", t.total_ns);
            w.kv("self_ns", t.self_ns);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        os << "\n";
        return static_cast<bool>(os);
    }

private:
    std::string workload_;
    std::string run_id_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null tracer
/// (the untraced pass) records nothing.
class ScopedSpan {
public:
    ScopedSpan(Tracer* t, const std::string& name, std::uint64_t parent)
        : t_(t), id_(t ? t->open(name, parent) : 0) {}
    ~ScopedSpan() {
        if (t_) t_->close(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return id_; }

private:
    Tracer* t_;
    std::uint64_t id_;
};

} // namespace perfbench
