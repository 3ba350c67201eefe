// Google-benchmark micro: raw cost of the optimistic read-write lock's
// operations against a std::mutex and a spinlock baseline — the per-node
// overhead every single tree traversal step pays (§3.1's core argument:
// a validated optimistic read performs NO store, so the uncontended read
// path must be in the same league as an unsynchronised load).
//
//   ./build/bench/micro_lock [--json=FILE] [google-benchmark flags]
//
// --json=FILE is sugar for --benchmark_out=FILE --benchmark_out_format=json,
// so every bench binary shares one flag for machine-readable output.

#include <benchmark/benchmark.h>

#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/optimistic_lock.h"
#include "util/spinlock.h"

namespace {

using dtree::OptimisticReadWriteLock;

void BM_OptimisticRead(benchmark::State& state) {
    OptimisticReadWriteLock lock;
    std::uint64_t data = 42;
    for (auto _ : state) {
        auto lease = lock.start_read();
        benchmark::DoNotOptimize(data);
        benchmark::DoNotOptimize(lock.end_read(lease));
    }
}
BENCHMARK(BM_OptimisticRead)->ThreadRange(1, 8);

void BM_OptimisticWrite(benchmark::State& state) {
    OptimisticReadWriteLock lock;
    std::uint64_t data = 0;
    for (auto _ : state) {
        lock.start_write();
        ++data;
        lock.end_write();
    }
    benchmark::DoNotOptimize(data);
}
BENCHMARK(BM_OptimisticWrite);

void BM_OptimisticUpgrade(benchmark::State& state) {
    OptimisticReadWriteLock lock;
    std::uint64_t data = 0;
    for (auto _ : state) {
        auto lease = lock.start_read();
        benchmark::DoNotOptimize(data);
        if (lock.try_upgrade_to_write(lease)) {
            ++data;
            lock.end_write();
        }
    }
}
BENCHMARK(BM_OptimisticUpgrade);

void BM_MutexReadPath(benchmark::State& state) {
    static std::mutex mutex;
    static std::uint64_t data = 42;
    for (auto _ : state) {
        std::lock_guard guard(mutex);
        benchmark::DoNotOptimize(data);
    }
}
BENCHMARK(BM_MutexReadPath)->ThreadRange(1, 8);

void BM_SpinlockReadPath(benchmark::State& state) {
    static dtree::util::Spinlock lock;
    static std::uint64_t data = 42;
    for (auto _ : state) {
        std::lock_guard guard(lock);
        benchmark::DoNotOptimize(data);
    }
}
BENCHMARK(BM_SpinlockReadPath)->ThreadRange(1, 8);

void BM_UnsynchronisedRead(benchmark::State& state) {
    std::uint64_t data = 42;
    for (auto _ : state) benchmark::DoNotOptimize(data);
}
BENCHMARK(BM_UnsynchronisedRead);

} // namespace

int main(int argc, char** argv) {
    // Rewrite --json[=FILE] into google-benchmark's output flags before
    // handing the command line over.
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strncmp(a, "--json=", 7) == 0) {
            args.push_back(std::string("--benchmark_out=") + (a + 7));
            args.push_back("--benchmark_out_format=json");
        } else {
            args.push_back(a);
        }
    }
    std::vector<char*> cargs;
    for (auto& s : args) cargs.push_back(s.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    // Initialize consumed google-benchmark's own flags; any flag left over
    // is unknown.
    if (dtree::bench::reject_unknown_flags(
            dtree::util::Cli(cargc, cargs.data()), {})) {
        return 2;
    }
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
