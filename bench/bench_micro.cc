/**
 * @file
 * google-benchmark microbenchmarks of the building blocks: the
 * trap-bit hot path, cache model operations, stream generation,
 * trace encoding and the end-to-end engines. These quantify the
 * host-level claim behind Figure 1: a trap-driven hit costs a bit
 * test, a trace-driven hit costs a cache search.
 */

#include <benchmark/benchmark.h>

#include "base/random.hh"
#include "core/tapeworm.hh"
#include "machine/ecc.hh"
#include "machine/phys_mem.hh"
#include "mem/cache.hh"
#include "mem/stack_sim.hh"
#include "trace/cache2000.hh"
#include "trace/trace_io.hh"
#include "utrap/utrap.hh"
#include "workload/loop_nest.hh"

#include "common.hh"
#include "experiments/util.hh"

namespace
{

using namespace tw;

void
BM_PhysMemIsTrapped(benchmark::State &state)
{
    PhysMem mem(16 * 1024 * 1024);
    mem.setTrap(0x100000, 4096);
    Addr pa = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.isTrapped(pa));
        pa = (pa + 16) & (16 * 1024 * 1024 - 1);
    }
}
BENCHMARK(BM_PhysMemIsTrapped);

void
BM_PhysMemSetClearTrap(benchmark::State &state)
{
    PhysMem mem(16 * 1024 * 1024);
    std::uint64_t line = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        mem.setTrap(0x100000, line);
        mem.clearTrap(0x100000, line);
    }
}
BENCHMARK(BM_PhysMemSetClearTrap)->Arg(16)->Arg(64)->Arg(4096);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg = CacheConfig::icache(
        16384, 16, static_cast<std::uint32_t>(state.range(0)));
    Cache cache(cfg);
    Rng rng(1);
    std::vector<LineRef> refs;
    for (int i = 0; i < 4096; ++i) {
        Addr line = rng.geometric(0.002);
        refs.push_back(LineRef{line, line, 1});
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(refs[i]));
        i = (i + 1) & 4095;
    }
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_CacheInsert(benchmark::State &state)
{
    Cache cache(CacheConfig::icache(16384));
    Addr line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.insert(LineRef{line, line, 1}));
        ++line;
    }
}
BENCHMARK(BM_CacheInsert);

/**
 * flushPhysPage cost (the tw_remove_page() hot path). Each
 * iteration refills one page's worth of lines and flushes that
 * page, so the number reported is (refill + flush) per page.
 *
 * Guard (comment, not a hard threshold): before the set-range
 * flush optimization this scanned every line of the cache per
 * flush and grew linearly with cache size (measured on the
 * reference container: 2.7/5.6/16.4 us/op at 16K/64K/256K).
 * After, only the page's aligned power-of-two set range is
 * scanned, so ns/op should stay roughly flat from 64K to 256K
 * (measured: 2.4/2.4/2.7 us/op, refill included). A regression
 * back to size-proportional growth means the bounded-scan path
 * got lost.
 */
void
BM_CacheFlushPhysPage(benchmark::State &state)
{
    CacheConfig cfg = CacheConfig::icache(
        static_cast<std::uint64_t>(state.range(0)) * 1024, 16, 2);
    Cache cache(cfg);
    const Addr lines_per_page = kHostPageBytes / cfg.lineBytes;
    const Addr total_pages = 4 * cfg.sizeBytes / kHostPageBytes;
    for (Addr line = 0; line < total_pages * lines_per_page; ++line)
        cache.insert(LineRef{line, line, 1});
    Addr pfn = 0;
    for (auto _ : state) {
        for (Addr l = 0; l < lines_per_page; ++l) {
            Addr line = pfn * lines_per_page + l;
            cache.insert(LineRef{line, line, 1});
        }
        benchmark::DoNotOptimize(
            cache.flushPhysPage(pfn, kHostPageBytes));
        pfn = (pfn + 1) % total_pages;
    }
}
BENCHMARK(BM_CacheFlushPhysPage)->Arg(16)->Arg(64)->Arg(256);

/** The other flush extreme: a cache with nothing in it. The per-set
 *  occupancy counters make this a skip over empty sets instead of a
 *  scan of every (invalid) line. */
void
BM_CacheFlushPhysPageEmpty(benchmark::State &state)
{
    Cache cache(CacheConfig::icache(
        static_cast<std::uint64_t>(state.range(0)) * 1024, 16, 2));
    Addr pfn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.flushPhysPage(pfn, kHostPageBytes));
        ++pfn;
    }
}
BENCHMARK(BM_CacheFlushPhysPageEmpty)->Arg(16)->Arg(256);

void
BM_LoopNestNext(benchmark::State &state)
{
    StreamParams p;
    p.base = 0x400000;
    p.textBytes = 32 * 1024;
    p.ladder = {{256, 2.0}, {4096, 3.0}};
    LoopNestStream stream(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(stream.next());
}
BENCHMARK(BM_LoopNestNext);

void
BM_EccEncodeDecode(benchmark::State &state)
{
    std::uint32_t data = 0;
    for (auto _ : state) {
        std::uint64_t cw = EccCodec::encode(data++);
        benchmark::DoNotOptimize(
            EccCodec::decode(EccCodec::flipTrapBit(cw)));
    }
}
BENCHMARK(BM_EccEncodeDecode);

void
BM_StackSimAccess(benchmark::State &state)
{
    StackSim sim(16);
    Rng rng(1);
    for (auto _ : state)
        sim.access(rng.geometric(0.02) * 16);
}
BENCHMARK(BM_StackSimAccess);

void
BM_TraceEncodeDecode(benchmark::State &state)
{
    // Round-trip throughput of the trace codec via a temp file.
    std::string path = "/tmp/tw_bench_trace.trc";
    for (auto _ : state) {
        state.PauseTiming();
        LoopNestStream stream([] {
            StreamParams p;
            p.base = 0x400000;
            p.textBytes = 32 * 1024;
            p.ladder = {{256, 2.0}};
            return p;
        }());
        state.ResumeTiming();
        {
            TraceWriter w(path);
            for (int i = 0; i < 100000; ++i)
                w.put(TraceRecord{stream.next(), 1});
        }
        TraceReader r(path);
        TraceRecord rec;
        std::uint64_t n = 0;
        while (r.next(rec))
            ++n;
        benchmark::DoNotOptimize(n);
    }
    std::remove(path.c_str());
}
BENCHMARK(BM_TraceEncodeDecode)->Unit(benchmark::kMillisecond);

/** End-to-end engine comparison: references/second through the
 *  trap-driven path vs the trace-driven path on the same stream,
 *  for a 16 KB cache (low miss ratio: the common case). */
void
BM_EngineTrapDriven(benchmark::State &state)
{
    PhysMem phys(16 * 1024 * 1024);
    TapewormConfig cfg;
    cfg.cache = CacheConfig::icache(16384);
    Tapeworm tapeworm(phys, cfg);

    StreamParams p;
    p.base = 0x400000;
    p.textBytes = 32 * 1024;
    p.ladder = {{256, 2.0}, {4096, 3.0}};
    Task task(1, "bench", Component::User,
              std::make_unique<LoopNestStream>(p), 1);
    task.attr.simulate = true;
    for (Vpn v = 0; v < 8; ++v) {
        task.pageTable.map(0x400 + v, static_cast<Pfn>(100 + v));
        tapeworm.onPageMapped(task, 0x400 + v,
                              static_cast<Pfn>(100 + v), false);
    }
    for (auto _ : state) {
        Addr va = task.stream->next();
        Addr pa = static_cast<Addr>(task.pageTable.lookup(va))
                      * kHostPageBytes
                  + (va % kHostPageBytes);
        benchmark::DoNotOptimize(tapeworm.onRef(task, va, pa, false));
    }
}
BENCHMARK(BM_EngineTrapDriven);

void
BM_EngineTraceDriven(benchmark::State &state)
{
    Cache2000Config cfg;
    cfg.cache = CacheConfig::icache(16384, 16, 1, Indexing::Virtual);
    Cache2000 c2k(cfg);
    StreamParams p;
    p.base = 0x400000;
    p.textBytes = 32 * 1024;
    p.ladder = {{256, 2.0}, {4096, 3.0}};
    LoopNestStream stream(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(c2k.processAddr(stream.next(), 1));
}
BENCHMARK(BM_EngineTraceDriven);

void
BM_UtrapFaultRoundTrip(benchmark::State &state)
{
    // A full live trap: SIGSEGV delivery + handler + two mprotect
    // calls — the host-hardware analogue of the 246-cycle kernel
    // handler of Table 5.
    UserTapeworm engine(UtrapConfig{2, 0, UtrapPolicy::Fifo, 1});
    auto *buf = static_cast<volatile char *>(
        engine.registerBuffer(16 * 4096));
    std::size_t page = 0;
    for (auto _ : state) {
        // With a 2-entry TLB over 16 pages, round-robin touches
        // miss every time.
        buf[page * 4096] = 1;
        page = (page + 1) % 16;
    }
    state.counters["misses"] =
        static_cast<double>(engine.stats().misses);
}
BENCHMARK(BM_UtrapFaultRoundTrip);

void
BM_UtrapHit(benchmark::State &state)
{
    // The other side of the trade: a resident page costs nothing.
    UserTapeworm engine(UtrapConfig{64, 0, UtrapPolicy::Fifo, 1});
    auto *buf =
        static_cast<volatile char *>(engine.registerBuffer(4096));
    buf[0] = 1; // fault once
    for (auto _ : state)
        buf[64] = 2; // pure hardware store from here on
}
BENCHMARK(BM_UtrapHit);

/** End-to-end instrumented rate at a large cache (miss ratio well
 *  under 1%) — the configuration where the hit fast path carries
 *  the run. Written to BENCH_micro.json for cross-PR tracking. */
void
reportEndToEnd(unsigned scale)
{
    using namespace twbench;
    JsonReport json("micro", "bench_micro");
    RunSpec spec = defaultSpec("mpeg_play", {.scaleDiv = scale});
    spec.sys.scope = SimScope::userOnly();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache =
        CacheConfig::icache(1024 * 1024, 16, 1, Indexing::Virtual);
    RunOutcome o = Runner::runOne(spec, 7);
    double rate = refsPerSec(o);
    std::printf("[report] end-to-end tapeworm, 1M icache: %.3fM "
                "refs/s (miss ratio %.5f)\n", rate / 1.0e6,
                o.missRatioUser());
    json.set("tw_refs_per_sec_1024K", rate);
    json.set("tw_miss_ratio_1024K", o.missRatioUser());
}

} // namespace

int
main(int argc, char **argv)
{
    // Accept the shared bench flags (--report, --threads) and keep
    // them away from google-benchmark's flag parser.
    bool report = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--report") == 0) {
            report = true;
            continue;
        }
        if (i > 0 && std::strcmp(argv[i], "--threads") == 0
            && i + 1 < argc) {
            ++i;
            continue;
        }
        if (i > 0 && std::strncmp(argv[i], "--threads=", 10) == 0)
            continue;
        args.push_back(argv[i]);
    }
    int bargc = static_cast<int>(args.size());
    benchmark::Initialize(&bargc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (report)
        reportEndToEnd(
            parseScaleDiv(std::getenv("TW_SCALE_DIV"), 200));
    return 0;
}
