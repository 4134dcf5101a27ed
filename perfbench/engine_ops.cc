/**
 * @file
 * The engine workloads (hits, misses) and the per-layer probes every
 * traced run takes on its workload's spec.
 *
 * hits: mpeg_play at scale divisor 20, user-only, 1 MB direct-mapped
 * virtually indexed I-cache with 16-byte lines. Almost nothing traps,
 * so an op is the chunked hit loop plus stream generation: the control
 * for every miss-path change.
 *
 * misses: the same stream, at a tenth of the budget, on a 1 KB
 * unified cache. Fetch, load and
 * store traps run the filtered loop, tw_replace, trap set/clear, the
 * cost backend and flushes: the miss path dominates, and it is the
 * control for chunked-loop changes.
 */

#include <fstream>
#include <sstream>
#include <thread>

#include "base/arena.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "bench.hh"
#include "core/tapeworm.hh"
#include "harness/specio.hh"
#include "machine/phys_mem.hh"
#include "obs/trace.hh"
#include "workload/loop_nest.hh"

namespace twbench
{

using namespace tw;

namespace
{

/** Pool entries the engine workloads ship digests for. --seed picks
 *  one by its remainder; see README.md for the held-out ones. */
constexpr unsigned kSeedPool = 8;

/** The op's spec for pool entry @p entry. Both ops take ~0.1 s, so a
 *  run holds a few hundred of them: misses runs the same stream with a
 *  tenth of hits' budget (scale divisor 200, not 20), since each of its
 *  refs costs ~10x more. The entry reseeds the user streams' control
 *  flow, so every entry simulates a different reference stream (the
 *  trial seed alone moves nothing a user-only virtual cache sees). */
RunSpec
engineSpec(const std::string &workload, unsigned entry)
{
    bool hits = workload == "hits";
    RunSpec spec;
    spec.workload = makeWorkload("mpeg_play", hits ? 20 : 200);
    for (StreamParams &p : spec.workload.binaries)
        p.seed = mixSeed(p.seed, entry);
    for (StreamParams &p : spec.workload.binaryData)
        p.seed = mixSeed(p.seed, entry);
    spec.sys.scope = SimScope::userOnly();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(hits ? 1024 * 1024 : 1024, 16,
                                        1, Indexing::Virtual);
    if (!hits)
        spec.tw.kind = SimCacheKind::Unified;
    return spec;
}

unsigned
poolEntry(std::uint64_t bench_seed)
{
    return static_cast<unsigned>(bench_seed % kSeedPool);
}

std::uint64_t
engineTrialSeed(unsigned entry)
{
    return mixSeed(0x7a9e5eed, entry);
}

/** The recorded digest for this workload and seed ("" if none). */
std::string
expectedDigest(const Options &opt)
{
    std::ifstream in(opt.expectedPath);
    std::stringstream text;
    text << in.rdbuf();
    Json doc;
    if (!Json::parse(text.str(), doc))
        fatal("twbench: cannot read %s", opt.expectedPath.c_str());
    const Json *d = doc.findPath(
        csprintf("%s.%llu", opt.workload.c_str(),
                 static_cast<unsigned long long>(poolEntry(opt.seed))));
    return d ? d->asString() : "";
}

/** Everything the timed loop learns about its ops. */
struct OpLog
{
    std::vector<double> ms;
    /** Untraced ops: op time over the reference kernel's, timed right
     *  after the op. */
    std::vector<double> rel;
    /** Per-op traced span totals (traced phase only). */
    std::vector<SpanTotals> spans;
    Counters firstDelta;
    bool haveFirst = false;
    RunOutcome last;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double wallSeconds = 0.0;
};

/** Run ops for @p seconds. An op fails when its outcome digest is not
 *  the recorded one or its engine counters differ from the first
 *  op's: both must repeat exactly for the same spec and seed. */
void
runOps(const RunSpec &spec, std::uint64_t seed,
       const std::string &expected, double seconds,
       const std::string *trace_path, OpLog &log)
{
    Clock::time_point start = Clock::now();
    while (log.ms.empty() || secondsSince(start) < seconds) {
        Counters before = snapshotCounters();
        if (trace_path)
            traceArm(*trace_path);
        Clock::time_point t0 = Clock::now();
        RunOutcome out;
        {
            obs::ScopedSpan span("run_one", "bench");
            out = Runner::runOne(spec, seed);
        }
        log.ms.push_back(secondsSince(t0) * 1e3);
        if (trace_path)
            log.spans.push_back(traceCollect(*trace_path));
        else
            log.rel.push_back(log.ms.back() / referenceKernelMs());
        Counters delta = counterDelta(before, snapshotCounters());

        ++log.attempted;
        bool ok = outcomeDigest(out) == expected;
        if (!log.haveFirst) {
            log.firstDelta = delta;
            log.haveFirst = true;
        } else if (delta != log.firstDelta) {
            ok = false;
        }
        if (!ok)
            ++log.failed;
        log.last = std::move(out);
    }
    log.wallSeconds = secondsSince(start);
}

} // anonymous namespace

void
engineCountMetrics(const Counters &delta, double ops, Result &res)
{
    static const std::pair<const char *, const char *> kCounts[] = {
        {"os.refs_chunked", "engine.refs.chunked"},
        {"os.refs_filtered", "engine.refs.filtered"},
        {"os.probe_hits", "engine.probe.hits"},
        {"os.probe_skips", "engine.probe.skips"},
        {"os.utlb_misses", "engine.utlb.misses"},
        {"core.traps_fetch", "engine.traps.delivered.fetch"},
        {"core.traps_load", "engine.traps.delivered.load"},
        {"core.traps_store", "engine.traps.delivered.store"},
        {"core.traps_set", "engine.traps.set"},
        {"core.traps_cleared", "engine.traps.cleared"},
        {"mem.flushes_ranged", "engine.flush.ranged"},
        {"mem.flushes_scan", "engine.flush.scan"},
        {"cost.events", "engine.cost.events"},
        {"cost.cycles", "engine.cost.cycles"},
    };
    for (const auto &[metric, counter] : kCounts) {
        double v = static_cast<double>(counterOf(delta, counter));
        res.add(metric, ops > 0 ? v / ops : 0.0, "count");
    }
}

Result
runEngineWorkload(const Options &opt)
{
    const unsigned entry = poolEntry(opt.seed);
    const std::uint64_t seed = engineTrialSeed(entry);
    const std::string expected = expectedDigest(opt);
    if (expected.empty())
        fatal("twbench: no recorded digest for %s seed %llu",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));

    Result res;
    std::vector<double> setups;
    OpLog plain, traced;
    RunSpec spec;
    const std::string tracePath = opt.workdir + "/engine.trace.json";
    // Each setup runs on a fresh thread, so its worker arena starts
    // cold as a new process's would: spec generation, then the first
    // trial, which fills the arena. The last thread goes on to measure.
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        const bool last = rep + 1 == kSetupReps;
        std::thread worker([&] {
            Clock::time_point t0 = Clock::now();
            spec = engineSpec(opt.workload, entry);
            RunOutcome first = Runner::runOne(spec, seed);
            setups.push_back(secondsSince(t0));
            if (outcomeDigest(first) != expected) {
                res.correct = false;
                res.notes.push_back("set-up trial digest mismatch");
            }
            if (!last)
                return;
            double untraced = opt.trace ? opt.seconds / 2 : opt.seconds;
            runOps(spec, seed, expected, untraced, nullptr, plain);
            if (opt.trace)
                runOps(spec, seed, expected, opt.seconds - untraced,
                       &tracePath, traced);
        });
        worker.join();
    }

    res.attempted = plain.attempted + traced.attempted;
    res.failed = plain.failed + traced.failed;
    if (traced.haveFirst && traced.firstDelta != plain.firstDelta)
        ++res.failed; // tracing must not move a single count
    const double refs = simRefs(plain.last);
    const double p10 = quantile(plain.ms, 0.1);
    res.notes.push_back(csprintf("setup median %.4f s, min %.4f s, max "
                                 "%.4f s",
                                 median(setups), quantile(setups, 0),
                                 quantile(setups, 1)));
    res.notes.push_back(csprintf(
        "%zu ops (%.2f/s), op min %.3f p10 %.3f p50 %.3f p99 %.3f ms, "
        "op/reference p50 %.3f, %.0f refs and %.0f misses per op, "
        "digest %s",
        plain.ms.size(),
        static_cast<double>(plain.ms.size()) / plain.wallSeconds,
        quantile(plain.ms, 0), p10, median(plain.ms),
        quantile(plain.ms, 0.99), median(plain.rel), refs,
        plain.last.rawMisses, outcomeDigest(plain.last).c_str()));

    if (!opt.trace) {
        res.add("op_rel_p50", median(plain.rel), "x");
        res.add("setup_s", median(setups), "s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        return res;
    }

    SpanTotals all;
    std::vector<double> runOneMs;
    for (const SpanTotals &t : traced.spans) {
        all.merge(t);
        auto it = t.totalUs.find("bench.run_one");
        runOneMs.push_back(it == t.totalUs.end() ? 0.0 : it->second / 1e3);
    }
    res.add("refs_per_s", refs / (p10 / 1e3), "1/s");
    res.add("op_p10_ms", p10, "ms");
    res.add("op_p50_ms", median(plain.ms), "ms");
    res.add("op_p99_ms", quantile(plain.ms, 0.99), "ms");
    res.add("op_samples", static_cast<double>(plain.ms.size()), "count");
    res.add("rows_per_s",
            static_cast<double>(plain.ms.size()) / plain.wallSeconds,
            "1/s");
    res.add("obs.trace_overhead_pct",
            (quantile(traced.ms, 0.1) / p10 - 1.0) * 100.0, "%");
    res.droppedEvents += all.dropped;
    const double runOne = quantile(runOneMs, 0.1);
    engineCountMetrics(plain.firstDelta, 1.0, res);
    res.add("sim.cycles", static_cast<double>(plain.last.run.cycles),
            "count");
    res.add("sim.misses", plain.last.rawMisses, "count");
    layerProbes(spec, seed, runOne, refs,
                opt.workdir + "/probe.trace.json", res);
    serveProbe(opt, res);
    return res;
}

int
recordDigests(const Options &opt)
{
    for (unsigned i = 0; i < kSeedPool; ++i) {
        RunOutcome o =
            Runner::runOne(engineSpec(opt.workload, i), engineTrialSeed(i));
        std::printf("\"%u\": \"%s\"%s\n", i, outcomeDigest(o).c_str(),
                    i + 1 < kSeedPool ? "," : "");
    }
    return 0;
}

// ---- layer probes ------------------------------------------------------

namespace
{

/** A spec's first user stream, translated once up front so the miss
 *  probe times onRef alone. Frames are contiguous from kFirstFrame. */
struct TranslatedStream
{
    static constexpr Pfn kFirstFrame = 64;
    std::vector<Addr> va;
    std::vector<Addr> pa;
    Addr textBase = 0;
    std::uint64_t pages = 0;
};

TranslatedStream
translateStream(const StreamParams &params, std::size_t n)
{
    TranslatedStream t;
    LoopNestStream stream(params);
    stream.reset(mixSeed(params.seed, 0x5eed00));
    t.textBase = stream.textBase();
    t.pages = divCeil(stream.textBytes(), kHostPageBytes);
    t.va.resize(n);
    stream.nextBatch(t.va.data(), static_cast<unsigned>(n));
    t.pa.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        Addr page = (t.va[i] - t.textBase) / kHostPageBytes;
        t.pa[i] = (static_cast<Addr>(TranslatedStream::kFirstFrame) + page)
                      * kHostPageBytes
                  + t.va[i] % kHostPageBytes;
    }
    return t;
}

/** Drive a standalone Tapeworm (as bench_micro's BM_EngineTrapDriven
 *  does) over @p t with the spec's cache at @p size_bytes, inside span
 *  @p span. Returns the traps delivered. */
double
driveOnRef(const RunSpec &spec, const StreamParams &params,
           const TranslatedStream &t, std::uint64_t size_bytes,
           const char *span_name)
{
    ArenaScope arena;
    PhysMem phys((TranslatedStream::kFirstFrame + t.pages + 1)
                 * kHostPageBytes);
    TapewormConfig cfg = spec.tw;
    cfg.cache.sizeBytes = size_bytes;
    Tapeworm tapeworm(phys, cfg);
    Task task(1, "probe", Component::User,
              std::make_unique<LoopNestStream>(params), 1);
    task.attr.simulate = true;
    Vpn first = t.textBase / kHostPageBytes;
    for (std::uint64_t p = 0; p < t.pages; ++p) {
        Pfn pfn = static_cast<Pfn>(TranslatedStream::kFirstFrame + p);
        task.pageTable.map(first + p, pfn);
        tapeworm.onPageMapped(task, first + p, pfn, false);
    }
    Cycles cycles = 0;
    {
        obs::ScopedSpan span(span_name, "bench");
        for (std::size_t i = 0; i < t.va.size(); ++i)
            cycles += tapeworm.onRef(task, t.va[i], t.pa[i], false);
    }
    auto traps = static_cast<double>(tapeworm.stats().totalMisses());
    if (cycles == 0 && traps > 0)
        fatal("twbench: miss probe charged no cycles");
    return traps;
}

} // anonymous namespace

void
layerProbes(const RunSpec &spec, std::uint64_t trial_seed,
            double run_one_ms, double refs_per_run,
            const std::string &trace_path, Result &res)
{
    const StreamParams &params = spec.workload.binaries.at(0);
    const Counter budget = std::max<Counter>(
        1, spec.workload.userInstr() / spec.workload.taskCount);
    // Streams never end, so the miss probe takes the same 2 M refs
    // whatever the budget: enough traps to time on the smallest spec.
    TranslatedStream t = translateStream(params, 2'000'000);
    const std::uint32_t line = spec.tw.cache.lineBytes;
    PhysMem phys(16ull << 20);
    const std::uint64_t lines = phys.sizeBytes() / line;
    const std::string text = formatRunSpec(spec);
    constexpr unsigned kReps = 3, kCalls = 64, kRunOnes = 8;
    double traps = 0.0;
    std::uint64_t acc = 0;

    // Every probe below runs inside a span named for its layer; the
    // figures come from the spans.
    traceArm(trace_path);
    for (unsigned i = 0; run_one_ms <= 0.0 && i < kRunOnes; ++i) {
        obs::ScopedSpan span("run_one", "bench");
        refs_per_run = simRefs(Runner::runOne(spec, trial_seed + i));
    }
    for (unsigned rep = 0; rep < kReps; ++rep) {
        // workload: the first user task's stream on its own, in the
        // batches the chunked loop asks for.
        LoopNestStream stream(params);
        stream.reset(mixSeed(params.seed, 0x5eed00));
        std::vector<Addr> buf(4096);
        {
            obs::ScopedSpan span("replay", "bench");
            for (Counter done = 0; done < budget;) {
                auto n = static_cast<unsigned>(
                    std::min<Counter>(buf.size(), budget - done));
                stream.nextBatch(buf.data(), n);
                acc += buf[n - 1];
                done += n;
            }
        }
        // core: the miss path, as the difference between a small and
        // a large cache over the same translated references.
        traps = driveOnRef(spec, params, t, 1024, "on_ref_small")
                - driveOnRef(spec, params, t, 1024 * 1024, "on_ref_large");
        // machine: trap bits at the spec's line size over 16 MB.
        {
            obs::ScopedSpan span("set_trap", "bench");
            for (std::uint64_t i = 0; i < lines; ++i)
                phys.setTrap(i * line, line);
        }
        {
            obs::ScopedSpan span("clear_trap", "bench");
            for (std::uint64_t i = 0; i < lines; ++i)
                phys.clearTrap(i * line, line);
        }
        // harness: what the serve path pays per seed and per request.
        for (unsigned i = 0; i < kCalls; ++i) {
            {
                obs::ScopedSpan span("fingerprint", "bench");
                acc += specFingerprint(spec, trial_seed + i, true);
            }
            {
                obs::ScopedSpan span("cache_key", "bench");
                acc += cacheKey(spec, trial_seed + i, true).size();
            }
            {
                obs::ScopedSpan span("spec_format", "bench");
                acc += formatRunSpec(spec).size();
            }
            RunSpec parsed;
            std::string err;
            {
                obs::ScopedSpan span("spec_parse", "bench");
                if (!parseRunSpec(text, parsed, err))
                    fatal("twbench: spec parse: %s", err.c_str());
            }
            acc += parsed.workload.totalInstr;
        }
    }
    SpanTotals spans = traceCollect(trace_path);
    if (acc == 0)
        res.notes.push_back("probe results folded to zero");

    // Mean span duration in us. run_one's children (the trial, its
    // flushes) are part of the call being timed; the others are leaves.
    auto perSpan = [&](const char *name) {
        std::string key = std::string("bench.") + name;
        auto n = spans.count.find(key);
        return n == spans.count.end()
                   ? 0.0
                   : spans.totalUs.at(key) / static_cast<double>(n->second);
    };
    if (run_one_ms <= 0.0)
        run_one_ms = perSpan("run_one") / 1e3;
    res.add("harness.run_one_ms", run_one_ms, "ms");
    const double replayNs = perSpan("replay") * 1e3;
    res.add("workload.ns_per_ref", replayNs / static_cast<double>(budget),
            "ns");
    res.add("os.ns_per_ref", (run_one_ms * 1e6 - replayNs) / refs_per_run,
            "ns");
    res.add("core.miss_ns",
            (perSpan("on_ref_small") - perSpan("on_ref_large")) * 1e3
                / traps,
            "ns");
    res.add("core.probe_traps", traps, "count");
    res.add("machine.trap_set_ns",
            perSpan("set_trap") * 1e3 / static_cast<double>(lines), "ns");
    res.add("machine.trap_clear_ns",
            perSpan("clear_trap") * 1e3 / static_cast<double>(lines),
            "ns");
    res.add("harness.fingerprint_us", perSpan("fingerprint"), "us");
    res.add("harness.cache_key_us", perSpan("cache_key"), "us");
    res.add("harness.spec_format_us", perSpan("spec_format"), "us");
    res.add("harness.spec_parse_us", perSpan("spec_parse"), "us");
    res.add("harness.spec_bytes", static_cast<double>(text.size()),
            "count");
    res.droppedEvents += spans.dropped;
}

} // namespace twbench
