#include "harness/runner.hh"

#include <chrono>
#include <memory>
#include <mutex>

#include "base/arena.hh"
#include "base/logging.hh"
#include "base/lru_map.hh"
#include "harness/oracle.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sample/interval_sim.hh"
#include "sample/profile.hh"

namespace tw
{

namespace
{

/**
 * One memoized baseline. The entry is created under the map lock but
 * computed outside it under a per-key once_flag, so concurrent
 * trials of the same spec+seed block only each other (one computes,
 * the rest wait) and never serialize against different keys. The
 * shared_ptr keeps an entry alive for threads still computing or
 * reading it even if the LRU evicts the key meanwhile.
 */
struct BaselineEntry
{
    std::once_flag once;
    Cycles cycles = 0;
};

constexpr std::size_t kDefaultBaselineCap = 4096;

std::mutex baselinesMutex;
std::uint64_t baselineHits = 0;
std::uint64_t baselineMisses = 0;

LruMap<std::string, std::shared_ptr<BaselineEntry>> &
baselines()
{
    static LruMap<std::string, std::shared_ptr<BaselineEntry>> map(
        kDefaultBaselineCap);
    return map;
}

std::shared_ptr<BaselineEntry>
baselineEntry(const std::string &key)
{
    static obs::Counter obsHits =
        obs::registry().counter("engine.baseline.hits");
    static obs::Counter obsMisses =
        obs::registry().counter("engine.baseline.misses");
    std::lock_guard<std::mutex> lock(baselinesMutex);
    auto &map = baselines();
    if (std::shared_ptr<BaselineEntry> *entry = map.find(key)) {
        ++baselineHits;
        obsHits.inc();
        return *entry;
    }
    ++baselineMisses;
    obsMisses.inc();
    return map.insert(key, std::make_shared<BaselineEntry>());
}

double
hostNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

} // anonymous namespace

std::string
Runner::baselineKey(const RunSpec &spec, std::uint64_t trial_seed)
{
    const SystemConfig &s = spec.sys;
    return csprintf(
        "%s|%llu|%llu|%u|%llu|%d|%llu|%llu|%u|%llu|%llu|%d%d%d|%d|%llu",
        spec.workload.name.c_str(),
        static_cast<unsigned long long>(spec.workload.totalInstr),
        static_cast<unsigned long long>(s.physMemBytes), s.cpiBase,
        static_cast<unsigned long long>(s.clockInterval),
        static_cast<int>(s.clockJitter),
        static_cast<unsigned long long>(s.tickHandlerInstr),
        static_cast<unsigned long long>(s.quantumInstr),
        s.dmaFlushPeriod,
        static_cast<unsigned long long>(s.forkKernelInstr),
        static_cast<unsigned long long>(s.faultKernelCycles),
        static_cast<int>(s.scope.user), static_cast<int>(s.scope.servers),
        static_cast<int>(s.scope.kernel),
        static_cast<int>(s.allocPolicy),
        static_cast<unsigned long long>(trial_seed));
}

bool
Runner::sampleEligible(const RunSpec &spec)
{
    if (!spec.sample.enabled || spec.sim != SimKind::Tapeworm)
        return false;
    const TapewormConfig &tw = spec.tw;
    if (tw.kind != SimCacheKind::Instruction)
        return false;
    // Time-dependent cost backends (dram) price a miss by WHEN it
    // happens; interval replay reconstructs residency, not time, so
    // such specs run in full (counted in engine.sample.fallbacks).
    if (tw.costBackend.kind == CostBackendKind::Dram)
        return false;
    // Exact boundary reconstruction holds only for direct-mapped
    // virtually-indexed caches (the resident line of a set is the
    // most recently referenced line mapping to it).
    if (tw.cache.assoc != 1 || tw.cache.indexing != Indexing::Virtual)
        return false;
    // The estimator replays one user stream: the full run must trace
    // exactly that stream and nothing else.
    const SimScope &scope = spec.sys.scope;
    if (!scope.user || scope.servers || scope.kernel)
        return false;
    if (spec.workload.taskCount != 1
        || spec.workload.concurrency != 1
        || spec.workload.binaries.size() != 1)
        return false;
    // DMA buffer recycling flushes lines at times the stream replay
    // cannot see; such specs run in full.
    if (spec.sys.dmaFlushPeriod != 0)
        return false;
    // Below four intervals sampling cannot pay for itself.
    return spec.workload.userInstr()
           >= 4 * static_cast<Counter>(spec.sample.intervalRefs);
}

namespace
{

/** The sampled Tapeworm estimate, in place of a machine run. */
void
runSampled(const RunSpec &spec, const TapewormConfig &cfg,
           RunOutcome &out)
{
    static obs::Counter obsRuns =
        obs::registry().counter("engine.sample.runs");
    static obs::Counter obsIntervalsTotal =
        obs::registry().counter("engine.sample.intervals_total");
    static obs::Counter obsIntervalsSim =
        obs::registry().counter("engine.sample.intervals_simulated");
    static obs::Counter obsRefsSim =
        obs::registry().counter("engine.sample.refs_simulated");
    static obs::Counter obsRefsSkipped =
        obs::registry().counter("engine.sample.refs_skipped");

    const StreamParams &params = spec.workload.binaries[0];
    // Replicate how the OS seeds and budgets the first (only) user
    // task: see System::spawnNextUser.
    std::uint64_t reset_seed = mixSeed(params.seed, 0x5eed00);
    Counter budget =
        std::max<Counter>(1, spec.workload.userInstr()
                                 / spec.workload.taskCount);

    std::shared_ptr<const SamplePlan> plan = getSamplePlan(
        params, reset_seed, budget, spec.sample, cfg.cache);
    IntervalEstimate est =
        estimateByIntervals(*plan, cfg, spec.sample);

    out.run.instr[static_cast<unsigned>(Component::User)] = budget;
    out.run.tasksCreated = 1;
    out.rawMisses = est.rawMisses;
    out.estMisses = est.estMisses;
    out.missesByComp[static_cast<unsigned>(Component::User)] =
        est.estMisses;
    out.sample.used = true;
    out.sample.intervalsTotal = est.intervalsTotal;
    out.sample.intervalsSimulated = est.intervalsSimulated;
    out.sample.refsSimulated = est.refsSimulated;
    out.sample.refsTotal = est.refsTotal;
    out.sample.ciHalfWidth = est.ciHalfWidth;

    obsRuns.inc();
    obsIntervalsTotal.add(est.intervalsTotal);
    obsIntervalsSim.add(est.intervalsSimulated);
    obsRefsSim.add(est.refsSimulated);
    obsRefsSkipped.add(est.refsTotal - std::min(est.refsTotal,
                                                est.refsSimulated));
}

} // anonymous namespace

RunOutcome
Runner::runOne(const RunSpec &spec, std::uint64_t trial_seed)
{
    obs::ScopedSpan span("trial", "harness");
    // Every trial-lifetime allocation below (page tables, cache
    // line arrays, trap bitmaps) lands in this worker's retained
    // bump arena; the scope rewinds it on exit, so in steady state
    // a trial costs zero malloc/free. Declared first so the System
    // and clients are destroyed before the rewind.
    ArenaScope arenaScope;
    const std::size_t reserved0 = arenaScope.arena().reservedBytes();

    if (spec.sample.enabled && spec.sim == SimKind::Tapeworm) {
        if (sampleEligible(spec)) {
            RunOutcome out;
            double t0 = hostNow();
            TapewormConfig cfg = spec.tw;
            if (cfg.sampleSeed == 0)
                cfg.sampleSeed = mixSeed(trial_seed, 0x7e57);
            runSampled(spec, cfg, out);
            out.hostSeconds = hostNow() - t0;
            return out;
        }
        static obs::Counter obsSampleFallbacks =
            obs::registry().counter("engine.sample.fallbacks");
        obsSampleFallbacks.inc();
    }

    SystemConfig sys = spec.sys;
    sys.trialSeed = trial_seed;
    System system(sys, spec.workload);

    RunOutcome out;
    double t0 = hostNow();

    switch (spec.sim) {
      case SimKind::None: {
        out.run = system.run();
        break;
      }
      case SimKind::Tapeworm: {
        TapewormConfig cfg = spec.tw;
        // The trial seed picks the set sample unless the caller
        // pinned one explicitly.
        if (cfg.sampleSeed == 0)
            cfg.sampleSeed = mixSeed(trial_seed, 0x7e57);
        Tapeworm tapeworm(system.physMem(), cfg);
        system.setClient(&tapeworm);
        out.run = system.run();
        out.rawMisses =
            static_cast<double>(tapeworm.stats().totalMisses());
        out.estMisses = tapeworm.estimatedTotalMisses();
        for (unsigned c = 0; c < kNumComponents; ++c) {
            out.missesByComp[c] =
                tapeworm.estimatedMisses(static_cast<Component>(c));
        }
        out.maskedTrapRefs = tapeworm.stats().maskedTrapRefs;
        out.lostMaskedMisses = tapeworm.stats().lostMaskedMisses;
        break;
      }
      case SimKind::TapewormTlbSim: {
        TapewormTlbConfig cfg = spec.tlb;
        // The filter keeps a refcount per frame. No frame above the
        // machine's can be trapped, so a larger filter only costs
        // memory: a far larger one would not allocate at all.
        const std::uint64_t frames = system.physMem().numFrames();
        if (cfg.filterFrames == 0 || cfg.filterFrames > frames)
            cfg.filterFrames = frames;
        TapewormTlb tlb(cfg);
        system.setClient(&tlb);
        out.run = system.run();
        out.rawMisses =
            static_cast<double>(tlb.stats().totalMisses());
        out.estMisses = out.rawMisses;
        for (unsigned c = 0; c < kNumComponents; ++c) {
            out.missesByComp[c] = static_cast<double>(
                tlb.stats().misses[c]);
        }
        out.maskedTrapRefs = tlb.stats().maskedTrapRefs;
        out.lostMaskedMisses = tlb.stats().lostMaskedMisses;
        break;
      }
      case SimKind::TraceDriven: {
        Cache2000Config cfg = spec.c2k;
        if (cfg.sampleSeed == 0)
            cfg.sampleSeed = mixSeed(trial_seed, 0x7e57);
        Cache2000 c2k(cfg);
        PixieClient pixie(spec.traceTarget, &c2k, spec.pixie);
        system.setClient(&pixie);
        out.run = system.run();
        out.rawMisses = static_cast<double>(c2k.stats().misses);
        out.estMisses = c2k.estimatedMisses();
        // Pixie sees a single user task only.
        out.missesByComp[static_cast<unsigned>(Component::User)] =
            out.estMisses;
        break;
      }
      case SimKind::Oracle: {
        OracleClient oracle(spec.tw.cache,
                            system.physMem().numFrames(),
                            spec.tw.sampleNum, spec.tw.sampleDenom,
                            spec.tw.sampleSeed != 0
                                ? spec.tw.sampleSeed
                                : mixSeed(trial_seed, 0x7e57),
                            spec.tw.kind);
        system.setClient(&oracle);
        out.run = system.run();
        out.rawMisses = static_cast<double>(oracle.totalMisses());
        out.estMisses = oracle.estimatedTotalMisses();
        for (unsigned c = 0; c < kNumComponents; ++c) {
            out.missesByComp[c] = static_cast<double>(
                oracle.misses(static_cast<Component>(c)));
        }
        break;
      }
    }

    out.hostSeconds = hostNow() - t0;

    // All allocations have happened by now; account the arena's
    // growth (zero once a worker's chunks are warm) and the trial.
    static obs::Counter obsArenaBytes =
        obs::registry().counter("engine.arena.bytes_reserved");
    static obs::Counter obsArenaTrials =
        obs::registry().counter("engine.arena.trials_served");
    obsArenaBytes.add(arenaScope.arena().reservedBytes() - reserved0);
    obsArenaTrials.inc();
    return out;
}

RunOutcome
Runner::runWithSlowdown(const RunSpec &spec, std::uint64_t trial_seed)
{
    std::shared_ptr<BaselineEntry> entry =
        baselineEntry(baselineKey(spec, trial_seed));
    std::call_once(entry->once, [&] {
        obs::ScopedSpan span("baseline", "harness");
        RunSpec normal = spec;
        normal.sim = SimKind::None;
        entry->cycles = runOne(normal, trial_seed).run.cycles;
    });
    Cycles normal_cycles = entry->cycles;

    RunOutcome out = runOne(spec, trial_seed);
    out.normalCycles = normal_cycles;
    TW_ASSERT(normal_cycles > 0, "empty baseline run");
    double overhead = static_cast<double>(out.run.cycles)
                      - static_cast<double>(normal_cycles);
    out.slowdown = overhead / static_cast<double>(normal_cycles);
    return out;
}

void
Runner::clearBaselineCache()
{
    std::lock_guard<std::mutex> lock(baselinesMutex);
    baselines().clear();
    baselineHits = 0;
    baselineMisses = 0;
}

void
Runner::setBaselineCacheCapacity(std::size_t entries)
{
    std::lock_guard<std::mutex> lock(baselinesMutex);
    baselines().setCapacity(entries);
}

BaselineCacheStats
Runner::baselineCacheStats()
{
    std::lock_guard<std::mutex> lock(baselinesMutex);
    BaselineCacheStats s;
    s.size = baselines().size();
    s.capacity = baselines().capacity();
    s.hits = baselineHits;
    s.misses = baselineMisses;
    s.evictions = baselines().evictions();
    return s;
}

} // namespace tw
