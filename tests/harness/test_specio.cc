/**
 * @file
 * Canonical (de)serialization of RunSpec/RunOutcome — the wire
 * format AND the cache fingerprint share these bytes, so the
 * round-trip must be exact and the parser strict (field drift shows
 * up here, not as silent cache-key truncation).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "harness/runner.hh"
#include "harness/specio.hh"
#include "workload/spec.hh"

namespace tw
{
namespace
{

RunSpec
sampleSpec()
{
    RunSpec spec;
    spec.workload = makeWorkload("mpeg_play", 4000);
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache =
        CacheConfig::icache(1024, 16, 1, Indexing::Virtual);
    spec.sys.scope = SimScope::userOnly();
    return spec;
}

/** @p j with the member at dotted @p path replaced by @p value. */
Json
withField(Json j, const std::string &path, Json value)
{
    std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        j.set(path, std::move(value));
        return j;
    }
    std::string head = path.substr(0, dot);
    j.set(head, withField(*j.find(head), path.substr(dot + 1),
                          std::move(value)));
    return j;
}

/** The sample spec's "tw" member, sampling @p num/@p denom of its
 *  sets in @p mode. */
Json
twSampling(unsigned num, unsigned denom, SampleMode mode)
{
    RunSpec spec = sampleSpec();
    spec.tw.sampleNum = num;
    spec.tw.sampleDenom = denom;
    spec.tw.sampleMode = mode;
    return *specToJson(spec).find("tw");
}

/** The sample spec's "tw" member over a 64 KB cache of
 *  @p line_bytes lines. */
Json
twLine(unsigned line_bytes)
{
    RunSpec spec = sampleSpec();
    spec.tw.cache =
        CacheConfig::icache(65536, line_bytes, 1, Indexing::Virtual);
    return *specToJson(spec).find("tw");
}

/** The sample spec's "tw" member priced by dram, with member @p key
 *  of its dram block set to @p value. */
Json
twDram(const char *key, Json value)
{
    RunSpec spec = sampleSpec();
    spec.tw.costBackend.kind = CostBackendKind::Dram;
    return withField(*specToJson(spec).find("tw"),
                     std::string("costBackend.dram.") + key,
                     std::move(value));
}

/** The sample spec's "workload" member after @p edit. */
template <typename F>
Json
workloadWith(F edit)
{
    RunSpec spec = sampleSpec();
    edit(spec.workload);
    return *specToJson(spec).find("workload");
}

/** A spec with every enum off its default and odd values in the
 *  corners the canonical form must carry exactly. */
RunSpec
contortedSpec()
{
    RunSpec spec = sampleSpec();
    spec.sim = SimKind::TapewormTlbSim;
    spec.sys.allocPolicy = AllocPolicy::Coloring;
    spec.sys.clockJitter = !spec.sys.clockJitter;
    spec.sys.trialSeed =
        std::numeric_limits<std::uint64_t>::max();
    spec.tw.cache.policy = ReplPolicy::Random;
    spec.tw.cache.assoc = 4;
    spec.tw.cache.tagIncludesTask = true;
    spec.tw.kind = SimCacheKind::Unified;
    spec.tw.hostWrite = HostWritePolicy::NoAllocateOnWrite;
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = 16;
    spec.tw.sampleMode = SampleMode::ConstantBits;
    spec.tw.compensateMasked = false;
    spec.tw.cost.cyclesPerInstr = 1.3333333333333333;
    spec.tlb.tlb = CacheConfig::tlb(64, 0, 4096);
    spec.tlb.filterFrames = 12345678901234567ull;
    spec.c2k.sampleDenom = 7;
    spec.pixie.genCycles = 99;
    spec.traceTarget = kFirstUserTaskId + 3;
    // Inexact in binary, and still a runnable ladder (a stream
    // refuses mean reps below 1, and so does the parser).
    spec.workload.binaries.at(0).ladder.at(0).meanReps = 1.1;
    return spec;
}

/** A dram-priced spec with every timing parameter off its default,
 *  and the ideal backend on its TLB block. */
RunSpec
dramSpec()
{
    RunSpec spec = sampleSpec();
    spec.tw.costBackend.kind = CostBackendKind::Dram;
    DramTimingParams &p = spec.tw.costBackend.dram;
    p.channels = 2;
    p.ranksPerChannel = 2;
    p.banksPerRank = 4;
    p.rowBytes = 1024;
    p.tRCD = 15;
    p.tRP = 16;
    p.tCAS = 17;
    p.tRAS = 40;
    p.tRFC = 260;
    p.tREFI = 7800;
    p.burstCycles = 8;
    p.walkReads = 3;
    spec.tlb.costBackend.kind = CostBackendKind::Ideal;
    return spec;
}

/** A spec with interval sampling on and every knob off its default. */
RunSpec
sampledSpec()
{
    RunSpec spec = sampleSpec();
    spec.sample.enabled = true;
    spec.sample.intervalRefs = 4096;
    spec.sample.warmupRefs = 128;
    spec.sample.clusters = 12;
    spec.sample.perCluster = 3;
    spec.sample.seed = 0xabcdef;
    spec.sample.ciRelFloor = 0.015;
    return spec;
}

/** An outcome of a sampled run, made by hand: every member set, and
 *  doubles that are inexact in binary. */
RunOutcome
sampledOutcome()
{
    RunOutcome o;
    o.run.cycles = 123456789012ull;
    for (std::size_t i = 0; i < o.run.instr.size(); ++i)
        o.run.instr[i] = 1000 * (i + 1) + i;
    o.run.ticks = 77;
    o.run.dataRefs = 99999;
    o.run.syscalls = 12;
    o.run.forks = 3;
    o.run.faults = 45;
    o.run.dmaFlushes = 6;
    o.run.tasksCreated = 4;
    o.rawMisses = 1234.0;
    o.estMisses = 1234.0 * 16.0 / 3.0;
    for (std::size_t i = 0; i < o.missesByComp.size(); ++i)
        o.missesByComp[i] = 0.1 * static_cast<double>(i + 1);
    o.maskedTrapRefs = 17;
    o.lostMaskedMisses = 2;
    o.hostSeconds = 9.5;
    o.slowdown = 1.0 / 3.0;
    o.normalCycles = 987654321;
    o.sample.used = true;
    o.sample.intervalsTotal = 61;
    o.sample.intervalsSimulated = 18;
    o.sample.refsSimulated = 294912;
    o.sample.refsTotal = 1000000;
    o.sample.ciHalfWidth = 12.5;
    return o;
}

TEST(SpecIo, CanonicalBytesPinned)
{
    // Recorded before the canonical form was driven by one member
    // list per struct: these bytes are the result-cache key, the ring
    // placement and the wire format, so however they are made they
    // must not move. Each case covers a conditional block: every enum
    // off its default, both cost-backend blocks, the sampling block
    // and a sampled outcome.
    struct Case
    {
        const char *what;
        std::string text;
        std::uint64_t fnv;
    };
    const Case kCases[] = {
        {"contorted", formatRunSpec(contortedSpec()),
         0xe6597be5b3380cf8ull},
        {"dram", formatRunSpec(dramSpec()), 0x17b778b4074a5806ull},
        {"sampled", formatRunSpec(sampledSpec()), 0xa5da301ea0b63b68ull},
        {"outcome", formatRunOutcome(sampledOutcome()),
         0xefc432687eb45b7cull},
    };
    for (const Case &c : kCases)
        EXPECT_EQ(fnv1a64(c.text), c.fnv) << c.what << ": " << c.text;
}

TEST(SpecIo, SpecRoundTripsToIdenticalBytes)
{
    for (const RunSpec &spec : {sampleSpec(), contortedSpec()}) {
        std::string text = formatRunSpec(spec);
        RunSpec back;
        std::string err;
        ASSERT_TRUE(parseRunSpec(text, back, err)) << err;
        EXPECT_EQ(formatRunSpec(back), text);
    }
}

TEST(SpecIo, ParsedSpecIsSemanticallyEqual)
{
    RunSpec spec = contortedSpec();
    RunSpec back;
    std::string err;
    ASSERT_TRUE(parseRunSpec(formatRunSpec(spec), back, err)) << err;
    EXPECT_EQ(back.sim, spec.sim);
    EXPECT_EQ(back.sys.trialSeed, spec.sys.trialSeed);
    EXPECT_EQ(back.sys.allocPolicy, spec.sys.allocPolicy);
    EXPECT_EQ(back.tw.cache.sizeBytes, spec.tw.cache.sizeBytes);
    EXPECT_EQ(back.tw.cache.policy, spec.tw.cache.policy);
    EXPECT_EQ(back.tw.kind, spec.tw.kind);
    EXPECT_EQ(back.tw.hostWrite, spec.tw.hostWrite);
    EXPECT_EQ(back.tw.sampleMode, spec.tw.sampleMode);
    EXPECT_EQ(back.tw.sampleDenom, spec.tw.sampleDenom);
    EXPECT_DOUBLE_EQ(back.tw.cost.cyclesPerInstr,
                     spec.tw.cost.cyclesPerInstr);
    EXPECT_EQ(back.tlb.filterFrames, spec.tlb.filterFrames);
    EXPECT_EQ(back.c2k.sampleDenom, spec.c2k.sampleDenom);
    EXPECT_EQ(back.pixie.genCycles, spec.pixie.genCycles);
    EXPECT_EQ(back.traceTarget, spec.traceTarget);
    EXPECT_EQ(back.workload.name, spec.workload.name);
    EXPECT_EQ(back.workload.binaries.size(),
              spec.workload.binaries.size());
    EXPECT_DOUBLE_EQ(
        back.workload.binaries.at(0).ladder.at(0).meanReps,
        spec.workload.binaries.at(0).ladder.at(0).meanReps);
}

TEST(SpecIo, OutcomeRoundTripsToIdenticalBytes)
{
    RunOutcome o = Runner::runWithSlowdown(sampleSpec(), 7);
    ASSERT_GT(o.hostSeconds, 0.0);
    std::string text = formatRunOutcome(o);
    RunOutcome back;
    std::string err;
    ASSERT_TRUE(parseRunOutcome(text, back, err)) << err;
    EXPECT_EQ(formatRunOutcome(back), text);
    EXPECT_EQ(back.run.cycles, o.run.cycles);
    EXPECT_EQ(back.run.instr, o.run.instr);
    EXPECT_EQ(back.estMisses, o.estMisses);
    EXPECT_EQ(back.missesByComp, o.missesByComp);
    EXPECT_EQ(back.slowdown, o.slowdown);
    EXPECT_EQ(back.normalCycles, o.normalCycles);
}

TEST(SpecIo, HostSecondsExcludedFromCanonicalText)
{
    // Two computations of the same row differ only in wall-clock;
    // their canonical text must not.
    RunOutcome a = Runner::runOne(sampleSpec(), 3);
    RunOutcome b = a;
    b.hostSeconds = a.hostSeconds + 1000.0;
    EXPECT_EQ(formatRunOutcome(a), formatRunOutcome(b));
    // And parsing zeroes it rather than inventing a value.
    RunOutcome back;
    std::string err;
    ASSERT_TRUE(parseRunOutcome(formatRunOutcome(a), back, err));
    EXPECT_EQ(back.hostSeconds, 0.0);
}

TEST(SpecIo, StrictParseRejectsMissingField)
{
    Json j = specToJson(sampleSpec());
    // Rebuild the object without "sim".
    Json pruned = Json::object();
    for (const auto &[k, v] : j.members())
        if (k != "sim")
            pruned.set(k, v);
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(pruned, out, err));
    EXPECT_NE(err.find("sim"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsUnknownField)
{
    Json j = specToJson(sampleSpec());
    j.set("futureKnob", Json::number(1u));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("futureKnob"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsNestedDrift)
{
    Json j = specToJson(sampleSpec());
    // An unknown member three levels down must also be fatal.
    Json tw = *j.find("tw");
    Json cache = *tw.find("cache");
    cache.set("victimBuffer", Json::boolean(true));
    tw.set("cache", std::move(cache));
    j.set("tw", std::move(tw));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("victimBuffer"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsWrongVersion)
{
    Json j = specToJson(sampleSpec());
    j.set("v", Json::number(2u));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsBadEnumValue)
{
    Json j = specToJson(sampleSpec());
    j.set("sim", Json::str("quantum"));
    RunSpec out;
    std::string err;
    EXPECT_FALSE(specFromJson(j, out, err));
    EXPECT_NE(err.find("quantum"), std::string::npos) << err;
}

TEST(SpecIo, StrictParseRejectsZeroStoreEveryAndQuantum)
{
    // Well-formed values the engine cannot run: the store split
    // divides by storeEvery, a zero quantum never ends a run, and
    // the rest fatal() or abort building the cache, a stream or the
    // System. They must fail the parse, never reach a System.
    struct Case
    {
        const char *path;
        Json value;
        const char *needle; //!< expected in the error
        SimKind sim = SimKind::Tapeworm;
    };
    const Case kCases[] = {
        {"workload.storeEvery", Json::number(0u), "storeEvery"},
        {"sys.quantumInstr", Json::number(0u), "quantumInstr"},
        {"tw.cache.lineBytes", Json::number(12u), "line (12)"},
        // Power-of-two lines outside the trap granule .. host page
        // range the Tapeworm constructor asserts on.
        {"tw.cache.lineBytes", Json::number(8u),
         "cache.lineBytes 8 is outside 16..4096"},
        {"tw.cache.lineBytes", Json::number(4u),
         "cache.lineBytes 4 is outside 16..4096"},
        {"tw", twLine(8192), "cache.lineBytes 8192 is outside 16..4096"},
        {"workload.kernelText.textBytes", Json::number(100u),
         "text size 100"},
        // An excursion of no words is an empty run.
        {"workload.kernelText.excursionWords", Json::number(0u),
         "excursionWords must be at least 1"},
        {"sys.clockInterval", Json::number(0u), "clockInterval"},
        // Memory sizes that abort building the System: not whole trap
        // granules, and no frame past the reserved ones.
        {"sys.physMemBytes", Json::number(std::uint64_t{16777224}),
         "'physMemBytes' 16777224 is not a multiple of the 16-byte"},
        {"sys.physMemBytes", Json::number(std::uint64_t{64 * 4096}),
         "'physMemBytes' 262144 leaves no frame past 'reservedFrames'"},
        {"workload.binaries", Json::array(), "binaries"},
        // A data segment that does not follow its text: the task's
        // address-space window asserts on it.
        {"workload",
         workloadWith([](WorkloadSpec &w) { w.binaryData[0].base = 0; }),
         "'binaryData[0]' base 0 lies below the end of 'binaries[0]'"},
        {"workload",
         workloadWith([](WorkloadSpec &w) {
             w.binaries[0].base = std::uint64_t{1} << 32;
         }),
         "lies below the end of 'binaries[0]' (4295000064)"},
        {"workload",
         workloadWith([](WorkloadSpec &w) {
             w.binaries[0].textBytes = std::uint64_t{1} << 32;
         }),
         "lies below the end of 'binaries[0]'"},
        {"workload",
         workloadWith([](WorkloadSpec &w) {
             w.kernelText.base = ~std::uint64_t{4095};
         }),
         "'kernelText' ends past the last address"},
        // TLB shapes that abort building or running the TapewormTlb:
        // a simulated page that is not whole host pages, a filter
        // bitmap short of the machine's 4096 frames, and a TLB that is
        // not virtually indexed.
        {"tlb.tlb.lineBytes", Json::number(1u),
         "'tlb.tlb.lineBytes' 1 is not a nonzero multiple of the "
         "4096-byte host page",
         SimKind::TapewormTlbSim},
        {"tlb.filterFrames", Json::number(3u),
         "'tlb.filterFrames' 3 is below the 4096 frames",
         SimKind::TapewormTlbSim},
        {"tlb.tlb.indexing", Json::str("physical"),
         "'tlb.tlb' must be virtually indexed and tagged by task",
         SimKind::TapewormTlbSim},
        {"workload.taskCount", Json::number(0u), "taskCount"},
        // Integers outside the field's type are refused, not
        // narrowed (2^32 + 1 would read as 1, 2^32 + 2 as 2).
        {"workload.taskCount",
         Json::number(std::uint64_t{4294967297}),
         "field 'taskCount' is out of range"},
        {"sys.cpiBase",
         Json::number(std::uint64_t{4294967297}),
         "field 'cpiBase' is out of range"},
        {"workload.storeEvery",
         Json::number(std::uint64_t{4294967298}),
         "field 'storeEvery' is out of range"},
        // Set-sampling fractions the Tapeworm, Cache2000 and Oracle
        // constructors assert on (the sample cache has 64 sets).
        {"tw.sampleNum", Json::number(0u),
         "TapewormConfig: sampleNum 0 is outside"},
        {"tw.sampleNum", Json::number(2u),
         "TapewormConfig: sampleNum 2 is outside 1..sampleDenom (1)"},
        {"tw", twSampling(2, 8, SampleMode::ConstantBits),
         "takes sampleNum 1, got 2"},
        {"tw", twSampling(1, 12, SampleMode::ConstantBits),
         "sampleDenom 12 is not a power of two"},
        {"tw", twSampling(1, 128, SampleMode::ConstantBits),
         "sampleDenom 128 does not divide the cache's 64 sets"},
        {"c2k.sampleNum", Json::number(0u),
         "Cache2000Config: sampleNum 0 is outside"},
        {"c2k.sampleNum", Json::number(5u),
         "Cache2000Config: sampleNum 5 is outside 1..sampleDenom (1)"},
        // A double that overflows reads as inf, which the canonical
        // form renders as text no parser takes back.
        {"workload.fracKernel", Json::numberLexeme("1e309"),
         "field 'fracKernel' is not finite"},
        {"tw.cost.cyclesPerInstr", Json::numberLexeme("1e309"),
         "field 'cyclesPerInstr' is not finite"},
        {"workload.kernelText.excursionProb", Json::numberLexeme("-1e309"),
         "field 'excursionProb' is not finite"},
        {"workload.bsdProb", Json::numberLexeme("1e999"),
         "field 'bsdProb' is not finite"},
        // Integers past their type by way of an exponent or a long
        // lexeme, which Json would otherwise clamp or cast undefined.
        {"workload.totalInstr", Json::numberLexeme("1e309"),
         "field 'totalInstr' is out of range"},
        {"sys.trialSeed", Json::numberLexeme("18446744073709551616"),
         "field 'trialSeed' is out of range"},
        {"traceTarget", Json::numberLexeme("-2147483649"),
         "field 'traceTarget' is out of range"},
        // A dram geometry the backend asserts on, or wraps to one.
        {"tw", twDram("channels", Json::number(0u)),
         "dram needs at least one bank and a non-zero row size"},
        {"tw", twDram("ranks", Json::number(0u)),
         "dram needs at least one bank and a non-zero row size"},
        {"tw", twDram("banks", Json::number(0u)),
         "dram needs at least one bank and a non-zero row size"},
        {"tw", twDram("rowBytes", Json::number(0u)),
         "dram needs at least one bank and a non-zero row size"},
        {"tw", twDram("banks", Json::number(std::uint64_t{4294967297})),
         "field 'banks' is out of range"},
        {"tw", withField(twDram("channels", Json::number(65536u)),
                         "costBackend.dram.ranks", Json::number(65536u)),
         "channels x ranks x banks does not fit 32 bits"},
    };
    for (const Case &c : kCases) {
        RunSpec base = sampleSpec();
        base.sim = c.sim;
        Json j = withField(specToJson(base), c.path, c.value);
        RunSpec out;
        std::string err;
        EXPECT_FALSE(specFromJson(j, out, err)) << c.path;
        EXPECT_NE(err.find(c.needle), std::string::npos) << err;
        EXPECT_FALSE(parseRunSpec(j.dump(), out, err)) << c.path;
    }
}

TEST(SpecIo, RunnableSamplingFractionsParse)
{
    // The fractions the constructors accept still parse: a constant-
    // bits power of two dividing the set count, and a whole fraction
    // that samples nothing away whatever its mode.
    for (const auto &[num, denom, mode] :
         {std::tuple{1u, 64u, SampleMode::ConstantBits},
          std::tuple{3u, 3u, SampleMode::ConstantBits},
          std::tuple{3u, 7u, SampleMode::RandomSets}}) {
        RunSpec spec = sampleSpec();
        spec.tw.sampleNum = spec.c2k.sampleNum = num;
        spec.tw.sampleDenom = spec.c2k.sampleDenom = denom;
        spec.tw.sampleMode = mode;
        RunSpec back;
        std::string err;
        EXPECT_TRUE(parseRunSpec(formatRunSpec(spec), back, err))
            << num << "/" << denom << ": " << err;
    }
}

TEST(SpecIo, RunnableMemorySizesParse)
{
    // Whole trap granules that are not whole pages, and one frame
    // past the reservation, still build a System.
    for (std::uint64_t bytes :
         {std::uint64_t{16 * 1024 * 1024 + 4096 + 16},
          std::uint64_t{65 * 4096}}) {
        RunSpec spec = sampleSpec();
        spec.sys.physMemBytes = bytes;
        spec.sys.reservedFrames = 64;
        RunSpec back;
        std::string err;
        EXPECT_TRUE(parseRunSpec(formatRunSpec(spec), back, err))
            << bytes << ": " << err;
    }
    // A data segment may start exactly where its text ends.
    RunSpec spec = sampleSpec();
    StreamParams &text = spec.workload.binaries[0];
    spec.workload.binaryData[0].base = text.base + text.textBytes;
    RunSpec back;
    std::string err;
    EXPECT_TRUE(parseRunSpec(formatRunSpec(spec), back, err)) << err;
}

TEST(SpecIo, CacheKeyNormalizesTrialSeed)
{
    RunSpec a = sampleSpec();
    RunSpec b = sampleSpec();
    a.sys.trialSeed = 0;
    b.sys.trialSeed = 999; // Runner overwrites this per trial
    EXPECT_EQ(cacheKey(a, 7, true), cacheKey(b, 7, true));
}

TEST(SpecIo, CacheKeySeparatesSeedAndSlowdown)
{
    RunSpec spec = sampleSpec();
    EXPECT_NE(cacheKey(spec, 7, true), cacheKey(spec, 8, true));
    EXPECT_NE(cacheKey(spec, 7, true), cacheKey(spec, 7, false));
    RunSpec other = sampleSpec();
    other.tw.cache.sizeBytes *= 2;
    EXPECT_NE(cacheKey(spec, 7, true), cacheKey(other, 7, true));
}

TEST(SpecIo, FingerprintIsStableAndDiscriminating)
{
    RunSpec spec = sampleSpec();
    std::uint64_t f1 = specFingerprint(spec, 7, true);
    EXPECT_EQ(specFingerprint(spec, 7, true), f1);
    EXPECT_NE(specFingerprint(spec, 8, true), f1);
    // Known-answer for the underlying hash (standard FNV-1a
    // vectors).
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(SpecIo, FingerprintKnownAnswers)
{
    // Recorded before keys were derived from a per-spec render: the
    // ring places trials and the result cache keys them by these
    // bytes, so any change in how they are made must leave them be.
    // A nonzero sys.trialSeed is normalized out and gives the same.
    struct Case
    {
        std::uint64_t seed;
        bool slowdown;
        std::uint64_t fingerprint;
    };
    const Case kCases[] = {
        {7, true, 0xb2213b97ae5282ecull},
        {7, false, 0xb2213c97ae52849full},
        {8, true, 0x6424de9782245f3dull},
        {8, false, 0x6424dd9782245d8aull},
    };
    RunSpec seeded = sampleSpec();
    seeded.sys.trialSeed = 12345;
    const SpecKey key(seeded);
    for (const Case &c : kCases) {
        SCOPED_TRACE(c.seed);
        SCOPED_TRACE(c.slowdown);
        EXPECT_EQ(specFingerprint(sampleSpec(), c.seed, c.slowdown),
                  c.fingerprint);
        EXPECT_EQ(specFingerprint(seeded, c.seed, c.slowdown),
                  c.fingerprint);
        EXPECT_EQ(key.fingerprint(c.seed, c.slowdown), c.fingerprint);
    }
}

TEST(SpecIo, FnvContinuesFromAState)
{
    // Hashing a prefix and then continuing from its state is the
    // hash of the whole: what SpecKey::fingerprint relies on.
    EXPECT_EQ(fnv1a64("bc", fnv1a64("a")), fnv1a64("abc"));
    EXPECT_EQ(fnv1a64("", fnv1a64("abc")), fnv1a64("abc"));
}

TEST(SpecIo, SimKindNamesRoundTrip)
{
    for (SimKind k : {SimKind::None, SimKind::Tapeworm,
                      SimKind::TapewormTlbSim, SimKind::TraceDriven,
                      SimKind::Oracle}) {
        SimKind back{};
        ASSERT_TRUE(simKindFromName(simKindName(k), back));
        EXPECT_EQ(back, k);
    }
    SimKind out{};
    EXPECT_FALSE(simKindFromName("bogus", out));
}

TEST(SpecIo, SampleBlockOmittedWhenDisabled)
{
    // A spec with sampling off must serialize byte-identically to
    // the pre-sampling schema — same wire text, same cache keys.
    RunSpec spec = sampleSpec();
    EXPECT_FALSE(spec.sample.enabled);
    std::string text = formatRunSpec(spec);
    EXPECT_EQ(text.find("\"sample\""), std::string::npos);

    RunSpec enabled = spec;
    enabled.sample.enabled = true;
    EXPECT_NE(formatRunSpec(enabled).find("\"sample\""),
              std::string::npos);
    EXPECT_NE(cacheKey(spec, 7, false), cacheKey(enabled, 7, false));
}

TEST(SpecIo, SampleBlockRoundTrips)
{
    RunSpec spec = sampleSpec();
    spec.sample.enabled = true;
    spec.sample.intervalRefs = 4096;
    spec.sample.warmupRefs = 128;
    spec.sample.clusters = 12;
    spec.sample.perCluster = 3;
    spec.sample.seed = 0xabcdef;
    spec.sample.ciRelFloor = 0.015;
    std::string text = formatRunSpec(spec);
    RunSpec back;
    std::string err;
    ASSERT_TRUE(parseRunSpec(text, back, err)) << err;
    EXPECT_EQ(formatRunSpec(back), text);
    EXPECT_TRUE(back.sample == spec.sample);

    // A parser fed pre-sampling text resets to the default config.
    RunSpec reuse = back;
    ASSERT_TRUE(
        parseRunSpec(formatRunSpec(sampleSpec()), reuse, err))
        << err;
    EXPECT_TRUE(reuse.sample == SampleConfig{});
}

TEST(SpecIo, SampleOutcomeRoundTripsAndOmits)
{
    RunOutcome o = Runner::runOne(sampleSpec(), 3);
    EXPECT_FALSE(o.sample.used);
    EXPECT_EQ(formatRunOutcome(o).find("\"sample\""),
              std::string::npos);

    o.sample.used = true;
    o.sample.intervalsTotal = 61;
    o.sample.intervalsSimulated = 18;
    o.sample.refsSimulated = 294912;
    o.sample.refsTotal = 1000000;
    o.sample.ciHalfWidth = 12.5;
    std::string text = formatRunOutcome(o);
    RunOutcome back;
    std::string err;
    ASSERT_TRUE(parseRunOutcome(text, back, err)) << err;
    EXPECT_EQ(formatRunOutcome(back), text);
    EXPECT_TRUE(back.sample.used);
    EXPECT_EQ(back.sample.intervalsTotal, o.sample.intervalsTotal);
    EXPECT_EQ(back.sample.refsSimulated, o.sample.refsSimulated);
    EXPECT_DOUBLE_EQ(back.sample.ciHalfWidth, o.sample.ciHalfWidth);
}

TEST(SpecIo, CostBackendOmittedWhenDefault)
{
    // A table5 spec must serialize byte-identically to the
    // pre-backend schema — same wire text, same cache keys, same
    // shard fingerprints — and an explicitly-default config is
    // indistinguishable from never touching the field.
    RunSpec spec = sampleSpec();
    EXPECT_TRUE(spec.tw.costBackend.isDefault());
    std::string text = formatRunSpec(spec);
    EXPECT_EQ(text.find("\"costBackend\""), std::string::npos);

    RunSpec explicitDefault = spec;
    explicitDefault.tw.costBackend = CostBackendConfig{};
    explicitDefault.tw.costBackend.dram.tRCD = 99; // unused off-dram
    EXPECT_EQ(formatRunSpec(explicitDefault), text);
    EXPECT_EQ(cacheKey(explicitDefault, 7, false),
              cacheKey(spec, 7, false));
}

TEST(SpecIo, CostBackendRoundTripsEveryKind)
{
    for (CostBackendKind kind :
         {CostBackendKind::Table5, CostBackendKind::Ideal,
          CostBackendKind::Dram}) {
        SCOPED_TRACE(costBackendKindName(kind));
        RunSpec spec = sampleSpec();
        spec.tw.costBackend.kind = kind;
        spec.tlb.costBackend.kind = kind;
        if (kind == CostBackendKind::Dram) {
            spec.tw.costBackend.dram.tRCD = 15;
            spec.tw.costBackend.dram.banksPerRank = 16;
            spec.tw.costBackend.dram.tREFI = 0;
        }
        std::string text = formatRunSpec(spec);
        RunSpec back;
        std::string err;
        ASSERT_TRUE(parseRunSpec(text, back, err)) << err;
        EXPECT_EQ(formatRunSpec(back), text);
        EXPECT_TRUE(back.tw.costBackend == spec.tw.costBackend);
        EXPECT_TRUE(back.tlb.costBackend == spec.tlb.costBackend);
        if (kind != CostBackendKind::Table5) {
            EXPECT_NE(cacheKey(spec, 7, false),
                      cacheKey(sampleSpec(), 7, false));
        }
    }

    // A parser fed pre-backend text resets to the default.
    RunSpec reuse;
    std::string err;
    reuse.tw.costBackend.kind = CostBackendKind::Dram;
    ASSERT_TRUE(
        parseRunSpec(formatRunSpec(sampleSpec()), reuse, err))
        << err;
    EXPECT_TRUE(reuse.tw.costBackend.isDefault());
}

TEST(SpecIo, CostBackendStrictParse)
{
    RunSpec spec = sampleSpec();
    spec.tw.costBackend.kind = CostBackendKind::Dram;
    std::string text = formatRunSpec(spec);

    // Unknown backend names and unknown dram keys are rejected, not
    // ignored — field drift must not silently change pricing.
    std::string bad = text;
    bad.replace(bad.find("\"dram\""), 6, "\"dra2\"");
    RunSpec back;
    std::string err;
    EXPECT_FALSE(parseRunSpec(bad, back, err));

    bad = text;
    bad.replace(bad.find("\"tRCD\""), 6, "\"tRCX\"");
    EXPECT_FALSE(parseRunSpec(bad, back, err));
}

TEST(SpecIo, U64SeedSurvivesWireExactly)
{
    RunSpec spec = sampleSpec();
    spec.tw.sampleSeed = std::numeric_limits<std::uint64_t>::max();
    RunSpec back;
    std::string err;
    ASSERT_TRUE(parseRunSpec(formatRunSpec(spec), back, err)) << err;
    EXPECT_EQ(back.tw.sampleSeed, spec.tw.sampleSeed);
}

// ---------------------------------------------------------------
// Seeded mutation of canonical text. Whatever the reader accepts,
// the canonical form of what it read must parse back and render to
// the same bytes: the result cache, the ring and the wire all ship
// that form, so an accepted spec whose form is refused (or drifts)
// is a key nothing can answer.
// ---------------------------------------------------------------

/** The specs whose text is mutated: one per conditional block. */
std::vector<RunSpec>
baseSpecs()
{
    return {sampleSpec(), contortedSpec(), dramSpec(), sampledSpec()};
}

/** The values each number is set to in turn: zero, the signs, the
 *  edges of 32 and 64 bits, and a double that overflows. */
const char *const kEdgeValues[] = {
    "0", "-1", "-0", "4294967296", "18446744073709551615", "1e309",
};

/** [begin, end) of every number lexeme in the JSON @p text. */
std::vector<std::pair<std::size_t, std::size_t>>
numberSpans(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t end = text.find_first_not_of("0123456789.eE+-", i);
            spans.emplace_back(i, end);
            i = end - 1;
        }
    }
    return spans;
}

/** Why @p text breaks the rule above, or "" if the reader refuses it
 *  or its canonical form holds; @p accepted says which. */
std::string
specFormBreaks(const std::string &text, bool *accepted = nullptr)
{
    RunSpec spec;
    std::string err;
    bool took = parseRunSpec(text, spec, err);
    if (accepted)
        *accepted = took;
    if (!took)
        return {};
    std::string form = formatRunSpec(spec);
    RunSpec back;
    if (!parseRunSpec(form, back, err))
        return "its canonical form is refused: " + err;
    if (formatRunSpec(back) != form)
        return "its canonical form renders differently once read";
    return {};
}

/** The same rule for the --cost-backend NAME[:k=v,...] form. */
std::string
costBackendFormBreaks(const std::string &text)
{
    CostBackendConfig cfg;
    std::string err;
    if (!parseCostBackendSpec(text, cfg, err))
        return {};
    std::string form = formatCostBackendSpec(cfg);
    CostBackendConfig back;
    if (!parseCostBackendSpec(form, back, err))
        return "its canonical form '" + form + "' is refused: " + err;
    if (formatCostBackendSpec(back) != form)
        return "its canonical form '" + form
               + "' renders differently once read";
    return {};
}

/** @p text with one seeded edit: a bit flipped, a byte inserted or a
 *  byte deleted. Inserts draw from JSON's own alphabet, so that some
 *  mutants still parse. */
std::string
byteEdit(std::string text, Rng &rng)
{
    static const char kAlphabet[] = "0123456789-+.eE\",:{}[] tfnu\\";
    std::size_t at = rng.below(text.size());
    switch (rng.below(3)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1u << rng.below(8)));
        break;
      case 1:
        text.insert(at, 1, kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
        break;
      default:
        text.erase(at, 1);
        break;
    }
    return text;
}

/** A few bytes of @p text around @p at, to say where a mutant broke. */
std::string
around(const std::string &text, std::size_t at)
{
    std::size_t from = at > 40 ? at - 40 : 0;
    return text.substr(from, 80);
}

TEST(SpecMutation, NumericEdgesAreRefusedOrCanonical)
{
    for (const RunSpec &base : baseSpecs()) {
        const std::string text = formatRunSpec(base);
        for (const auto &[begin, end] : numberSpans(text)) {
            for (const char *edge : kEdgeValues) {
                std::string mutant = text;
                mutant.replace(begin, end - begin, edge);
                EXPECT_EQ(specFormBreaks(mutant), "")
                    << around(mutant, begin);
            }
        }
    }
}

TEST(SpecMutation, ByteEditsAreRefusedOrCanonical)
{
    Rng rng(0x5eed);
    std::size_t accepted = 0;
    for (const RunSpec &base : baseSpecs()) {
        const std::string text = formatRunSpec(base);
        for (int i = 0; i < 2000; ++i) {
            std::string mutant = byteEdit(text, rng);
            bool took = false;
            EXPECT_EQ(specFormBreaks(mutant, &took), "") << mutant;
            accepted += took;
        }
    }
    // The edits reach the reader, not only the JSON parser.
    EXPECT_GT(accepted, 100u);
}

TEST(SpecMutation, CostBackendSpecsAreRefusedOrCanonical)
{
    const std::string bases[] = {
        "table5",
        "ideal",
        "dram",
        "dram:tRCD=15,banks=16,tREFI=0",
        formatCostBackendSpec(dramSpec().tw.costBackend),
    };
    Rng rng(0xc057);
    for (const std::string &text : bases) {
        // Every value set to each edge in turn.
        for (std::size_t eq = text.find('='); eq != std::string::npos;
             eq = text.find('=', eq + 1)) {
            std::size_t end = text.find(',', eq);
            if (end == std::string::npos)
                end = text.size();
            for (const char *edge : kEdgeValues) {
                std::string mutant = text;
                mutant.replace(eq + 1, end - eq - 1, edge);
                EXPECT_EQ(costBackendFormBreaks(mutant), "") << mutant;
            }
        }
        for (int i = 0; i < 500; ++i) {
            std::string mutant = byteEdit(text, rng);
            EXPECT_EQ(costBackendFormBreaks(mutant), "") << mutant;
        }
    }
}

} // namespace
} // namespace tw
