/** @file Tests of the loop-nest stream generator. */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "harness/specio.hh"
#include "mem/cache.hh"
#include "mem/stack_sim.hh"
#include "workload/fragmenting.hh"
#include "workload/loop_nest.hh"
#include "workload/spec.hh"

namespace tw
{
namespace
{

StreamParams
simpleParams()
{
    StreamParams p;
    p.base = 0x400000;
    p.textBytes = 8192;
    p.ladder = {{256, 2.0}, {1024, 3.0}};
    p.excursionProb = 0.0;
    p.seed = 5;
    return p;
}

TEST(LoopNest, AddressesStayInText)
{
    StreamParams p = simpleParams();
    p.excursionProb = 0.05;
    LoopNestStream s(p);
    for (int i = 0; i < 200000; ++i) {
        Addr a = s.next();
        ASSERT_GE(a, p.base);
        ASSERT_LT(a, p.base + p.textBytes);
        ASSERT_EQ(a % kWordBytes, 0u);
    }
}

TEST(LoopNest, StartsSequential)
{
    LoopNestStream s(simpleParams());
    EXPECT_EQ(s.next(), 0x400000u);
    EXPECT_EQ(s.next(), 0x400004u);
    EXPECT_EQ(s.next(), 0x400008u);
}

TEST(LoopNest, InnerLoopRepeats)
{
    // With integer reps=2 and no jitter, the first 256-byte chunk
    // is swept exactly twice before moving on.
    StreamParams p = simpleParams();
    LoopNestStream s(p);
    std::vector<Addr> first_sweep, second_sweep;
    for (int i = 0; i < 64; ++i)
        first_sweep.push_back(s.next());
    for (int i = 0; i < 64; ++i)
        second_sweep.push_back(s.next());
    EXPECT_EQ(first_sweep, second_sweep);
    // Third sweep moves to the next chunk.
    EXPECT_EQ(s.next(), 0x400000u + 256);
}

TEST(LoopNest, DeterministicPerSeed)
{
    StreamParams p = simpleParams();
    p.ladder = {{256, 1.5}, {1024, 2.5}}; // fractional: uses RNG
    LoopNestStream a(p), b(p);
    for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(LoopNest, ResetRestarts)
{
    StreamParams p = simpleParams();
    LoopNestStream s(p);
    Addr first = s.next();
    for (int i = 0; i < 1000; ++i)
        s.next();
    s.reset(p.seed);
    EXPECT_EQ(s.next(), first);
}

TEST(LoopNest, DifferentSeedsDiverge)
{
    StreamParams p = simpleParams();
    p.ladder = {{256, 1.5}, {1024, 2.5}};
    p.excursionProb = 0.05;
    LoopNestStream a(p);
    StreamParams p2 = p;
    p2.seed = 77;
    LoopNestStream b(p2);
    int diffs = 0;
    for (int i = 0; i < 100000; ++i)
        diffs += a.next() != b.next();
    EXPECT_GT(diffs, 0);
}

TEST(LoopNest, CloneIsIndependentCopy)
{
    StreamParams p = simpleParams();
    LoopNestStream s(p);
    for (int i = 0; i < 100; ++i)
        s.next();
    auto c = s.clone();
    // The clone resumes mid-stream — same position, same RNG state
    // (the interval sampler captures boundary streams this way) —
    // and advancing it never disturbs the original.
    EXPECT_EQ(c->textBase(), p.base);
    EXPECT_EQ(c->textBytes(), p.textBytes);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(c->next(), s.next()) << "draw " << i;
    for (int i = 0; i < 50; ++i)
        c->next();
    Addr resync = s.next();
    s.reset(p.seed);
    for (int i = 0; i < 1100; ++i)
        s.next();
    EXPECT_EQ(resync, s.next());
}

/** Expand @p s's runs (nextRun) word by word against @p want, and
 *  check that every run has a word and stays inside the text. Returns
 *  where each run started in @p want. */
std::vector<std::size_t>
expectRunsExpandTo(RefStream &s, const std::vector<Addr> &want)
{
    std::vector<std::size_t> starts;
    const Addr text_end = s.textBase() + s.textBytes();
    Addr a = 0;
    Counter left = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (left == 0) {
            left = s.nextRun(a);
            starts.push_back(i);
            EXPECT_GE(left, 1u);
            EXPECT_GE(a, s.textBase());
            EXPECT_LE(a + left * kWordBytes, text_end);
        }
        if (a != want[i]) {
            ADD_FAILURE() << "ref " << i << ": run word " << a
                          << ", nextBatch " << want[i];
            break;
        }
        a += kWordBytes;
        --left;
    }
    return starts;
}

/** The first @p n addresses of a fresh stream, reset to @p seed,
 *  through nextBatch. */
std::vector<Addr>
batchSequence(const StreamParams &p, std::uint64_t seed, std::size_t n)
{
    LoopNestStream s(p);
    s.reset(seed);
    std::vector<Addr> out(n);
    for (std::size_t i = 0; i < n; i += 4096) {
        s.nextBatch(out.data() + i,
                    static_cast<unsigned>(std::min<std::size_t>(
                        4096, n - i)));
    }
    return out;
}

TEST(LoopNest, RunsExpandToNextBatch)
{
    // nextRun walks the state machine of next() and nextBatch() and
    // makes the same RNG draws in the same order, so from one seed
    // its runs expand word for word into nextBatch's sequence — on
    // every text and data stream of the suite, and from a clone or a
    // reset taken in the middle of a run.
    std::vector<StreamParams> streams;
    for (const std::string &name : suiteNames()) {
        WorkloadSpec w = makeWorkload(name);
        streams.insert(streams.end(), w.binaries.begin(),
                       w.binaries.end());
        streams.insert(streams.end(), w.binaryData.begin(),
                       w.binaryData.end());
        for (const StreamParams *p : {&w.kernelText, &w.bsdText,
                                      &w.xText, &w.kernelData,
                                      &w.bsdData, &w.xData})
            streams.push_back(*p);
    }
    ASSERT_GE(streams.size(), 8u * suiteNames().size());

    constexpr std::size_t kRefs = 1 << 20;
    for (std::size_t k = 0; k < streams.size(); ++k) {
        SCOPED_TRACE(k);
        const StreamParams &p = streams[k];
        const std::vector<Addr> want = batchSequence(p, p.seed, kRefs);
        LoopNestStream runs(p);
        std::vector<std::size_t> starts = expectRunsExpandTo(runs, want);
        ASSERT_FALSE(HasFailure());

        // Stand one word into a run of two or more words.
        std::size_t mid = 0;
        for (std::size_t r = 1; r + 1 < starts.size() && mid == 0; ++r) {
            if (starts[r + 1] - starts[r] >= 2 && starts[r] >= kRefs / 2)
                mid = starts[r] + 1;
        }
        ASSERT_NE(mid, 0u);
        LoopNestStream s(p);
        for (std::size_t i = 0; i < mid; ++i)
            s.next();
        std::unique_ptr<RefStream> copy = s.clone();
        expectRunsExpandTo(
            *copy, std::vector<Addr>(want.begin() + mid, want.end()));

        s.reset(p.seed + 1);
        expectRunsExpandTo(s, batchSequence(p, p.seed + 1, kRefs));
        ASSERT_FALSE(HasFailure());
    }

    // A stream without run structure hands out one-word runs, the
    // words of next().
    FragmentingParams fp;
    FragmentingStream frag(fp), words(fp);
    for (int i = 0; i < 10000; ++i) {
        Addr a = 0;
        ASSERT_EQ(frag.nextRun(a), 1u);
        ASSERT_EQ(a, words.next()) << "ref " << i;
    }
}

/** @p h continued (fnv1a64) over the (start, words) pairs of the
 *  first @p runs runs of @p s, each as 16 little-endian bytes. */
std::uint64_t
hashRuns(RefStream &s, std::size_t runs, std::uint64_t h)
{
    for (std::size_t i = 0; i < runs; ++i) {
        Addr start = 0;
        Counter words = s.nextRun(start);
        char bytes[16];
        for (int k = 0; k < 8; ++k) {
            bytes[k] = static_cast<char>(start >> (8 * k));
            bytes[8 + k] = static_cast<char>(words >> (8 * k));
        }
        h = fnv1a64(std::string_view(bytes, sizeof bytes), h);
    }
    return h;
}

TEST(LoopNest, RunSequencePinned)
{
    // The run sequence of every stream a System builds, and of edge
    // parameters, pinned as a hash of the first 2^16 runs. A change to
    // the run state machine must make the same draws in the same
    // order, so no hash may move.
    constexpr std::size_t kRuns = 1 << 16;
    constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
    const std::map<std::string, std::uint64_t> workloads = {
        {"eqntott", 0xcdaf205fda03f3a3ull},
        {"espresso", 0x4910f3dc4e5a2925ull},
        {"jpeg_play", 0x91b5ac3940698ecfull},
        {"kenbus", 0x36f47179fde51d39ull},
        {"mpeg_play", 0xb3f92322e54708c9ull},
        {"ousterhout", 0x536831ad48c2aac8ull},
        {"sdet", 0x374626ca6d5cbf6bull},
        {"xlisp", 0x0855ed8665ac44c4ull},
    };
    ASSERT_EQ(workloads.size(), suiteNames().size());
    for (const std::string &name : suiteNames()) {
        SCOPED_TRACE(name);
        WorkloadSpec w = makeWorkload(name);
        std::uint64_t h = kBasis;
        // The system tasks' streams start from their own seeds.
        for (const StreamParams *p :
             {&w.kernelText, &w.kernelData, &w.bsdText, &w.bsdData,
              &w.xText, &w.xData}) {
            LoopNestStream s(*p);
            h = hashRuns(s, kRuns, h);
        }
        // The first task of each user binary reseeds its text and
        // data streams from the binary's seed and its spawn index.
        for (std::size_t b = 0; b < w.binaries.size(); ++b) {
            const StreamParams &text = w.binaries[b];
            LoopNestStream s(text);
            s.reset(mixSeed(text.seed, 0x5eed00 + b));
            h = hashRuns(s, kRuns, h);
            if (b < w.binaryData.size()) {
                LoopNestStream d(w.binaryData[b]);
                d.reset(mixSeed(text.seed, 0xda7a00 + b));
                h = hashRuns(d, kRuns, h);
            }
        }
        auto it = workloads.find(name);
        ASSERT_NE(it, workloads.end());
        EXPECT_EQ(h, it->second) << std::hex << h;
    }

    // Edge parameters, each varied alone from one base stream. The
    // mean edges sit on the middle level, so the innermost level's
    // fractional draws keep running under them; the last one sits on
    // the innermost level, whose repeats take the short path.
    StreamParams base;
    base.base = 0x400000;
    base.textBytes = 64 * 1024;
    base.ladder = {{256, 2.5}, {1024, 3.0}, {8192, 1.7}};
    base.excursionProb = 0.02;
    base.excursionWords = 8;
    base.seed = 11;
    struct Edge
    {
        const char *what;
        void (*apply)(StreamParams &);
        std::uint64_t want;
    };
    const Edge edges[] = {
        {"excursionProb 0", [](StreamParams &p) { p.excursionProb = 0; },
         0x15d78df27a453ba5ull},
        {"excursionProb 1", [](StreamParams &p) { p.excursionProb = 1; },
         0x47b0fd8419bc7f35ull},
        {"excursionProb 1.5",
         [](StreamParams &p) { p.excursionProb = 1.5; },
         0x47b0fd8419bc7f35ull},
        {"excursionProb -1",
         [](StreamParams &p) { p.excursionProb = -1; },
         0x15d78df27a453ba5ull},
        {"meanReps 1.0",
         [](StreamParams &p) { p.ladder[1].meanReps = 1.0; },
         0xfcdb72da44370bb8ull},
        {"meanReps 1.5",
         [](StreamParams &p) { p.ladder[1].meanReps = 1.5; },
         0x6667213b099c0a03ull},
        {"meanReps 2^53+2",
         [](StreamParams &p) { p.ladder[1].meanReps = 0x1p53 + 2; },
         0x1edc5186b4c69c3cull},
        {"meanReps 1e300",
         [](StreamParams &p) { p.ladder[1].meanReps = 1e300; },
         0x1edc5186b4c69c3cull},
        {"excursionWords 1",
         [](StreamParams &p) { p.excursionWords = 1; },
         0xcad75d3cd45a6b8dull},
        {"innermost meanReps 1e300",
         [](StreamParams &p) { p.ladder[0].meanReps = 1e300; },
         0xcc95f9e8d19ff29bull},
    };
    for (const Edge &e : edges) {
        SCOPED_TRACE(e.what);
        StreamParams p = base;
        e.apply(p);
        LoopNestStream s(p);
        std::uint64_t h = hashRuns(s, kRuns, kBasis);
        EXPECT_EQ(h, e.want) << std::hex << h;
    }
}

TEST(LoopNest, WrapsForever)
{
    StreamParams p;
    p.base = 0x400000;
    p.textBytes = 1024;
    p.ladder = {{256, 1.0}};
    p.excursionProb = 0.0;
    LoopNestStream s(p);
    // 1024 bytes = 256 words per full sweep; run 10 sweeps.
    Counter count = 0;
    for (int i = 0; i < 2560; ++i) {
        if (s.next() == p.base)
            ++count;
    }
    EXPECT_EQ(count, 10u);
}

/** The headline property: the ladder programs the miss-ratio curve.
 *  m(C) ~ 0.25 / prod{n_i : span_i <= C} for fully-assoc LRU. */
TEST(LoopNest, LadderProgramsMissCurve)
{
    StreamParams p;
    p.base = 0x400000;
    p.textBytes = 16384;
    p.ladder = {{256, 4.0}, {1024, 2.0}, {4096, 5.0}};
    p.excursionProb = 0.0;
    p.seed = 9;
    LoopNestStream s(p);

    StackSim stack(16);
    for (int i = 0; i < 400000; ++i)
        stack.access(s.next());

    double n = 400000;
    double m1k = static_cast<double>(stack.missesForSize(1024)) / n;
    double m4k = static_cast<double>(stack.missesForSize(4096)) / n;
    double m16k = static_cast<double>(stack.missesForSize(16384)) / n;
    // prod over levels with span <= C: at 1K both the 256B (x4)
    // and 1K (x2) levels fit; at 4K the x5 level joins; at 16K the
    // whole text fits so only cold misses remain.
    EXPECT_NEAR(m1k, 0.25 / 8.0, 0.004);
    EXPECT_NEAR(m4k, 0.25 / 40.0, 0.002);
    EXPECT_LT(m16k, m4k);
    EXPECT_GT(m1k, m4k);
}

TEST(LoopNest, LadderForMissTargetHitsTarget)
{
    for (double target : {0.01, 0.05, 0.12}) {
        StreamParams p;
        p.base = 0x400000;
        p.textBytes = 64 * 1024;
        p.ladder = ladderForMissTarget(target, p.textBytes);
        p.excursionProb = 0.0;
        p.seed = 3;
        LoopNestStream s(p);
        StackSim stack(16);
        for (int i = 0; i < 500000; ++i)
            stack.access(s.next());
        double m4k =
            static_cast<double>(stack.missesForSize(4096)) / 500000;
        EXPECT_NEAR(m4k, target, target * 0.35) << "target " << target;
    }
}

TEST(LoopNest, ExcursionsAddConflictTexture)
{
    StreamParams p = simpleParams();
    LoopNestStream quiet(p);
    StreamParams pe = p;
    pe.excursionProb = 0.1;
    LoopNestStream noisy(pe);

    Cache cq(CacheConfig::icache(1024));
    Cache cn(CacheConfig::icache(1024));
    Counter mq = 0, mn = 0;
    for (int i = 0; i < 200000; ++i) {
        Addr a = quiet.next() >> 4;
        mq += !cq.access(LineRef{a, a, 1}).hit;
        Addr b = noisy.next() >> 4;
        mn += !cn.access(LineRef{b, b, 1}).hit;
    }
    EXPECT_GT(mn, mq);
}

TEST(LoopNestDeath, RejectsBadLadders)
{
    StreamParams p = simpleParams();
    p.ladder = {{1024, 2.0}, {256, 2.0}}; // not ascending
    EXPECT_EXIT(LoopNestStream{p}, ::testing::ExitedWithCode(1),
                "ascending");

    p = simpleParams();
    p.ladder = {{256, 0.5}}; // reps below 1
    EXPECT_EXIT(LoopNestStream{p}, ::testing::ExitedWithCode(1),
                "below 1");

    p = simpleParams();
    p.ladder = {{16384, 2.0}}; // span > text
    EXPECT_EXIT(LoopNestStream{p}, ::testing::ExitedWithCode(1),
                "exceeds text");

    // Neither has an integer floor; NaN also passes the test above.
    for (double mean : {std::nan(""), HUGE_VAL}) {
        p = simpleParams();
        p.ladder = {{256, mean}};
        EXPECT_EXIT(LoopNestStream{p}, ::testing::ExitedWithCode(1),
                    "mean reps must be finite");
    }
}

TEST(LoopNestDeath, LadderTargetBounds)
{
    EXPECT_DEATH(ladderForMissTarget(0.0, 4096), "out of");
    EXPECT_DEATH(ladderForMissTarget(0.3, 4096), "out of");
}

} // namespace
} // namespace tw
