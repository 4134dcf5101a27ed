/**
 * @file
 * The wide-scan contract: every SIMD implementation of the
 * trap-filter primitive computes the EXACT scalar answer on every
 * range — including the unaligned heads, masked tails and
 * block-boundary straddles that make vector code subtly wrong.
 *
 * The granule-bitmap property test mirrors how the engine actually
 * uses anyBitsInWords(): a PhysMem's trap bits probed over page
 * spans while single granules near the span boundaries are set and
 * cleared. A trap the wide probe misses (or invents) would silently
 * skew simulation results, so this is a correctness suite, not a
 * perf one.
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/random.hh"
#include "base/simd.hh"
#include "base/types.hh"
#include "machine/phys_mem.hh"

namespace tw
{
namespace
{

/** Force the scalar implementations for a scope, restoring the
 *  previous enablement after. */
class ScopedNoSimd
{
  public:
    ScopedNoSimd() : wasWide_(simd::wide()) { simd::setEnabled(false); }
    ~ScopedNoSimd() { simd::setEnabled(wasWide_); }

  private:
    bool wasWide_;
};

/** The reference semantics, straight from the header contract. */
bool
naiveAnyBits(const std::vector<std::uint64_t> &words,
             std::uint64_t first, std::uint64_t last)
{
    std::uint64_t acc = 0;
    for (std::uint64_t w = first; w <= last; ++w)
        acc |= words[w];
    return acc != 0;
}

TEST(Simd, LevelNamesAndDispatchState)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx512), "avx512");

    simd::Level detected = simd::detectedLevel();
    {
        ScopedNoSimd off;
        EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
        EXPECT_FALSE(simd::wide());
    }
    // Restored: active == detected unless the environment disabled
    // wide scans process-wide before the test ran.
    if (simd::wide()) {
        EXPECT_EQ(simd::activeLevel(), detected);
    }
}

TEST(Simd, AnyBitsSingleBitSweep)
{
    // One set bit, swept across every position of a bitmap sized to
    // straddle the 4-word (AVX2) and 8-word (AVX-512) block shapes;
    // probed with every inclusive range boundary near the bit.
    constexpr std::uint64_t kWords = 21;
    std::vector<std::uint64_t> words(kWords, 0);
    for (std::uint64_t w = 0; w < kWords; ++w) {
        for (unsigned b : {0u, 1u, 31u, 62u, 63u}) {
            words.assign(kWords, 0);
            words[w] |= std::uint64_t{1} << b;
            for (std::uint64_t first = 0; first < kWords; ++first) {
                for (std::uint64_t last = first; last < kWords;
                     ++last) {
                    bool expect = first <= w && w <= last;
                    EXPECT_EQ(simd::anyBitsInWords(words.data(), first,
                                                   last),
                              expect)
                        << "bit " << b << " word " << w << " range ["
                        << first << "," << last << "]";
                }
            }
        }
    }
}

TEST(Simd, AnyBitsMatchesScalarOnRandomBitmaps)
{
    Rng rng(0x51u);
    ScopedNoSimd *off = nullptr;
    for (int pass = 0; pass < 2; ++pass) {
        // Pass 0 exercises the host-best implementation, pass 1 the
        // forced-scalar one; both must equal the naive loop.
        if (pass == 1)
            off = new ScopedNoSimd;
        for (int iter = 0; iter < 400; ++iter) {
            std::uint64_t n = 1 + rng.below(40);
            std::vector<std::uint64_t> words(n);
            for (auto &w : words) {
                // Mostly-zero bitmaps, like real trap filters.
                w = rng.below(8) == 0 ? rng.next() : 0;
            }
            std::uint64_t first = rng.below(n);
            std::uint64_t last = first + rng.below(n - first);
            EXPECT_EQ(simd::anyBitsInWords(words.data(), first, last),
                      naiveAnyBits(words, first, last));
        }
        delete off;
        off = nullptr;
    }
}

TEST(SimdProperty, GranuleBitmapBoundaryTrapsSeenByWideScan)
{
    // The engine's page-span probe: words [w0, w1] of a PhysMem's
    // granule bitmap cover one host page (4 words at 16-byte
    // granules). Set and clear single-granule traps at every
    // position near the span boundaries — first/last granule of the
    // page, the granules just outside it, and the word seams inside
    // — and require the wide scan to agree with anyTrapped() (the
    // scalar source of truth) on the page every time.
    PhysMem phys(1 << 20);
    const unsigned shift = phys.granuleShift();
    auto probePage = [&](Addr pa_base) {
        std::uint64_t w0 = (pa_base >> shift) >> 6;
        std::uint64_t w1 = ((pa_base + kHostPageBytes - 1) >> shift)
                           >> 6;
        return simd::anyBitsInWords(phys.rawBits(), w0, w1);
    };
    const Addr pages[] = {0, kHostPageBytes, 7 * kHostPageBytes,
                          254 * kHostPageBytes};
    for (Addr page : pages) {
        // Granule offsets probing the boundary structure of the
        // span: page edges, word seams (64 granules per word), and
        // one interior point.
        const std::int64_t offsets[] = {
            -1, 0, 1, 63, 64, 65, 127, 128, 191, 200, 254, 255, 256,
        };
        for (std::int64_t g : offsets) {
            Addr pa = page + g * kTrapGranuleBytes;
            if (g < 0 && page == 0)
                continue; // no granule before address zero
            phys.setTrap(pa, 1);
            bool in_page = g >= 0 && g < 256;
            EXPECT_EQ(probePage(page), in_page)
                << "page " << page << " granule offset " << g;
            EXPECT_EQ(probePage(page),
                      phys.anyTrapped(page, kHostPageBytes));
            {
                ScopedNoSimd off;
                EXPECT_EQ(probePage(page),
                          phys.anyTrapped(page, kHostPageBytes));
            }
            phys.clearTrap(pa, 1);
            EXPECT_FALSE(probePage(page));
        }
    }
}

TEST(SimdThreads, ConcurrentScansAndDispatchToggle)
{
    // Four threads scan disjoint regions of one bitmap while the
    // main thread flips the dispatch between scalar and wide: the
    // function-pointer loads are relaxed atomics, and either
    // implementation must return the same (correct) answer.
    constexpr std::uint64_t kWordsPerThread = 64;
    constexpr int kThreads = 4;
    std::vector<std::uint64_t> words(kWordsPerThread * kThreads, 0);
    for (int t = 0; t < kThreads; ++t)
        words[t * kWordsPerThread + 17] = 1u << t; // one bit each
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::uint64_t base = t * kWordsPerThread;
            while (!stop.load(std::memory_order_relaxed)) {
                bool hit = simd::anyBitsInWords(
                    words.data(), base, base + kWordsPerThread - 1);
                bool miss = simd::anyBitsInWords(words.data(), base,
                                                 base + 16);
                if (!hit || miss)
                    failures.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    bool wasWide = simd::wide();
    for (int i = 0; i < 2000; ++i)
        simd::setEnabled(i & 1);
    simd::setEnabled(wasWide);
    stop.store(true, std::memory_order_relaxed);
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
}

} // namespace
} // namespace tw
