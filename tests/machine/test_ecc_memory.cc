/** @file Fault-injection tests of the word-granular ECC memory. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/random.hh"
#include "machine/ecc_memory.hh"
#include "machine/phys_mem.hh"

namespace tw
{
namespace
{

TEST(EccMemory, CleanReadsReturnData)
{
    EccMemory mem(16);
    mem.write(3, 0xdeadbeef);
    EXPECT_EQ(mem.read(3), 0xdeadbeefu);
    EXPECT_EQ(mem.lastResult(), EccCodec::Result::Ok);
    EXPECT_EQ(mem.read(0), 0u); // initialized clean
}

TEST(EccMemory, TrapRoundTrip)
{
    EccMemory mem(8);
    mem.write(1, 42);
    mem.flipTrapBit(1);
    EXPECT_TRUE(mem.isTrapped(1));
    // The data survives under the trap (check bit only).
    EXPECT_EQ(mem.read(1), 42u);
    EXPECT_EQ(mem.lastResult(), EccCodec::Result::TapewormTrap);
    EXPECT_EQ(mem.stats().tapewormTraps, 1u);
    // Clearing (flip again) restores a clean word.
    mem.flipTrapBit(1);
    EXPECT_FALSE(mem.isTrapped(1));
    mem.read(1);
    EXPECT_EQ(mem.lastResult(), EccCodec::Result::Ok);
}

TEST(EccMemory, WriteClearsTrap)
{
    // The no-allocate-on-write hazard at the codeword level: a
    // store re-encodes the word and the trap evaporates.
    EccMemory mem(8);
    mem.flipTrapBit(2);
    EXPECT_TRUE(mem.isTrapped(2));
    mem.write(2, 7);
    EXPECT_FALSE(mem.isTrapped(2));
    EXPECT_EQ(mem.read(2), 7u);
    EXPECT_EQ(mem.lastResult(), EccCodec::Result::Ok);
}

TEST(EccMemory, TrueSingleErrorsDistinguishedAndCorrected)
{
    EccMemory mem(8);
    mem.write(4, 0x12345678);
    Rng rng(3);
    for (int trial = 0; trial < 30; ++trial) {
        unsigned bit =
            static_cast<unsigned>(rng.below(EccCodec::kBits));
        if (bit == EccCodec::kTrapCheckBit)
            continue;
        mem.injectFault(4, bit);
        EXPECT_EQ(mem.read(4), 0x12345678u); // corrected
        EXPECT_EQ(mem.lastResult(),
                  EccCodec::Result::SingleBitError);
        mem.injectFault(4, bit); // undo
    }
    EXPECT_GT(mem.stats().trueSingleErrors, 0u);
    EXPECT_EQ(mem.stats().tapewormTraps, 0u);
}

TEST(EccMemory, TrapPlusFaultReadsAsDoubleError)
{
    EccMemory mem(8);
    mem.write(5, 99);
    mem.flipTrapBit(5);
    mem.injectFault(5, 3);
    mem.read(5);
    EXPECT_EQ(mem.lastResult(), EccCodec::Result::DoubleBitError);
    EXPECT_EQ(mem.stats().trueDoubleErrors, 1u);
}

TEST(EccMemory, FootnoteOneDiscrimination)
{
    // Footnote 1's claim end to end: among traps and injected
    // faults across many words, Tapeworm identifies its own traps
    // with no confusion.
    EccMemory mem(256);
    Rng rng(9);
    std::vector<bool> trapped(256, false), faulted(256, false);
    for (std::size_t w = 0; w < 256; ++w) {
        mem.write(w, static_cast<std::uint32_t>(rng.next()));
        if (rng.chance(0.3)) {
            mem.flipTrapBit(w);
            trapped[w] = true;
        } else if (rng.chance(0.2)) {
            unsigned bit;
            do {
                bit = static_cast<unsigned>(
                    rng.below(EccCodec::kBits));
            } while (bit == EccCodec::kTrapCheckBit);
            mem.injectFault(w, bit);
            faulted[w] = true;
        }
    }
    for (std::size_t w = 0; w < 256; ++w) {
        mem.read(w);
        if (trapped[w]) {
            EXPECT_EQ(mem.lastResult(),
                      EccCodec::Result::TapewormTrap)
                << w;
        } else if (faulted[w]) {
            EXPECT_EQ(mem.lastResult(),
                      EccCodec::Result::SingleBitError)
                << w;
        } else {
            EXPECT_EQ(mem.lastResult(), EccCodec::Result::Ok) << w;
        }
    }
}

TEST(EccMemory, TrapVerdictsMatchPhysMem)
{
    // The link from the abstract trap bit to footnote 1's mechanism.
    // One seeded sequence of tw_set_trap / tw_clear_trap goes to
    // PhysMem's granule bits and, as check-bit flips on every word of
    // each granule the range overlaps, to real codewords over the
    // same words. The flip is a toggle, so a set flips only a word
    // not trapped yet, and a clear only a trapped one: the trap lives
    // in the codeword alone. Every read must give both the same trap
    // verdict and the word's data.
    constexpr std::uint64_t kBytes = kHostPageBytes;
    constexpr std::size_t kWords = kBytes / kWordBytes;
    constexpr std::size_t kWordsPerGranule = kTrapGranuleBytes / kWordBytes;
    PhysMem phys(kBytes);
    EccMemory ecc(kWords);
    Rng rng(21);
    std::vector<std::uint32_t> data(kWords);
    for (std::size_t w = 0; w < kWords; ++w) {
        data[w] = static_cast<std::uint32_t>(rng.next());
        ecc.write(w, data[w]);
    }
    auto expectSameVerdicts = [&](int op) {
        for (std::size_t w = 0; w < kWords; ++w) {
            ASSERT_EQ(ecc.read(w), data[w]) << "op " << op << " word " << w;
            ASSERT_EQ(ecc.lastResult() == EccCodec::Result::TapewormTrap,
                      phys.isTrapped(w * kWordBytes))
                << "op " << op << " word " << w << ": "
                << eccResultName(ecc.lastResult());
        }
    };
    for (int op = 0; op < 400; ++op) {
        const Addr pa = rng.below(kBytes);
        const std::uint64_t size =
            1 + rng.below(std::min<std::uint64_t>(4 * kTrapGranuleBytes,
                                                  kBytes - pa));
        const bool set = rng.chance(0.5);
        if (set)
            phys.setTrap(pa, size);
        else
            phys.clearTrap(pa, size);
        const std::size_t first = pa / kTrapGranuleBytes * kWordsPerGranule;
        const std::size_t last =
            (pa + size - 1) / kTrapGranuleBytes * kWordsPerGranule;
        for (std::size_t w = first; w < last + kWordsPerGranule; ++w)
            if (ecc.isTrapped(w) != set)
                ecc.flipTrapBit(w);
        expectSameVerdicts(op);
    }
    const std::uint64_t trapped = phys.countTrapped();
    EXPECT_GT(trapped, 0u);
    EXPECT_LT(trapped, phys.numGranules());

    // A true fault on an untrapped word is never a trap: one flipped
    // bit (other than the trap check bit, whose flip IS the trap)
    // reads as a corrected single-bit error, and two as a double-bit
    // error.
    std::size_t untrapped = 0;
    for (std::size_t w = 0; w < kWords; ++w) {
        if (phys.isTrapped(w * kWordBytes))
            continue;
        ++untrapped;
        unsigned a, b;
        do {
            a = static_cast<unsigned>(rng.below(EccCodec::kBits));
        } while (a == EccCodec::kTrapCheckBit);
        do {
            b = static_cast<unsigned>(rng.below(EccCodec::kBits));
        } while (b == a);
        ecc.injectFault(w, a);
        EXPECT_EQ(ecc.read(w), data[w]) << w;
        EXPECT_EQ(ecc.lastResult(), EccCodec::Result::SingleBitError)
            << w << " bit " << a;
        ecc.injectFault(w, b);
        ecc.read(w);
        EXPECT_EQ(ecc.lastResult(), EccCodec::Result::DoubleBitError)
            << w << " bits " << a << "," << b;
        ecc.injectFault(w, b);
        ecc.injectFault(w, a);
    }
    EXPECT_GT(untrapped, 0u);
    EXPECT_EQ(ecc.stats().trueSingleErrors, untrapped);
    EXPECT_EQ(ecc.stats().trueDoubleErrors, untrapped);
    expectSameVerdicts(-1);
}

TEST(EccMemoryDeath, OutOfRange)
{
    EccMemory mem(4);
    EXPECT_DEATH(mem.read(4), "out of range");
    EXPECT_DEATH(mem.write(9, 1), "out of range");
    EXPECT_DEATH(EccMemory{0}, "empty");
}

} // namespace
} // namespace tw
