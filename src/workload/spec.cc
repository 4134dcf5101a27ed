#include "workload/spec.hh"

#include <cstdlib>

#include "base/logging.hh"
#include "base/numparse.hh"
#include "base/random.hh"

namespace tw
{

const char *
componentName(Component c)
{
    switch (c) {
      case Component::User:
        return "user";
      case Component::Kernel:
        return "kernel";
      case Component::Bsd:
        return "bsd";
      case Component::X:
        return "x";
    }
    return "?";
}

Counter
WorkloadSpec::userInstr() const
{
    return static_cast<Counter>(static_cast<double>(totalInstr)
                                * fracUser);
}

double
WorkloadSpec::kernelBurstLen() const
{
    return (fracKernel / fracUser) * 1000.0 / syscallsPer1k;
}

double
WorkloadSpec::bsdBurstLen() const
{
    if (bsdProb <= 0.0)
        return 0.0;
    return (fracBsd / fracUser) * 1000.0 / (syscallsPer1k * bsdProb);
}

double
WorkloadSpec::xBurstLen() const
{
    if (xProb <= 0.0)
        return 0.0;
    return (fracX / fracUser) * 1000.0 / (syscallsPer1k * xProb);
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "eqntott", "espresso", "jpeg_play", "kenbus",
        "mpeg_play", "ousterhout", "sdet", "xlisp",
    };
    return names;
}

namespace
{

/** Virtual address bases: one distinct range per program image so
 *  virtually-indexed caches never alias across images. Each image's
 *  private data segment sits kDataOffset above its text. */
constexpr Addr kUserBase = 0x00400000;
constexpr Addr kUserStride = 0x00100000; // 1 MB apart per binary
constexpr Addr kBsdBase = 0x01000000;
constexpr Addr kXBase = 0x02000000;
constexpr Addr kKernelBase = 0x80000000;
constexpr Addr kDataOffset = 0x00080000; // 512 KB above the text

StreamParams
makeText(Addr base, std::uint64_t text_bytes, double miss_at_4k,
         double decay, std::uint64_t seed, double excursion_prob = 0.02)
{
    StreamParams p;
    p.base = base;
    p.textBytes = text_bytes;
    p.ladder = ladderForMissTarget(miss_at_4k, text_bytes, decay);
    p.seed = seed;
    p.excursionProb = excursion_prob;
    return p;
}

std::uint64_t
binarySeed(const std::string &workload, const char *component,
           unsigned index)
{
    std::uint64_t s = 0x7ea9'0000;
    for (char c : workload)
        s = mixSeed(s, static_cast<std::uint64_t>(c));
    for (const char *c = component; *c; ++c)
        s = mixSeed(s, static_cast<std::uint64_t>(*c));
    return mixSeed(s, index);
}

/** Raw per-workload numbers: Table 4 plus per-component 4 KB miss
 *  targets derived from Table 6 (misses divided by the component's
 *  own instruction count). */
struct SuiteRow
{
    const char *name;
    double instrMillions; // Table 4 Instr (10^6)
    double fKernel, fBsd, fX, fUser;
    unsigned tasks;        // scaled task count (see DESIGN.md)
    unsigned concurrency;
    unsigned numBinaries;
    std::uint64_t userTextKb;
    double userM4k;    // 0 => custom ladder below
    double userDecay;
    double kernelM4k;
    double serverM4k;  // applied to both BSD and X text
    double syscallsPer1k;
    double bsdProb;
    double xProb;
    double userExcProb; //!< user-stream excursion probability
    std::uint64_t userDataKb; //!< user data segment size
    double userDataM4k;       //!< data-stream 4KB miss target
};

// Calibrated against the measured output of bench/calibrate: the
// miss-target columns are pre-distorted so the *measured* dedicated
// 4 KB miss ratios land on Table 6 (dilution by handler locality,
// excursions and burst restarts shifts them off the analytic value).
const SuiteRow kSuite[] = {
    // name        Minstr  fK     fB     fX     fU     task cc nb  utxt  uM4k     udec  kM4k    sM4k    sys/1k bsdP  xP    uExc
    {"eqntott",    1306,   0.015, 0.012, 0.000, 0.972, 1,   1, 1,  8,    0.000055, 3.0, 0.1220, 0.1730, 0.08,   0.60, 0.00, 0.001, 256,  0.120},
    {"espresso",   534,    0.029, 0.019, 0.000, 0.951, 1,   1, 1,  16,   0.00300,  3.0, 0.1230, 0.2200, 0.125,   0.60, 0.00, 0.005, 96,  0.060},
    {"jpeg_play",  1793,   0.091, 0.094, 0.026, 0.788, 1,   1, 1,  32,   0.00160,  3.0, 0.0475, 0.0373, 0.4,   0.60, 0.25, 0.005, 256,  0.080},
    {"kenbus",     176,    0.489, 0.291, 0.000, 0.220, 60,  8, 4,  24,   0.1830,   2.2, 0.1490, 0.2350, 1.8,   0.65, 0.00, 0.020, 64,  0.100},
    {"mpeg_play",  1423,   0.241, 0.273, 0.040, 0.446, 1,   1, 1,  32,   0.0,      3.0, 0.0514, 0.0588, 0.5,   0.60, 0.30, 0.020, 384,  0.100},
    {"ousterhout", 567,    0.480, 0.314, 0.000, 0.206, 15,  15, 3, 12,   0.00808,  3.0, 0.0773, 0.1017, 1.5,   0.65, 0.00, 0.020, 64,  0.080},
    {"sdet",       823,    0.437, 0.355, 0.000, 0.208, 70,  8, 4,  32,   0.1074,   2.5, 0.0482, 0.0824, 1.5,   0.65, 0.00, 0.020, 96,  0.080},
    {"xlisp",      1412,   0.073, 0.071, 0.000, 0.856, 1,   1, 1,  12,   0.0,      3.0, 0.0198, 0.0594, 0.125,   0.60, 0.00, 0.020, 128,  0.090},
};

/** mpeg_play's user I-stream, hand-calibrated to Figure 2's
 *  miss-ratio column (0.118 at 1K down to ~0 at 128K). */
std::vector<LoopLevel>
mpegUserLadder()
{
    return {
        {256, 2.12},   {1024, 1.0},   {2048, 1.217}, {4096, 1.562},
        {8192, 2.697}, {16384, 1.353}, {32768, 8.5},
    };
}

/** xlisp's user I-stream: ~7.5% misses at 4 KB but "performs much
 *  better in a cache only slightly larger" (Section 4.2). */
std::vector<LoopLevel>
xlispUserLadder()
{
    return {
        {256, 1.34}, {1024, 1.34}, {4096, 1.33}, {8192, 14.9},
    };
}

} // anonymous namespace

WorkloadSpec
makeWorkload(const std::string &name, unsigned scale_div)
{
    TW_ASSERT(scale_div > 0, "scale divisor must be nonzero");
    const SuiteRow *row = nullptr;
    for (const auto &r : kSuite) {
        if (name == r.name) {
            row = &r;
            break;
        }
    }
    if (!row)
        fatal("unknown workload '%s'", name.c_str());

    WorkloadSpec spec;
    spec.name = row->name;
    spec.totalInstr = static_cast<Counter>(
        row->instrMillions * 1.0e6 / static_cast<double>(scale_div));
    spec.fracKernel = row->fKernel;
    spec.fracBsd = row->fBsd;
    spec.fracX = row->fX;
    spec.fracUser = row->fUser;
    spec.taskCount = row->tasks;
    spec.concurrency = row->concurrency;
    spec.syscallsPer1k = row->syscallsPer1k;
    spec.bsdProb = row->bsdProb;
    spec.xProb = row->xProb;

    for (unsigned b = 0; b < row->numBinaries; ++b) {
        Addr base = kUserBase + b * kUserStride;
        // Spread the binaries of multi-program workloads over a
        // range of text sizes (sdet and kenbus mix small shells
        // with large compilers).
        std::uint64_t text = (row->userTextKb + 8ull * b) * 1024;
        std::uint64_t seed = binarySeed(spec.name, "user", b);
        spec.binaryData.push_back(
            makeText(base + kDataOffset, row->userDataKb * 1024,
                     row->userDataM4k, 2.0,
                     binarySeed(spec.name, "userdata", b), 0.01));
        if (row->userM4k > 0.0) {
            spec.binaries.push_back(makeText(base, text, row->userM4k,
                                             row->userDecay, seed,
                                             row->userExcProb));
        } else {
            StreamParams p;
            p.base = base;
            p.seed = seed;
            if (spec.name == "mpeg_play") {
                p.textBytes = 32 * 1024;
                p.ladder = mpegUserLadder();
            } else { // xlisp
                p.textBytes = 12 * 1024;
                p.ladder = xlispUserLadder();
            }
            spec.binaries.push_back(p);
        }
    }

    spec.kernelText = makeText(kKernelBase, 128 * 1024, row->kernelM4k,
                               1.8, binarySeed(spec.name, "kernel", 0));
    spec.bsdText = makeText(kBsdBase, 96 * 1024, row->serverM4k, 1.8,
                            binarySeed(spec.name, "bsd", 0));
    spec.xText = makeText(kXBase, 128 * 1024, row->serverM4k, 1.8,
                          binarySeed(spec.name, "x", 0));
    // System components move a lot of data (buffer copies, bitmaps).
    spec.kernelData =
        makeText(kKernelBase + kDataOffset, 64 * 1024, 0.10, 2.0,
                 binarySeed(spec.name, "kerneldata", 0), 0.01);
    spec.bsdData =
        makeText(kBsdBase + kDataOffset, 64 * 1024, 0.10, 2.0,
                 binarySeed(spec.name, "bsddata", 0), 0.01);
    spec.xData =
        makeText(kXBase + kDataOffset, 128 * 1024, 0.08, 2.0,
                 binarySeed(spec.name, "xdata", 0), 0.01);
    return spec;
}

std::vector<WorkloadSpec>
makeSuite(unsigned scale_div)
{
    std::vector<WorkloadSpec> suite;
    for (const auto &name : suiteNames())
        suite.push_back(makeWorkload(name, scale_div));
    return suite;
}

unsigned
parseScaleDiv(const char *text, unsigned fallback)
{
    if (!text)
        return fallback;
    unsigned v = 0;
    if (!positiveInt(text, v)) {
        warn("ignoring bad TW_SCALE_DIV='%s'", text);
        return fallback;
    }
    return v;
}

} // namespace tw
