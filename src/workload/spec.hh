/**
 * @file
 * The eight-workload suite of the paper (Tables 3 and 4).
 *
 * Each WorkloadSpec reproduces the *structure* the paper publishes
 * for a workload: total instruction count (scaled down by a
 * configurable factor so experiments run in seconds), the fraction
 * of time spent in the kernel / BSD server / X server / user tasks
 * (Table 4), the user task count and its fork behaviour, and
 * per-component loop ladders calibrated so the 4 KB I-cache miss
 * ratios land near Table 6. The real binaries (SPEC92, SPEC SDM,
 * Mach 3.0 servers) are not available; see DESIGN.md for the
 * substitution argument.
 */

#ifndef TW_WORKLOAD_SPEC_HH
#define TW_WORKLOAD_SPEC_HH

#include <string>
#include <vector>

#include "base/types.hh"
#include "workload/loop_nest.hh"

namespace tw
{

/** Workload component a task belongs to (Table 4's columns). */
enum class Component : unsigned
{
    User = 0,
    Kernel,
    Bsd,
    X,
};

constexpr unsigned kNumComponents = 4;

/** Human-readable component name. */
const char *componentName(Component c);

/**
 * Full description of one workload of the suite.
 */
struct WorkloadSpec
{
    std::string name;

    /** Total instructions, all components, after scaling. */
    Counter totalInstr = 0;

    /** Table 4 time fractions (sum to ~1). */
    double fracKernel = 0.0;
    double fracBsd = 0.0;
    double fracX = 0.0;
    double fracUser = 1.0;

    /** User tasks created over the run (Table 4's User Task Count,
     *  scaled for the multi-task workloads; see DESIGN.md). */
    unsigned taskCount = 1;

    /** Maximum user tasks live at once. */
    unsigned concurrency = 1;

    /** User binaries; forked tasks round-robin over them (sdet and
     *  kenbus run several distinct programs). */
    std::vector<StreamParams> binaries;

    /** Data segments, parallel to binaries (same index). */
    std::vector<StreamParams> binaryData;

    /** Kernel text; the first kHandlerBytes are the clock-interrupt
     *  handler region. */
    StreamParams kernelText;

    /** BSD UNIX server text. */
    StreamParams bsdText;

    /** X display server text (empty use for non-graphical loads). */
    StreamParams xText;

    /** Data segments of the system components. */
    StreamParams kernelData;
    StreamParams bsdData;
    StreamParams xData;

    /** Data references (loads+stores) per 1000 instructions; ~350
     *  on a MIPS-like ISA. Zero disables data references. */
    double dataRefsPer1k = 350.0;

    /** Every Nth data reference is a store (MIPS integer code runs
     *  roughly 2 loads per store). */
    unsigned storeEvery = 3;

    /** Syscalls per 1000 user instructions. */
    double syscallsPer1k = 1.0;

    /** P(syscall is serviced by the BSD server / X server). */
    double bsdProb = 0.5;
    double xProb = 0.0;

    /** Total user instructions (budget split across tasks). */
    Counter userInstr() const;

    /** Expected kernel / server instructions per syscall, derived
     *  from the Table 4 fractions. */
    double kernelBurstLen() const;
    double bsdBurstLen() const;
    double xBurstLen() const;
};

/** Bytes of kernel text treated as the clock-interrupt handler. */
constexpr std::uint64_t kHandlerBytes = 1024;

/** Names of the eight workloads, in the paper's (alphabetical
 *  Table 6) order. */
const std::vector<std::string> &suiteNames();

/**
 * Build one workload by name.
 *
 * @param name one of suiteNames().
 * @param scale_div divide the paper's instruction counts by this
 *        (default 100: ~5-18 M instructions per workload).
 */
WorkloadSpec makeWorkload(const std::string &name,
                          unsigned scale_div = 100);

/** Build the whole suite. */
std::vector<WorkloadSpec> makeSuite(unsigned scale_div = 100);

/**
 * The scale divisor @p text names — the value of TW_SCALE_DIV, which
 * the programs without a --scale flag read in main() — or
 * @p fallback when @p text is null. A value that is not a positive
 * 32-bit integer warns and yields @p fallback.
 */
unsigned parseScaleDiv(const char *text, unsigned fallback);

} // namespace tw

#endif // TW_WORKLOAD_SPEC_HH
