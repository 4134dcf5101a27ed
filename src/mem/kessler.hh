/**
 * @file
 * Kessler's probabilistic model of page-placement cache conflicts.
 *
 * Section 4.2 explains the Table 9 variance shape with [Kessler91]:
 * "with random page allocation, the probability of cache conflicts
 * peaks when the size of the cache roughly equals the address space
 * size of the workload, and decreases for larger and smaller
 * caches." This module provides the analytic expectation and a
 * Monte-Carlo estimator of the placement-to-placement variability,
 * which the `kessler` experiment compares against measured Table 9
 * deviations.
 */

#ifndef TW_MEM_KESSLER_HH
#define TW_MEM_KESSLER_HH

#include <cstdint>

#include "base/stats.hh"

namespace tw
{

/**
 * Analytic expectation: placing @p pages pages uniformly at random
 * into @p colors cache colors (cache size / page size), the
 * expected number of pages that share a color with at least one
 * other page — the pages able to conflict-miss.
 */
double kesslerExpectedConflictPages(unsigned pages, unsigned colors);

/** Result of the Monte-Carlo placement study. */
struct KesslerEstimate
{
    double meanConflictPages = 0.0;
    double sdConflictPages = 0.0;
    /** Relative variability (sd / pages). */
    double relSd = 0.0;
};

/**
 * Monte-Carlo estimator: repeat random placements and measure the
 * spread of the conflict-page count — the model-level analogue of
 * running multiple Tapeworm trials with different page
 * allocations.
 */
KesslerEstimate kesslerMonteCarlo(unsigned pages, unsigned colors,
                                  unsigned trials,
                                  std::uint64_t seed = 1);

} // namespace tw

#endif // TW_MEM_KESSLER_HH
