/**
 * @file
 * Representative-interval sampling configuration and outcome.
 *
 * The sampling subsystem estimates a run's miss count from a small
 * set of representative reference-stream intervals instead of
 * simulating every reference (SimPoint-style; Bueno et al., arXiv
 * 2402.00649). SampleConfig travels inside RunSpec — it is part of
 * the canonical spec text when (and only when) enabled, so sampled
 * and unsampled runs never collide in the ResultCache and a spec
 * with sampling disabled serializes byte-identically to a spec from
 * before the subsystem existed.
 */

#ifndef TW_SAMPLE_CONFIG_HH
#define TW_SAMPLE_CONFIG_HH

#include <cstdint>

namespace tw
{

/**
 * Knobs of the representative-interval estimator.
 *
 * `warmupRefs` selects between the two state-reconstruction modes:
 *
 *  - 0 (default): *exact* reconstruction. For a direct-mapped
 *    trap-driven cache the resident line of a set is always the most
 *    recently referenced line mapping to it (inserts happen only on
 *    misses, and a hit means the referenced line already is the
 *    resident line), so the profiling pass can rebuild the precise
 *    cache state at every interval boundary from per-line last-touch
 *    stamps. Interval miss counts are then exact and the reported
 *    confidence interval covers pure sampling error.
 *  - > 0: classic warmup. Each simulated interval is preceded by
 *    that many uncounted references replayed into an initially empty
 *    cache — the conventional SimPoint recipe, kept as the fallback
 *    for geometries where exact reconstruction does not hold.
 */
struct SampleConfig
{
    /** Master switch; false keeps every byte of spec text, cache
     *  key and outcome identical to the pre-sampling world. */
    bool enabled = false;

    /** References per interval (the clustering granule). */
    std::uint64_t intervalRefs = 16384;

    /** Uncounted warmup references before each counted interval;
     *  0 = exact boundary-state reconstruction (see above). */
    std::uint64_t warmupRefs = 0;

    /** k for the k-means clustering of interval feature vectors. */
    unsigned clusters = 8;

    /** Intervals simulated per cluster (>= 2 gives a per-cluster
     *  variance estimate and therefore a meaningful CI). */
    unsigned perCluster = 2;

    /** Clustering / representative-selection seed. Fixed per spec,
     *  NOT per trial: the interval selection is part of the
     *  experiment design, while trial seeds redraw set samples and
     *  page allocations around it. */
    std::uint64_t seed = 0x51317;

    /** Floor on the reported relative CI half-width (guards against
     *  overconfident intervals when within-cluster variance
     *  degenerates to zero); 0 disables. */
    double ciRelFloor = 0.0;

    bool
    operator==(const SampleConfig &o) const
    {
        return enabled == o.enabled && intervalRefs == o.intervalRefs
               && warmupRefs == o.warmupRefs && clusters == o.clusters
               && perCluster == o.perCluster && seed == o.seed
               && ciRelFloor == o.ciRelFloor;
    }
};

/**
 * What a sampled run measured about its own sampling. Emitted into
 * the canonical outcome JSON only when `used` is true, so unsampled
 * outcomes stay byte-identical to the pre-sampling schema.
 */
struct SampleOutcome
{
    /** The estimate actually came from the interval estimator (the
     *  run was eligible); false = full simulation ran. */
    bool used = false;

    /** Intervals the reference stream divides into. */
    std::uint64_t intervalsTotal = 0;

    /** Intervals fed through the cache model (exact endpoints plus
     *  cluster representatives). */
    std::uint64_t intervalsSimulated = 0;

    /** References fed through the cache model (counted + warmup). */
    std::uint64_t refsSimulated = 0;

    /** References a full simulation of the stream would have fed. */
    std::uint64_t refsTotal = 0;

    /** Student-t half-width (95%) of the miss estimate, in misses,
     *  after inverse-sampling-fraction scaling and the ciRelFloor. */
    double ciHalfWidth = 0.0;
};

} // namespace tw

#endif // TW_SAMPLE_CONFIG_HH
