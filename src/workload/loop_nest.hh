/**
 * @file
 * The loop-nest synthetic instruction stream.
 *
 * The generator models program text as a hierarchy of loops: the
 * innermost level sweeps a small span of code word by word; each
 * enclosing level repeats its child sweeps over a larger span. For
 * a fully-associative LRU cache of size C with line size L, the
 * resulting miss ratio is approximately
 *
 *      m(C) = (wordBytes / L) / prod{ n_i : span_i <= C }
 *
 * which makes the miss-ratio-versus-cache-size curve directly
 * programmable: each ladder level (span_i, n_i) divides the miss
 * ratio by n_i once the cache can hold span_i. Fractional mean
 * repeat counts are realized probabilistically. Occasional short
 * "excursions" (random jumps emulating error paths, PLT stubs and
 * data-dependent branches) add the conflict-miss texture a
 * direct-mapped cache sees in real code.
 */

#ifndef TW_WORKLOAD_LOOP_NEST_HH
#define TW_WORKLOAD_LOOP_NEST_HH

#include <string>
#include <vector>

#include "base/random.hh"
#include "workload/ref_stream.hh"

namespace tw
{

/** One level of the loop ladder. */
struct LoopLevel
{
    std::uint64_t spanBytes;  //!< code span this level sweeps
    double meanReps;          //!< mean times the span is repeated
};

/** Parameters of a LoopNestStream ("a binary", loosely). */
struct StreamParams
{
    Addr base = 0x400000;               //!< text start address
    std::uint64_t textBytes = 64 * 1024; //!< total text size
    /** Ladder, innermost first; spans strictly ascending. A final
     *  level spanning textBytes is implied if absent. */
    std::vector<LoopLevel> ladder;
    /** Probability of an excursion at each inner-chunk boundary. */
    double excursionProb = 0.02;
    /** Length of one excursion in words (at least 1). */
    unsigned excursionWords = 8;
    /** Control-flow seed; fixed per binary, NOT per trial, so the
     *  workload itself is identical across trials. */
    std::uint64_t seed = 1;

    /** Why no stream can be built from these; empty when one
     *  can. */
    std::string check() const;

    /** Abort (fatal) with check()'s reason, if any. */
    void validate() const;
};

/**
 * Build a ladder that hits a target miss ratio at a 4 KB cache with
 * 16-byte lines, distributing the required hit amplification
 * geometrically over the levels up to 4 KB and decaying misses by
 * @p decayPerDoubling for each doubling above 4 KB up to textBytes.
 * Used to calibrate workload components against Table 6.
 */
std::vector<LoopLevel> ladderForMissTarget(double miss_at_4k,
                                           std::uint64_t text_bytes,
                                           double decay_per_doubling = 3.0);

/**
 * Nested-loop instruction stream (see file comment).
 */
class LoopNestStream : public RefStream
{
  public:
    explicit LoopNestStream(const StreamParams &params);

    Addr next() override;
    void nextBatch(Addr *out, unsigned n) override;
    Counter nextRun(Addr &start) override;
    void reset(std::uint64_t seed) override;
    std::unique_ptr<RefStream> clone() const override;
    Addr textBase() const override { return params_.base; }
    std::uint64_t textBytes() const override { return params_.textBytes; }

    const StreamParams &params() const { return params_; }

  private:
    /** One ladder level: its sweep and where it stands. */
    struct Level
    {
        Addr chunkBase = 0;         //!< start of current child chunk
        std::uint64_t span = 0;     //!< bytes one chunk spans
        /** Sweeps of the current chunk left, this one included. */
        std::uint64_t repsLeft = 0;
        /** Integer floor of meanReps, clamped to 2^62: no run
         *  finishes that many sweeps of one chunk. */
        std::uint64_t repFloor = 0;
        /** The fractional part's draw as a threshold (see
         *  loop_nest.cc): one more sweep on a draw below it, and no
         *  draw at a zero fraction. */
        std::uint64_t repDrawAt = 0;
    };

    void restart();
    void endRun();
    void advance();
    void advanceSlow();
    void maybeExcursion();
    std::uint64_t drawReps(const Level &lvl);

    StreamParams params_;
    Rng rng_;
    Addr textEnd_ = 0;               //!< params_.base + textBytes
    std::uint64_t excursionAt_ = 0;  //!< excursionProb's threshold

    // Hot-path state: the current sequential run. next(),
    // nextBatch() and nextRun() all walk it and call endRun() when
    // cur_ reaches runEnd_, so they make the same RNG draws in the
    // same order and any mix of them gives one sequence.
    Addr cur_ = 0;      //!< next address to emit
    Addr runEnd_ = 0;   //!< end of current sequential run

    // Excursion state (nonzero while detoured).
    unsigned excursionLeft_ = 0;
    Addr resumeCur_ = 0;
    Addr resumeEnd_ = 0;

    std::vector<Level> levels_; //!< index 0 = innermost
};

} // namespace tw

#endif // TW_WORKLOAD_LOOP_NEST_HH
