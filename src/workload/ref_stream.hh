/**
 * @file
 * Abstract instruction-reference streams.
 *
 * The paper's workloads are real binaries (SPEC92, SPEC SDM, Mach
 * servers; Table 3). Those binaries and their traces are not
 * available, so each task in the simulated system executes a
 * synthetic RefStream whose locality structure is calibrated to the
 * published per-workload miss ratios (Table 6, Figure 2) and whose
 * instruction counts / OS-time splits follow Table 4. See
 * DESIGN.md, "Reproduction strategy".
 */

#ifndef TW_WORKLOAD_REF_STREAM_HH
#define TW_WORKLOAD_REF_STREAM_HH

#include <cstdint>
#include <memory>

#include "base/types.hh"

namespace tw
{

/**
 * An endless stream of instruction-fetch virtual addresses.
 *
 * Streams are deterministic functions of their seed: the same seed
 * reproduces the same control flow, which is what lets experiments
 * attribute run-to-run variation to OS effects (page allocation,
 * interrupt interleaving) rather than to the workload itself.
 *
 * A stream is read one address (next), a batch of addresses
 * (nextBatch) or a sequential run (nextRun) at a time, in any mix:
 * each call continues where the last one left off. The engine's
 * span loop reads both of a task's streams by runs, so its cost
 * follows the streams' runs rather than their addresses.
 */
class RefStream
{
  public:
    virtual ~RefStream() = default;

    /** Produce the next fetch address. Streams never terminate; the
     *  task's instruction budget bounds execution. */
    virtual Addr next() = 0;

    /** Produce the next @p n addresses into @p out. Semantically
     *  identical to n successive next() calls; streams with internal
     *  run structure override this to emit sequential runs in bulk. */
    virtual void
    nextBatch(Addr *out, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            out[i] = next();
    }

    /** Take the rest of the current sequential run: store its first
     *  address in @p start and return its length in words (at least
     *  1), and move the stream past it. Expanding the runs word by
     *  word, start, start + kWordBytes, ..., gives exactly next()'s
     *  sequence. The default hands out one word through next();
     *  streams with internal run structure override it, so a
     *  consumer that needs only where the run goes never writes its
     *  addresses out. */
    virtual Counter
    nextRun(Addr &start)
    {
        start = next();
        return 1;
    }

    /** Restart the stream with a (possibly new) control-flow seed. */
    virtual void reset(std::uint64_t seed) = 0;

    /** Deep copy preserving position and RNG state: the copy emits
     *  exactly the sequence the original would have emitted next.
     *  (Used for snapshots — e.g. the interval sampler's boundary
     *  clones; a forking task calls reset() on its copy.) */
    virtual std::unique_ptr<RefStream> clone() const = 0;

    /** First byte of the stream's text region. */
    virtual Addr textBase() const = 0;

    /** Size of the stream's text region in bytes. */
    virtual std::uint64_t textBytes() const = 0;
};

} // namespace tw

#endif // TW_WORKLOAD_REF_STREAM_HH
