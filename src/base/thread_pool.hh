/**
 * @file
 * A deterministic parallelFor and the harness-wide worker count.
 *
 * The experiment harness parallelizes across *trials* — independent
 * runs of the whole simulated machine under different seeds — never
 * within one simulated machine (see DESIGN.md). Each unit of work
 * writes its result into a slot chosen by its index, so the output
 * of a parallel sweep is bit-identical to the serial order no matter
 * how many workers execute it or in what order they finish.
 *
 * Dispatch is deliberately work-stealing-free: workers pull the next
 * index from one shared atomic counter. Trials are coarse (millions
 * of simulated instructions each), so contention on the counter is
 * unmeasurable and the simplicity keeps the determinism argument
 * trivial.
 */

#ifndef TW_BASE_THREAD_POOL_HH
#define TW_BASE_THREAD_POOL_HH

#include <cstdint>
#include <functional>

namespace tw
{

/** Number of hardware threads the host reports (at least 1). */
unsigned hardwareThreads();

/**
 * The harness-wide default worker count: the last nonzero value
 * passed to setDefaultThreads(), else the hardware thread count.
 * The library reads no environment: a program's main() sets it
 * from its --threads flag (the test main from TW_THREADS).
 */
unsigned defaultThreads();

/** Override defaultThreads() (0 restores the hardware count). */
void setDefaultThreads(unsigned n);

/**
 * Run body(0) .. body(n-1) on @p threads workers (0 =
 * defaultThreads()): the calling thread and width-1 threads started
 * for this call, which drain one shared counter and are joined
 * before it returns. Indices are handed out in order; completion
 * order is unspecified, so the body must only write state owned by
 * its own index. Runs inline (no threads started) when the resolved
 * width or @p n is <= 1.
 *
 * A body that throws terminates the process — harness work reports
 * failure via fatal()/panic(), not exceptions.
 */
void parallelFor(std::uint64_t n,
                 const std::function<void(std::uint64_t)> &body,
                 unsigned threads = 0);

} // namespace tw

#endif // TW_BASE_THREAD_POOL_HH
