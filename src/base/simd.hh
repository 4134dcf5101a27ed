/**
 * @file
 * Runtime-dispatched wide scans for the trap-filter hot paths.
 *
 * Two primitive scans sit under the engine's inner loops:
 *
 *  - anyBitsInWords(): is any bit set in an inclusive word range of
 *    a granule bitmap? This is the page-span trap probe — the
 *    all-zero test that lets the inner loop skip the per-reference
 *    probe (and the physical address that feeds it) on clear pages.
 *  - samePageSpan(): how many leading addresses of a prefetch
 *    buffer fall on one page? This bounds the probe-free chunk the
 *    inner loop consumes with bulk accounting.
 *
 * Both have three implementations — AVX-512 (vptestnm-style 64-byte
 * blocks), AVX2 (vptest-style 32-byte blocks), and a portable
 * std::uint64_t-word loop — selected once per process by CPUID.
 * Every implementation computes the EXACT same answer (scans never
 * read outside the given range, tails are masked or handled
 * scalar), so results are bit-identical across hosts and dispatch
 * levels; only the host cycle count changes.
 *
 * Dispatch is a relaxed function-pointer load. A static initializer
 * installs the host-widest level before main() runs and reads no
 * environment. The scalar fallback is forced only by a caller —
 * bench_driver --no-simd, or TW_NO_SIMD in the test main, both
 * through setEnabled(false) — or by a host without the required
 * ISA.
 */

#ifndef TW_BASE_SIMD_HH
#define TW_BASE_SIMD_HH

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "base/types.hh"

namespace tw
{
namespace simd
{

/** Widest scan implementation in use. */
enum class Level
{
    Scalar = 0, //!< portable 64-bit-word loops
    Avx2 = 2,   //!< 32-byte blocks (4 x u64 lanes)
    Avx512 = 3, //!< 64-byte blocks (8 x u64 lanes), masked tails
};

/** Human-readable level name ("scalar", "avx2", "avx512"). */
const char *levelName(Level level);

/** Widest level the host CPU supports (ignores setEnabled()). */
Level detectedLevel();

/**
 * The level scans currently dispatch to: detectedLevel() unless
 * wide scans are disabled (setEnabled(false)), in which case
 * Scalar.
 */
Level activeLevel();

/** Enable/disable the wide implementations at runtime (the
 *  bench_driver --no-simd knob; tests toggle this to prove
 *  scalar/wide bit-identity). Thread-safe; takes effect on the
 *  next scan call. */
void setEnabled(bool on);

/** Are wide scans currently enabled AND supported? */
inline bool
wide()
{
    return activeLevel() != Level::Scalar;
}

namespace detail
{

using AnyBitsFn = bool (*)(const std::uint64_t *, std::uint64_t,
                           std::uint64_t);
using SpanFn = std::size_t (*)(const Addr *, const Addr *, Addr,
                               Addr);

extern std::atomic<AnyBitsFn> anyBitsFn;
extern std::atomic<SpanFn> spanFn;

} // namespace detail

/**
 * Any bit set in words [first, last] (inclusive) of @p words?
 * Exactly equivalent to OR-reducing the range and testing for
 * nonzero; never reads a word outside [first, last].
 */
inline bool
anyBitsInWords(const std::uint64_t *words, std::uint64_t first,
               std::uint64_t last)
{
    return detail::anyBitsFn.load(std::memory_order_relaxed)(
        words, first, last);
}

/**
 * Number of leading entries of [p, end) with (x & page_mask) ==
 * page. Exactly equivalent to the obvious scalar scan; never reads
 * at or past @p end.
 */
inline std::size_t
samePageSpan(const Addr *p, const Addr *end, Addr page_mask,
             Addr page)
{
    return detail::spanFn.load(std::memory_order_relaxed)(
        p, end, page_mask, page);
}

} // namespace simd
} // namespace tw

#endif // TW_BASE_SIMD_HH
