/**
 * @file
 * A runtime-dispatched wide scan for the trap-filter hot path.
 *
 * anyBitsInWords() answers whether any bit is set in an inclusive
 * word range of a granule bitmap. It is the span loop's page-span
 * trap probe: the all-zero test that lets a run piece on a clear page
 * be accounted in bulk, with no per-reference probe.
 *
 * It has three implementations — AVX-512 (vptestnm-style 64-byte
 * blocks), AVX2 (vptest-style 32-byte blocks), and a portable
 * std::uint64_t-word loop — selected once per process by CPUID.
 * Every implementation computes the EXACT same answer (a scan never
 * reads outside the given range, tails are masked or handled
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
#include <cstdint>

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

extern std::atomic<AnyBitsFn> anyBitsFn;

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

} // namespace simd
} // namespace tw

#endif // TW_BASE_SIMD_HH
