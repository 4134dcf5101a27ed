#include "base/simd.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TW_SIMD_X86 1
#else
#define TW_SIMD_X86 0
#endif

namespace tw
{
namespace simd
{
namespace
{

// ---- portable word-loop implementations --------------------------

bool
anyBitsScalar(const std::uint64_t *words, std::uint64_t first,
              std::uint64_t last)
{
    std::uint64_t acc = 0;
    for (std::uint64_t w = first; w <= last; ++w)
        acc |= words[w];
    return acc != 0;
}

#if TW_SIMD_X86

// ---- AVX2: 32-byte blocks, scalar tails --------------------------
//
// Tails run scalar rather than via overlapping loads: exporters like
// TapewormTlb hand us unpadded vectors, so a scan must never touch a
// word outside [first, last].

__attribute__((target("avx2"))) bool
anyBitsAvx2(const std::uint64_t *words, std::uint64_t first,
            std::uint64_t last)
{
    std::uint64_t w = first;
    std::uint64_t n = last - first + 1;
    __m256i acc = _mm256_setzero_si256();
    while (n >= 4) {
        acc = _mm256_or_si256(
            acc, _mm256_loadu_si256(
                     reinterpret_cast<const __m256i *>(words + w)));
        w += 4;
        n -= 4;
    }
    if (!_mm256_testz_si256(acc, acc))
        return true;
    std::uint64_t tail = 0;
    while (n--)
        tail |= words[w++];
    return tail != 0;
}

// ---- AVX-512: 64-byte blocks, masked tails -----------------------

__attribute__((target("avx512f"))) bool
anyBitsAvx512(const std::uint64_t *words, std::uint64_t first,
              std::uint64_t last)
{
    std::uint64_t w = first;
    std::uint64_t n = last - first + 1;
    while (n >= 8) {
        __m512i v = _mm512_loadu_si512(words + w);
        if (_mm512_test_epi64_mask(v, v))
            return true;
        w += 8;
        n -= 8;
    }
    if (n) {
        __mmask8 k = static_cast<__mmask8>((1u << n) - 1u);
        __m512i v = _mm512_maskz_loadu_epi64(k, words + w);
        if (_mm512_test_epi64_mask(v, v))
            return true;
    }
    return false;
}

#endif // TW_SIMD_X86

Level
probeHost()
{
#if TW_SIMD_X86
    if (__builtin_cpu_supports("avx512f"))
        return Level::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

std::atomic<bool> enabledFlag{true};

void
install(Level level)
{
    switch (level) {
#if TW_SIMD_X86
      case Level::Avx512:
        detail::anyBitsFn.store(&anyBitsAvx512,
                                std::memory_order_relaxed);
        break;
      case Level::Avx2:
        detail::anyBitsFn.store(&anyBitsAvx2,
                                std::memory_order_relaxed);
        break;
#endif
      default:
        detail::anyBitsFn.store(&anyBitsScalar,
                                std::memory_order_relaxed);
        break;
    }
}

// Installs the host-widest implementations before main() runs, so
// a program that never calls setEnabled() scans wide; setEnabled()
// re-installs later.
struct Init
{
    Init() { install(probeHost()); }
};
Init initOnce;

} // namespace

namespace detail
{

std::atomic<AnyBitsFn> anyBitsFn{&anyBitsScalar};

} // namespace detail

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Avx512:
        return "avx512";
      case Level::Avx2:
        return "avx2";
      default:
        return "scalar";
    }
}

Level
detectedLevel()
{
    static const Level host = probeHost();
    return host;
}

Level
activeLevel()
{
    return enabledFlag.load(std::memory_order_relaxed)
               ? detectedLevel()
               : Level::Scalar;
}

void
setEnabled(bool on)
{
    enabledFlag.store(on, std::memory_order_relaxed);
    install(on ? detectedLevel() : Level::Scalar);
}

} // namespace simd
} // namespace tw
