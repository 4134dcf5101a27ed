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

std::size_t
spanScalar(const Addr *p, const Addr *end, Addr page_mask, Addr page)
{
    const Addr *q = p;
    while (q != end && (*q & page_mask) == page)
        ++q;
    return static_cast<std::size_t>(q - p);
}

#if TW_SIMD_X86

// ---- AVX2: 32-byte blocks, scalar tails --------------------------
//
// Tails run scalar rather than via overlapping loads: exporters like
// TapewormTlb hand us unpadded vectors, so a scan must never touch a
// byte outside [first, last] / [p, end).

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

__attribute__((target("avx2"))) std::size_t
spanAvx2(const Addr *p, const Addr *end, Addr page_mask, Addr page)
{
    const Addr *q = p;
    std::size_t n = static_cast<std::size_t>(end - p);
    const __m256i vmask = _mm256_set1_epi64x(
        static_cast<long long>(page_mask));
    const __m256i vpage = _mm256_set1_epi64x(
        static_cast<long long>(page));
    while (n >= 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(q));
        __m256i eq = _mm256_cmpeq_epi64(
            _mm256_and_si256(v, vmask), vpage);
        int lanes = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
        if (lanes != 0xf) {
            return static_cast<std::size_t>(q - p)
                   + static_cast<std::size_t>(
                       __builtin_ctz(~static_cast<unsigned>(lanes)));
        }
        q += 4;
        n -= 4;
    }
    while (n && (*q & page_mask) == page) {
        ++q;
        --n;
    }
    return static_cast<std::size_t>(q - p);
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

__attribute__((target("avx512f"))) std::size_t
spanAvx512(const Addr *p, const Addr *end, Addr page_mask, Addr page)
{
    const Addr *q = p;
    std::size_t n = static_cast<std::size_t>(end - p);
    const __m512i vmask = _mm512_set1_epi64(
        static_cast<long long>(page_mask));
    const __m512i vpage = _mm512_set1_epi64(
        static_cast<long long>(page));
    while (n >= 8) {
        __m512i v = _mm512_loadu_si512(q);
        __mmask8 ne = _mm512_cmpneq_epu64_mask(
            _mm512_and_si512(v, vmask), vpage);
        if (ne) {
            return static_cast<std::size_t>(q - p)
                   + static_cast<std::size_t>(__builtin_ctz(ne));
        }
        q += 8;
        n -= 8;
    }
    if (n) {
        __mmask8 k = static_cast<__mmask8>((1u << n) - 1u);
        __m512i v = _mm512_maskz_loadu_epi64(k, q);
        // Masked-off lanes load as 0; force them to "match" so only
        // real mismatches terminate the span.
        __mmask8 ne = static_cast<__mmask8>(
            _mm512_mask_cmpneq_epu64_mask(
                k, _mm512_and_si512(v, vmask), vpage));
        std::size_t hit = ne ? static_cast<std::size_t>(
                               __builtin_ctz(ne))
                             : n;
        return static_cast<std::size_t>(q - p) + hit;
    }
    return static_cast<std::size_t>(q - p);
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
        detail::spanFn.store(&spanAvx512, std::memory_order_relaxed);
        break;
      case Level::Avx2:
        detail::anyBitsFn.store(&anyBitsAvx2,
                                std::memory_order_relaxed);
        detail::spanFn.store(&spanAvx2, std::memory_order_relaxed);
        break;
#endif
      default:
        detail::anyBitsFn.store(&anyBitsScalar,
                                std::memory_order_relaxed);
        detail::spanFn.store(&spanScalar, std::memory_order_relaxed);
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
std::atomic<SpanFn> spanFn{&spanScalar};

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
