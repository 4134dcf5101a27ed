/**
 * @file
 * The shared test main applies TW_THREADS and TW_NO_SIMD before any
 * test runs, so check.sh's TW_THREADS=4 and TW_NO_SIMD=1 tier-1 legs
 * still test what they name. Unset, each setting keeps its library
 * default; the test_main_env CTest sets both.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "base/simd.hh"
#include "base/thread_pool.hh"

namespace tw
{
namespace
{

TEST(TestMain, TwThreadsSetsDefaultThreads)
{
    const char *threads = std::getenv("TW_THREADS");
    long n = threads ? std::strtol(threads, nullptr, 10) : 0;
    EXPECT_EQ(defaultThreads(),
              n > 0 ? static_cast<unsigned>(n) : hardwareThreads());
}

TEST(TestMain, TwNoSimdSelectsScalarScans)
{
    // Unset, the static initializer's host-widest scans stay in
    // place: a program that never calls simd::setEnabled() (the
    // benchmark, twserved) scans as wide as the host allows.
    const char *noSimd = std::getenv("TW_NO_SIMD");
    if (noSimd && *noSimd && std::strcmp(noSimd, "0") != 0) {
        EXPECT_FALSE(simd::wide());
        EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    } else {
        EXPECT_EQ(simd::activeLevel(), simd::detectedLevel());
    }
}

} // namespace
} // namespace tw
