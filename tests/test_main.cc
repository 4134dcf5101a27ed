/**
 * @file
 * The one main() every test binary links, in place of gtest_main.
 *
 * The libraries read no environment, so this is where the test
 * suites take their two settings: TW_THREADS sets the trial-dispatch
 * width and TW_NO_SIMD (set, non-empty, not "0") forces the scalar
 * trap-bitmap scans. check.sh runs tier-1 once plain, once under
 * TW_THREADS=4 and once under TW_NO_SIMD=1, and runs its TSan legs
 * under TW_THREADS as well.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "base/simd.hh"
#include "base/thread_pool.hh"

int
main(int argc, char **argv)
{
    testing::InitGoogleTest(&argc, argv);
    if (const char *threads = std::getenv("TW_THREADS")) {
        long n = std::strtol(threads, nullptr, 10);
        if (n > 0)
            tw::setDefaultThreads(static_cast<unsigned>(n));
    }
    if (const char *noSimd = std::getenv("TW_NO_SIMD");
        noSimd && *noSimd && std::strcmp(noSimd, "0") != 0)
        tw::simd::setEnabled(false);
    return RUN_ALL_TESTS();
}
