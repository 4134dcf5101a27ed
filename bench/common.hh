/**
 * @file
 * Shared glue of the two bench binaries outside the experiment
 * registry, bench_serve and bench_micro: the --threads flag, the
 * BENCH_<name>.json report and the banner. The spec builders and
 * rate helpers they share with the registry live in
 * experiments/util.hh.
 */

#ifndef TW_BENCH_COMMON_HH
#define TW_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/table.hh"
#include "base/thread_pool.hh"
#include "harness/experiment.hh"

namespace twbench
{

using namespace tw;

/**
 * Common bench CLI handling: `--threads N` sets the trial-dispatch
 * width for every runTrials in the binary. Unrecognized arguments
 * are ignored so the binaries stay drop-in compatible with plain
 * invocation.
 */
inline void
initBench(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
            setDefaultThreads(
                static_cast<unsigned>(std::atoi(argv[++i])));
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            setDefaultThreads(
                static_cast<unsigned>(std::atoi(arg + 10)));
        }
    }
}

/**
 * Machine-readable companion to the printed tables: collects scalar
 * metrics and writes BENCH_<name>.json on destruction (wall-clock
 * covers the object's lifetime). Funnels through the experiment
 * layer's writeBenchReport so non-registry benches (serve, micro)
 * emit the same schema as bench_driver --report.
 */
class JsonReport
{
  public:
    JsonReport(std::string name, std::string generated_by)
        : name_(std::move(name)),
          generatedBy_(std::move(generated_by)),
          t0_(std::chrono::steady_clock::now())
    {
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    /** Record one scalar metric (insertion order is kept). */
    void
    set(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
    }

    ~JsonReport()
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
        writeBenchReport(name_, name_, generatedBy_, wall, metrics_);
    }

  private:
    std::string name_;
    std::string generatedBy_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/** Was @p flag passed on the command line? */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/** Print a bench header naming the regenerated artifact. */
inline void
banner(const char *artifact, const char *description,
       unsigned scale_div)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("workloads scaled 1/%u; miss columns extrapolated "
                "to paper scale; %u trial thread(s)\n", scale_div,
                defaultThreads());
    std::printf("==============================================="
                "=================\n");
}

} // namespace twbench

#endif // TW_BENCH_COMMON_HH
