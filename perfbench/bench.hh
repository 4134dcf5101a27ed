/**
 * @file
 * Shared pieces of the twbench program: options, the result it prints,
 * order statistics, obs-registry deltas, and trace-file self times.
 *
 * twbench measures the simulator through its public APIs only
 * (harness, serve, serve/shard, obs); nothing here reaches into the
 * library's internals.
 */

#ifndef TWBENCH_BENCH_HH
#define TWBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace twbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Setup is repeated this many times per run and its median reported:
 *  one setup is too few samples for a steady number on a shared host. */
constexpr unsigned kSetupReps = 15;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Recorded digests of the engine workloads' outcomes. */
    std::string expectedPath;
    /** Scratch directory for sockets and trace files (relative paths
     *  keep unix socket names short). */
    std::string workdir;
    /** Print the digests of every shipped seed instead of measuring. */
    bool record = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run prints as its last line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Trace events the tracer dropped (buffers full), over every
     *  traced window of the run. */
    std::uint64_t droppedEvents = 0;
    /** Human-readable lines printed to stderr before the JSON. */
    std::vector<std::string> notes;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

// ---- order statistics ------------------------------------------------

/** Linear-interpolated quantile @p q in [0,1]; 0 for an empty set. */
double quantile(std::vector<double> xs, double q);
inline double median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

// ---- outcome identity ------------------------------------------------

/** fnv1a64 of formatRunOutcome (host time excluded), as 16 hex. */
std::string outcomeDigest(const tw::RunOutcome &o);

/** Simulated references of one outcome (instructions + data refs). */
double simRefs(const tw::RunOutcome &o);

// ---- obs registry ----------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

/** Every registry counter, exact once writers are quiescent. */
Counters snapshotCounters();

/** after - before, keeping only counters that moved. */
Counters counterDelta(const Counters &before, const Counters &after);

inline std::uint64_t
counterOf(const Counters &c, const std::string &name)
{
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

// ---- traces ----------------------------------------------------------

/** Totals of one trace window, keyed "cat.name". */
struct SpanTotals
{
    std::map<std::string, double> selfUs;
    std::map<std::string, double> totalUs;
    std::map<std::string, std::uint64_t> count;
    std::map<std::string, std::vector<double>> durUs;
    std::uint64_t dropped = 0;

    void merge(const SpanTotals &other);
    double self(const std::string &key) const;
};

/** Arm the tracer on @p path (fatal when it cannot). */
void traceArm(const std::string &path);

/** Disarm, then read @p path back and compute per-span self times:
 *  a span's duration minus what its direct children on the same
 *  thread cover. */
SpanTotals traceCollect(const std::string &path);

// ---- host ------------------------------------------------------------

double peakRssMb();
/**
 * Host time of a fixed loop owned by the benchmark, ~4 ms. Each op is
 * read against it, timed right after the op: on a shared 4-vCPU host
 * (README.md) the neighbours slowed whole runs by up to 1.6x, and the
 * kernel slowed with the op. Four independent xorshift chains, table lookups in 32 KB and
 * an unpredictable branch keep it throughput-bound like the
 * simulator's loops; a latency-bound loop hardly slowed at all.
 */
double referenceKernelMs();

/** nproc, SIMD level, compiler, build type (one line). */
std::string hostFingerprint();

// ---- workloads -------------------------------------------------------

/** hits / misses: one Runner::runOne per op. */
Result runEngineWorkload(const Options &opt);
/** Print the digest of every shipped seed of @p workload. */
int recordDigests(const Options &opt);

/** served_cached: a Router over two Servers. */
Result runServedWorkload(const Options &opt);

/** The serve-layer probe the engine workloads' traced runs append, so
 *  every traced run reports the serve and router spans. */
void serveProbe(const Options &opt, Result &res);

/** Per-layer costs measured on @p spec outside the workload loop:
 *  stream replay, standalone miss path, trap set/clear, spec
 *  rendering and hashing. @p run_one_ms is the median runOne time
 *  of the spec and @p refs_per_run its simulated references; a
 *  non-positive @p run_one_ms has the probe measure both itself. */
void layerProbes(const tw::RunSpec &spec, std::uint64_t trial_seed,
                 double run_one_ms, double refs_per_run,
                 const std::string &trace_path, Result &res);

/** Engine counters per op (exact on the engine workloads). */
void engineCountMetrics(const Counters &delta, double ops, Result &res);

} // namespace twbench

#endif // TWBENCH_BENCH_HH
