#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/simd.hh"
#include "bench.hh"
#include "harness/specio.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace twbench
{

using namespace tw;

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::string
outcomeDigest(const RunOutcome &o)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(formatRunOutcome(o))));
    return buf;
}

double
simRefs(const RunOutcome &o)
{
    return static_cast<double>(o.run.totalInstr() + o.run.dataRefs);
}

Counters
snapshotCounters()
{
    Counters c;
    for (const obs::CounterValue &v : obs::registry().counterValues())
        c[v.name] = v.value;
    return c;
}

Counters
counterDelta(const Counters &before, const Counters &after)
{
    Counters d;
    for (const auto &[name, value] : after) {
        std::uint64_t base = counterOf(before, name);
        if (value != base)
            d[name] = value - base;
    }
    return d;
}

void
SpanTotals::merge(const SpanTotals &other)
{
    for (const auto &[k, v] : other.selfUs)
        selfUs[k] += v;
    for (const auto &[k, v] : other.totalUs)
        totalUs[k] += v;
    for (const auto &[k, v] : other.count)
        count[k] += v;
    for (const auto &[k, v] : other.durUs)
        durUs[k].insert(durUs[k].end(), v.begin(), v.end());
    dropped += other.dropped;
}

double
SpanTotals::self(const std::string &key) const
{
    auto it = selfUs.find(key);
    return it == selfUs.end() ? 0.0 : it->second;
}

void
traceArm(const std::string &path)
{
    std::string err;
    if (!obs::traceStart(path, &err))
        fatal("twbench: trace: %s", err.c_str());
}

namespace
{

struct Span
{
    std::string key;
    double ts = 0.0;
    double dur = 0.0;
    double childUs = 0.0;
};

} // anonymous namespace

SpanTotals
traceCollect(const std::string &path)
{
    obs::traceStop();
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Json doc;
    std::string err;
    if (!Json::parse(text.str(), doc, &err))
        fatal("twbench: unreadable trace %s: %s", path.c_str(),
              err.c_str());
    std::remove(path.c_str());

    SpanTotals t;
    if (const Json *d = doc.findPath("otherData.dropped_events"))
        t.dropped = std::strtoull(d->asString().c_str(), nullptr, 10);

    std::map<std::uint64_t, std::vector<Span>> byThread;
    if (const Json *evs = doc.find("traceEvents")) {
        for (std::size_t i = 0; i < evs->size(); ++i) {
            const Json &e = evs->at(i);
            Span s;
            s.key = e.find("cat")->asString() + "."
                    + e.find("name")->asString();
            s.ts = e.find("ts")->asDouble();
            s.dur = e.find("dur")->asDouble();
            byThread[e.find("tid")->asU64()].push_back(std::move(s));
        }
    }
    // Timestamps carry 1 ns of rounding; a child may seem to end that
    // much after its parent.
    constexpr double kSlackUs = 0.002;
    for (auto &[tid, spans] : byThread) {
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
                  });
        std::vector<Span *> open;
        for (Span &s : spans) {
            while (!open.empty()
                   && open.back()->ts + open.back()->dur
                          <= s.ts + kSlackUs)
                open.pop_back();
            if (!open.empty())
                open.back()->childUs += s.dur;
            open.push_back(&s);
        }
        for (const Span &s : spans) {
            t.selfUs[s.key] += std::max(0.0, s.dur - s.childUs);
            t.totalUs[s.key] += s.dur;
            ++t.count[s.key];
            t.durUs[s.key].push_back(s.dur);
        }
    }
    return t;
}

namespace
{

/** Where the reference kernel leaves its result, so it is computed. */
volatile std::uint64_t kernelSink;

} // anonymous namespace

double
referenceKernelMs()
{
    static const std::vector<std::uint64_t> table(4096, 1);
    auto step = [](std::uint64_t &x) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    Clock::time_point t0 = Clock::now();
    std::uint64_t a = 1, b = 2, c = 3, d = 4, acc = 0;
    for (unsigned i = 0; i < (1u << 20); ++i) {
        acc += table[(step(a) ^ step(b)) & 4095]
               + table[(step(c) + step(d)) & 4095];
        if (acc & 1)
            acc += a;
    }
    kernelSink = acc;
    return secondsSince(t0) * 1e3;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hostFingerprint()
{
    return csprintf("nproc=%u simd=%s compiler=%s build=%s "
                    "engine_threads=1",
                    std::max(1u, std::thread::hardware_concurrency()),
                    simd::levelName(simd::activeLevel()),
                    TWBENCH_COMPILER, TWBENCH_BUILD_TYPE);
}

} // namespace twbench
