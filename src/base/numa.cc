#include "base/numa.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <sched.h>
#endif

#include "base/thread_pool.hh"

namespace tw
{
namespace numa
{

namespace
{

/** Parse a sysfs cpulist ("0-3,8,10-11\n") into CPU ids. */
std::vector<unsigned>
parseCpuList(const char *text)
{
    std::vector<unsigned> cpus;
    const char *p = text;
    while (*p) {
        char *end = nullptr;
        unsigned long lo = std::strtoul(p, &end, 10);
        if (end == p)
            break;
        unsigned long hi = lo;
        p = end;
        if (*p == '-') {
            ++p;
            hi = std::strtoul(p, &end, 10);
            if (end == p)
                break;
            p = end;
        }
        for (unsigned long c = lo; c <= hi && c < 4096; ++c)
            cpus.push_back(static_cast<unsigned>(c));
        if (*p == ',')
            ++p;
        else
            break;
    }
    return cpus;
}

Topology
singleNodeFallback()
{
    Topology topo;
    topo.nodeCpus.emplace_back();
    for (unsigned c = 0; c < hardwareThreads(); ++c)
        topo.nodeCpus[0].push_back(c);
    return topo;
}

Topology
probeHost()
{
#if defined(__linux__)
    Topology topo;
    for (unsigned n = 0; n < 1024; ++n) {
        char path[96];
        std::snprintf(path, sizeof(path),
                      "/sys/devices/system/node/node%u/cpulist", n);
        std::FILE *f = std::fopen(path, "r");
        if (!f)
            break;
        char buf[4096];
        std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
        std::fclose(f);
        buf[got] = '\0';
        std::vector<unsigned> cpus = parseCpuList(buf);
        // Memory-only nodes (no CPUs) can't host workers; skip them.
        if (!cpus.empty())
            topo.nodeCpus.push_back(std::move(cpus));
    }
    if (!topo.nodeCpus.empty())
        return topo;
#endif
    return singleNodeFallback();
}

std::mutex topoMutex;
Topology *overrideTopo = nullptr;

} // anonymous namespace

const Topology &
topology()
{
    {
        std::lock_guard<std::mutex> lock(topoMutex);
        if (overrideTopo)
            return *overrideTopo;
    }
    static const Topology host = probeHost();
    return host;
}

void
setTopologyForTest(Topology topo)
{
    std::lock_guard<std::mutex> lock(topoMutex);
    delete overrideTopo;
    overrideTopo = nullptr;
    if (!topo.nodeCpus.empty())
        overrideTopo = new Topology(std::move(topo));
}

bool
pinningEnabled()
{
    return topology().nodes() > 1;
}

bool
pinThreadToNode(unsigned node)
{
#if defined(__linux__)
    const Topology &topo = topology();
    if (node >= topo.nodes())
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    bool any = false;
    for (unsigned cpu : topo.nodeCpus[node]) {
        if (cpu < CPU_SETSIZE) {
            CPU_SET(cpu, &set);
            any = true;
        }
    }
    if (!any)
        return false;
    return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
    (void)node;
    return false;
#endif
}

AffinityGuard::AffinityGuard()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        saved_.resize(sizeof(set));
        std::memcpy(saved_.data(), &set, sizeof(set));
        valid_ = true;
    }
#endif
}

AffinityGuard::~AffinityGuard()
{
#if defined(__linux__)
    if (valid_) {
        cpu_set_t set;
        std::memcpy(&set, saved_.data(), sizeof(set));
        sched_setaffinity(0, sizeof(set), &set);
    }
#endif
}

} // namespace numa
} // namespace tw
