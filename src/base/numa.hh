/**
 * @file
 * Minimal NUMA awareness for the trial harness — no libnuma.
 *
 * Topology comes straight from sysfs
 * (/sys/devices/system/node/node<N>/cpulist); pinning is plain
 * sched_setaffinity(2). Both degrade gracefully: an unreadable
 * sysfs or a single-node host collapses to one node covering every
 * CPU, and parallelFor's sharded dispatch becomes the ordinary
 * single-counter path — bit-identical results either way, since
 * trials only ever write their own index.
 *
 * Pinning policy: pin workers only when the host has multiple
 * nodes, where locality actually pays. There is no setting for it.
 */

#ifndef TW_BASE_NUMA_HH
#define TW_BASE_NUMA_HH

#include <vector>

namespace tw
{
namespace numa
{

/** CPU/node map of the host (or a test override). */
struct Topology
{
    /** nodeCpus[n] = CPU ids of node n; at least one node, every
     *  node non-empty. */
    std::vector<std::vector<unsigned>> nodeCpus;

    unsigned nodes() const
    {
        return static_cast<unsigned>(nodeCpus.size());
    }
};

/** Host topology, parsed from sysfs once (single all-CPU node on
 *  any failure). Test overrides (setTopologyForTest) replace it. */
const Topology &topology();

/** Inject a fake topology (tests exercising the sharded dispatch on
 *  single-node hosts). Empty nodeCpus restores the host topology.
 *  Not thread-safe: call only from a quiescent test main thread. */
void setTopologyForTest(Topology topo);

/** Should parallelFor pin workers? (Multi-node hosts only — see
 *  file comment.) */
bool pinningEnabled();

/** Pin the calling thread to @p node's CPUs. Returns false (and
 *  leaves affinity untouched) if the node is unknown or
 *  sched_setaffinity fails. */
bool pinThreadToNode(unsigned node);

/**
 * Saves the calling thread's CPU affinity mask and restores it on
 * destruction — parallelFor wraps the caller thread in one of
 * these, so a pinned drain can't leak narrowed affinity back into
 * the application.
 */
class AffinityGuard
{
  public:
    AffinityGuard();
    ~AffinityGuard();

    AffinityGuard(const AffinityGuard &) = delete;
    AffinityGuard &operator=(const AffinityGuard &) = delete;

  private:
    std::vector<unsigned char> saved_; //!< raw cpu_set_t bytes
    bool valid_ = false;
};

} // namespace numa
} // namespace tw

#endif // TW_BASE_NUMA_HH
