#include "harness/spec_flags.hh"

#include <cstdint>

#include "base/logging.hh"
#include "harness/specio.hh"
#include "workload/spec.hh"

namespace tw
{

namespace
{

// The two flags whose values are not canonical names.

bool
policyFromFlag(const std::string &name, ReplPolicy &out)
{
    if (name == "fifo")
        out = ReplPolicy::FIFO;
    else if (name == "random")
        out = ReplPolicy::Random;
    else if (name == "lru")
        out = ReplPolicy::LRU;
    else
        return false;
    return true;
}

bool
scopeFromFlag(const std::string &name, SimScope &out)
{
    if (name == "all")
        out = SimScope::all();
    else if (name == "user")
        out = SimScope::userOnly();
    else if (name == "servers")
        out = SimScope::serversOnly();
    else if (name == "kernel")
        out = SimScope::kernelOnly();
    else
        return false;
    return true;
}

} // namespace

bool
SpecFlags::take(const std::string &arg,
                const std::function<std::string()> &value)
{
    auto named = [&](auto &out, auto from_name) {
        std::string v = value();
        if (!from_name(v, out))
            flags.malformed(arg, v);
        return v;
    };
    if (arg == "--workload") {
        workload = value();
    } else if (arg == "--cache") {
        cacheBytes = flags.bytes(arg, value());
    } else if (arg == "--line") {
        line = flags.positive(arg, value());
    } else if (arg == "--assoc") {
        assoc = flags.positive(arg, value());
    } else if (arg == "--indexing") {
        named(indexing, indexingFromName);
    } else if (arg == "--policy") {
        named(policy.emplace(), policyFromFlag);
    } else if (arg == "--sim") {
        std::string v = named(sim, simKindFromName);
        // "none" is a canonical name, but names no simulator to run.
        if (sim == SimKind::None)
            flags.malformed(arg, v);
    } else if (arg == "--kind") {
        named(kind, simCacheKindFromName);
    } else if (arg == "--scope") {
        SimScope unused;
        scope = named(unused, scopeFromFlag);
    } else if (arg == "--sample") {
        sample = flags.positive(arg, value());
    } else if (arg == "--cost-backend") {
        std::string err;
        if (!parseCostBackendSpec(value(), costBackend, err))
            flags.refuse(arg + ": " + err);
    } else if (arg == "--tlb-entries") {
        tlbEntries = flags.positive(arg, value());
    } else if (arg == "--tlb-page") {
        std::string v = value();
        tlbPage = flags.bytes(arg, v);
        if (tlbPage > UINT32_MAX)
            flags.malformed(arg, v);
    } else if (arg == "--scale") {
        scale = flags.positive(arg, value());
        scaleSet = true;
    } else {
        return false;
    }
    return true;
}

RunSpec
SpecFlags::spec() const
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale);
    spec.sim = sim;
    spec.tw.cache = CacheConfig::icache(cacheBytes, line, assoc, indexing);
    if (policy)
        spec.tw.cache.policy = *policy;
    if (sim == SimKind::Tapeworm && spec.tw.cache.assoc > 1
        && spec.tw.cache.policy == ReplPolicy::LRU) {
        // Trap-driven simulation never sees hits: no recency.
        warn("trap-driven simulation cannot do LRU; using FIFO");
        spec.tw.cache.policy = ReplPolicy::FIFO;
    }
    spec.tw.kind = kind;
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = sample;
    spec.tw.costBackend = costBackend;
    if (sim == SimKind::TraceDriven) {
        spec.c2k.cache = spec.tw.cache;
        spec.c2k.cache.indexing = Indexing::Virtual;
        spec.c2k.sampleNum = 1;
        spec.c2k.sampleDenom = sample;
    }
    if (sim == SimKind::TapewormTlbSim)
        spec.tlb.tlb = CacheConfig::tlb(
            tlbEntries, 0, static_cast<std::uint32_t>(tlbPage));
    spec.tlb.costBackend = costBackend;
    scopeFromFlag(scope, spec.sys.scope);

    // What the reader refuses would abort the run, or a served one.
    RunSpec checked;
    std::string err;
    if (!specFromJson(specToJson(spec), checked, err))
        flags.refuse(err);
    return spec;
}

} // namespace tw
