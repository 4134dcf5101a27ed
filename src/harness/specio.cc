#include "harness/specio.hh"

#include <limits>
#include <vector>

#include "base/logging.hh"

namespace tw
{

namespace
{

// ---------------------------------------------------------------
// Enum name tables. The emitters reuse the library's *Name()
// helpers where they exist so the wire text matches the CLI text.
// ---------------------------------------------------------------

bool
allocPolicyFromName(const std::string &n, AllocPolicy &out)
{
    if (n == "random")
        out = AllocPolicy::Random;
    else if (n == "sequential")
        out = AllocPolicy::Sequential;
    else if (n == "coloring")
        out = AllocPolicy::Coloring;
    else
        return false;
    return true;
}

bool
indexingFromName(const std::string &n, Indexing &out)
{
    if (n == "virtual")
        out = Indexing::Virtual;
    else if (n == "physical")
        out = Indexing::Physical;
    else
        return false;
    return true;
}

bool
replPolicyFromName(const std::string &n, ReplPolicy &out)
{
    if (n == "LRU")
        out = ReplPolicy::LRU;
    else if (n == "FIFO")
        out = ReplPolicy::FIFO;
    else if (n == "Random")
        out = ReplPolicy::Random;
    else
        return false;
    return true;
}

bool
simCacheKindFromName(const std::string &n, SimCacheKind &out)
{
    if (n == "instruction")
        out = SimCacheKind::Instruction;
    else if (n == "data")
        out = SimCacheKind::Data;
    else if (n == "unified")
        out = SimCacheKind::Unified;
    else
        return false;
    return true;
}

const char *
hostWriteName(HostWritePolicy p)
{
    return p == HostWritePolicy::AllocateOnWrite ? "allocate"
                                                 : "no-allocate";
}

bool
hostWriteFromName(const std::string &n, HostWritePolicy &out)
{
    if (n == "allocate")
        out = HostWritePolicy::AllocateOnWrite;
    else if (n == "no-allocate")
        out = HostWritePolicy::NoAllocateOnWrite;
    else
        return false;
    return true;
}

const char *
sampleModeName(SampleMode m)
{
    return m == SampleMode::RandomSets ? "random-sets"
                                       : "constant-bits";
}

bool
sampleModeFromName(const std::string &n, SampleMode &out)
{
    if (n == "random-sets")
        out = SampleMode::RandomSets;
    else if (n == "constant-bits")
        out = SampleMode::ConstantBits;
    else
        return false;
    return true;
}

// ---------------------------------------------------------------
// Strict field reader: every field is required, every present
// member must be consumed, and the first failure latches into err.
// ---------------------------------------------------------------

class Fields
{
  public:
    Fields(const Json &j, const char *what, std::string &err)
        : obj_(j), what_(what), err_(err)
    {
        if (!obj_.isObject())
            fail("%s: not a JSON object", what_);
    }

    bool ok() const { return ok_; }

    const Json *
    get(const char *key)
    {
        if (!ok_)
            return nullptr;
        consumed_.push_back(key);
        const Json *v = obj_.find(key);
        if (!v)
            fail("%s: missing field '%s'", what_, key);
        return v;
    }

    /** Like get(), but absence is not an error (fields added after
     *  v1 are emitted conditionally and parsed optionally so old
     *  producers and consumers interoperate). */
    const Json *
    maybe(const char *key)
    {
        if (!ok_)
            return nullptr;
        consumed_.push_back(key);
        return obj_.find(key);
    }

    void
    u64(const char *key, std::uint64_t &out)
    {
        if (const Json *v = requireNumber(key))
            out = v->asU64();
    }

    void
    u32(const char *key, std::uint32_t &out)
    {
        unsignedIn(key, out);
    }

    void
    uns(const char *key, unsigned &out)
    {
        unsignedIn(key, out);
    }

    void
    i32(const char *key, std::int32_t &out)
    {
        const Json *v = requireNumber(key);
        if (!v)
            return;
        std::int64_t x = v->asI64();
        if (x < std::numeric_limits<std::int32_t>::min()
            || x > std::numeric_limits<std::int32_t>::max())
            outOfRange(key);
        else
            out = static_cast<std::int32_t>(x);
    }

    void
    dbl(const char *key, double &out)
    {
        if (const Json *v = requireNumber(key))
            out = v->asDouble();
    }

    void
    bln(const char *key, bool &out)
    {
        if (const Json *v = get(key)) {
            if (!v->isBool())
                fail("%s: field '%s' is not a boolean", what_, key);
            else
                out = v->asBool();
        }
    }

    void
    str(const char *key, std::string &out)
    {
        if (const Json *v = get(key)) {
            if (!v->isString())
                fail("%s: field '%s' is not a string", what_, key);
            else
                out = v->asString();
        }
    }

    template <typename E, typename Fn>
    void
    enm(const char *key, E &out, Fn &&from_name)
    {
        std::string name;
        str(key, name);
        if (ok_ && !from_name(name, out))
            fail("%s: bad value '%s' for '%s'", what_, name.c_str(),
                 key);
    }

    /** Check no unconsumed members remain (unknown-field error). */
    bool
    finish()
    {
        if (!ok_)
            return false;
        for (const auto &[k, v] : obj_.members()) {
            bool seen = false;
            for (const char *c : consumed_) {
                if (k == c) {
                    seen = true;
                    break;
                }
            }
            if (!seen) {
                fail("%s: unknown field '%s'", what_, k.c_str());
                return false;
            }
        }
        return true;
    }

    void
    fail(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)))
    {
        if (!ok_)
            return;
        ok_ = false;
        std::va_list args;
        va_start(args, fmt);
        err_ = vcsprintf(fmt, args);
        va_end(args);
    }

  private:
    /** Read an unsigned field, refusing a value its type cannot
     *  hold (negative, or too wide) instead of narrowing it. */
    template <typename U>
    void
    unsignedIn(const char *key, U &out)
    {
        const Json *v = requireNumber(key);
        if (!v)
            return;
        std::uint64_t x = v->asU64();
        if (v->isNegative() || x > std::numeric_limits<U>::max())
            outOfRange(key);
        else
            out = static_cast<U>(x);
    }

    void
    outOfRange(const char *key)
    {
        fail("%s: field '%s' is out of range", what_, key);
    }

    const Json *
    requireNumber(const char *key)
    {
        const Json *v = get(key);
        if (!v)
            return nullptr;
        if (!v->isNumber()) {
            fail("%s: field '%s' is not a number", what_, key);
            return nullptr;
        }
        return v;
    }

    const Json &obj_;
    const char *what_;
    std::string &err_;
    std::vector<const char *> consumed_;
    bool ok_ = true;
};

// ---------------------------------------------------------------
// Per-struct emitters/parsers, innermost first. Emission order in
// each *ToJson defines the canonical byte order.
// ---------------------------------------------------------------

Json
streamParamsToJson(const StreamParams &p)
{
    Json j = Json::object();
    j.set("base", Json::number(p.base));
    j.set("textBytes", Json::number(p.textBytes));
    Json ladder = Json::array();
    for (const LoopLevel &lvl : p.ladder) {
        Json l = Json::object();
        l.set("spanBytes", Json::number(lvl.spanBytes));
        l.set("meanReps", Json::number(lvl.meanReps));
        ladder.push(std::move(l));
    }
    j.set("ladder", std::move(ladder));
    j.set("excursionProb", Json::number(p.excursionProb));
    j.set("excursionWords", Json::number(p.excursionWords));
    j.set("seed", Json::number(p.seed));
    return j;
}

bool
streamParamsFromJson(const Json &j, StreamParams &out,
                     std::string &err)
{
    Fields f(j, "StreamParams", err);
    f.u64("base", out.base);
    f.u64("textBytes", out.textBytes);
    if (const Json *ladder = f.get("ladder")) {
        if (!ladder->isArray()) {
            f.fail("StreamParams: 'ladder' is not an array");
        } else {
            out.ladder.clear();
            for (std::size_t i = 0; i < ladder->size(); ++i) {
                LoopLevel lvl;
                Fields lf(ladder->at(i), "LoopLevel", err);
                lf.u64("spanBytes", lvl.spanBytes);
                lf.dbl("meanReps", lvl.meanReps);
                if (!lf.finish()) {
                    f.fail("StreamParams: %s", err.c_str());
                    break;
                }
                out.ladder.push_back(lvl);
            }
        }
    }
    f.dbl("excursionProb", out.excursionProb);
    f.uns("excursionWords", out.excursionWords);
    f.u64("seed", out.seed);
    return f.finish();
}

Json
workloadToJson(const WorkloadSpec &w)
{
    Json j = Json::object();
    j.set("name", Json::str(w.name));
    j.set("totalInstr", Json::number(w.totalInstr));
    j.set("fracKernel", Json::number(w.fracKernel));
    j.set("fracBsd", Json::number(w.fracBsd));
    j.set("fracX", Json::number(w.fracX));
    j.set("fracUser", Json::number(w.fracUser));
    j.set("taskCount", Json::number(w.taskCount));
    j.set("concurrency", Json::number(w.concurrency));
    Json bins = Json::array();
    for (const StreamParams &p : w.binaries)
        bins.push(streamParamsToJson(p));
    j.set("binaries", std::move(bins));
    Json bdata = Json::array();
    for (const StreamParams &p : w.binaryData)
        bdata.push(streamParamsToJson(p));
    j.set("binaryData", std::move(bdata));
    j.set("kernelText", streamParamsToJson(w.kernelText));
    j.set("bsdText", streamParamsToJson(w.bsdText));
    j.set("xText", streamParamsToJson(w.xText));
    j.set("kernelData", streamParamsToJson(w.kernelData));
    j.set("bsdData", streamParamsToJson(w.bsdData));
    j.set("xData", streamParamsToJson(w.xData));
    j.set("dataRefsPer1k", Json::number(w.dataRefsPer1k));
    j.set("storeEvery", Json::number(w.storeEvery));
    j.set("syscallsPer1k", Json::number(w.syscallsPer1k));
    j.set("bsdProb", Json::number(w.bsdProb));
    j.set("xProb", Json::number(w.xProb));
    return j;
}

bool
streamListFromJson(Fields &f, const char *key,
                   std::vector<StreamParams> &out, std::string &err)
{
    const Json *arr = f.get(key);
    if (!arr)
        return false;
    if (!arr->isArray()) {
        f.fail("WorkloadSpec: '%s' is not an array", key);
        return false;
    }
    out.clear();
    for (std::size_t i = 0; i < arr->size(); ++i) {
        StreamParams p;
        if (!streamParamsFromJson(arr->at(i), p, err)) {
            f.fail("WorkloadSpec: %s", err.c_str());
            return false;
        }
        out.push_back(std::move(p));
    }
    return true;
}

bool
workloadFromJson(const Json &j, WorkloadSpec &out, std::string &err)
{
    Fields f(j, "WorkloadSpec", err);
    f.str("name", out.name);
    f.u64("totalInstr", out.totalInstr);
    f.dbl("fracKernel", out.fracKernel);
    f.dbl("fracBsd", out.fracBsd);
    f.dbl("fracX", out.fracX);
    f.dbl("fracUser", out.fracUser);
    f.uns("taskCount", out.taskCount);
    // System forks taskCount user tasks over the binaries: it needs
    // at least one of each.
    if (out.taskCount == 0)
        f.fail("WorkloadSpec: 'taskCount' must be >= 1");
    f.uns("concurrency", out.concurrency);
    streamListFromJson(f, "binaries", out.binaries, err);
    if (out.binaries.empty())
        f.fail("WorkloadSpec: 'binaries' must not be empty");
    streamListFromJson(f, "binaryData", out.binaryData, err);
    auto sub = [&](const char *key, StreamParams &p) {
        if (const Json *v = f.get(key)) {
            if (!streamParamsFromJson(*v, p, err))
                f.fail("WorkloadSpec: %s", err.c_str());
        }
    };
    sub("kernelText", out.kernelText);
    sub("bsdText", out.bsdText);
    sub("xText", out.xText);
    sub("kernelData", out.kernelData);
    sub("bsdData", out.bsdData);
    sub("xData", out.xData);
    f.dbl("dataRefsPer1k", out.dataRefsPer1k);
    f.uns("storeEvery", out.storeEvery);
    // Every storeEvery-th data ref is a store: zero would divide by
    // zero in the engine.
    if (out.storeEvery == 0)
        f.fail("WorkloadSpec: 'storeEvery' must be >= 1");
    f.dbl("syscallsPer1k", out.syscallsPer1k);
    f.dbl("bsdProb", out.bsdProb);
    f.dbl("xProb", out.xProb);
    // System builds a stream from every text, and from every data
    // segment once data refs are on; a stream fatal()s on unusable
    // parameters, so refuse them here.
    auto stream = [&](const char *key, const StreamParams &p) {
        if (std::string why = p.check(); !why.empty())
            f.fail("WorkloadSpec: %s: %s", key, why.c_str());
    };
    stream("kernelText", out.kernelText);
    stream("bsdText", out.bsdText);
    stream("xText", out.xText);
    for (const StreamParams &p : out.binaries)
        stream("binaries", p);
    if (out.dataRefsPer1k > 0.0) {
        stream("kernelData", out.kernelData);
        stream("bsdData", out.bsdData);
        stream("xData", out.xData);
        for (const StreamParams &p : out.binaryData)
            stream("binaryData", p);
    }
    return f.finish();
}

Json
sysToJson(const SystemConfig &s)
{
    Json j = Json::object();
    j.set("physMemBytes", Json::number(s.physMemBytes));
    j.set("allocPolicy", Json::str(allocPolicyName(s.allocPolicy)));
    j.set("reservedFrames", Json::number(s.reservedFrames));
    j.set("cpiBase", Json::number(s.cpiBase));
    j.set("clockInterval", Json::number(s.clockInterval));
    j.set("clockJitter", Json::boolean(s.clockJitter));
    j.set("tickHandlerInstr", Json::number(s.tickHandlerInstr));
    j.set("quantumInstr", Json::number(s.quantumInstr));
    j.set("dmaFlushPeriod", Json::number(s.dmaFlushPeriod));
    j.set("forkKernelInstr", Json::number(s.forkKernelInstr));
    j.set("faultKernelCycles", Json::number(s.faultKernelCycles));
    j.set("maskedSyscallPrefix", Json::number(s.maskedSyscallPrefix));
    j.set("trialSeed", Json::number(s.trialSeed));
    Json scope = Json::object();
    scope.set("user", Json::boolean(s.scope.user));
    scope.set("servers", Json::boolean(s.scope.servers));
    scope.set("kernel", Json::boolean(s.scope.kernel));
    j.set("scope", std::move(scope));
    return j;
}

bool
sysFromJson(const Json &j, SystemConfig &out, std::string &err)
{
    Fields f(j, "SystemConfig", err);
    f.u64("physMemBytes", out.physMemBytes);
    f.enm("allocPolicy", out.allocPolicy, allocPolicyFromName);
    f.u64("reservedFrames", out.reservedFrames);
    f.uns("cpiBase", out.cpiBase);
    f.u64("clockInterval", out.clockInterval);
    // The clock device needs a nonzero interrupt interval.
    if (out.clockInterval == 0)
        f.fail("SystemConfig: 'clockInterval' must be >= 1");
    f.bln("clockJitter", out.clockJitter);
    f.u64("tickHandlerInstr", out.tickHandlerInstr);
    f.u64("quantumInstr", out.quantumInstr);
    // A zero quantum runs no instruction, so the run never ends.
    if (out.quantumInstr == 0)
        f.fail("SystemConfig: 'quantumInstr' must be >= 1");
    f.uns("dmaFlushPeriod", out.dmaFlushPeriod);
    f.u64("forkKernelInstr", out.forkKernelInstr);
    f.u64("faultKernelCycles", out.faultKernelCycles);
    f.u64("maskedSyscallPrefix", out.maskedSyscallPrefix);
    f.u64("trialSeed", out.trialSeed);
    if (const Json *scope = f.get("scope")) {
        Fields sf(*scope, "SimScope", err);
        sf.bln("user", out.scope.user);
        sf.bln("servers", out.scope.servers);
        sf.bln("kernel", out.scope.kernel);
        if (!sf.finish())
            f.fail("SystemConfig: %s", err.c_str());
    }
    return f.finish();
}

Json
cacheCfgToJson(const CacheConfig &c)
{
    Json j = Json::object();
    j.set("name", Json::str(c.name));
    j.set("sizeBytes", Json::number(c.sizeBytes));
    j.set("lineBytes", Json::number(c.lineBytes));
    j.set("assoc", Json::number(c.assoc));
    j.set("indexing", Json::str(indexingName(c.indexing)));
    j.set("tagIncludesTask", Json::boolean(c.tagIncludesTask));
    j.set("policy", Json::str(replPolicyName(c.policy)));
    j.set("seed", Json::number(c.seed));
    return j;
}

bool
cacheCfgFromJson(const Json &j, CacheConfig &out, std::string &err)
{
    Fields f(j, "CacheConfig", err);
    f.str("name", out.name);
    f.u64("sizeBytes", out.sizeBytes);
    f.u32("lineBytes", out.lineBytes);
    f.u32("assoc", out.assoc);
    f.enm("indexing", out.indexing, indexingFromName);
    f.bln("tagIncludesTask", out.tagIncludesTask);
    f.enm("policy", out.policy, replPolicyFromName);
    f.u64("seed", out.seed);
    // Every cache and TLB fatal()s on an unusable geometry.
    if (f.ok())
        if (std::string why = out.check(); !why.empty())
            f.fail("CacheConfig: %s", why.c_str());
    return f.finish();
}

Json
costToJson(const TrapCostModel &c)
{
    Json j = Json::object();
    j.set("kernelTrapReturn", Json::number(c.kernelTrapReturn));
    j.set("twCacheMiss", Json::number(c.twCacheMiss));
    j.set("twReplaceBase", Json::number(c.twReplaceBase));
    j.set("twReplacePerWay", Json::number(c.twReplacePerWay));
    j.set("twSetTrapBase", Json::number(c.twSetTrapBase));
    j.set("twSetTrapPerGranule", Json::number(c.twSetTrapPerGranule));
    j.set("twClearTrapBase", Json::number(c.twClearTrapBase));
    j.set("twClearTrapPerGranule",
          Json::number(c.twClearTrapPerGranule));
    j.set("cyclesPerInstr", Json::number(c.cyclesPerInstr));
    j.set("tlbMissCycles", Json::number(c.tlbMissCycles));
    return j;
}

bool
costFromJson(const Json &j, TrapCostModel &out, std::string &err)
{
    Fields f(j, "TrapCostModel", err);
    f.uns("kernelTrapReturn", out.kernelTrapReturn);
    f.uns("twCacheMiss", out.twCacheMiss);
    f.uns("twReplaceBase", out.twReplaceBase);
    f.uns("twReplacePerWay", out.twReplacePerWay);
    f.uns("twSetTrapBase", out.twSetTrapBase);
    f.uns("twSetTrapPerGranule", out.twSetTrapPerGranule);
    f.uns("twClearTrapBase", out.twClearTrapBase);
    f.uns("twClearTrapPerGranule", out.twClearTrapPerGranule);
    f.dbl("cyclesPerInstr", out.cyclesPerInstr);
    f.u64("tlbMissCycles", out.tlbMissCycles);
    return f.finish();
}

Json
dramParamsToJson(const DramTimingParams &p)
{
    Json j = Json::object();
    j.set("channels", Json::number(p.channels));
    j.set("ranks", Json::number(p.ranksPerChannel));
    j.set("banks", Json::number(p.banksPerRank));
    j.set("rowBytes", Json::number(p.rowBytes));
    j.set("tRCD", Json::number(p.tRCD));
    j.set("tRP", Json::number(p.tRP));
    j.set("tCAS", Json::number(p.tCAS));
    j.set("tRAS", Json::number(p.tRAS));
    j.set("tRFC", Json::number(p.tRFC));
    j.set("tREFI", Json::number(p.tREFI));
    j.set("burst", Json::number(p.burstCycles));
    j.set("walkReads", Json::number(p.walkReads));
    return j;
}

bool
dramParamsFromJson(const Json &j, DramTimingParams &out,
                   std::string &err)
{
    Fields f(j, "DramTimingParams", err);
    f.uns("channels", out.channels);
    f.uns("ranks", out.ranksPerChannel);
    f.uns("banks", out.banksPerRank);
    f.uns("rowBytes", out.rowBytes);
    f.uns("tRCD", out.tRCD);
    f.uns("tRP", out.tRP);
    f.uns("tCAS", out.tCAS);
    f.uns("tRAS", out.tRAS);
    f.uns("tRFC", out.tRFC);
    f.u64("tREFI", out.tREFI);
    f.uns("burst", out.burstCycles);
    f.uns("walkReads", out.walkReads);
    return f.finish();
}

// Emitted only when non-default (like "sample"): a spec on the
// table5 backend keeps every byte — and therefore every cache key
// and shard fingerprint — of the pre-backend schema.
Json
costBackendToJson(const CostBackendConfig &c)
{
    Json j = Json::object();
    j.set("v", Json::number(1u));
    j.set("backend", Json::str(costBackendKindName(c.kind)));
    if (c.kind == CostBackendKind::Dram)
        j.set("dram", dramParamsToJson(c.dram));
    return j;
}

bool
costBackendFromJson(const Json &j, CostBackendConfig &out,
                    std::string &err)
{
    Fields f(j, "CostBackendConfig", err);
    std::uint64_t version = 0;
    f.u64("v", version);
    if (f.ok() && version != 1) {
        f.fail("CostBackendConfig: unsupported version %llu",
               static_cast<unsigned long long>(version));
    }
    f.enm("backend", out.kind, costBackendKindFromName);
    if (f.ok() && out.kind == CostBackendKind::Dram) {
        if (const Json *d = f.get("dram")) {
            if (!dramParamsFromJson(*d, out.dram, err))
                f.fail("CostBackendConfig: %s", err.c_str());
        }
    }
    return f.finish();
}

/**
 * Why @p num/@p denom of @p cache's sets cannot be sampled — what
 * chooseSampledSets and chooseConstantBitSets assert on — or "" if
 * it can. A fraction of 1 samples nothing away and is never checked
 * further.
 */
std::string
sampleFractionError(unsigned num, unsigned denom, bool constant_bits,
                    const CacheConfig &cache)
{
    if (num == 0 || num > denom)
        return csprintf("sampleNum %u is outside 1..sampleDenom (%u)",
                        num, denom);
    if (!constant_bits || num == denom)
        return {};
    if (num != 1)
        return csprintf("constant-bits sampling takes sampleNum 1, "
                        "got %u", num);
    if ((denom & (denom - 1)) != 0)
        return csprintf("constant-bits sampleDenom %u is not a power "
                        "of two", denom);
    if (cache.numSets() % denom != 0)
        return csprintf("constant-bits sampleDenom %u does not divide "
                        "the cache's %llu sets", denom,
                        static_cast<unsigned long long>(cache.numSets()));
    return {};
}

Json
twCfgToJson(const TapewormConfig &t)
{
    Json j = Json::object();
    j.set("cache", cacheCfgToJson(t.cache));
    j.set("kind", Json::str(simCacheKindName(t.kind)));
    j.set("hostWrite", Json::str(hostWriteName(t.hostWrite)));
    j.set("sampleNum", Json::number(t.sampleNum));
    j.set("sampleDenom", Json::number(t.sampleDenom));
    j.set("sampleSeed", Json::number(t.sampleSeed));
    j.set("sampleMode", Json::str(sampleModeName(t.sampleMode)));
    j.set("compensateMasked", Json::boolean(t.compensateMasked));
    j.set("chargeCost", Json::boolean(t.chargeCost));
    j.set("cost", costToJson(t.cost));
    if (!t.costBackend.isDefault())
        j.set("costBackend", costBackendToJson(t.costBackend));
    return j;
}

bool
twCfgFromJson(const Json &j, TapewormConfig &out, std::string &err)
{
    Fields f(j, "TapewormConfig", err);
    if (const Json *c = f.get("cache")) {
        if (!cacheCfgFromJson(*c, out.cache, err))
            f.fail("TapewormConfig: %s", err.c_str());
    }
    f.enm("kind", out.kind, simCacheKindFromName);
    f.enm("hostWrite", out.hostWrite, hostWriteFromName);
    f.uns("sampleNum", out.sampleNum);
    f.uns("sampleDenom", out.sampleDenom);
    f.u64("sampleSeed", out.sampleSeed);
    f.enm("sampleMode", out.sampleMode, sampleModeFromName);
    f.bln("compensateMasked", out.compensateMasked);
    f.bln("chargeCost", out.chargeCost);
    if (const Json *c = f.get("cost")) {
        if (!costFromJson(*c, out.cost, err))
            f.fail("TapewormConfig: %s", err.c_str());
    }
    if (const Json *c = f.maybe("costBackend")) {
        if (!costBackendFromJson(*c, out.costBackend, err))
            f.fail("TapewormConfig: %s", err.c_str());
    } else {
        out.costBackend = CostBackendConfig{};
    }
    if (f.ok())
        if (std::string why = sampleFractionError(
                out.sampleNum, out.sampleDenom,
                out.sampleMode == SampleMode::ConstantBits, out.cache);
            !why.empty())
            f.fail("TapewormConfig: %s", why.c_str());
    // A trap covers whole granules, and a cache-mode line lies within
    // one page: the Tapeworm constructor asserts on both bounds.
    if (f.ok()
        && (out.cache.lineBytes < kTrapGranuleBytes
            || out.cache.lineBytes > kHostPageBytes))
        f.fail("TapewormConfig: cache.lineBytes %u is outside %u..%u "
               "(the trap granule to the host page)",
               out.cache.lineBytes, kTrapGranuleBytes, kHostPageBytes);
    return f.finish();
}

Json
tlbCfgToJson(const TapewormTlbConfig &t)
{
    Json j = Json::object();
    j.set("tlb", cacheCfgToJson(t.tlb));
    j.set("chargeCost", Json::boolean(t.chargeCost));
    j.set("compensateMasked", Json::boolean(t.compensateMasked));
    j.set("cost", costToJson(t.cost));
    j.set("filterFrames", Json::number(t.filterFrames));
    if (!t.costBackend.isDefault())
        j.set("costBackend", costBackendToJson(t.costBackend));
    return j;
}

bool
tlbCfgFromJson(const Json &j, TapewormTlbConfig &out,
               std::string &err)
{
    Fields f(j, "TapewormTlbConfig", err);
    if (const Json *c = f.get("tlb")) {
        if (!cacheCfgFromJson(*c, out.tlb, err))
            f.fail("TapewormTlbConfig: %s", err.c_str());
    }
    f.bln("chargeCost", out.chargeCost);
    f.bln("compensateMasked", out.compensateMasked);
    if (const Json *c = f.get("cost")) {
        if (!costFromJson(*c, out.cost, err))
            f.fail("TapewormTlbConfig: %s", err.c_str());
    }
    f.u64("filterFrames", out.filterFrames);
    if (const Json *c = f.maybe("costBackend")) {
        if (!costBackendFromJson(*c, out.costBackend, err))
            f.fail("TapewormTlbConfig: %s", err.c_str());
    } else {
        out.costBackend = CostBackendConfig{};
    }
    return f.finish();
}

Json
c2kCfgToJson(const Cache2000Config &c)
{
    Json j = Json::object();
    j.set("cache", cacheCfgToJson(c.cache));
    j.set("hitCycles", Json::number(c.hitCycles));
    j.set("missExtraCycles", Json::number(c.missExtraCycles));
    j.set("sampleNum", Json::number(c.sampleNum));
    j.set("sampleDenom", Json::number(c.sampleDenom));
    j.set("sampleSeed", Json::number(c.sampleSeed));
    j.set("filterCycles", Json::number(c.filterCycles));
    return j;
}

bool
c2kCfgFromJson(const Json &j, Cache2000Config &out, std::string &err)
{
    Fields f(j, "Cache2000Config", err);
    if (const Json *c = f.get("cache")) {
        if (!cacheCfgFromJson(*c, out.cache, err))
            f.fail("Cache2000Config: %s", err.c_str());
    }
    f.u64("hitCycles", out.hitCycles);
    f.u64("missExtraCycles", out.missExtraCycles);
    f.uns("sampleNum", out.sampleNum);
    f.uns("sampleDenom", out.sampleDenom);
    f.u64("sampleSeed", out.sampleSeed);
    f.u64("filterCycles", out.filterCycles);
    if (f.ok())
        if (std::string why = sampleFractionError(
                out.sampleNum, out.sampleDenom, false, out.cache);
            !why.empty())
            f.fail("Cache2000Config: %s", why.c_str());
    return f.finish();
}

Json
sampleCfgToJson(const SampleConfig &s)
{
    Json j = Json::object();
    j.set("enabled", Json::boolean(s.enabled));
    j.set("intervalRefs", Json::number(s.intervalRefs));
    j.set("warmupRefs", Json::number(s.warmupRefs));
    j.set("clusters", Json::number(s.clusters));
    j.set("perCluster", Json::number(s.perCluster));
    j.set("seed", Json::number(s.seed));
    j.set("ciRelFloor", Json::number(s.ciRelFloor));
    return j;
}

bool
sampleCfgFromJson(const Json &j, SampleConfig &out, std::string &err)
{
    Fields f(j, "SampleConfig", err);
    f.bln("enabled", out.enabled);
    f.u64("intervalRefs", out.intervalRefs);
    f.u64("warmupRefs", out.warmupRefs);
    f.uns("clusters", out.clusters);
    f.uns("perCluster", out.perCluster);
    f.u64("seed", out.seed);
    f.dbl("ciRelFloor", out.ciRelFloor);
    return f.finish();
}

} // anonymous namespace

const char *
simKindName(SimKind k)
{
    switch (k) {
      case SimKind::None:
        return "none";
      case SimKind::Tapeworm:
        return "tapeworm";
      case SimKind::TapewormTlbSim:
        return "tlb";
      case SimKind::TraceDriven:
        return "trace";
      case SimKind::Oracle:
        return "oracle";
    }
    return "?";
}

bool
simKindFromName(const std::string &name, SimKind &out)
{
    if (name == "none")
        out = SimKind::None;
    else if (name == "tapeworm")
        out = SimKind::Tapeworm;
    else if (name == "tlb")
        out = SimKind::TapewormTlbSim;
    else if (name == "trace")
        out = SimKind::TraceDriven;
    else if (name == "oracle")
        out = SimKind::Oracle;
    else
        return false;
    return true;
}

Json
specToJson(const RunSpec &spec)
{
    Json j = Json::object();
    j.set("v", Json::number(1u));
    j.set("workload", workloadToJson(spec.workload));
    j.set("sys", sysToJson(spec.sys));
    j.set("sim", Json::str(simKindName(spec.sim)));
    j.set("tw", twCfgToJson(spec.tw));
    j.set("tlb", tlbCfgToJson(spec.tlb));
    j.set("c2k", c2kCfgToJson(spec.c2k));
    Json pixie = Json::object();
    pixie.set("genCycles", Json::number(spec.pixie.genCycles));
    j.set("pixie", std::move(pixie));
    j.set("traceTarget", Json::number(
        static_cast<std::int64_t>(spec.traceTarget)));
    // Emitted only when enabled: a spec with sampling off keeps
    // every byte (and therefore every cache key) of the
    // pre-sampling schema.
    if (spec.sample.enabled)
        j.set("sample", sampleCfgToJson(spec.sample));
    return j;
}

std::string
formatRunSpec(const RunSpec &spec)
{
    return specToJson(spec).dump();
}

bool
specFromJson(const Json &j, RunSpec &out, std::string &err)
{
    Fields f(j, "RunSpec", err);
    std::uint64_t version = 0;
    f.u64("v", version);
    if (f.ok() && version != 1) {
        f.fail("RunSpec: unsupported version %llu",
               static_cast<unsigned long long>(version));
    }
    if (const Json *w = f.get("workload")) {
        if (!workloadFromJson(*w, out.workload, err))
            f.fail("RunSpec: %s", err.c_str());
    }
    if (const Json *s = f.get("sys")) {
        if (!sysFromJson(*s, out.sys, err))
            f.fail("RunSpec: %s", err.c_str());
    }
    f.enm("sim", out.sim, simKindFromName);
    if (const Json *t = f.get("tw")) {
        if (!twCfgFromJson(*t, out.tw, err))
            f.fail("RunSpec: %s", err.c_str());
    }
    if (const Json *t = f.get("tlb")) {
        if (!tlbCfgFromJson(*t, out.tlb, err))
            f.fail("RunSpec: %s", err.c_str());
    }
    if (const Json *c = f.get("c2k")) {
        if (!c2kCfgFromJson(*c, out.c2k, err))
            f.fail("RunSpec: %s", err.c_str());
    }
    if (const Json *p = f.get("pixie")) {
        Fields pf(*p, "PixieConfig", err);
        pf.u64("genCycles", out.pixie.genCycles);
        if (!pf.finish())
            f.fail("RunSpec: %s", err.c_str());
    }
    f.i32("traceTarget", out.traceTarget);
    if (const Json *s = f.maybe("sample")) {
        if (!sampleCfgFromJson(*s, out.sample, err))
            f.fail("RunSpec: %s", err.c_str());
    } else {
        out.sample = SampleConfig{};
    }
    return f.finish();
}

bool
parseRunSpec(const std::string &text, RunSpec &out, std::string &err)
{
    Json j;
    if (!Json::parse(text, j, &err))
        return false;
    return specFromJson(j, out, err);
}

Json
outcomeToJson(const RunOutcome &o)
{
    Json j = Json::object();
    Json run = Json::object();
    run.set("cycles", Json::number(o.run.cycles));
    Json instr = Json::array();
    for (Counter c : o.run.instr)
        instr.push(Json::number(c));
    run.set("instr", std::move(instr));
    run.set("ticks", Json::number(o.run.ticks));
    run.set("dataRefs", Json::number(o.run.dataRefs));
    run.set("syscalls", Json::number(o.run.syscalls));
    run.set("forks", Json::number(o.run.forks));
    run.set("faults", Json::number(o.run.faults));
    run.set("dmaFlushes", Json::number(o.run.dmaFlushes));
    run.set("tasksCreated", Json::number(o.run.tasksCreated));
    j.set("run", std::move(run));
    j.set("rawMisses", Json::number(o.rawMisses));
    j.set("estMisses", Json::number(o.estMisses));
    Json comp = Json::array();
    for (double m : o.missesByComp)
        comp.push(Json::number(m));
    j.set("missesByComp", std::move(comp));
    j.set("maskedTrapRefs", Json::number(o.maskedTrapRefs));
    j.set("lostMaskedMisses", Json::number(o.lostMaskedMisses));
    // hostSeconds deliberately absent: see specio.hh.
    j.set("slowdown", Json::number(o.slowdown));
    j.set("normalCycles", Json::number(o.normalCycles));
    if (o.sample.used) {
        Json s = Json::object();
        s.set("intervalsTotal", Json::number(o.sample.intervalsTotal));
        s.set("intervalsSimulated",
              Json::number(o.sample.intervalsSimulated));
        s.set("refsSimulated", Json::number(o.sample.refsSimulated));
        s.set("refsTotal", Json::number(o.sample.refsTotal));
        s.set("ciHalfWidth", Json::number(o.sample.ciHalfWidth));
        j.set("sample", std::move(s));
    }
    return j;
}

std::string
formatRunOutcome(const RunOutcome &o)
{
    return outcomeToJson(o).dump();
}

bool
outcomeFromJson(const Json &j, RunOutcome &out, std::string &err)
{
    Fields f(j, "RunOutcome", err);
    if (const Json *run = f.get("run")) {
        Fields rf(*run, "RunResult", err);
        rf.u64("cycles", out.run.cycles);
        if (const Json *instr = rf.get("instr")) {
            if (!instr->isArray()
                || instr->size() != out.run.instr.size()) {
                rf.fail("RunResult: 'instr' must be an array of %zu",
                        out.run.instr.size());
            } else {
                for (std::size_t i = 0; i < out.run.instr.size(); ++i)
                    out.run.instr[i] = instr->at(i).asU64();
            }
        }
        rf.u64("ticks", out.run.ticks);
        rf.u64("dataRefs", out.run.dataRefs);
        rf.u64("syscalls", out.run.syscalls);
        rf.u64("forks", out.run.forks);
        rf.u64("faults", out.run.faults);
        rf.u64("dmaFlushes", out.run.dmaFlushes);
        rf.uns("tasksCreated", out.run.tasksCreated);
        if (!rf.finish())
            f.fail("RunOutcome: %s", err.c_str());
    }
    f.dbl("rawMisses", out.rawMisses);
    f.dbl("estMisses", out.estMisses);
    if (const Json *comp = f.get("missesByComp")) {
        if (!comp->isArray()
            || comp->size() != out.missesByComp.size()) {
            f.fail("RunOutcome: 'missesByComp' must be an array of "
                   "%zu",
                   out.missesByComp.size());
        } else {
            for (std::size_t i = 0; i < out.missesByComp.size(); ++i)
                out.missesByComp[i] = comp->at(i).asDouble();
        }
    }
    f.u64("maskedTrapRefs", out.maskedTrapRefs);
    f.u64("lostMaskedMisses", out.lostMaskedMisses);
    f.dbl("slowdown", out.slowdown);
    f.u64("normalCycles", out.normalCycles);
    if (const Json *s = f.maybe("sample")) {
        Fields sf(*s, "SampleOutcome", err);
        out.sample.used = true;
        sf.u64("intervalsTotal", out.sample.intervalsTotal);
        sf.u64("intervalsSimulated", out.sample.intervalsSimulated);
        sf.u64("refsSimulated", out.sample.refsSimulated);
        sf.u64("refsTotal", out.sample.refsTotal);
        sf.dbl("ciHalfWidth", out.sample.ciHalfWidth);
        if (!sf.finish())
            f.fail("RunOutcome: %s", err.c_str());
    } else {
        out.sample = SampleOutcome{};
    }
    out.hostSeconds = 0.0;
    return f.finish();
}

bool
parseRunOutcome(const std::string &text, RunOutcome &out,
                std::string &err)
{
    Json j;
    if (!Json::parse(text, j, &err))
        return false;
    return outcomeFromJson(j, out, err);
}

std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t state)
{
    for (unsigned char c : bytes) {
        state ^= c;
        state *= 0x100000001b3ull;
    }
    return state;
}

SpecKey::SpecKey(const RunSpec &spec)
{
    // Runner::runOne overwrites sys.trialSeed with the per-trial
    // seed, so normalize it out of the key (see specio.hh).
    if (spec.sys.trialSeed == 0) {
        text_ = formatRunSpec(spec);
    } else {
        RunSpec normal = spec;
        normal.sys.trialSeed = 0;
        text_ = formatRunSpec(normal);
    }
    state_ = fnv1a64(text_);
}

namespace
{

/** What one trial adds to its spec's text: '#' seed '#' flag. */
std::string
keySuffix(std::uint64_t trial_seed, bool with_slowdown)
{
    return '#' + std::to_string(trial_seed) + '#'
           + (with_slowdown ? '1' : '0');
}

} // anonymous namespace

std::string
SpecKey::key(std::uint64_t trial_seed, bool with_slowdown) const
{
    return text_ + keySuffix(trial_seed, with_slowdown);
}

std::uint64_t
SpecKey::fingerprint(std::uint64_t trial_seed, bool with_slowdown) const
{
    return fnv1a64(keySuffix(trial_seed, with_slowdown), state_);
}

std::string
cacheKey(const RunSpec &spec, std::uint64_t trial_seed,
         bool with_slowdown)
{
    return SpecKey(spec).key(trial_seed, with_slowdown);
}

std::uint64_t
specFingerprint(const RunSpec &spec, std::uint64_t trial_seed,
                bool with_slowdown)
{
    return SpecKey(spec).fingerprint(trial_seed, with_slowdown);
}

} // namespace tw
