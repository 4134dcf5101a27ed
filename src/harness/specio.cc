#include "harness/specio.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/numparse.hh"

namespace tw
{

namespace
{

// ---------------------------------------------------------------
// Enum name tables. The member lists reuse the library's *Name()
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
// The canonical format, stated once. members(v, T&) lists T's
// members in canonical order; the Writer walks the list to build the
// insertion-ordered Json that dump() renders, and the Reader walks
// the same list to fill a T from one, strictly. A list opens with
// v.object(name), the struct's name in the reader's messages, and
// each entry is one of
//
//   v(key, member)                    a number, bool, string, array
//                                     or nested struct
//   v(key, member, toName, fromName)  an enum, by name
//   v.optional(key, member, written)  a block written only when
//                                     `written`, and reset to its
//                                     default when absent
//   v.version()                       the "v":1 tag
//
// A member whose condition the list has already read is a plain if.
// The lists take the struct by mutable reference so that one list
// serves both directions; the Writer only reads through it.
// ---------------------------------------------------------------

constexpr char kVersionKey[] = "v";

template <typename V>
void
members(V &v, LoopLevel &l)
{
    v.object("LoopLevel");
    v("spanBytes", l.spanBytes);
    v("meanReps", l.meanReps);
}

template <typename V>
void
members(V &v, StreamParams &p)
{
    v.object("StreamParams");
    v("base", p.base);
    v("textBytes", p.textBytes);
    v("ladder", p.ladder);
    v("excursionProb", p.excursionProb);
    v("excursionWords", p.excursionWords);
    v("seed", p.seed);
}

template <typename V>
void
members(V &v, WorkloadSpec &w)
{
    v.object("WorkloadSpec");
    v("name", w.name);
    v("totalInstr", w.totalInstr);
    v("fracKernel", w.fracKernel);
    v("fracBsd", w.fracBsd);
    v("fracX", w.fracX);
    v("fracUser", w.fracUser);
    v("taskCount", w.taskCount);
    v("concurrency", w.concurrency);
    v("binaries", w.binaries);
    v("binaryData", w.binaryData);
    v("kernelText", w.kernelText);
    v("bsdText", w.bsdText);
    v("xText", w.xText);
    v("kernelData", w.kernelData);
    v("bsdData", w.bsdData);
    v("xData", w.xData);
    v("dataRefsPer1k", w.dataRefsPer1k);
    v("storeEvery", w.storeEvery);
    v("syscallsPer1k", w.syscallsPer1k);
    v("bsdProb", w.bsdProb);
    v("xProb", w.xProb);
}

template <typename V>
void
members(V &v, SimScope &s)
{
    v.object("SimScope");
    v("user", s.user);
    v("servers", s.servers);
    v("kernel", s.kernel);
}

template <typename V>
void
members(V &v, SystemConfig &s)
{
    v.object("SystemConfig");
    v("physMemBytes", s.physMemBytes);
    v("allocPolicy", s.allocPolicy, allocPolicyName,
      allocPolicyFromName);
    v("reservedFrames", s.reservedFrames);
    v("cpiBase", s.cpiBase);
    v("clockInterval", s.clockInterval);
    v("clockJitter", s.clockJitter);
    v("tickHandlerInstr", s.tickHandlerInstr);
    v("quantumInstr", s.quantumInstr);
    v("dmaFlushPeriod", s.dmaFlushPeriod);
    v("forkKernelInstr", s.forkKernelInstr);
    v("faultKernelCycles", s.faultKernelCycles);
    v("maskedSyscallPrefix", s.maskedSyscallPrefix);
    v("trialSeed", s.trialSeed);
    v("scope", s.scope);
}

template <typename V>
void
members(V &v, CacheConfig &c)
{
    v.object("CacheConfig");
    v("name", c.name);
    v("sizeBytes", c.sizeBytes);
    v("lineBytes", c.lineBytes);
    v("assoc", c.assoc);
    v("indexing", c.indexing, indexingName, indexingFromName);
    v("tagIncludesTask", c.tagIncludesTask);
    v("policy", c.policy, replPolicyName, replPolicyFromName);
    v("seed", c.seed);
}

template <typename V>
void
members(V &v, TrapCostModel &c)
{
    v.object("TrapCostModel");
    v("kernelTrapReturn", c.kernelTrapReturn);
    v("twCacheMiss", c.twCacheMiss);
    v("twReplaceBase", c.twReplaceBase);
    v("twReplacePerWay", c.twReplacePerWay);
    v("twSetTrapBase", c.twSetTrapBase);
    v("twSetTrapPerGranule", c.twSetTrapPerGranule);
    v("twClearTrapBase", c.twClearTrapBase);
    v("twClearTrapPerGranule", c.twClearTrapPerGranule);
    v("cyclesPerInstr", c.cyclesPerInstr);
    v("tlbMissCycles", c.tlbMissCycles);
}

// The --cost-backend dram:k=v form reads and writes these keys too.
template <typename V>
void
members(V &v, DramTimingParams &p)
{
    v.object("DramTimingParams");
    v("channels", p.channels);
    v("ranks", p.ranksPerChannel);
    v("banks", p.banksPerRank);
    v("rowBytes", p.rowBytes);
    v("tRCD", p.tRCD);
    v("tRP", p.tRP);
    v("tCAS", p.tCAS);
    v("tRAS", p.tRAS);
    v("tRFC", p.tRFC);
    v("tREFI", p.tREFI);
    v("burst", p.burstCycles);
    v("walkReads", p.walkReads);
}

template <typename V>
void
members(V &v, CostBackendConfig &c)
{
    v.object("CostBackendConfig");
    v.version();
    v("backend", c.kind, costBackendKindName,
      costBackendKindFromName);
    if (c.kind == CostBackendKind::Dram)
        v("dram", c.dram);
}

template <typename V>
void
members(V &v, TapewormConfig &t)
{
    v.object("TapewormConfig");
    v("cache", t.cache);
    v("kind", t.kind, simCacheKindName, simCacheKindFromName);
    v("hostWrite", t.hostWrite, hostWriteName, hostWriteFromName);
    v("sampleNum", t.sampleNum);
    v("sampleDenom", t.sampleDenom);
    v("sampleSeed", t.sampleSeed);
    v("sampleMode", t.sampleMode, sampleModeName,
      sampleModeFromName);
    v("compensateMasked", t.compensateMasked);
    v("chargeCost", t.chargeCost);
    v("cost", t.cost);
    // Written only off table5 (like "sample"): a table5 spec keeps
    // every byte — and therefore every cache key and shard
    // fingerprint — of the pre-backend schema.
    v.optional("costBackend", t.costBackend,
               !t.costBackend.isDefault());
}

template <typename V>
void
members(V &v, TapewormTlbConfig &t)
{
    v.object("TapewormTlbConfig");
    v("tlb", t.tlb);
    v("chargeCost", t.chargeCost);
    v("compensateMasked", t.compensateMasked);
    v("cost", t.cost);
    v("filterFrames", t.filterFrames);
    v.optional("costBackend", t.costBackend,
               !t.costBackend.isDefault());
}

template <typename V>
void
members(V &v, Cache2000Config &c)
{
    v.object("Cache2000Config");
    v("cache", c.cache);
    v("hitCycles", c.hitCycles);
    v("missExtraCycles", c.missExtraCycles);
    v("sampleNum", c.sampleNum);
    v("sampleDenom", c.sampleDenom);
    v("sampleSeed", c.sampleSeed);
    v("filterCycles", c.filterCycles);
}

template <typename V>
void
members(V &v, PixieConfig &p)
{
    v.object("PixieConfig");
    v("genCycles", p.genCycles);
}

template <typename V>
void
members(V &v, SampleConfig &s)
{
    v.object("SampleConfig");
    v("enabled", s.enabled);
    v("intervalRefs", s.intervalRefs);
    v("warmupRefs", s.warmupRefs);
    v("clusters", s.clusters);
    v("perCluster", s.perCluster);
    v("seed", s.seed);
    v("ciRelFloor", s.ciRelFloor);
}

template <typename V>
void
members(V &v, RunSpec &s)
{
    v.object("RunSpec");
    v.version();
    v("workload", s.workload);
    v("sys", s.sys);
    v("sim", s.sim, simKindName, simKindFromName);
    v("tw", s.tw);
    v("tlb", s.tlb);
    v("c2k", s.c2k);
    v("pixie", s.pixie);
    v("traceTarget", s.traceTarget);
    // Written only when enabled: a spec with sampling off keeps
    // every byte (and therefore every cache key) of the
    // pre-sampling schema.
    v.optional("sample", s.sample, s.sample.enabled);
}

template <typename V>
void
members(V &v, RunResult &r)
{
    v.object("RunResult");
    v("cycles", r.cycles);
    v("instr", r.instr);
    v("ticks", r.ticks);
    v("dataRefs", r.dataRefs);
    v("syscalls", r.syscalls);
    v("forks", r.forks);
    v("faults", r.faults);
    v("dmaFlushes", r.dmaFlushes);
    v("tasksCreated", r.tasksCreated);
}

template <typename V>
void
members(V &v, SampleOutcome &s)
{
    v.object("SampleOutcome");
    v("intervalsTotal", s.intervalsTotal);
    v("intervalsSimulated", s.intervalsSimulated);
    v("refsSimulated", s.refsSimulated);
    v("refsTotal", s.refsTotal);
    v("ciHalfWidth", s.ciHalfWidth);
}

template <typename V>
void
members(V &v, RunOutcome &o)
{
    v.object("RunOutcome");
    v("run", o.run);
    v("rawMisses", o.rawMisses);
    v("estMisses", o.estMisses);
    v("missesByComp", o.missesByComp);
    v("maskedTrapRefs", o.maskedTrapRefs);
    v("lostMaskedMisses", o.lostMaskedMisses);
    // hostSeconds deliberately absent: see specio.hh.
    v("slowdown", o.slowdown);
    v("normalCycles", o.normalCycles);
    // Present exactly when the estimate came from sampling.
    v.optional("sample", o.sample, o.sample.used);
}

// ---------------------------------------------------------------
// What the Reader does once a struct's members are read: it says
// why the engine could not run the struct ("" when it can; the
// parse then fails with "<struct>: <why>"), and fills in what the
// text implies without carrying it.
// ---------------------------------------------------------------

template <typename T>
std::string
afterRead(T &)
{
    return {};
}

/**
 * Walks a WorkloadSpec's member list for the streams System builds:
 * one from every text, and from every data segment once data refs
 * are on. A stream fatal()s on unusable parameters, so the key and
 * reason of the first unusable one land in why.
 */
class StreamCheck
{
  public:
    explicit StreamCheck(const WorkloadSpec &w) : w_(w) {}

    std::string why;

    void
    operator()(const char *key, const StreamParams &p)
    {
        bool data = &p == &w_.kernelData || &p == &w_.bsdData
                    || &p == &w_.xData;
        if (!why.empty() || (data && w_.dataRefsPer1k <= 0.0))
            return;
        if (std::string s = p.check(); !s.empty())
            why = csprintf("%s: %s", key, s.c_str());
    }

    void
    operator()(const char *key, const std::vector<StreamParams> &ps)
    {
        if (&ps == &w_.binaryData && w_.dataRefsPer1k <= 0.0)
            return;
        for (const StreamParams &p : ps)
            (*this)(key, p);
    }

    /** Every other member builds no stream. */
    template <typename... Rest>
    void
    operator()(const char *, const Rest &...)
    {
    }

    void object(const char *) {}

  private:
    const WorkloadSpec &w_;
};

/**
 * Why a task cannot hold the text @p t (member @p tk, or element
 * @p i of it when @p i >= 0) and the data segment @p d (@p dk) in
 * one address-space window, "" when it can: Task asserts that the
 * data starts at or past the text's end.
 */
std::string
windowError(const char *tk, const StreamParams &t, const char *dk,
            const StreamParams &d, long i = -1)
{
    auto key = [i](const char *k) {
        return i < 0 ? std::string(k) : csprintf("%s[%ld]", k, i);
    };
    const std::uint64_t top = ~std::uint64_t{0};
    if (t.textBytes > top - t.base || d.textBytes > top - d.base)
        return csprintf("'%s' ends past the last address",
                        key(t.textBytes > top - t.base ? tk : dk).c_str());
    if (d.base < t.base + t.textBytes)
        return csprintf("'%s' base %llu lies below the end of '%s' "
                        "(%llu)", key(dk).c_str(),
                        static_cast<unsigned long long>(d.base),
                        key(tk).c_str(),
                        static_cast<unsigned long long>(t.base
                                                        + t.textBytes));
    return {};
}

std::string
afterRead(WorkloadSpec &w)
{
    // System forks taskCount user tasks over the binaries: it needs
    // at least one of each.
    if (w.taskCount == 0)
        return "'taskCount' must be >= 1";
    if (w.binaries.empty())
        return "'binaries' must not be empty";
    // Every storeEvery-th data ref is a store: zero would divide by
    // zero in the engine.
    if (w.storeEvery == 0)
        return "'storeEvery' must be >= 1";
    StreamCheck streams(w);
    members(streams, w);
    std::string why = streams.why;
    if (w.dataRefsPer1k <= 0.0)
        return why;
    // Each data segment System builds a stream from, beside its text.
    for (std::size_t i = 0; why.empty() && i < w.binaries.size()
                            && i < w.binaryData.size();
         ++i)
        why = windowError("binaries", w.binaries[i], "binaryData",
                          w.binaryData[i], static_cast<long>(i));
    if (why.empty())
        why = windowError("kernelText", w.kernelText, "kernelData",
                          w.kernelData);
    if (why.empty())
        why = windowError("bsdText", w.bsdText, "bsdData", w.bsdData);
    if (why.empty())
        why = windowError("xText", w.xText, "xData", w.xData);
    return why;
}

std::string
afterRead(SystemConfig &s)
{
    // The clock device needs a nonzero interrupt interval.
    if (s.clockInterval == 0)
        return "'clockInterval' must be >= 1";
    // A zero quantum runs no instruction, so the run never ends.
    if (s.quantumInstr == 0)
        return "'quantumInstr' must be >= 1";
    // PhysMem keeps a trap bit per granule and asserts on a size that
    // is not whole granules; the frame allocator asserts when the
    // reservation leaves no frame to hand out.
    if (s.physMemBytes % kTrapGranuleBytes != 0)
        return csprintf("'physMemBytes' %llu is not a multiple of the "
                        "%u-byte trap granule",
                        static_cast<unsigned long long>(s.physMemBytes),
                        kTrapGranuleBytes);
    if (s.physMemBytes / kHostPageBytes <= s.reservedFrames)
        return csprintf("'physMemBytes' %llu leaves no frame past "
                        "'reservedFrames' (%llu)",
                        static_cast<unsigned long long>(s.physMemBytes),
                        static_cast<unsigned long long>(
                            s.reservedFrames));
    return {};
}

// Every cache and TLB fatal()s on an unusable geometry, and the dram
// backend asserts on one.
std::string
afterRead(CacheConfig &c)
{
    return c.check();
}

std::string
afterRead(DramTimingParams &p)
{
    return p.check();
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

std::string
afterRead(TapewormConfig &t)
{
    if (std::string why = sampleFractionError(
            t.sampleNum, t.sampleDenom,
            t.sampleMode == SampleMode::ConstantBits, t.cache);
        !why.empty())
        return why;
    // A trap covers whole granules, and a cache-mode line lies within
    // one page: the Tapeworm constructor asserts on both bounds.
    if (t.cache.lineBytes < kTrapGranuleBytes
        || t.cache.lineBytes > kHostPageBytes)
        return csprintf("cache.lineBytes %u is outside %u..%u (the trap "
                        "granule to the host page)",
                        t.cache.lineBytes, kTrapGranuleBytes,
                        kHostPageBytes);
    return {};
}

std::string
afterRead(RunSpec &s)
{
    // TapewormTlb asserts that it is a virtually indexed, task-tagged
    // cache of whole host pages, and that every frame it traps lies
    // in its filter bitmap, which the span loop's page scans index by
    // frame, unpadded. A zero filterFrames sizes the bitmap from the
    // machine.
    if (s.sim != SimKind::TapewormTlbSim)
        return {};
    if (s.tlb.tlb.indexing != Indexing::Virtual
        || !s.tlb.tlb.tagIncludesTask)
        return "'tlb.tlb' must be virtually indexed and tagged by task";
    const std::uint32_t line = s.tlb.tlb.lineBytes;
    if (line == 0 || line % kHostPageBytes != 0)
        return csprintf("'tlb.tlb.lineBytes' %u is not a nonzero "
                        "multiple of the %u-byte host page",
                        line, kHostPageBytes);
    const unsigned long long frames = s.sys.physMemBytes / kHostPageBytes;
    if (s.tlb.filterFrames != 0 && s.tlb.filterFrames < frames)
        return csprintf("'tlb.filterFrames' %llu is below the %llu "
                        "frames of 'sys.physMemBytes'",
                        static_cast<unsigned long long>(
                            s.tlb.filterFrames), frames);
    return {};
}

std::string
afterRead(Cache2000Config &c)
{
    return sampleFractionError(c.sampleNum, c.sampleDenom, false,
                               c.cache);
}

std::string
afterRead(SampleOutcome &s)
{
    s.used = true;
    return {};
}

std::string
afterRead(RunOutcome &o)
{
    o.hostSeconds = 0.0;
    return {};
}

// ---------------------------------------------------------------
// The two visitors.
// ---------------------------------------------------------------

/** Builds the insertion-ordered Json of a struct from its list. */
class Writer
{
  public:
    template <typename T>
    static Json
    write(const T &s)
    {
        Writer w;
        members(w, const_cast<T &>(s));
        return std::move(w.j_);
    }

    void object(const char *) {}

    template <typename T>
    void
    operator()(const char *key, const T &m)
    {
        j_.set(key, value(m));
    }

    template <typename E, typename N, typename F>
    void
    operator()(const char *key, E m, N to_name, F)
    {
        j_.set(key, Json::str(to_name(m)));
    }

    template <typename T>
    void
    optional(const char *key, const T &m, bool written)
    {
        if (written)
            (*this)(key, m);
    }

    void version() { j_.set(kVersionKey, Json::number(1u)); }

  private:
    // The Json::number overload per member type fixes how a number
    // renders: doubles with %.17g, integers in decimal.
    static Json value(bool b) { return Json::boolean(b); }
    static Json value(const std::string &s) { return Json::str(s); }
    static Json value(double d) { return Json::number(d); }
    static Json value(std::uint64_t x) { return Json::number(x); }
    static Json value(unsigned x) { return Json::number(x); }
    static Json value(std::int32_t x) { return Json::number(x); }

    template <typename T, std::size_t N>
    static Json
    value(const std::array<T, N> &a)
    {
        Json arr = Json::array();
        for (const T &e : a)
            arr.push(value(e));
        return arr;
    }

    template <typename T>
    static Json
    value(const std::vector<T> &v)
    {
        Json arr = Json::array();
        for (const T &e : v)
            arr.push(write(e));
        return arr;
    }

    template <typename T>
    static Json
    value(const T &s)
    {
        return write(s);
    }

    Json j_ = Json::object();
};

/**
 * Fills a struct from its list, strictly: every member is required
 * (optional blocks aside), an unknown member is an error, a number
 * must fit its member's type, and the first failure latches into
 * err.
 */
class Reader
{
  public:
    template <typename T>
    static bool
    read(const Json &j, T &out, std::string &err)
    {
        Reader r(j, err);
        members(r, out);
        if (r.ok_)
            if (std::string why = afterRead(out); !why.empty())
                r.fail("%s: %s", r.what_, why.c_str());
        return r.finish();
    }

    void
    object(const char *what)
    {
        what_ = what;
        if (!obj_.isObject())
            fail("%s: not a JSON object", what_);
    }

    template <typename T>
    void
    operator()(const char *key, T &out)
    {
        if (const Json *v = get(key))
            value(key, *v, out);
    }

    template <typename E, typename N, typename F>
    void
    operator()(const char *key, E &out, N, F from_name)
    {
        std::string name;
        (*this)(key, name);
        if (ok_ && !from_name(name, out))
            fail("%s: bad value '%s' for '%s'", what_, name.c_str(),
                 key);
    }

    /** Absence is not an error here: blocks added after v1 are
     *  written conditionally and read optionally, so old producers
     *  and consumers interoperate. */
    template <typename T>
    void
    optional(const char *key, T &out, bool)
    {
        consumed_.push_back(key);
        const Json *v = ok_ ? obj_.find(key) : nullptr;
        if (v)
            value(key, *v, out);
        else
            out = T{};
    }

    void
    version()
    {
        std::uint64_t version = 0;
        (*this)(kVersionKey, version);
        if (ok_ && version != 1)
            fail("%s: unsupported version %llu", what_,
                 static_cast<unsigned long long>(version));
    }

  private:
    Reader(const Json &j, std::string &err) : obj_(j), err_(err) {}

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

    void
    value(const char *key, const Json &v, bool &out)
    {
        if (!v.isBool())
            fail("%s: field '%s' is not a boolean", what_, key);
        else
            out = v.asBool();
    }

    void
    value(const char *key, const Json &v, std::string &out)
    {
        if (!v.isString())
            fail("%s: field '%s' is not a string", what_, key);
        else
            out = v.asString();
    }

    void
    value(const char *key, const Json &v, double &out)
    {
        if (!isNumber(key, v))
            return;
        // An overflowing lexeme reads as inf, which the canonical
        // form cannot carry.
        double d = v.asDouble();
        if (!std::isfinite(d))
            fail("%s: field '%s' is not finite", what_, key);
        else
            out = d;
    }

    template <typename I>
    std::enable_if_t<std::is_integral_v<I>>
    value(const char *key, const Json &v, I &out)
    {
        if (!isNumber(key, v))
            return;
        if (std::optional<I> x = integerValue<I>(v))
            out = *x;
        else
            fail("%s: field '%s' is out of range", what_, key);
    }

    template <typename T, std::size_t N>
    void
    value(const char *key, const Json &v, std::array<T, N> &out)
    {
        if (!v.isArray() || v.size() != N) {
            fail("%s: '%s' must be an array of %zu", what_, key, N);
            return;
        }
        for (std::size_t i = 0; i < N && ok_; ++i)
            value(key, v.at(i), out[i]);
    }

    template <typename T>
    void
    value(const char *key, const Json &v, std::vector<T> &out)
    {
        if (!v.isArray()) {
            fail("%s: '%s' is not an array", what_, key);
            return;
        }
        out.clear();
        for (std::size_t i = 0; i < v.size() && ok_; ++i)
            value(key, v.at(i), out.emplace_back());
    }

    /** A nested struct: its own list, failures prefixed with ours. */
    template <typename T>
    std::enable_if_t<std::is_class_v<T>>
    value(const char *, const Json &v, T &out)
    {
        if (!read(v, out, err_))
            fail("%s: %s", what_, err_.c_str());
    }

    bool
    isNumber(const char *key, const Json &v)
    {
        if (!v.isNumber())
            fail("%s: field '%s' is not a number", what_, key);
        return ok_;
    }

    /** Check no unconsumed members remain (unknown-field error). */
    bool
    finish()
    {
        for (const auto &[k, v] : obj_.members())
            if (ok_
                && std::find(consumed_.begin(), consumed_.end(), k)
                       == consumed_.end())
                fail("%s: unknown field '%s'", what_, k.c_str());
        return ok_;
    }

    void
    fail(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        if (!ok_)
            return;
        ok_ = false;
        std::va_list args;
        va_start(args, fmt);
        err_ = vcsprintf(fmt, args);
        va_end(args);
    }

    const Json &obj_;
    const char *what_ = "?";
    std::string &err_;
    std::vector<const char *> consumed_;
    bool ok_ = true;
};

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

bool
indexingFromName(const std::string &name, Indexing &out)
{
    if (name == "virtual")
        out = Indexing::Virtual;
    else if (name == "physical")
        out = Indexing::Physical;
    else
        return false;
    return true;
}

bool
simCacheKindFromName(const std::string &name, SimCacheKind &out)
{
    if (name == "instruction")
        out = SimCacheKind::Instruction;
    else if (name == "data")
        out = SimCacheKind::Data;
    else if (name == "unified")
        out = SimCacheKind::Unified;
    else
        return false;
    return true;
}

Json
specToJson(const RunSpec &spec)
{
    return Writer::write(spec);
}

std::string
formatRunSpec(const RunSpec &spec)
{
    return specToJson(spec).dump();
}

bool
specFromJson(const Json &j, RunSpec &out, std::string &err)
{
    return Reader::read(j, out, err);
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
    return Writer::write(o);
}

std::string
formatRunOutcome(const RunOutcome &o)
{
    return outcomeToJson(o).dump();
}

bool
outcomeFromJson(const Json &j, RunOutcome &out, std::string &err)
{
    return Reader::read(j, out, err);
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

bool
parseCostBackendSpec(const std::string &text, CostBackendConfig &out,
                     std::string &err)
{
    std::string name = text;
    std::string params;
    if (auto colon = text.find(':'); colon != std::string::npos) {
        name = text.substr(0, colon);
        params = text.substr(colon + 1);
    }
    CostBackendConfig cfg;
    if (!costBackendKindFromName(name, cfg.kind)) {
        err = csprintf("cost backend: unknown name '%s' (expected "
                       "table5, ideal or dram)",
                       name.c_str());
        return false;
    }
    if (!params.empty() && cfg.kind != CostBackendKind::Dram) {
        err = csprintf("cost backend: '%s' takes no parameters",
                       name.c_str());
        return false;
    }
    // Each k=v replaces a member of the defaults' canonical form, and
    // the strict reader takes the result: a spec's dram block and
    // this form share their keys, ranges and checks.
    Json dram = Writer::write(cfg.dram);
    std::size_t pos = 0;
    while (pos < params.size()) {
        auto comma = params.find(',', pos);
        if (comma == std::string::npos)
            comma = params.size();
        std::string kv = params.substr(pos, comma - pos);
        pos = comma + 1;
        auto eq = kv.find('=');
        if (eq == std::string::npos) {
            err = csprintf("cost backend: expected k=v, got '%s'",
                           kv.c_str());
            return false;
        }
        std::string key = kv.substr(0, eq);
        std::string value = kv.substr(eq + 1);
        if (!dram.find(key)) {
            err = csprintf("cost backend: unknown dram key '%s'",
                           key.c_str());
            return false;
        }
        std::uint64_t v = 0;
        if (!parseUnsigned(value.c_str(), UINT64_MAX, v)) {
            err = csprintf("cost backend: bad value '%s' for '%s'",
                           value.c_str(), key.c_str());
            return false;
        }
        dram.set(key, Json::number(v));
    }
    if (!Reader::read(dram, cfg.dram, err)) {
        err = "cost backend: " + err;
        return false;
    }
    out = cfg;
    return true;
}

std::string
formatCostBackendSpec(const CostBackendConfig &cfg)
{
    std::string s = costBackendKindName(cfg.kind);
    if (cfg.kind != CostBackendKind::Dram)
        return s;
    // The members that differ from the defaults, in canonical order.
    const Json def = Writer::write(DramTimingParams{});
    const Json set = Writer::write(cfg.dram);
    char sep = ':';
    for (std::size_t i = 0; i < set.members().size(); ++i) {
        const auto &[key, value] = set.members()[i];
        if (value.lexeme() != def.members()[i].second.lexeme()) {
            s += sep + key + '=' + value.lexeme();
            sep = ',';
        }
    }
    return s;
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
