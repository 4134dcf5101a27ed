#include "os/system.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/simd.hh"
#include "obs/metrics.hh"
#include "workload/loop_nest.hh"

namespace tw
{

namespace
{

/** Tids of the fixed system tasks. */
constexpr TaskId kBsdTid = 1;
constexpr TaskId kXTid = 2;
constexpr TaskId kShellTid = 3;
constexpr TaskId kFirstUserTid = 4;

} // anonymous namespace

System::System(const SystemConfig &config, const WorkloadSpec &spec)
    : cfg_(config), spec_(spec), phys_(config.physMemBytes),
      vm_(phys_.numFrames(), config.allocPolicy,
          mixSeed(config.trialSeed, 0xa110c), config.reservedFrames),
      clock_(config.clockInterval,
             config.clockJitter
                 ? Rng(mixSeed(config.trialSeed, 0xc10c)).below(
                       config.clockInterval)
                 : 0)
{
    TW_ASSERT(!spec_.binaries.empty(), "workload has no binaries");
    // Both would stall the engine: the store split divides by
    // storeEvery, and a zero quantum runs no step at all.
    TW_ASSERT(spec_.storeEvery >= 1, "storeEvery must be >= 1");
    TW_ASSERT(cfg_.quantumInstr >= 1, "quantumInstr must be >= 1");
    boot();
}

void
System::setClient(SimClient *client)
{
    client_ = client;
    vm_.setClient(client);
    if (client)
        client->bindClock(&cycles_);
}

Task *
System::makeTask(const std::string &name, Component comp,
                 const StreamParams *params,
                 const StreamParams *data_params, std::uint64_t seed)
{
    std::unique_ptr<RefStream> stream;
    if (params)
        stream = std::make_unique<LoopNestStream>(*params);
    std::unique_ptr<RefStream> data;
    if (data_params && spec_.dataRefsPer1k > 0.0)
        data = std::make_unique<LoopNestStream>(*data_params);
    TaskId tid = static_cast<TaskId>(tasks_.size() == 0
                                         ? kKernelTid
                                         : tasks_.back()->tid + 1);
    tasks_.push_back(std::make_unique<Task>(
        tid, name, comp, std::move(stream), std::move(data), seed));
    return tasks_.back().get();
}

void
System::boot()
{
    dataPerMille_ = static_cast<Counter>(spec_.dataRefsPer1k);

    kernel_ = makeTask("kernel", Component::Kernel, &spec_.kernelText,
                       &spec_.kernelData,
                       mixSeed(spec_.kernelText.seed, 0x7a5c));
    kernel_->attr.simulate = cfg_.scope.kernel;
    kernel_->budget = ~static_cast<Counter>(0);

    bsd_ = makeTask("bsd-server", Component::Bsd, &spec_.bsdText,
                    &spec_.bsdData,
                    mixSeed(spec_.bsdText.seed, 0x7a5c));
    TW_ASSERT(bsd_->tid == kBsdTid, "tid layout drift");
    bsd_->attr.simulate = cfg_.scope.servers;
    bsd_->budget = ~static_cast<Counter>(0);

    x_ = makeTask("x-server", Component::X, &spec_.xText,
                  &spec_.xData, mixSeed(spec_.xText.seed, 0x7a5c));
    TW_ASSERT(x_->tid == kXTid, "tid layout drift");
    x_->attr.simulate = cfg_.scope.servers;
    x_->budget = ~static_cast<Counter>(0);

    // The shell: never simulated itself, but its inherit attribute
    // seeds the whole workload fork tree (Section 3.2's
    // (simulate=0, inherit=1) idiom).
    shell_ = makeTask("shell", Component::User, nullptr, nullptr,
                      0x5e11);
    TW_ASSERT(shell_->tid == kShellTid, "tid layout drift");
    shell_->attr.simulate = false;
    shell_->attr.inherit = cfg_.scope.user;

    // Spawn the initial batch WITHOUT executing the fork bursts:
    // no instruction may run before run(), because the simulator
    // client attaches between construction and run() and must see
    // every page registration (including the kernel's own pages).
    unsigned initial = std::min(spec_.concurrency, spec_.taskCount);
    initial = std::max(initial, 1u);
    for (unsigned i = 0; i < initial; ++i)
        spawnNextUser(false);
    initialSpawns_ = initial;
}

void
System::spawnNextUser(bool charge_fork_burst)
{
    TW_ASSERT(spawned_ < spec_.taskCount, "fork beyond task count");
    unsigned index = spawned_++;
    unsigned binary =
        index % static_cast<unsigned>(spec_.binaries.size());
    const StreamParams &params = spec_.binaries[binary];

    const StreamParams *data_params =
        binary < spec_.binaryData.size() ? &spec_.binaryData[binary]
                                         : nullptr;
    Task *task = makeTask(csprintf("%s.%u", spec_.name.c_str(), index),
                          Component::User, &params, data_params,
                          mixSeed(params.seed, 0xbeef00 + index));
    TW_ASSERT(task->tid >= kFirstUserTid, "user tid layout drift");
    task->binaryIndex = binary;
    // Same binary, different task: same loop ladder, different
    // control-flow randomness (fixed per task index, not per trial).
    task->stream->reset(mixSeed(params.seed, 0x5eed00 + index));
    if (task->dataStream) {
        task->dataStream->reset(
            mixSeed(params.seed, 0xda7a00 + index));
    }
    task->inheritFrom(*shell_);

    Counter per_task =
        std::max<Counter>(1, spec_.userInstr() / spec_.taskCount);
    task->budget = per_task;
    double rate = spec_.syscallsPer1k / 1000.0;
    task->nextSyscallIn =
        rate > 0.0 ? 1 + task->rng.below(
                         static_cast<std::uint64_t>(2000.0 / spec_.syscallsPer1k))
                   : ~static_cast<Counter>(0);

    runQueue_.push_back(task);
    ++result_.forks;
    result_.tasksCreated = spawned_;

    // fork+exec executes kernel code on the child's behalf.
    if (charge_fork_burst && cfg_.forkKernelInstr > 0)
        runBurst(*kernel_, cfg_.forkKernelInstr,
                 cfg_.maskedSyscallPrefix);
}

void
System::exitUser(Task &task)
{
    vm_.removeTask(task);
    auto it = std::find(runQueue_.begin(), runQueue_.end(), &task);
    TW_ASSERT(it != runQueue_.end(), "exiting task not runnable");
    std::size_t pos = static_cast<std::size_t>(it - runQueue_.begin());
    runQueue_.erase(it);
    if (rrIndex_ > pos)
        --rrIndex_;
    if (spawned_ < spec_.taskCount)
        spawnNextUser();
}

Addr
System::translate(Task &task, Addr va)
{
    Pfn pfn = task.pageTable.lookup(va);
    if (pfn < 0) [[unlikely]] {
        Vpn vpn = va / kHostPageBytes;
        pfn = vm_.fault(task, vpn);
        cycles_ += cfg_.faultKernelCycles;
        ++result_.faults;
    }
    return static_cast<Addr>(pfn) * kHostPageBytes
           + (va & (kHostPageBytes - 1));
}

Addr
System::translateFast(Task &task, Addr va, MicroTlb &tlb)
{
    // Translation cache over translate(). Translations never change
    // while a task runs (mappings only grow; teardown and the DMA
    // recycle path flush these entries), so a hit is exact.
    Addr page = va & ~static_cast<Addr>(kHostPageBytes - 1);
    MicroTlb::Entry &e = tlb.slot(page);
    if (e.vaPage == page && e.gen == tlb.gen) [[likely]] {
        ++obsUtlbHits_;
        return e.paBase + (va & (kHostPageBytes - 1));
    }
    ++obsUtlbMisses_;
    Addr pa = translate(task, va);
    e.vaPage = page;
    e.paBase = pa & ~static_cast<Addr>(kHostPageBytes - 1);
    e.gen = tlb.gen;
    return pa;
}

void
System::dataStep(Task &task)
{
    Addr va = task.dataStream->next();
    Addr pa = translate(task, va);
    ++task.dataRefCount;
    AccessKind kind = task.dataRefCount % spec_.storeEvery == 0
                          ? AccessKind::Store
                          : AccessKind::Load;
    ++result_.dataRefs;
    if (client_)
        cycles_ += client_->onRef(task, va, pa, intrMasked_, kind);
}

void
System::step(Task &task)
{
    Addr va = task.stream->next();
    Addr pa = translate(task, va);
    cycles_ += cfg_.cpiBase;
    ++result_.instr[static_cast<unsigned>(task.component)];
    ++task.executed;
    if (client_)
        cycles_ += client_->onRef(task, va, pa, intrMasked_,
                                  AccessKind::Fetch);
    // Loads and stores accompany instructions at the configured
    // rate; they consume no extra base cycles (the base CPI already
    // reflects average memory behaviour) but instrumented runs pay
    // the simulator's per-reference costs.
    if (task.dataStream) [[likely]] {
        task.dataRefCredit += dataPerMille_;
        while (task.dataRefCredit >= 1000) {
            task.dataRefCredit -= 1000;
            dataStep(task);
        }
    }
}

void
System::dataStepFast(Task &task)
{
    Addr va = task.dataRun.take(*task.dataStream);
    Addr pa = translateFast(task, va, task.dtlb);
    ++task.dataRefCount;
    AccessKind kind = task.dataRefCount % spec_.storeEvery == 0
                          ? AccessKind::Store
                          : AccessKind::Load;
    ++result_.dataRefs;
    if (client_
        && (!hasFilter_
            || (filter_.wants(kind) && filter_.test(pa))))
        cycles_ += client_->onRef(task, va, pa, intrMasked_, kind);
}

void
System::stepFast(Task &task)
{
    // step() with its three per-reference costs removed: the stream
    // is consumed a run at a time (Task::fetchRun), the translation
    // through a last-page cache, and the client is called only when
    // its trap filter says the reference might miss — the software
    // analogue of the paper's "hits run at full hardware speed".
    Addr va = task.fetchRun.take(*task.stream);
    Addr pa = translateFast(task, va, task.itlb);
    cycles_ += cfg_.cpiBase;
    ++result_.instr[static_cast<unsigned>(task.component)];
    ++task.executed;
    if (client_
        && (!hasFilter_
            || (filter_.wants(AccessKind::Fetch)
                && filter_.test(pa))))
        cycles_ += client_->onRef(task, va, pa, intrMasked_,
                                  AccessKind::Fetch);
    if (task.dataStream) [[likely]] {
        task.dataRefCredit += dataPerMille_;
        while (task.dataRefCredit >= 1000) {
            task.dataRefCredit -= 1000;
            dataStepFast(task);
        }
    }
}

namespace
{

/**
 * Any trap bit set in the host page starting at @p pa_base? One wide
 * all-zero scan of the filter words covering the page. Where a word
 * overhangs the page (granules wider than a page), neighbouring
 * pages' bits leak in and the answer is conservatively true, which
 * costs per-ref probes, never a missed trap.
 */
inline bool
pageSpanTrapped(const std::uint64_t *bits, unsigned shift,
                Addr pa_base)
{
    std::uint64_t w0 = (pa_base >> shift) >> 6;
    std::uint64_t w1 = ((pa_base + kHostPageBytes - 1) >> shift) >> 6;
    return simd::anyBitsInWords(bits, w0, w1);
}

/**
 * How many of the @p m words from @p pa (all on one page) come before
 * the first word whose granule is trapped: @p m when none is. Reads
 * only the bitmap words that the words' granules fall in — the
 * bitmap need not be padded past its last granule (TapewormTlb's is
 * not).
 */
inline Counter
wordsBeforeTrap(const std::uint64_t *bits, unsigned shift, Addr pa,
                Counter m)
{
    const std::uint64_t g0 = pa >> shift;
    const std::uint64_t g1 = (pa + (m - 1) * kWordBytes) >> shift;
    std::uint64_t w = g0 >> 6;
    const std::uint64_t last = g1 >> 6;
    std::uint64_t x = bits[w] & (~std::uint64_t{0} << (g0 & 63));
    while (w != last && x == 0)
        x = bits[++w];
    if (w == last)
        x &= ~std::uint64_t{0} >> (63 - (g1 & 63));
    if (x == 0)
        return m;
    const std::uint64_t g =
        (w << 6) + static_cast<unsigned>(__builtin_ctzll(x));
    if (g == g0)
        return 0;
    // The first word at or past the trapped granule's first byte.
    return ((g << shift) - pa + kWordBytes - 1) / kWordBytes;
}

} // namespace

Counter
System::runBatch(Task &task, Counter h)
{
    if (h == 0)
        return 0;
    // A client without a trap filter must observe every reference.
    if (client_ && !hasFilter_)
        return runObserved(task, h);
    return dataTraps_ ? runSpans<true>(task, h) : runSpans<false>(task, h);
}

template <bool DataTraps>
Counter
System::runSpans(Task &task, Counter h)
{
    // The span loop; DESIGN.md §8 gives the argument in full. The
    // caller guarantees no tick, syscall, budget or quantum boundary
    // within the next h instructions PROVIDED each costs exactly
    // cpiBase. A step that charges extra cycles (a fault or a miss) is
    // a settle point: the call settles there what its exit settles, so
    // a later miss reads the cycle count a new call would, and goes on
    // with the horizon its caller would compute next (left itself in a
    // masked burst). Between settle points all bookkeeping lives in
    // locals, which no out-of-line path (stream refill, page-table
    // walk, miss handler) reads.
    //
    // Fetches come a run piece at a time, and a piece's data refs
    // drain after it in data pieces. Trap bits change only inside a
    // client call or a fault: a fetch fault or delivery drops a data
    // page cached as clear, and an observable data ref cuts the piece
    // back to its owning step (the steps past it were probe-free) and
    // drops the fetch page.
    SimClient *const cl = client_;
    const unsigned fshift = filter_.shift;
    const std::uint64_t *const fetch_bits =
        (hasFilter_ && filter_.wants(AccessKind::Fetch))
            ? filter_.bits
            : nullptr;
    const std::uint64_t *const data_bits = filter_.bits;
    const Addr off = kHostPageBytes - 1;
    const bool masked = intrMasked_;

    RefStream &fstream = *task.stream;
    Addr fcur = task.fetchRun.cur;
    Counter fleft = task.fetchRun.left;
    RefStream *const dstream = task.dataStream.get();
    const Counter dpm = dstream ? dataPerMille_ : 0;
    Addr dcur = task.dataRun.cur;
    Counter dleft = task.dataRun.left;
    const Addr vaBase = task.pageTable.vaBase();
    const Pfn *const frames = task.pageTable.framesData();
    Addr ivaPage = kInvalidAddr, ipaBase = 0;
    // The data page known to be mapped; under DataTraps, dprobe says
    // it carries trap bits, so its refs are probed singly.
    Addr dvaPage = kInvalidAddr, dpaBase = 0;
    bool fprobe = false;
    bool dprobe = false;
    Counter credit = task.dataRefCredit;

    Counter steps = 0;
    Counter data_refs = 0;
    Counter probed = 0;
    Counter span_ops = 0;
    Counter pieces = 0;
    // Data refs taken so far toward the current piece's owed ones.
    Counter drained = 0;
    Counter settled = 0;
    Counter left = h;
    // The current step charged cycles: it ends at a settle point.
    bool stop_after = false;

    // The frame base of @p va's page, faulting an unmapped one in
    // (@p faulted); a fault that charged cycles ends its step.
    auto mapPage = [&](Addr va, bool &faulted)
                       __attribute__((always_inline)) {
        const Pfn pfn = frames[((va & ~off) - vaBase) / kHostPageBytes];
        if (pfn >= 0) [[likely]]
            return static_cast<Addr>(pfn) * kHostPageBytes;
        faulted = true;
        const Cycles c0 = cycles_;
        const Addr base = translate(task, va) & ~off;
        if (cycles_ != c0)
            stop_after = true;
        return base;
    };

    // The next data ref, taken exactly: a lookup when it leaves the
    // data page, a fault if that page is unmapped, and under
    // DataTraps on a trapped page its probe and delivery (a store at
    // every storeEvery-th data ref). Returns whether it did anything
    // observable. Forced inline, or its captured locals would live in
    // memory for the whole loop.
    auto dataRef = [&]() __attribute__((always_inline)) {
        if (dleft == 0)
            dleft = dstream->nextRun(dcur);
        const Addr dva = dcur;
        dcur += kWordBytes;
        --dleft;
        ++drained;
        bool seen = false;
        const Addr dpage = dva & ~off;
        if (dpage != dvaPage) {
            dpaBase = mapPage(dva, seen);
            dvaPage = dpage;
            if constexpr (DataTraps) {
                ++span_ops;
                dprobe = pageSpanTrapped(data_bits, fshift, dpaBase);
            }
        }
        if constexpr (DataTraps) {
            if (dprobe) {
                ++probed;
                const Addr dpa = dpaBase + (dva & off);
                const std::uint64_t g = dpa >> fshift;
                if ((data_bits[g >> 6] >> (g & 63)) & 1) {
                    const Counter nth =
                        task.dataRefCount + data_refs + drained;
                    const AccessKind kind = nth % spec_.storeEvery == 0
                                                ? AccessKind::Store
                                                : AccessKind::Load;
                    if (filter_.wants(kind)) {
                        const Cycles r =
                            cl->onRef(task, dva, dpa, masked, kind);
                        cycles_ += r;
                        if (r != 0)
                            stop_after = true;
                        seen = true;
                    }
                }
            }
        }
        return seen;
    };

    // Settle what the exit settles — base CPI, instruction and
    // data-ref counts, the data-ref credit, the stream positions and
    // the obs tallies — and restart the locals from there.
    auto settle = [&]() __attribute__((always_inline)) {
        task.fetchRun.cur = fcur;
        task.fetchRun.left = fleft;
        task.dataRun.cur = dcur;
        task.dataRun.left = dleft;
        task.dataRefCredit = credit;
        task.dataRefCount += data_refs;
        result_.dataRefs += data_refs;
        cycles_ += steps * cfg_.cpiBase;
        result_.instr[static_cast<unsigned>(task.component)] += steps;
        task.executed += steps;
        (DataTraps ? obsRefsFiltered_ : obsRefsChunked_) +=
            steps + data_refs;
        obsRunsChunked_ += pieces;
        obsProbeHits_ += probed;
        obsProbeSkips_ += steps + data_refs - probed;
        (simdWide_ ? obsSimdWide_ : obsSimdScalar_) += span_ops;
        settled += steps;
        steps = 0;
        data_refs = 0;
        probed = 0;
        span_ops = 0;
        pieces = 0;
    };

    for (;;) {
        if (fleft == 0)
            fleft = fstream.nextRun(fcur);
        const Addr va = fcur;
        const Addr page = va & ~off;
        if (page != ivaPage) [[unlikely]] {
            bool faulted = false;
            ipaBase = mapPage(va, faulted);
            // A fault armed freshly mapped pages.
            if (faulted)
                dvaPage = kInvalidAddr;
            ivaPage = page;
            span_ops += fetch_bits != nullptr;
            fprobe = fetch_bits
                     && pageSpanTrapped(fetch_bits, fshift, ipaBase);
        }
        // The piece: the run's words on this page, no further than
        // the horizon, and only its own step while a fetch-fault
        // charge is pending.
        Counter m = (page + kHostPageBytes - va) / kWordBytes;
        if (m > fleft)
            m = fleft;
        if (m > left)
            m = left;
        if (stop_after) [[unlikely]]
            m = 1;
        ++pieces;
        Counter n = m;
        if (fprobe) [[unlikely]] {
            const Addr pa = ipaBase + (va & off);
            n = wordsBeforeTrap(fetch_bits, fshift, pa, m);
            if (n == 0) {
                // wordsBeforeTrap returns 0 only when the first
                // word's granule is trapped: an exact step.
                ++probed;
                n = 1;
                Cycles r = cl->onRef(task, va, pa, masked,
                                     AccessKind::Fetch);
                cycles_ += r;
                if (r != 0)
                    stop_after = true;
                // The fetch page is cached as trapped and stays exact;
                // a data page cached as clear may now hold a trap.
                if (!dprobe)
                    dvaPage = kInvalidAddr;
            }
        }
        const Counter credit0 = credit;
        credit += n * dpm;
        if (credit >= 1000) [[unlikely]] {
            Counter pending = credit / 1000;
            credit -= pending * 1000;
            drained = 0;
            while (drained < pending) {
                if (dleft == 0)
                    dleft = dstream->nextRun(dcur);
                if ((dcur & ~off) == dvaPage && !(DataTraps && dprobe))
                    [[likely]] {
                    Counter k =
                        (dvaPage + kHostPageBytes - dcur) / kWordBytes;
                    if (k > dleft)
                        k = dleft;
                    if (k > pending - drained)
                        k = pending - drained;
                    dcur += k * kWordBytes;
                    dleft -= k;
                    drained += k;
                    continue;
                }
                if (!dataRef()) [[likely]]
                    continue;
                // Cut the piece back to the owning step s, finish that
                // step's remaining data refs, and re-enter with fresh
                // probe state.
                Counter s = (drained * 1000 - credit0 + dpm - 1)
                            / dpm;
                Counter total = (credit0 + s * dpm) / 1000;
                while (drained < total)
                    dataRef();
                credit = credit0 + s * dpm - total * 1000;
                n = s;
                ivaPage = kInvalidAddr;
                break;
            }
            data_refs += drained;
        }
        fcur += n * kWordBytes;
        fleft -= n;
        steps += n;
        left -= n;
        if (stop_after) [[unlikely]] {
            stop_after = false;
            settle();
            if (!masked)
                left = std::min(left, clockHorizon());
        }
        if (left == 0)
            break;
    }

    settle();
    return settled;
}

Counter
System::runObserved(Task &task, Counter h)
{
    // Clients without a trap filter see every reference and may
    // read whatever machine state their callback can reach —
    // System::now() (the write-buffer model does exactly that) or
    // the task's public counters. stepFast keeps that state exact at
    // every call, so this loop is just steps up to the horizon, the
    // last being any step that charged more than its base CPI.
    const Counter data_refs0 = result_.dataRefs;
    Counter done = 0;
    for (;;) {
        const Cycles c0 = cycles_;
        stepFast(task);
        ++done;
        if (cycles_ - c0 != cfg_.cpiBase || done == h)
            break;
    }
    obsRefsObserved_ += done + (result_.dataRefs - data_refs0);
    return done;
}

Counter
System::clockHorizon() const
{
    // Instructions that can run before the next tick becomes due,
    // assuming each costs exactly cpiBase cycles.
    if (clock_.due(cycles_))
        return 0;
    if (cfg_.cpiBase == 0)
        return ~static_cast<Counter>(0);
    return (clock_.nextAt() - cycles_ - 1) / cfg_.cpiBase;
}

void
System::runBurst(Task &task, Counter len, Counter masked_prefix)
{
    if (cfg_.oracleEngine)
        runBurstSlow(task, len, masked_prefix);
    else
        runBurstFast(task, len, masked_prefix);
}

void
System::runBurstSlow(Task &task, Counter len, Counter masked_prefix)
{
    bool outer_masked = intrMasked_;
    for (Counter i = 0; i < len; ++i) {
        intrMasked_ = outer_masked || i < masked_prefix;
        step(task);
        if (!intrMasked_ && clock_.due(cycles_))
            clockTick();
    }
    intrMasked_ = outer_masked;
}

void
System::runBurstFast(Task &task, Counter len, Counter masked_prefix)
{
    bool outer_masked = intrMasked_;
    if (outer_masked) {
        // The whole burst runs masked; the legacy loop never checks
        // the clock here, so neither do we — runBatch's early-out on
        // extra cycles just means looping until the burst is done.
        for (Counter i = 0; i < len;)
            i += runBatch(task, len - i);
        return;
    }

    // Masked prefix (trap-frame setup): no tick checks.
    Counter prefix = std::min(len, masked_prefix);
    intrMasked_ = true;
    for (Counter i = 0; i < prefix;)
        i += runBatch(task, prefix - i);
    intrMasked_ = false;

    // Unmasked remainder: batch to the tick horizon, exactly like
    // runSliceFast but with no syscall countdown.
    Counter i = prefix;
    while (i < len) {
        Counter h = std::min(len - i, clockHorizon());
        if (h == 0) {
            stepFast(task);
            ++i;
            if (clock_.due(cycles_))
                clockTick();
            continue;
        }
        i += runBatch(task, h);
        if (clock_.due(cycles_))
            clockTick();
    }
}

void
System::doSyscall(Task &task)
{
    ++result_.syscalls;
    double rate = spec_.syscallsPer1k;
    task.nextSyscallIn =
        1 + task.rng.below(
            static_cast<std::uint64_t>(std::max(2.0, 2000.0 / rate)));

    auto jitter = [&task](double mean) {
        double f = 0.7 + 0.6 * task.rng.uniform();
        return static_cast<Counter>(std::max(1.0, mean * f));
    };

    runBurst(*kernel_, jitter(spec_.kernelBurstLen()),
             cfg_.maskedSyscallPrefix);
    if (spec_.bsdProb > 0.0 && task.rng.chance(spec_.bsdProb))
        runBurst(*bsd_, jitter(spec_.bsdBurstLen()), 0);
    if (spec_.xProb > 0.0 && task.rng.chance(spec_.xProb))
        runBurst(*x_, jitter(spec_.xBurstLen()), 0);
}

void
System::clockTick()
{
    clock_.acknowledge(cycles_);
    ++result_.ticks;
    preempt_ = true;

    // The clock handler runs with interrupts masked: ECC traps
    // raised by its references cannot be delivered (the masking
    // bias of Section 4.2).
    intrMasked_ = true;
    Addr base = spec_.kernelText.base;
    if (cfg_.oracleEngine) {
        for (Counter i = 0; i < cfg_.tickHandlerInstr; ++i) {
            Addr va = base + handlerPos_;
            handlerPos_ = (handlerPos_ + kWordBytes) % kHandlerBytes;
            Addr pa = translate(*kernel_, va);
            cycles_ += cfg_.cpiBase;
            ++result_.instr[static_cast<unsigned>(Component::Kernel)];
            if (client_)
                cycles_ += client_->onRef(*kernel_, va, pa,
                                          intrMasked_);
        }
    } else {
        // Masked, no nested ticks: the base cycles and instruction
        // counts can be settled in bulk — nothing inside the loop
        // reads them, and integer sums are order-independent.
        for (Counter i = 0; i < cfg_.tickHandlerInstr; ++i) {
            Addr va = base + handlerPos_;
            handlerPos_ = (handlerPos_ + kWordBytes) % kHandlerBytes;
            Addr pa = translateFast(*kernel_, va, handlerTlb_);
            if (client_
                && (!hasFilter_
                    || (filter_.wants(AccessKind::Fetch)
                        && filter_.test(pa))))
                cycles_ += client_->onRef(*kernel_, va, pa, true);
        }
        cycles_ += cfg_.tickHandlerInstr * cfg_.cpiBase;
        result_.instr[static_cast<unsigned>(Component::Kernel)] +=
            cfg_.tickHandlerInstr;
    }
    intrMasked_ = false;

    // Periodic DMA buffer recycling invalidates one frame's lines
    // in the real cache; simulated caches must follow suit.
    if (cfg_.dmaFlushPeriod > 0
        && result_.ticks % cfg_.dmaFlushPeriod == 0) {
        Pfn victim =
            vm_.dmaVictim(result_.ticks / cfg_.dmaFlushPeriod);
        if (victim != kNoFrame) {
            ++result_.dmaFlushes;
            if (client_)
                client_->onDmaInvalidate(victim);
            // Host translations do not actually change on a DMA
            // recycle, but drop the cached ones anyway: the recycled
            // frame may be handed to a new task the moment the old
            // one exits, and a one-entry cache is cheap to refill.
            for (auto &t : tasks_)
                t->flushTranslations();
            handlerTlb_.flush();
        }
    }
}

void
System::runSlice(Task &task)
{
    if (cfg_.oracleEngine)
        runSliceSlow(task);
    else
        runSliceFast(task);
}

void
System::runSliceSlow(Task &task)
{
    preempt_ = false;
    Counter quantum = cfg_.quantumInstr;
    while (quantum-- > 0 && !task.finished() && !preempt_) {
        step(task);
        if (--task.nextSyscallIn == 0)
            doSyscall(task);
        if (clock_.due(cycles_))
            clockTick();
    }
}

void
System::runSliceFast(Task &task)
{
    // Event-horizon batching: compute how many instructions can
    // retire before ANY event (tick due, syscall, budget end,
    // quantum end) can fire, run them in a tight inner loop, and
    // handle the boundary instruction with the full legacy checks.
    // The legacy loop always steps first and checks after, so a
    // horizon of zero degenerates to exactly its body.
    preempt_ = false;
    Counter quantum = cfg_.quantumInstr;
    while (quantum > 0 && !task.finished() && !preempt_) {
        Counter h = std::min(quantum, task.budget - task.executed);
        h = std::min(h, task.nextSyscallIn - 1);
        h = std::min(h, clockHorizon());
        if (h == 0) {
            stepFast(task);
            --quantum;
            if (--task.nextSyscallIn == 0)
                doSyscall(task);
            if (clock_.due(cycles_))
                clockTick();
            continue;
        }
        Counter done = runBatch(task, h);
        quantum -= done;
        task.nextSyscallIn -= done;
        if (clock_.due(cycles_))
            clockTick();
    }
}

RunResult
System::run()
{
    TW_ASSERT(!ran_, "System::run() called twice");
    ran_ = true;

    // Cache the client's trap filter once: the view's storage is
    // fixed for the run (TrapFilterView contract), only the bits
    // change as traps are set and cleared. The SIMD dispatch level
    // is pinned per run too, so the wide/scalar span tallies stay
    // coherent even if a test flips simd::setEnabled mid-process.
    if (client_ && !cfg_.oracleEngine) {
        filter_ = client_->trapFilter();
        hasFilter_ = filter_.bits != nullptr;
        dataTraps_ = hasFilter_
                     && (filter_.wants(AccessKind::Load)
                         || filter_.wants(AccessKind::Store));
    }
    simdWide_ = simd::wide();

    // Charge the boot-time fork/exec kernel work for the initial
    // task batch now that the simulator client is attached.
    if (cfg_.forkKernelInstr > 0) {
        for (unsigned i = 0; i < initialSpawns_; ++i)
            runBurst(*kernel_, cfg_.forkKernelInstr,
                     cfg_.maskedSyscallPrefix);
    }

    while (!runQueue_.empty()) {
        if (rrIndex_ >= runQueue_.size())
            rrIndex_ = 0;
        Task *task = runQueue_[rrIndex_];
        runSlice(*task);
        if (task->finished()) {
            exitUser(*task);
        } else {
            ++rrIndex_;
        }
    }

    result_.cycles = cycles_;
    flushObsCounters();
    return result_;
}

void
System::flushObsCounters()
{
    // Function-local statics: one registry lookup per process, then
    // each run costs a handful of relaxed sharded adds (add() is a
    // no-op for zero tallies).
    static obs::Counter chunked =
        obs::registry().counter("engine.refs.chunked");
    static obs::Counter runsChunked =
        obs::registry().counter("engine.runs.chunked");
    static obs::Counter filtered =
        obs::registry().counter("engine.refs.filtered");
    static obs::Counter observed =
        obs::registry().counter("engine.refs.observed");
    static obs::Counter probeHits =
        obs::registry().counter("engine.probe.hits");
    static obs::Counter probeSkips =
        obs::registry().counter("engine.probe.skips");
    static obs::Counter utlbHits =
        obs::registry().counter("engine.utlb.hits");
    static obs::Counter utlbMisses =
        obs::registry().counter("engine.utlb.misses");
    static obs::Counter simdWide =
        obs::registry().counter("engine.simd.wide_spans");
    static obs::Counter simdScalar =
        obs::registry().counter("engine.simd.scalar_tail");
    chunked.add(obsRefsChunked_);
    runsChunked.add(obsRunsChunked_);
    filtered.add(obsRefsFiltered_);
    observed.add(obsRefsObserved_);
    probeHits.add(obsProbeHits_);
    probeSkips.add(obsProbeSkips_);
    utlbHits.add(obsUtlbHits_);
    utlbMisses.add(obsUtlbMisses_);
    simdWide.add(obsSimdWide_);
    simdScalar.add(obsSimdScalar_);
}

} // namespace tw
