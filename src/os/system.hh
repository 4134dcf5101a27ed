/**
 * @file
 * The simulated host machine + OS, the substrate Tapeworm lives in.
 *
 * A System boots a kernel task, the BSD UNIX server, optionally the
 * X display server, and a shell; the shell forks the workload's
 * user tasks, which inherit Tapeworm attributes per Section 3.2.
 * User tasks execute their instruction streams; syscalls transfer
 * control to the kernel (and with some probability onward to a
 * server, Mach-style); a clock interrupt fires at a fixed real-time
 * rate, runs a masked kernel handler and drives round-robin
 * scheduling; periodic DMA buffer recycling invalidates cache lines
 * of one frame. An attached SimClient (Tapeworm, the trace-driven
 * baseline, or a validation oracle) observes every reference and
 * charges its instrumentation cycles into simulated time — which is
 * what makes slowdown and time-dilation experiments (Figures 2-4)
 * first-class, reproducible measurements here.
 */

#ifndef TW_OS_SYSTEM_HH
#define TW_OS_SYSTEM_HH

#include <array>
#include <memory>
#include <vector>

#include "machine/clock.hh"
#include "machine/phys_mem.hh"
#include "os/sim_client.hh"
#include "os/task.hh"
#include "os/vm.hh"
#include "workload/spec.hh"

namespace tw
{

/** Which workload components have their pages registered with the
 *  attached simulator (the Table 6 experiment axis). */
struct SimScope
{
    bool user = true;
    bool servers = true;
    bool kernel = true;

    static SimScope all() { return {true, true, true}; }
    static SimScope userOnly() { return {true, false, false}; }
    static SimScope serversOnly() { return {false, true, false}; }
    static SimScope kernelOnly() { return {false, false, true}; }
    static SimScope none() { return {false, false, false}; }
};

/** Machine/OS configuration of one experimental run. */
struct SystemConfig
{
    std::uint64_t physMemBytes = 16 * 1024 * 1024;
    AllocPolicy allocPolicy = AllocPolicy::Random;
    /** Frames withheld at boot (Tapeworm's 256 KB = 64 frames). */
    std::uint64_t reservedFrames = 64;

    /** Base cycles per instruction of the uninstrumented machine. */
    unsigned cpiBase = 2;

    /** Clock interrupt period (default: 256 Hz at 25 MHz). */
    Cycles clockInterval = kClockHz / 256;
    /** Randomize the first tick's phase per trial. */
    bool clockJitter = true;
    /** Instructions the masked clock handler executes per tick. */
    Counter tickHandlerInstr = 160;

    /** Round-robin scheduling quantum in instructions. */
    Counter quantumInstr = 20000;

    /** Every Nth tick a DMA buffer is recycled, invalidating one
     *  frame's cache lines (0 disables). */
    unsigned dmaFlushPeriod = 32;

    /** Kernel instructions charged per fork/exec. */
    Counter forkKernelInstr = 400;
    /** Cycles charged per first-touch page fault (cycles only; not
     *  counted as kernel instructions). */
    Counter faultKernelCycles = 400;
    /** Leading syscall instructions executed with interrupts
     *  masked (trap frame setup). */
    Counter maskedSyscallPrefix = 20;

    /** Per-trial seed: page allocation, clock phase. Everything
     *  else is seeded from the workload spec so that the workload
     *  itself is identical across trials. */
    std::uint64_t trialSeed = 1;

    SimScope scope;

    /** Run the legacy per-step engine, the oracle the fast path is
     *  tested against. Results are identical either way, except
     *  under the dram cost backend (see SimClient::bindClock). Only
     *  tests set it; specs never carry it (specio does not write
     *  it). */
    bool oracleEngine = false;
};

/** Aggregate outcome of one run. */
struct RunResult
{
    Cycles cycles = 0;
    std::array<Counter, kNumComponents> instr{};
    Counter ticks = 0;
    Counter dataRefs = 0;
    Counter syscalls = 0;
    Counter forks = 0;
    Counter faults = 0;
    Counter dmaFlushes = 0;
    unsigned tasksCreated = 0;

    Counter
    totalInstr() const
    {
        Counter t = 0;
        for (Counter c : instr)
            t += c;
        return t;
    }

    double
    seconds() const
    {
        return static_cast<double>(cycles)
               / static_cast<double>(kClockHz);
    }

    /** Fraction of instructions in component @p c. */
    double
    instrFrac(Component c) const
    {
        Counter t = totalInstr();
        if (t == 0)
            return 0.0;
        return static_cast<double>(instr[static_cast<unsigned>(c)])
               / static_cast<double>(t);
    }
};

/**
 * One bootable, runnable machine instance. Single-shot: construct,
 * optionally attach a client, run() once, inspect.
 */
class System
{
  public:
    System(const SystemConfig &config, const WorkloadSpec &spec);

    /** Attach the memory simulator (may be null for a normal,
     *  uninstrumented run). */
    void setClient(SimClient *client);

    /** Boot, execute the workload to completion, return totals. */
    RunResult run();

    PhysMem &physMem() { return phys_; }
    Vm &vm() { return vm_; }
    const SystemConfig &config() const { return cfg_; }
    const WorkloadSpec &spec() const { return spec_; }
    Cycles now() const { return cycles_; }

    Task *kernelTask() { return kernel_; }
    Task *bsdTask() { return bsd_; }
    Task *xTask() { return x_; }
    Task *shellTask() { return shell_; }
    const std::vector<std::unique_ptr<Task>> &tasks() const
    {
        return tasks_;
    }

  private:
    void boot();
    Task *makeTask(const std::string &name, Component comp,
                   const StreamParams *params,
                   const StreamParams *data_params, std::uint64_t seed);
    void spawnNextUser(bool charge_fork_burst = true);
    void exitUser(Task &task);

    Addr translate(Task &task, Addr va);
    void step(Task &task);
    void dataStep(Task &task);
    void runBurst(Task &task, Counter len, Counter masked_prefix);
    void doSyscall(Task &task);
    void clockTick();
    void runSlice(Task &task);

    // The hit fast path (see DESIGN.md, "Making simulated hits as
    // cheap as hardware hits"). Produces bit-identical results to
    // the per-step legacy path, which is kept verbatim as
    // runSliceSlow/runBurstSlow/step/dataStep and selected by
    // SystemConfig::oracleEngine.
    /** Fold the run's observability tallies into the process-wide
     *  obs registry (once, at the end of run()). */
    void flushObsCounters();

    Addr translateFast(Task &task, Addr va, MicroTlb &tlb);
    void stepFast(Task &task);
    void dataStepFast(Task &task);
    Counter runBatch(Task &task, Counter h);
    /** The span loop (DataTraps: the filter delivers data refs). */
    template <bool DataTraps>
    Counter runSpans(Task &task, Counter h);
    Counter runObserved(Task &task, Counter h);
    Counter clockHorizon() const;
    void runSliceFast(Task &task);
    void runBurstFast(Task &task, Counter len, Counter masked_prefix);
    void runSliceSlow(Task &task);
    void runBurstSlow(Task &task, Counter len, Counter masked_prefix);

    SystemConfig cfg_;
    WorkloadSpec spec_;
    PhysMem phys_;
    Vm vm_;
    ClockDevice clock_;
    SimClient *client_ = nullptr;

    std::vector<std::unique_ptr<Task>> tasks_;
    Task *kernel_ = nullptr;
    Task *bsd_ = nullptr;
    Task *x_ = nullptr;
    Task *shell_ = nullptr;

    std::vector<Task *> runQueue_;
    std::size_t rrIndex_ = 0;
    bool preempt_ = false;

    Cycles cycles_ = 0;
    Counter dataPerMille_ = 0;
    bool intrMasked_ = false;
    Addr handlerPos_ = 0;
    unsigned spawned_ = 0;
    unsigned initialSpawns_ = 0;
    bool ran_ = false;

    /** simd::wide() at run() start: whether the span scans of this
     *  run dispatch to a wide (AVX2/AVX-512) implementation — only
     *  the wide/scalar obs attribution, never the results, depends
     *  on it. */
    bool simdWide_ = false;
    /** Client's trap filter, cached once at run() start (the view's
     *  storage address is stable for the run; see TrapFilterView). */
    TrapFilterView filter_{};
    bool hasFilter_ = false;
    /** The filter can deliver data references (Load or Store in its
     *  kind mask): runBatch takes runSpans<true>, else
     *  runSpans<false>. */
    bool dataTraps_ = false;
    /** Translation cache for the clock handler's references, which
     *  would otherwise thrash the kernel task's fetch entry. */
    MicroTlb handlerTlb_;

    // Observability tallies. Plain members summed from inner-loop
    // locals at loop exit and flushed into the obs registry once at
    // the end of run() — the reference hot paths never touch shared
    // state for these.
    /** Refs of runSpans<false> (engine.refs.chunked) and of
     *  runSpans<true> (engine.refs.filtered). */
    Counter obsRefsChunked_ = 0;
    Counter obsRefsFiltered_ = 0;
    /** Fetch pieces runSpans took, both instantiations
     *  (engine.runs.chunked). */
    Counter obsRunsChunked_ = 0;
    Counter obsRefsObserved_ = 0;
    Counter obsProbeHits_ = 0;
    Counter obsProbeSkips_ = 0;
    Counter obsUtlbHits_ = 0;
    Counter obsUtlbMisses_ = 0;
    /** Page-span trap scans served by a wide implementation vs
     *  the scalar fallback (simd::setEnabled(false) or an
     *  unsupporting host). */
    Counter obsSimdWide_ = 0;
    Counter obsSimdScalar_ = 0;

    RunResult result_;
};

} // namespace tw

#endif // TW_OS_SYSTEM_HH
