/**
 * @file
 * The task structure of the simulated OS, extended with Tapeworm
 * attributes.
 *
 * Section 3.2 of the paper: each task carries two Tapeworm
 * attributes stored "in an extended version of the OS task data
 * structure". simulate registers the task's pages with Tapeworm;
 * inherit seeds the simulate attribute of forked children:
 *
 *     child.simulate <- parent.inherit
 *     child.inherit  <- parent.inherit
 *
 * Setting (simulate=0, inherit=1) on a shell captures a whole
 * workload fork tree while excluding the shell itself.
 */

#ifndef TW_OS_TASK_HH
#define TW_OS_TASK_HH

#include <array>
#include <memory>
#include <string>

#include "base/random.hh"
#include "base/types.hh"
#include "os/page_table.hh"
#include "workload/ref_stream.hh"
#include "workload/spec.hh"

namespace tw
{

/**
 * The rest of a sequential run taken from a RefStream (nextRun): the
 * next address and the words left in the run. The stream is already
 * past the run, so the run's words come before anything the stream
 * hands out next.
 */
struct RunCursor
{
    Addr cur = 0;
    Counter left = 0;

    /** One address, taking the stream's next run when this one is
     *  used up. */
    Addr
    take(RefStream &s)
    {
        if (left == 0)
            left = s.nextRun(cur);
        --left;
        Addr a = cur;
        cur += kWordBytes;
        return a;
    }
};

/** Direct-mapped micro-TLB size; loop-nest excursions hop pages
 *  often enough that a single last-page entry misses ~10% of refs. */
constexpr unsigned kMicroTlbEntries = 256;

/**
 * Small direct-mapped translation cache (a micro-TLB), indexed by
 * virtual page number. An entry is valid only when its generation
 * matches the TLB's, so flush() is O(1) — a generation bump — no
 * matter how many tasks the DMA recycle path has to invalidate.
 * vaPage holds a page-aligned address, so the kInvalidAddr reset
 * value can never match and doubles as the invalid mark for
 * never-written entries.
 */
struct MicroTlb
{
    struct Entry
    {
        Addr vaPage = kInvalidAddr;
        Addr paBase = 0;
        std::uint32_t gen = 0;
    };

    std::array<Entry, kMicroTlbEntries> entries{};
    std::uint32_t gen = 1;

    /** Slot for a page-aligned address. */
    Entry &
    slot(Addr page)
    {
        return entries[(page / kHostPageBytes)
                       & (kMicroTlbEntries - 1)];
    }

    void flush() { ++gen; }
};

/** The (simulate, inherit) attribute pair of Table 1's
 *  tw_attributes() primitive. */
struct TwAttributes
{
    bool simulate = false;
    bool inherit = false;
};

/**
 * A schedulable task: program stream, address space, Tapeworm
 * attributes and bookkeeping.
 */
class Task
{
  public:
    /**
     * @param tid task id (0 = kernel).
     * @param name diagnostic name.
     * @param component which Table 4 column the task belongs to.
     * @param stream program to execute (may be null for the shell,
     *        which never runs user instructions).
     * @param data_stream optional data-reference stream (loads and
     *        stores over the task's data segment); its region must
     *        lie above the text region.
     * @param seed per-task control seed (syscall timing, burst
     *        jitter); fixed per task index, not per trial.
     */
    Task(TaskId tid, std::string name, Component component,
         std::unique_ptr<RefStream> stream,
         std::unique_ptr<RefStream> data_stream, std::uint64_t seed)
        : tid(tid), name(std::move(name)), component(component),
          stream(std::move(stream)),
          dataStream(std::move(data_stream)),
          pageTable(this->stream ? this->stream->textBase() : 0,
                    windowBytes()),
          rng(seed)
    {
    }

    /** Convenience: instruction stream only. */
    Task(TaskId tid, std::string name, Component component,
         std::unique_ptr<RefStream> stream, std::uint64_t seed)
        : Task(tid, std::move(name), component, std::move(stream),
               nullptr, seed)
    {
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    /** Fork-time attribute inheritance (see file comment). */
    void
    inheritFrom(const Task &parent)
    {
        attr.simulate = parent.attr.inherit;
        attr.inherit = parent.attr.inherit;
    }

    bool finished() const { return executed >= budget; }

    const TaskId tid;
    const std::string name;
    const Component component;

    TwAttributes attr;
    std::unique_ptr<RefStream> stream;
    std::unique_ptr<RefStream> dataStream;
    PageTable pageTable;
    Rng rng;

    /** Instructions this task may execute before exiting. */
    Counter budget = 0;
    /** Instructions executed so far. */
    Counter executed = 0;
    /** Countdown (in own instructions) to the next syscall. */
    Counter nextSyscallIn = ~static_cast<Counter>(0);
    /** Accumulator (millis of a data ref per instruction). */
    Counter dataRefCredit = 0;
    /** Rolling counter selecting stores among data refs. */
    Counter dataRefCount = 0;
    /** Which user binary this task runs (diagnostics). */
    unsigned binaryIndex = 0;
    /** Task has exited and its address space was torn down. */
    bool exited = false;

    /** Run cursors over the fetch and data streams (fast-path
     *  machinery; the slow path calls the streams directly). The
     *  span loop takes runs from them a piece at a time, and the
     *  per-step path one address at a time (RunCursor::take). */
    RunCursor fetchRun;
    RunCursor dataRun;

    /** Last-page translation caches, one per stream so text and
     *  data references don't thrash a single entry. */
    MicroTlb itlb;
    MicroTlb dtlb;

    /** Drop cached translations (unmap and DMA-recycle paths). */
    void
    flushTranslations()
    {
        itlb.flush();
        dtlb.flush();
    }

  private:
    /** Address-space window: text through end of data segment. */
    std::uint64_t
    windowBytes() const
    {
        if (!stream)
            return kHostPageBytes;
        std::uint64_t end = stream->textBase() + stream->textBytes();
        if (dataStream) {
            TW_ASSERT(dataStream->textBase() >= end,
                      "data segment must follow the text segment");
            end = dataStream->textBase() + dataStream->textBytes();
        }
        return end - stream->textBase();
    }
};

} // namespace tw

#endif // TW_OS_TASK_HH
