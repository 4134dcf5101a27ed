/**
 * @file
 * The page registry of a trap-driven cache client: which physical
 * frames tw_register_page() has armed, under how many registered
 * mappings, and the first mapping's virtual page and task — what
 * the client needs to rebuild a line's cache tag when it re-arms a
 * frame.
 *
 * One entry per machine frame, indexed by frame number, so the miss
 * path's "is the displaced line's frame still registered?" is an
 * index check and one load, not a hash lookup. The array comes from
 * the trial arena (arenaResource()), as PhysMem's trap bitmap does,
 * so a trial pays no heap traffic for it.
 */

#ifndef TW_CORE_FRAME_REGISTRY_HH
#define TW_CORE_FRAME_REGISTRY_HH

#include <cstdint>
#include <memory_resource>

#include "base/types.hh"
#include "os/page_table.hh"

namespace tw
{

class Task;

/** Registered frames of one simulated cache (see file comment). */
class FrameRegistry
{
  public:
    /** One frame's registration; refs == 0 means unregistered. */
    struct Entry
    {
        unsigned refs = 0;        //!< registered mappings of the frame
        TaskId tid = kInvalidTid; //!< task of the first mapping
        Vpn vpn = 0;              //!< virtual page of the first mapping
    };

    /** An empty registry over frames [0, @p num_frames). */
    explicit FrameRegistry(std::uint64_t num_frames);
    ~FrameRegistry();

    FrameRegistry(const FrameRegistry &) = delete;
    FrameRegistry &operator=(const FrameRegistry &) = delete;

    /**
     * The VM registered a mapping of @p pfn (onPageMapped). Returns
     * true for the frame's first mapping, which the caller arms; a
     * further mapping only bumps the count (Section 3.2: no new
     * traps). Asserts that @p shared, the VM's view, agrees.
     */
    bool add(const Task &task, Vpn vpn, Pfn pfn, bool shared);

    /**
     * The VM removed a registered mapping of @p pfn (onPageRemoved).
     * Returns true when it was the last, so the caller flushes and
     * disarms the frame. Asserts that @p last_mapping agrees.
     */
    bool remove(Pfn pfn, bool last_mapping);

    /** Does @p pfn hold a registered mapping? */
    bool
    registered(Pfn pfn) const
    {
        return pfn >= 0 && static_cast<std::uint64_t>(pfn) < numFrames_
               && entries_[pfn].refs != 0;
    }

    /** The registration of a registered frame. */
    const Entry &entry(Pfn pfn) const { return entries_[pfn]; }

    /** Number of registered frames. */
    std::size_t size() const { return registered_; }

    /** Does @p pred(pfn, entry) hold for every registered frame?
     *  Frames are tested in order up to the first that fails. */
    template <class Pred>
    bool
    all(Pred &&pred) const
    {
        for (std::uint64_t p = 0; p < numFrames_; ++p) {
            if (entries_[p].refs != 0
                && !pred(static_cast<Pfn>(p), entries_[p]))
                return false;
        }
        return true;
    }

  private:
    std::pmr::memory_resource *mr_;
    Entry *entries_;
    std::uint64_t numFrames_;
    std::size_t registered_ = 0;
};

} // namespace tw

#endif // TW_CORE_FRAME_REGISTRY_HH
