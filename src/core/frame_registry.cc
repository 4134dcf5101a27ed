#include "core/frame_registry.hh"

#include <memory>

#include "base/arena.hh"
#include "base/logging.hh"
#include "os/task.hh"

namespace tw
{

FrameRegistry::FrameRegistry(std::uint64_t num_frames)
    : mr_(arenaResource()), numFrames_(num_frames)
{
    entries_ = static_cast<Entry *>(
        mr_->allocate(numFrames_ * sizeof(Entry), alignof(Entry)));
    std::uninitialized_value_construct_n(entries_, numFrames_);
}

FrameRegistry::~FrameRegistry()
{
    mr_->deallocate(entries_, numFrames_ * sizeof(Entry),
                    alignof(Entry));
}

bool
FrameRegistry::add(const Task &task, Vpn vpn, Pfn pfn, bool shared)
{
    TW_ASSERT(pfn >= 0 && static_cast<std::uint64_t>(pfn) < numFrames_,
              "frame %d outside memory", pfn);
    Entry &e = entries_[pfn];
    if (e.refs != 0) {
        TW_ASSERT(shared, "frame %d already registered but VM says "
                          "unshared", pfn);
        ++e.refs;
        return false;
    }
    TW_ASSERT(!shared, "VM says shared but frame %d unknown", pfn);
    e.refs = 1;
    e.tid = task.tid;
    e.vpn = vpn;
    ++registered_;
    return true;
}

bool
FrameRegistry::remove(Pfn pfn, bool last_mapping)
{
    TW_ASSERT(registered(pfn), "removing unregistered frame %d", pfn);
    Entry &e = entries_[pfn];
    --e.refs;
    TW_ASSERT((e.refs == 0) == last_mapping,
              "refcount disagrees with VM on frame %d", pfn);
    if (e.refs != 0)
        return false;
    e = Entry{};
    --registered_;
    return true;
}

} // namespace tw
