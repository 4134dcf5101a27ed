#include "base/arena.hh"

#include <cstring>
#include <new>

#include "base/logging.hh"

namespace tw
{

namespace
{

/** Chunk sizes double up to this; single allocations larger than
 *  the cap still get a dedicated chunk of their own size. */
constexpr std::size_t kMaxChunkBytes = 64u << 20;

thread_local Arena *activeArena_ = nullptr;

Arena &
workerArena()
{
    // One retained arena per thread, living as long as the thread:
    // pool workers reuse it across every trial they serve, and the
    // chunks go back to the host allocator at thread exit.
    thread_local Arena arena;
    return arena;
}

} // anonymous namespace

Arena::Arena(std::size_t chunk_bytes) : nextChunkBytes_(chunk_bytes)
{
    TW_ASSERT(chunk_bytes >= 4096, "arena chunks below a page");
}

Arena::~Arena()
{
    release();
}

Arena::Chunk *
Arena::newChunk(std::size_t min_bytes)
{
    std::size_t usable = nextChunkBytes_;
    if (usable < min_bytes)
        usable = min_bytes;
    if (nextChunkBytes_ < kMaxChunkBytes)
        nextChunkBytes_ *= 2;

    auto *raw = static_cast<unsigned char *>(
        ::operator new(sizeof(Chunk) + usable));
    // Touch the whole chunk now, so its pages fault in here, once,
    // and not inside the trials that reuse it.
    std::memset(raw, 0, sizeof(Chunk) + usable);

    auto *chunk = reinterpret_cast<Chunk *>(raw);
    chunk->next = nullptr;
    chunk->size = usable;

    if (current_)
        current_->next = chunk;
    else
        head_ = chunk;
    reservedBytes_ += usable;
    ++chunkCount_;
    return chunk;
}

void *
Arena::do_allocate(std::size_t bytes, std::size_t alignment)
{
    std::uintptr_t p =
        (cursor_ + (alignment - 1)) & ~static_cast<std::uintptr_t>(
            alignment - 1);
    if (p + bytes > limit_ || !current_) {
        // Advance through retained chunks before minting a new one.
        Chunk *chunk = current_ ? current_->next : head_;
        while (chunk && chunk->size < bytes + alignment)
            chunk = chunk->next;
        if (!chunk)
            chunk = newChunk(bytes + alignment);
        current_ = chunk;
        cursor_ = reinterpret_cast<std::uintptr_t>(chunk + 1);
        limit_ = cursor_ + chunk->size;
        p = (cursor_ + (alignment - 1)) & ~static_cast<std::uintptr_t>(
                alignment - 1);
    }
    cursor_ = p + bytes;
    usedBytes_ += bytes;
    return reinterpret_cast<void *>(p);
}

void
Arena::reset()
{
    current_ = head_;
    if (current_) {
        cursor_ = reinterpret_cast<std::uintptr_t>(current_ + 1);
        limit_ = cursor_ + current_->size;
    } else {
        cursor_ = limit_ = 0;
    }
    usedBytes_ = 0;
}

void
Arena::release()
{
    Chunk *chunk = head_;
    while (chunk) {
        Chunk *next = chunk->next;
        ::operator delete(static_cast<void *>(chunk));
        chunk = next;
    }
    head_ = current_ = nullptr;
    cursor_ = limit_ = 0;
    reservedBytes_ = usedBytes_ = 0;
    chunkCount_ = 0;
}

Arena *
activeArena()
{
    return activeArena_;
}

std::pmr::memory_resource *
arenaResource()
{
    Arena *arena = activeArena_;
    return arena ? static_cast<std::pmr::memory_resource *>(arena)
                 : std::pmr::new_delete_resource();
}

ArenaScope::ArenaScope()
{
    if (activeArena_) {
        arena_ = activeArena_;
        owner_ = false;
    } else {
        arena_ = &workerArena();
        activeArena_ = arena_;
        owner_ = true;
    }
}

ArenaScope::~ArenaScope()
{
    if (owner_) {
        activeArena_ = nullptr;
        arena_->reset();
    }
}

} // namespace tw
