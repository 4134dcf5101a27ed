/**
 * @file
 * Per-worker bump arenas for trial-lifetime simulator state.
 *
 * A trial constructs a whole simulated machine — page tables, cache
 * line arrays, trap bitmaps — runs it, and throws it away. Under
 * runTrials that construct/destroy cycle repeats thousands of times
 * per sweep, and the general-purpose allocator charges lock traffic
 * and page churn for every round trip. The Arena replaces that with
 * a bump pointer over retained chunks:
 *
 *  - allocation is a pointer add (do_deallocate is a no-op);
 *  - reset() rewinds to the first chunk but KEEPS the chunks, so
 *    after the first trial on a worker the steady state is zero
 *    malloc/free per trial;
 *  - chunks are memset once when first mapped, so their pages fault
 *    in then and not inside the trials that reuse them.
 *
 * Lifetime rule: everything allocated from an arena dies before the
 * enclosing ArenaScope does. Trial code keeps that invariant by
 * construction — Runner::runOne opens the scope before the System
 * and clients, so their (no-op) deallocations all precede the
 * rewind — and anything that must escape the trial (RunOutcome and
 * friends) is plain-old-data copied out, never arena-backed.
 *
 * The active arena is a thread_local binding consulted through
 * arenaResource(); code built on std::pmr sees an ordinary
 * memory_resource and falls back to new_delete_resource() when no
 * scope is open (tests constructing a System directly).
 */

#ifndef TW_BASE_ARENA_HH
#define TW_BASE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory_resource>

namespace tw
{

/**
 * Chunk-retaining bump allocator (see file comment). Not
 * thread-safe: one arena belongs to one worker thread.
 */
class Arena final : public std::pmr::memory_resource
{
  public:
    static constexpr std::size_t kDefaultChunkBytes = 1u << 20;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
    ~Arena() override;

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Rewind to empty, retaining every chunk for reuse. */
    void reset();

    /** Drop every chunk back to the host allocator. */
    void release();

    /** Total bytes of chunks this arena owns (monotone between
     *  release() calls — the obs bytes_reserved feed). */
    std::size_t reservedBytes() const { return reservedBytes_; }

    /** Bytes handed out since the last reset() (diagnostics). */
    std::size_t usedBytes() const { return usedBytes_; }

    std::size_t chunkCount() const { return chunkCount_; }

  private:
    struct Chunk
    {
        Chunk *next;
        std::size_t size; //!< usable bytes after the header
    };

    void *do_allocate(std::size_t bytes,
                      std::size_t alignment) override;

    void
    do_deallocate(void *, std::size_t, std::size_t) override
    {
        // Bump arena: individual frees are no-ops; reset() rewinds.
    }

    bool
    do_is_equal(const std::pmr::memory_resource &other)
        const noexcept override
    {
        return this == &other;
    }

    Chunk *newChunk(std::size_t min_bytes);

    Chunk *head_ = nullptr;    //!< all chunks, in allocation order
    Chunk *current_ = nullptr; //!< chunk the cursor lives in
    std::uintptr_t cursor_ = 0;
    std::uintptr_t limit_ = 0;
    std::size_t nextChunkBytes_;
    std::size_t reservedBytes_ = 0;
    std::size_t usedBytes_ = 0;
    std::size_t chunkCount_ = 0;
};

/** The arena bound to this thread by an open ArenaScope (null when
 *  none). */
Arena *activeArena();

/** Allocate trial-lifetime state from this: the active arena, else
 *  std::pmr::new_delete_resource(). */
std::pmr::memory_resource *arenaResource();

/**
 * Binds this worker thread's retained arena as the active arena for
 * the scope of one trial; the destructor rewinds it (chunks kept).
 * Nested scopes are passthrough — the outer scope stays bound and
 * owns the rewind.
 */
class ArenaScope
{
  public:
    ArenaScope();
    ~ArenaScope();

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

    /** The arena trial allocations land in. */
    Arena &arena() { return *arena_; }

  private:
    Arena *arena_;
    bool owner_;
};

} // namespace tw

#endif // TW_BASE_ARENA_HH
