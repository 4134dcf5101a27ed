/**
 * @file
 * Configuration of a simulated cache or TLB.
 *
 * tw_replace() in the paper is "implemented entirely in software", so
 * simulated configurations are unconstrained by the host: any size,
 * line size, associativity, virtual or physical indexing, and
 * task-id tagging (Section 3.2). This struct captures those knobs
 * for both the trap-driven simulator (core/Tapeworm) and the
 * trace-driven baseline (trace/Cache2000).
 */

#ifndef TW_MEM_CACHE_CONFIG_HH
#define TW_MEM_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace tw
{

/** Whether set index (and tag) are formed from virtual or physical
 *  line addresses. */
enum class Indexing { Virtual, Physical };

/**
 * Replacement policy for set-associative configurations.
 *
 * Note the fundamental trap-driven restriction: a trap-driven
 * simulator never observes hits, so recency-based policies (true
 * LRU) cannot be simulated by Tapeworm; FIFO and Random can, and
 * direct-mapped caches need no policy at all. LRU is provided for
 * the trace-driven baseline and the stack simulator.
 */
enum class ReplPolicy { LRU, FIFO, Random };

/** Human-readable name of a replacement policy. */
const char *replPolicyName(ReplPolicy p);

/** Human-readable name of an indexing mode. */
const char *indexingName(Indexing i);

/**
 * Geometry and policy of one simulated cache (or TLB, where a "line"
 * is a page and associativity may equal the entry count).
 */
struct CacheConfig
{
    std::string name = "cache";

    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 4096;

    /** Line size in bytes; for TLBs, the page size. */
    std::uint32_t lineBytes = 16;

    /** Ways per set; sizeBytes/lineBytes for fully associative. */
    std::uint32_t assoc = 1;

    Indexing indexing = Indexing::Physical;

    /**
     * Include the owning task id in the tag (a virtually-indexed
     * cache or TLB with address-space identifiers). Ignored for
     * physical indexing, where the physical address disambiguates.
     */
    bool tagIncludesTask = false;

    ReplPolicy policy = ReplPolicy::FIFO;

    /** Seed for the Random policy (per-trial reseeding allowed). */
    std::uint64_t seed = 1;

    /** Total number of lines. */
    std::uint64_t numLines() const { return sizeBytes / lineBytes; }

    /** Number of sets. */
    std::uint64_t numSets() const { return numLines() / assoc; }

    /** Why the geometry is not usable; empty when it is. */
    std::string check() const;

    /** Abort (fatal) with check()'s reason, if any. */
    void validate() const;

    /** Convenience: a direct-mapped I-cache like the paper's
     *  experiments (4-word = 16-byte lines). */
    static CacheConfig icache(std::uint64_t size_bytes,
                              std::uint32_t line_bytes = 16,
                              std::uint32_t assoc = 1,
                              Indexing idx = Indexing::Physical);

    /** Convenience: a TLB with @p entries entries over @p page_bytes
     *  pages; @p assoc 0 means fully associative. */
    static CacheConfig tlb(std::uint32_t entries,
                           std::uint32_t assoc = 0,
                           std::uint32_t page_bytes = kHostPageBytes);
};

} // namespace tw

#endif // TW_MEM_CACHE_CONFIG_HH
