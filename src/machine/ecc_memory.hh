/**
 * @file
 * Word-granular ECC memory: the footnote-1 mechanism, executable.
 *
 * PhysMem keeps one abstract trap bit per granule for speed; this
 * class is the faithful version for a (small) region: every 32-bit
 * word is stored as a full (39,32) SECDED codeword, a trap is set
 * by actually flipping the designated check bit, and every read
 * decodes the codeword — distinguishing Tapeworm traps from genuine
 * single- and double-bit memory errors exactly as the real
 * DECstation implementation did. Its tests hold it to PhysMem: the
 * same trap sets and clears give the same trap verdict on every
 * word, and injected faults read as true errors, never as traps
 * (tests/machine/test_ecc_memory.cc).
 */

#ifndef TW_MACHINE_ECC_MEMORY_HH
#define TW_MACHINE_ECC_MEMORY_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "machine/ecc.hh"

namespace tw
{

/** Counters of ECC events observed at read time. */
struct EccMemoryStats
{
    Counter reads = 0;
    Counter writes = 0;
    Counter tapewormTraps = 0;   //!< designated-check-bit signatures
    Counter trueSingleErrors = 0; //!< corrected real faults
    Counter trueDoubleErrors = 0; //!< uncorrectable real faults
};

/**
 * A word-addressed memory bank storing real SECDED codewords.
 */
class EccMemory
{
  public:
    /** @param words capacity in 32-bit words (all initialized to
     *  clean encodings of zero). */
    explicit EccMemory(std::size_t words);

    std::size_t words() const { return codewords_.size(); }

    /** Write a data word (re-encodes; clears any trap or fault). */
    void write(std::size_t index, std::uint32_t value);

    /**
     * Read a word: decodes the stored codeword, classifies it, and
     * returns the (corrected if possible) data. The classification
     * of the last read is available via lastResult().
     */
    std::uint32_t read(std::size_t index);

    /** Classification of the most recent read(). */
    EccCodec::Result lastResult() const { return lastResult_; }

    /** tw_set_trap at the codeword level: flip the designated check
     *  bit of the word. Idempotence is NOT implied — flipping twice
     *  clears the trap, exactly like the hardware. */
    void flipTrapBit(std::size_t index);

    /** Is the word currently carrying the trap signature? */
    bool isTrapped(std::size_t index) const;

    /** Inject a genuine fault: flip an arbitrary codeword bit. */
    void injectFault(std::size_t index, unsigned bit);

    const EccMemoryStats &stats() const { return stats_; }

  private:
    std::vector<std::uint64_t> codewords_;
    EccCodec::Result lastResult_ = EccCodec::Result::Ok;
    EccMemoryStats stats_;
};

} // namespace tw

#endif // TW_MACHINE_ECC_MEMORY_HH
