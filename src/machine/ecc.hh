/**
 * @file
 * SECDED ECC codec modeling the DECstation 5000/200 trap mechanism.
 *
 * Footnote 1 of the paper: "Our implementation of Tapeworm on a
 * DECstation 5000/200 makes use of a single-error correcting,
 * double-error detecting ECC code. A trap is set by flipping a
 * specific ECC check bit among the 7 total check bits assigned to
 * each 32 bits of data. If Tapeworm detects a single-bit error in
 * any of the other 38 check or data bit positions, or if it detects
 * a double-bit error, it knows that a true error has occurred."
 *
 * This codec implements a (39,32) Hamming SECDED code — 32 data
 * bits, 6 Hamming check bits, 1 overall parity bit — and the
 * trap-vs-true-error discrimination described above. EccMemory
 * stores its codewords; the fast path of the machine model keeps a
 * plain trap bit per granule instead of storing full codewords.
 */

#ifndef TW_MACHINE_ECC_HH
#define TW_MACHINE_ECC_HH

#include <cstdint>

namespace tw
{

/**
 * (39,32) SECDED codeword operations.
 *
 * Codeword layout: bit 0 is the overall parity bit; bits at
 * positions 1,2,4,8,16,32 (within the 1-based Hamming index space)
 * are Hamming check bits; the remaining 32 positions carry data.
 */
class EccCodec
{
  public:
    /** What decoding a codeword revealed. */
    enum class Result
    {
        Ok,             //!< no error
        TapewormTrap,   //!< exactly the designated check bit flipped
        SingleBitError, //!< correctable true error (other position)
        DoubleBitError, //!< uncorrectable true error
    };

    /** Number of codeword bits. */
    static constexpr unsigned kBits = 39;

    /** Hamming index (1-based) of the check bit Tapeworm flips. */
    static constexpr unsigned kTrapCheckBit = 32;

    /** Encode 32 data bits into a 39-bit codeword. */
    static std::uint64_t encode(std::uint32_t data);

    /** Flip the designated trap check bit (tw_set_trap at the
     *  codeword level; applying it twice clears the trap). */
    static std::uint64_t flipTrapBit(std::uint64_t codeword);

    /** Flip an arbitrary codeword bit [0, kBits) — fault injection. */
    static std::uint64_t flipBit(std::uint64_t codeword, unsigned pos);

    /** Classify a codeword: clean, tapeworm trap, or true error. */
    static Result decode(std::uint64_t codeword);

    /** Recover the data bits of a codeword (after at most a single
     *  correctable error, which is corrected first). */
    static std::uint32_t extractData(std::uint64_t codeword);
};

/** Human-readable name of a decode result. */
const char *eccResultName(EccCodec::Result r);

} // namespace tw

#endif // TW_MACHINE_ECC_HH
