/**
 * @file
 * The spec flags twsim and twctl share: one parser reads them, one
 * function makes the RunSpec they describe, and the strict spec
 * reader (harness/specio) has the last word before anything runs,
 * as it has on a served spec. A value any of them refuses prints
 * why and the program's usage text, and exits 2, as a malformed
 * number does.
 *
 * The flags, with their defaults: --workload NAME (mpeg_play),
 * --cache SIZE (4K), --line BYTES (16), --assoc N (1), --indexing
 * physical|virtual (physical), --policy fifo|random|lru (the
 * cache's default for its associativity), --sim
 * tapeworm|tlb|trace|oracle (tapeworm), --kind
 * instruction|data|unified (instruction), --scope
 * all|user|servers|kernel (all), --sample N (1), --cost-backend B
 * (table5), --tlb-entries N (64), --tlb-page SIZE (4K) and --scale N
 * (200).
 */

#ifndef TW_HARNESS_SPEC_FLAGS_HH
#define TW_HARNESS_SPEC_FLAGS_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "base/numparse.hh"
#include "harness/runner.hh"

namespace tw
{

/** The spec flags of one command line. A refused value ends the
 *  program through the program's NumericFlags. */
struct SpecFlags
{
    explicit SpecFlags(const NumericFlags &flags) : flags(flags) {}

    /**
     * If @p arg is a spec flag, read its value from @p value() and
     * return true; false if @p arg is not a spec flag. A value the
     * flag cannot take ends the program (see file comment).
     */
    bool take(const std::string &arg,
              const std::function<std::string()> &value);

    /** The RunSpec the flags describe, once the strict reader has
     *  accepted it (a spec it refuses ends the program). */
    RunSpec spec() const;

    const NumericFlags &flags;
    std::string workload = "mpeg_play";
    std::uint64_t cacheBytes = 4096;
    unsigned line = 16;
    unsigned assoc = 1;
    Indexing indexing = Indexing::Physical;
    std::optional<ReplPolicy> policy;
    SimKind sim = SimKind::Tapeworm;
    SimCacheKind kind = SimCacheKind::Instruction;
    std::string scope = "all";
    unsigned sample = 1;
    CostBackendConfig costBackend;
    unsigned tlbEntries = 64;
    std::uint64_t tlbPage = 4096;
    unsigned scale = 200;
    bool scaleSet = false;
};

} // namespace tw

#endif // TW_HARNESS_SPEC_FLAGS_HH
