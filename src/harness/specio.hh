/**
 * @file
 * Canonical text (de)serialization of RunSpec and RunOutcome, and
 * the fingerprint derived from it.
 *
 * One rendering serves three masters, so field drift in any of them
 * is caught by the same round-trip test:
 *
 *  - the experiment service's wire protocol ships specs and
 *    outcomes as these exact bytes;
 *  - the result cache keys on the canonical spec text (plus trial
 *    seed and slowdown flag) — two requests hit the same entry iff
 *    their canonical forms are byte-identical;
 *  - the fingerprint hashes the same bytes into 64 bits, and a
 *    router places each trial on its ring by it.
 *
 * The format is stated once, in specio.cc: one list per struct names
 * its members in canonical order, with the conditional blocks and
 * the "v":1 tags. The writer and the strict reader both walk that
 * list, and so does the --cost-backend dram:k=v form, so none of
 * them can drift from the others.
 *
 * Canonicalization rules:
 *  - fields are emitted in a fixed order with no whitespace
 *    (Json::dump() on an insertion-ordered object);
 *  - doubles render with %.17g (exact round-trip), 64-bit integers
 *    as decimal (never through a double);
 *  - parsing is STRICT: a missing or unknown field is an error, so
 *    adding a member to RunSpec without listing it breaks the
 *    round-trip test instead of silently truncating the cache key. A
 *    number its member cannot hold (negative or too wide for an
 *    integer, not finite for a double) fails the parse, and so does
 *    a value the engine would abort on (a cache or dram geometry, a
 *    set-sampling fraction, a zero quantum). So the canonical form
 *    of every accepted text parses back to the same bytes;
 *  - RunOutcome::hostSeconds is EXCLUDED: it is transport metadata
 *    (wall-clock of whichever host computed the row), not part of
 *    the deterministic outcome, and including it would break the
 *    bit-for-bit served-vs-direct comparison the smoke test makes.
 *    The wire protocol carries it as a separate field;
 *  - keys normalize sys.trialSeed to 0 before rendering: Runner
 *    overwrites it with the per-trial seed, so two specs differing
 *    only there are the same experiment.
 *
 * The key format lives here alone. A SpecKey renders a spec once;
 * every trial's key appends '#seed#flag' to that text, and its
 * fingerprint continues FNV-1a from the state after it. So a server
 * or a router pays one render per spec of a request, however many
 * seeds it holds. cacheKey() and specFingerprint() are the same
 * bytes for a single trial.
 */

#ifndef TW_HARNESS_SPECIO_HH
#define TW_HARNESS_SPECIO_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "base/json.hh"
#include "harness/runner.hh"

namespace tw
{

/** Render @p spec as an insertion-ordered Json object. */
Json specToJson(const RunSpec &spec);

/** The canonical single-line text of @p spec. */
std::string formatRunSpec(const RunSpec &spec);

/** Strict parse (see file comment); false + @p err on failure. */
bool specFromJson(const Json &j, RunSpec &out, std::string &err);
bool parseRunSpec(const std::string &text, RunSpec &out,
                  std::string &err);

/** Render @p o (minus hostSeconds) as a Json object. */
Json outcomeToJson(const RunOutcome &o);

/** The canonical single-line text of @p o (minus hostSeconds). */
std::string formatRunOutcome(const RunOutcome &o);

bool outcomeFromJson(const Json &j, RunOutcome &out, std::string &err);
bool parseRunOutcome(const std::string &text, RunOutcome &out,
                     std::string &err);

/** FNV-1a over @p bytes, continuing from @p state (by default the
 *  standard offset basis). The fingerprint hash. */
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t state = 0xcbf29ce484222325ull);

/**
 * The cache keys and fingerprints of one spec, rendered once. A
 * trial's key is text() + '#' + trial seed + '#' + slowdown flag;
 * its fingerprint is fnv1a64 of those bytes, continued from the
 * state after text(), so neither re-renders the spec.
 */
class SpecKey
{
  public:
    explicit SpecKey(const RunSpec &spec);

    /** The canonical text of the spec with sys.trialSeed set to 0. */
    const std::string &text() const { return text_; }

    /** The result-cache key of one trial. */
    std::string key(std::uint64_t trial_seed, bool with_slowdown) const;

    /** 64-bit fingerprint of key() (ring placement, logging). */
    std::uint64_t fingerprint(std::uint64_t trial_seed,
                              bool with_slowdown) const;

  private:
    std::string text_;
    std::uint64_t state_ = 0; //!< fnv1a64(text_)
};

/** SpecKey(spec).key(): one trial's result-cache key. */
std::string cacheKey(const RunSpec &spec, std::uint64_t trial_seed,
                     bool with_slowdown);

/** SpecKey(spec).fingerprint(): one trial's fingerprint. */
std::uint64_t specFingerprint(const RunSpec &spec,
                              std::uint64_t trial_seed,
                              bool with_slowdown);

/**
 * Parse a CLI backend spec: NAME[:k=v,...], e.g.
 * "dram:tRCD=15,banks=16". The dram keys are those of the spec's
 * dram block (channels, ranks, banks, rowBytes, tRCD, tRP, tCAS,
 * tRAS, tRFC, tREFI, burst, walkReads), each value a decimal that
 * fits its member. Returns false with a diagnostic in @p err on an
 * unknown name or key, a malformed or out-of-range value, or a
 * geometry the dram backend cannot build.
 */
bool parseCostBackendSpec(const std::string &text,
                          CostBackendConfig &out, std::string &err);

/** Render a config back to NAME[:k=v,...] (inverse of the parser;
 *  dram params are listed, in canonical order, only where they
 *  differ from the defaults). */
std::string formatCostBackendSpec(const CostBackendConfig &cfg);

/** Name <-> enum helpers shared with the CLI tools (the canonical
 *  names, as the spec text spells them). */
const char *simKindName(SimKind k);
bool simKindFromName(const std::string &name, SimKind &out);
bool indexingFromName(const std::string &name, Indexing &out);
bool simCacheKindFromName(const std::string &name, SimCacheKind &out);

} // namespace tw

#endif // TW_HARNESS_SPECIO_HH
