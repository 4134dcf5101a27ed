#include "workload/loop_nest.hh"

#include <algorithm>
#include <cmath>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace tw
{

std::string
StreamParams::check() const
{
    if (textBytes < 256 || textBytes % kWordBytes != 0)
        return csprintf("stream: text size %llu unusable",
                        static_cast<unsigned long long>(textBytes));
    if (base % kHostPageBytes != 0)
        return "stream: text base must be page aligned";
    std::uint64_t prev = 0;
    for (const auto &lvl : ladder) {
        if (lvl.spanBytes <= prev)
            return "stream: ladder spans must be strictly ascending";
        if (lvl.spanBytes % kWordBytes != 0)
            return "stream: span must be word aligned";
        if (lvl.spanBytes > textBytes)
            return "stream: span exceeds text size";
        // NaN compares false and +inf has no integer floor.
        if (!std::isfinite(lvl.meanReps))
            return "stream: mean reps must be finite";
        if (lvl.meanReps < 1.0)
            return "stream: mean reps below 1";
        prev = lvl.spanBytes;
    }
    // An excursion of no words would be an empty run.
    if (excursionWords == 0)
        return "stream: excursionWords must be at least 1";
    return {};
}

void
StreamParams::validate() const
{
    if (std::string why = check(); !why.empty())
        fatal("%s", why.c_str());
}

std::vector<LoopLevel>
ladderForMissTarget(double miss_at_4k, std::uint64_t text_bytes,
                    double decay_per_doubling)
{
    TW_ASSERT(miss_at_4k > 0.0 && miss_at_4k <= 0.25,
              "target 4K miss ratio %f out of (0, 0.25]", miss_at_4k);
    std::vector<LoopLevel> ladder;

    // Product of repeats needed so that, once the cache holds 4 KB,
    // the miss ratio is miss_at_4k (sequential word fetches over
    // 16-byte lines miss at 0.25 with no reuse).
    double p4 = 0.25 / miss_at_4k;

    std::vector<std::uint64_t> small_spans;
    for (std::uint64_t s : {std::uint64_t(256), std::uint64_t(1024),
                            std::uint64_t(4096)}) {
        if (s < text_bytes)
            small_spans.push_back(s);
    }
    if (!small_spans.empty()) {
        double per =
            std::pow(p4, 1.0 / static_cast<double>(small_spans.size()));
        per = std::max(per, 1.0);
        for (std::uint64_t s : small_spans)
            ladder.push_back(LoopLevel{s, per});
    }

    // Above 4 KB, decay misses by decay_per_doubling per size
    // doubling until the whole text fits.
    for (std::uint64_t s = 8192; s < text_bytes; s *= 2)
        ladder.push_back(LoopLevel{s, std::max(1.0, decay_per_doubling)});

    ladder.push_back(LoopLevel{text_bytes, 1.0});
    return ladder;
}

namespace
{

// A Bernoulli draw as an integer threshold. Rng::uniform() is
// (next() >> 11) * 2^-53, so uniform() < p holds exactly when
// next() >> 11 is below ceil(p * 2^53). The two ends keep
// Rng::chance()'s cases that draw nothing.
constexpr std::uint64_t kNever = 0;
constexpr std::uint64_t kAlways = ~std::uint64_t{0};

std::uint64_t
drawThreshold(double p)
{
    if (!(p > 0.0)) // NaN included
        return kNever;
    if (p >= 1.0)
        return kAlways;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1p53));
}

/** Rng::chance(p) for the threshold drawThreshold(p) gave: the same
 *  draw, if any, and the same outcome. */
inline bool
drawBelow(Rng &rng, std::uint64_t at)
{
    if (at == kNever)
        return false;
    if (at == kAlways)
        return true;
    return (rng.next() >> 11) < at;
}

} // anonymous namespace

LoopNestStream::LoopNestStream(const StreamParams &params)
    : params_(params), rng_(params.seed)
{
    params_.validate();
    // Ensure a top level spanning the whole text.
    if (params_.ladder.empty()
        || params_.ladder.back().spanBytes < params_.textBytes) {
        params_.ladder.push_back(LoopLevel{params_.textBytes, 1.0});
    }
    textEnd_ = params_.base + params_.textBytes;
    excursionAt_ = drawThreshold(params_.excursionProb);
    levels_.reserve(params_.ladder.size());
    for (const LoopLevel &l : params_.ladder) {
        // A mean of 2^53 or more has no fraction, and one of 2^64 or
        // more would not convert. Clamped to 2^62 every mean
        // converts and still repeats its chunk for good: no run
        // finishes 2^62 sweeps of one chunk.
        double mean = std::min(l.meanReps, 0x1p62);
        double floor_part = std::floor(mean);
        Level lvl;
        lvl.span = l.spanBytes;
        lvl.repFloor = static_cast<std::uint64_t>(floor_part);
        lvl.repDrawAt = drawThreshold(mean - floor_part);
        levels_.push_back(lvl);
    }
    restart();
}

inline std::uint64_t
LoopNestStream::drawReps(const Level &lvl)
{
    // check() holds every mean at 1 or more, so repFloor is too.
    return lvl.repFloor + (drawBelow(rng_, lvl.repDrawAt) ? 1 : 0);
}

void
LoopNestStream::restart()
{
    for (Level &lvl : levels_) {
        lvl.chunkBase = params_.base;
        lvl.repsLeft = drawReps(lvl);
    }
    cur_ = params_.base;
    runEnd_ = std::min(params_.base + levels_[0].span, textEnd_);
    excursionLeft_ = 0;
}

void
LoopNestStream::reset(std::uint64_t seed)
{
    rng_.reseed(seed);
    restart();
}

std::unique_ptr<RefStream>
LoopNestStream::clone() const
{
    // True snapshot: position, loop-ladder state and RNG carry
    // over, so the copy continues the sequence exactly where the
    // original stands (the interval sampler replays from these).
    return std::make_unique<LoopNestStream>(*this);
}

inline void
LoopNestStream::advance()
{
    // Fast path: the innermost chunk has sweeps left. Rewind to its
    // base — the run bounds don't move — and make exactly the RNG
    // draws the general walk would (the excursion chance only).
    Level &l0 = levels_[0];
    if (l0.repsLeft > 1) [[likely]] {
        --l0.repsLeft;
        cur_ = l0.chunkBase;
        maybeExcursion();
        return;
    }
    advanceSlow();
}

void
LoopNestStream::advanceSlow()
{
    // Climb from the innermost level to the first one that re-sweeps
    // its chunk or moves to the next sibling chunk within its parent
    // (the top level wraps), drawing the moved chunk's repeats.
    const std::size_t top = levels_.size() - 1;
    std::size_t level = 0;
    while (true) {
        Level &lvl = levels_[level];
        if (lvl.repsLeft > 1) {
            --lvl.repsLeft;
            break;
        }
        if (level == top) {
            lvl.chunkBase = params_.base;
            lvl.repsLeft = drawReps(lvl);
            break;
        }
        const Level &parent = levels_[level + 1];
        Addr next_base = lvl.chunkBase + lvl.span;
        if (next_base < std::min(parent.chunkBase + parent.span, textEnd_)) {
            lvl.chunkBase = next_base;
            lvl.repsLeft = drawReps(lvl);
            break;
        }
        ++level;
    }

    // Reset all inner levels to the start of the (possibly new)
    // level chunk.
    for (std::size_t i = level; i-- > 0;) {
        levels_[i].chunkBase = levels_[i + 1].chunkBase;
        levels_[i].repsLeft = drawReps(levels_[i]);
    }
    cur_ = levels_[0].chunkBase;
    runEnd_ = std::min(cur_ + levels_[0].span, textEnd_);

    maybeExcursion();
}

inline void
LoopNestStream::maybeExcursion()
{
    // Occasionally detour through a random spot in the text: models
    // error paths, PLT stubs and data-dependent branches, and gives
    // direct-mapped caches realistic conflict texture.
    if (!drawBelow(rng_, excursionAt_))
        return;
    std::uint64_t words = params_.textBytes / kWordBytes;
    Addr target = params_.base + rng_.below(words) * kWordBytes;
    resumeCur_ = cur_;
    resumeEnd_ = runEnd_;
    excursionLeft_ = 1;
    cur_ = target;
    runEnd_ = std::min(
        target + static_cast<Addr>(params_.excursionWords) * kWordBytes,
        textEnd_);
}

inline void
LoopNestStream::endRun()
{
    // cur_ has reached runEnd_: resume the run an excursion left, or
    // walk the ladder to the next one. Either leaves cur_ inside the
    // new run.
    if (excursionLeft_) {
        excursionLeft_ = 0;
        cur_ = resumeCur_;
        runEnd_ = resumeEnd_;
    } else {
        advance();
    }
}

Addr
LoopNestStream::next()
{
    Addr a = cur_;
    cur_ += kWordBytes;
    if (cur_ >= runEnd_)
        endRun();
    return a;
}

Counter
LoopNestStream::nextRun(Addr &start)
{
    // The run is [cur_, runEnd_), both word aligned, and cur_ is
    // inside it, so it holds at least one word (check() refuses an
    // excursion of none).
    start = cur_;
    Counter words = (runEnd_ - cur_) / kWordBytes;
    TW_ASSERT(words >= 1, "empty run at %#llx",
              static_cast<unsigned long long>(cur_));
    cur_ = runEnd_;
    endRun();
    return words;
}

void
LoopNestStream::nextBatch(Addr *out, unsigned n)
{
    // Same state machine as next(), but each sequential run is
    // emitted as one tight loop. Invariant at loop entry: cur_ is
    // inside the current run (next() and advance() both leave it
    // there), so left >= 1 and progress is guaranteed.
    unsigned i = 0;
    while (i < n) {
        std::uint64_t left = (runEnd_ - cur_) / kWordBytes;
        unsigned take = static_cast<unsigned>(
            std::min<std::uint64_t>(left, n - i));
        Addr a = cur_;
        Addr *o = out + i;
        unsigned k = 0;
#if defined(__GNUC__)
        // Two 2-lane vector stores per iteration; the -O2 cost
        // model refuses to vectorize the scalar form, which takes
        // about 1.6x as long per address.
        typedef Addr V2 __attribute__((vector_size(16)));
        V2 v = {a, a + kWordBytes};
        const V2 step2 = {2 * kWordBytes, 2 * kWordBytes};
        for (; k + 4 <= take; k += 4) {
            V2 v1 = v + step2;
            __builtin_memcpy(o + k, &v, 16);
            __builtin_memcpy(o + k + 2, &v1, 16);
            v = v1 + step2;
        }
#endif
        for (; k < take; ++k)
            o[k] = a + static_cast<Addr>(k) * kWordBytes;
        i += take;
        cur_ = a + static_cast<Addr>(take) * kWordBytes;
        if (cur_ >= runEnd_)
            endRun();
    }
}

} // namespace tw
