/**
 * @file
 * Minimal line-oriented JSON: a value type, a strict parser, and a
 * deterministic single-line writer.
 *
 * The experiment service speaks newline-delimited JSON, and the
 * harness's canonical RunSpec/RunOutcome text (the cache fingerprint
 * input) is the writer's output — so determinism is a correctness
 * requirement, not a nicety:
 *
 *  - object members keep INSERTION order, and dump() emits them in
 *    that order with no whitespace, so a value built by the same
 *    code path always renders to the same bytes;
 *  - numbers carry their original lexeme. A 64-bit seed parses and
 *    re-emits exactly (no double round-trip through 53-bit
 *    mantissas), and doubles written via number(double) use %.17g,
 *    which round-trips every finite double bit-for-bit.
 *
 * No external dependency; the paper-reproduction container offers
 * none, and the subset here (UTF-8 passthrough, \uXXXX escapes, no
 * comments) is all the wire protocol needs.
 */

#ifndef TW_BASE_JSON_HH
#define TW_BASE_JSON_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tw
{

/** One JSON value (see file comment for determinism guarantees). */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() = default;

    static Json null() { return Json(); }
    static Json boolean(bool v);
    static Json number(double v);
    static Json number(std::uint64_t v);
    static Json number(std::int64_t v);
    static Json number(unsigned v)
    {
        return number(static_cast<std::uint64_t>(v));
    }
    static Json number(int v)
    {
        return number(static_cast<std::int64_t>(v));
    }
    /** A number carrying @p lexeme verbatim (the parser's path). */
    static Json numberLexeme(std::string lexeme);
    static Json str(std::string v);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }
    /** True for a number with a negative lexeme (including "-0").
     *  asU64() clamps these to 0 instead of wrapping, so code
     *  reading an unsigned field must reject them explicitly. */
    bool isNegative() const
    {
        return kind_ == Kind::Number && !text_.empty()
               && text_[0] == '-';
    }

    /** Value accessors; wrong-kind access returns the zero value
     *  (the parsers validate kinds before reading). */
    bool asBool() const { return kind_ == Kind::Bool && flag_; }
    double asDouble() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    const std::string &asString() const { return text_; }
    /** The number's exact lexeme (empty for non-numbers). */
    const std::string &lexeme() const { return text_; }

    // Array interface.
    std::size_t size() const { return elems_.size(); }
    const Json &at(std::size_t i) const { return elems_[i]; }
    Json &push(Json v);

    // Object interface (insertion-ordered).
    /** Member lookup; null when absent. */
    const Json *find(const std::string &key) const;
    /** Insert or replace a member (replacement keeps its slot). */
    Json &set(const std::string &key, Json v);
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return members_;
    }

    /** Dotted-path lookup over nested objects ("cache.hits");
     *  null when any hop is absent. */
    const Json *findPath(const std::string &dotted) const;

    /** Render as compact single-line JSON (no newline appended). */
    std::string dump() const;

    /**
     * Parse @p text (one complete JSON value, surrounding whitespace
     * allowed). Returns false and fills @p err (when non-null) on
     * malformed input or trailing garbage.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *err = nullptr);

  private:
    void dumpTo(std::string &out) const;

    Kind kind_ = Kind::Null;
    bool flag_ = false;
    std::string text_; //!< string value or number lexeme
    std::vector<Json> elems_;
    std::vector<std::pair<std::string, Json>> members_;
};

/** Append @p s to @p out as a JSON string literal (with quotes). */
void jsonEscape(const std::string &s, std::string &out);

/**
 * @p v as an I, or nothing when it is not a number or an I cannot
 * hold it: negative for an unsigned I, past its range, or not
 * finite. asU64() and asI64() clamp such values, or cast them with
 * undefined behaviour, so every integer that arrives from outside —
 * a spec's members, a request's seeds, counts and deadlines — is
 * read through here.
 */
template <typename I>
std::optional<I>
integerValue(const Json &v)
{
    using L = std::numeric_limits<I>;
    if (!v.isNumber() || (!L::is_signed && v.isNegative()))
        return {};
    const std::string &lexeme = v.lexeme();
    if (lexeme.find_first_of(".eE") != std::string::npos) {
        // Through the double, range-checked before the cast.
        double d = v.asDouble();
        if (!(d > static_cast<double>(L::min()) - 1.0
              && d < static_cast<double>(L::max()) + 1.0))
            return {};
        return static_cast<I>(d);
    }
    errno = 0;
    if constexpr (L::is_signed) {
        long long x = std::strtoll(lexeme.c_str(), nullptr, 10);
        if (errno == ERANGE || x < L::min() || x > L::max())
            return {};
        return static_cast<I>(x);
    } else {
        unsigned long long x = std::strtoull(lexeme.c_str(), nullptr, 10);
        if (errno == ERANGE || x > L::max())
            return {};
        return static_cast<I>(x);
    }
}

} // namespace tw

#endif // TW_BASE_JSON_HH
