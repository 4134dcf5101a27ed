#include "base/numparse.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

namespace tw
{

bool
parseUnsigned(const char *text, std::uint64_t max, std::uint64_t &out)
{
    // strtoull alone would take leading space, a sign ("-1" wraps to
    // 2^64-1) and trailing junk.
    if (!text || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*end || errno != 0 || v > max)
        return false;
    out = v;
    return true;
}

bool
positiveInt(const char *text, unsigned &out)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text, UINT_MAX, v) || v == 0)
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

std::uint64_t
NumericFlags::number(const std::string &flag, const std::string &text,
                     std::uint64_t min, std::uint64_t max) const
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text.c_str(), max, v) || v < min)
        malformed(flag, text);
    return v;
}

unsigned
NumericFlags::positive(const std::string &flag,
                       const std::string &text) const
{
    unsigned v = 0;
    if (!positiveInt(text.c_str(), v))
        malformed(flag, text);
    return v;
}

std::uint64_t
NumericFlags::bytes(const std::string &flag,
                    const std::string &text) const
{
    std::string digits = text;
    std::uint64_t unit = 1;
    if (!digits.empty()) {
        switch (digits.back()) {
          case 'K':
          case 'k':
            unit = std::uint64_t{1} << 10;
            break;
          case 'M':
          case 'm':
            unit = std::uint64_t{1} << 20;
            break;
        }
        if (unit > 1)
            digits.pop_back();
    }
    std::uint64_t v = 0;
    if (!parseUnsigned(digits.c_str(), UINT64_MAX / unit, v)
        || v * unit < 64)
        malformed(flag, text);
    return v * unit;
}

void
NumericFlags::malformed(const std::string &flag,
                        const std::string &text) const
{
    refuse(flag + ": malformed value '" + text + "'");
}

void
NumericFlags::refuse(const std::string &why) const
{
    std::fprintf(stderr, "%s: %s\n", prog_, why.c_str());
    usage_(stderr);
    std::exit(2);
}

} // namespace tw
