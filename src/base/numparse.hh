/**
 * @file
 * Strict decimal parsing of the numbers a command line or the
 * environment gives a program. Only digits are accepted: no sign,
 * space, base prefix or suffix, and no value past the bound. Every
 * numeric flag of bench_driver, bench_serve, twsim, twctl and
 * twserved, and TW_SCALE_DIV, goes through here, so a malformed value is refused
 * the same way everywhere instead of reading as 0 or a default.
 */

#ifndef TW_BASE_NUMPARSE_HH
#define TW_BASE_NUMPARSE_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace tw
{

/** @p text as a decimal integer in 0..@p max; false if it is not. */
bool parseUnsigned(const char *text, std::uint64_t max,
                   std::uint64_t &out);

/** @p text as a positive integer that fits an unsigned. */
bool positiveInt(const char *text, unsigned &out);

/**
 * The numeric flags of one program's command line. A malformed value
 * prints "<prog>: <flag>: malformed value '<text>'" and the program's
 * usage text on stderr, and exits with status 2.
 */
class NumericFlags
{
  public:
    NumericFlags(const char *prog, void (*usage)(std::FILE *))
        : prog_(prog), usage_(usage)
    {
    }

    /** @p text, the value of @p flag, as an integer in @p min..@p max. */
    std::uint64_t number(const std::string &flag, const std::string &text,
                         std::uint64_t min, std::uint64_t max) const;

    /** @p text, the value of @p flag, as a positive unsigned. */
    unsigned positive(const std::string &flag,
                      const std::string &text) const;

    /** @p text, the value of @p flag, as a byte count of at least 64:
     *  digits with an optional K or M (binary) suffix. */
    std::uint64_t bytes(const std::string &flag,
                        const std::string &text) const;

    [[noreturn]] void malformed(const std::string &flag,
                                const std::string &text) const;

    /** Print "<prog>: <why>" and the usage text on stderr, and exit
     *  with status 2: how any refused flag value ends the program. */
    [[noreturn]] void refuse(const std::string &why) const;

  private:
    const char *prog_;
    void (*usage_)(std::FILE *);
};

} // namespace tw

#endif // TW_BASE_NUMPARSE_HH
