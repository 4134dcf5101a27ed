/**
 * @file
 * Minimal logging and error-reporting facilities.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (a simulator bug), fatal() for unusable user
 * configuration, warn()/inform() for status messages that never stop
 * the run.
 */

#ifndef TW_BASE_LOGGING_HH
#define TW_BASE_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <string>

namespace tw
{

/**
 * Render a printf-style format string to a std::string.
 *
 * @param fmt printf-compatible format string.
 * @return The formatted text.
 */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vsnprintf-backed core of csprintf(). */
std::string vcsprintf(const char *fmt, std::va_list args);

/**
 * Abort the process because an internal invariant was violated.
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Exit the process because the user supplied an unusable
 * configuration. Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Name this process's log component tag ("twserved", "bench", ...).
 * Only visible in structured (setLogJson) output; the default human
 * format is unchanged. Call once at startup, before spawning threads.
 */
void setLogComponent(const char *name);

/** Emit warn()/inform() as structured JSON lines (logLineJson)
 *  instead of the human format. twserved's main() turns this on for
 *  TW_LOG=json. Call once at startup, before spawning threads. */
void setLogJson(bool on);

/**
 * Render one structured log line (no trailing newline):
 * {"ts":"<ISO-8601 UTC, ms>","level":..,"thread":..,
 *  "component":..,"msg":..}. Pure function of its inputs so tests
 * can pin the format; warn()/inform() feed it the current clock,
 * a small per-thread ordinal, and the component tag.
 */
std::string logLineJson(const char *level, const char *component,
                        unsigned thread_id, long long unix_ms,
                        const std::string &msg);

/** Panic if @p cond is false; message describes the invariant. */
#define TW_ASSERT(cond, ...)                                            \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::tw::panic("assertion '%s' failed at %s:%d: %s", #cond,    \
                        __FILE__, __LINE__,                             \
                        ::tw::csprintf(__VA_ARGS__).c_str());           \
        }                                                               \
    } while (0)

} // namespace tw

#endif // TW_BASE_LOGGING_HH
