#include "base/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <vector>

#include "base/json.hh"

namespace tw
{

namespace
{

/** The component tag for structured lines. A plain pointer set
 *  once at startup (see setLogComponent's contract). */
const char *logComponent = "tw";

/** Small stable per-thread ordinal — readable in log output where
 *  a hashed std::thread::id would not be. */
unsigned
logThreadId()
{
    static std::atomic<unsigned> next{1};
    thread_local unsigned id = next.fetch_add(1);
    return id;
}

/** Set by setLogJson() at startup; default human lines. */
std::atomic<bool> jsonLines{false};

void
emit(const char *level, const char *human_prefix,
     const std::string &msg)
{
    if (!jsonLines.load(std::memory_order_relaxed)) {
        // Byte-identical to the historical format.
        std::fprintf(stderr, "%s: %s\n", human_prefix, msg.c_str());
        return;
    }
    long long ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::string line =
        logLineJson(level, logComponent, logThreadId(), ms, msg);
    std::fprintf(stderr, "%s\n", line.c_str());
}

} // anonymous namespace

void
setLogComponent(const char *name)
{
    logComponent = name;
}

void
setLogJson(bool on)
{
    jsonLines.store(on, std::memory_order_relaxed);
}

std::string
logLineJson(const char *level, const char *component,
            unsigned thread_id, long long unix_ms,
            const std::string &msg)
{
    std::time_t secs = static_cast<std::time_t>(unix_ms / 1000);
    std::tm tm{};
    gmtime_r(&secs, &tm);
    char ts[64];
    std::snprintf(ts, sizeof(ts),
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                  tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday,
                  tm.tm_hour, tm.tm_min, tm.tm_sec,
                  static_cast<int>(unix_ms % 1000));
    // Assemble via Json for correct string escaping; field order is
    // insertion order, pinned by the unit test.
    Json j = Json::object();
    j.set("ts", Json::str(ts));
    j.set("level", Json::str(level));
    j.set("thread",
          Json::number(static_cast<std::uint64_t>(thread_id)));
    j.set("component", Json::str(component));
    j.set("msg", Json::str(msg));
    return j.dump();
}

std::string
vcsprintf(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return "<format error>";
    std::string out(static_cast<std::size_t>(needed), '\0');
    // C++11 guarantees contiguous storage; +1 for the terminator that
    // vsnprintf always writes.
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    out.assign(buf.data(), static_cast<std::size_t>(needed));
    return out;
}

std::string
csprintf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vcsprintf(fmt, args);
    va_end(args);
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    emit("warn", "warn", msg);
}

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vcsprintf(fmt, args);
    va_end(args);
    emit("info", "info", msg);
}

} // namespace tw
