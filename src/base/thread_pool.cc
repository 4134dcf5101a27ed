#include "base/thread_pool.hh"

#include <atomic>
#include <thread>
#include <vector>

namespace tw
{

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

namespace
{

std::atomic<unsigned> default_threads_override{0};

} // anonymous namespace

unsigned
defaultThreads()
{
    unsigned n = default_threads_override.load(std::memory_order_relaxed);
    return n != 0 ? n : hardwareThreads();
}

void
setDefaultThreads(unsigned n)
{
    default_threads_override.store(n, std::memory_order_relaxed);
}

void
parallelFor(std::uint64_t n,
            const std::function<void(std::uint64_t)> &body,
            unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    if (threads > n)
        threads = static_cast<unsigned>(n);
    if (threads <= 1) {
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::uint64_t> next{0};
    auto drain = [&next, n, &body] {
        for (std::uint64_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
            body(i);
    };

    // The calling thread is one of the workers, so a width-t
    // parallelFor starts only t-1 threads.
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        helpers.emplace_back(drain);
    drain();
    for (std::thread &t : helpers)
        t.join();
}

} // namespace tw
