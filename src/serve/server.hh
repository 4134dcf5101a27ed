/**
 * @file
 * twserved's engine: a persistent experiment service over the
 * harness.
 *
 * Section 5 of the paper argues trap-driven simulation's real
 * payoff is a simulator that LIVES with the machine — resident,
 * warm, and cheap to re-ask (resampling is just a new trap
 * pattern). This server is that, packaged the way Virtuoso-style
 * frameworks are driven: many clients share one process whose
 * baselines are memoized, whose results are cached, and whose
 * capacity is explicit.
 *
 * Structure (one instance, several thread groups):
 *
 *   accept thread ──► session thread per connection
 *                        │  parse line, answer admin ops inline
 *                        │  submit: cache lookups, then admit the
 *                        ▼  sweep ATOMICALLY or reject `overloaded`
 *                 BoundedQueue<Job>  (backpressure edge)
 *                        │
 *                        ▼
 *                 worker threads ──► Runner::runOne/runWithSlowdown
 *                        │      (ServerConfig::workers of them)
 *                        ▼
 *                 result cache insert + row streamed to session
 *
 * Graceful drain: requestStop() (SIGTERM, or the `shutdown` op)
 * closes admission; join() then waits for workers to finish every
 * admitted job — each one still streams its row — before sessions
 * are torn down. A client whose sweep was admitted before the
 * signal gets complete results; one submitting after gets
 * `shutting_down`.
 *
 * Configuration: the server takes its settings from ServerConfig
 * (twserved's flags) and reads no environment. A run_experiment runs
 * the registry grid at the request's scale with every other
 * experiment option at its default, so a served experiment depends
 * on its request alone, never on how the daemon was started.
 */

#ifndef TW_SERVE_SERVER_HH
#define TW_SERVE_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/bounded_queue.hh"
#include "base/json.hh"
#include "serve/metrics.hh"
#include "serve/result_cache.hh"
#include "serve/wire.hh"

namespace tw
{
namespace serve
{

struct ServerConfig
{
    /** Unix-domain socket path (required). */
    std::string socketPath;

    /** Also listen on TCP when nonzero (loopback by default —
     *  the protocol is unauthenticated). */
    int tcpPort = 0;
    std::string tcpBind = "127.0.0.1";

    /** Worker threads; 0 = defaultThreads(). */
    unsigned workers = 0;

    /** Job-queue bound: the backpressure knob. A submit whose
     *  uncached trials don't all fit is rejected `overloaded`. */
    std::size_t queueCapacity = 256;

    /** Result-cache entries. */
    std::size_t cacheCapacity = 4096;

    /** Per-connection send timeout (SO_SNDTIMEO), milliseconds.
     *  A client that stops reading its rows fails the next send
     *  once this lapses and its session is marked dead, so one
     *  wedged peer cannot park the worker pool forever. 0 = never
     *  time out. */
    unsigned sendTimeoutMs = 30000;

    /** Log per-request lines to stderr. */
    bool verbose = false;
};

class Server
{
  public:
    explicit Server(ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind listeners and start threads; false + @p err on bind
     *  failure. */
    bool start(std::string *err = nullptr);

    /** Begin graceful drain (idempotent, signal-safe-adjacent:
     *  called from session threads and signal-watcher threads). */
    void requestStop();

    /** Block until a requested stop has fully drained; then all
     *  threads are joined and sockets closed. */
    void join();

    /** requestStop() + join(). */
    void stop();

    bool stopping() const { return stopping_.load(); }

    const ServerConfig &config() const { return cfg_; }
    ResultCache &cache() { return cache_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /** The admin `stats` payload. */
    Json statsJson();

    /**
     * Test hooks over BoundedQueue::pause()/resume(): after
     * pauseWorkers() returns no job can be dequeued — even by a
     * worker that was already blocked waiting for work. Tests use
     * this to deterministically fill the queue (full-queue
     * rejection) and to freeze admitted jobs across a requestStop.
     * resumeWorkers() must be called before a drain can finish.
     */
    void pauseWorkers();
    void resumeWorkers();

    /** Test hook: sessions still tracked (not yet reaped). Closed
     *  connections leave this within one accept-poll tick. */
    std::size_t liveSessionCount();

  private:
    struct Session;
    struct SessionEntry;
    struct Request;
    struct Job;

    void acceptLoop();
    void sessionLoop(SessionEntry *entry);
    /** Join and forget session threads that have finished (accept
     *  thread only); their fds close once the last Job reference
     *  drops. Keeps a resident daemon from accumulating fds and
     *  threads toward EMFILE. */
    void reapSessions();
    void workerLoop();
    void handleLine(const std::shared_ptr<Session> &session,
                    const std::string &line);
    /** Count and answer a bad_request. */
    void badRequest(const std::shared_ptr<Session> &session,
                    std::uint64_t id, const std::string &msg);
    void handleReserve(const std::shared_ptr<Session> &session,
                       std::uint64_t id, const Json &req);
    void handleRelease(const std::shared_ptr<Session> &session,
                       std::uint64_t id, const Json &req);
    void handleRunJobs(const std::shared_ptr<Session> &session,
                       std::uint64_t id, const Json &req);
    struct CachedHit;
    /**
     * The shared tail of submit, run_experiment and run_jobs: split
     * the decoded @p trials into result-cache hits and jobs, admit
     * the jobs all-or-nothing, then stream the hits in ONE coalesced
     * write. A nonzero @p reservation is a token from `reserve` —
     * the jobs consume its slots instead of competing for free
     * space (two-phase commit; any excess, trials that became cache
     * hits since the reserve, is released).
     */
    void admitTrials(const std::shared_ptr<Session> &session,
                     std::uint64_t id, TrialRequest trials,
                     std::uint64_t reservation = 0);
    /** Remove reservation @p token owned by @p owner from the map,
     *  returning its slot count (0 when unknown/not-owned). Does
     *  NOT touch the queue's reserved space — callers either
     *  pushReserved or releaseReserved with the result. */
    std::size_t takeReservation(std::uint64_t token,
                                const Session *owner);
    /** Session-close cleanup: void and release every reservation
     *  the session still holds (a dead router cannot leak queue
     *  slots). */
    void releaseSessionReservations(const Session *owner);
    void finishOne(const std::shared_ptr<Request> &req);

    ServerConfig cfg_;
    ResultCache cache_;
    MetricsRegistry metrics_;
    BoundedQueue<Job> queue_;

    int unixFd_ = -1;
    int tcpFd_ = -1;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> started_{false};
    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    bool joined_ = false;

    std::thread acceptThread_;
    std::vector<std::thread> workers_;
    std::mutex sessionsMutex_;
    /** A list so entries have stable addresses: each session thread
     *  marks its own entry finished and the accept loop reaps it. */
    std::list<SessionEntry> sessions_;

    /** Outstanding two-phase reservations: token -> (slots, owning
     *  session). The queue holds the aggregate reserved count; this
     *  map attributes it so commit/release/disconnect settle the
     *  right amount. */
    struct ReservationInfo
    {
        std::size_t slots = 0;
        const Session *owner = nullptr;
    };
    std::mutex reservationsMutex_;
    std::map<std::uint64_t, ReservationInfo> reservations_;
    std::uint64_t nextReservation_ = 1;
};

} // namespace serve
} // namespace tw

#endif // TW_SERVE_SERVER_HH
