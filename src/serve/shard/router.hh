/**
 * @file
 * The pool's front door: one async router process that speaks the
 * ordinary twserved protocol to clients and fans every request out
 * over a consistent-hash ring of ordinary twserved workers.
 *
 * Clients do not change AT ALL: twctl, serve::Client, and anything
 * else speaking NDJSON submit/run_experiment sees one server with a
 * bigger queue and a bigger cache. Requests are decoded, and replies
 * framed, by the same codec a single twserved uses (serve/wire.hh),
 * so both answer with the same bytes — an experiment with no jobs
 * gets its zero-count `done` here too, without any fan-out. Behind
 * the socket:
 *
 *   client ──► Router (epoll loop, serve::Poller)
 *                │ enumerate trials, render each spec once
 *                │ (harness/specio SpecKey), fingerprint each
 *                │ trial from it, owner = ShardMap ring lookup
 *                ├─► phase 1: `reserve` N slots on EVERY involved
 *                │            shard — all-or-nothing admission
 *                │            survives distribution: any shard
 *                │            rejecting releases the others and the
 *                │            client sees one typed error
 *                ├─► phase 2: `run_jobs` with the reservation; rows
 *                │            stream back tagged with seq, and each
 *                │            worker read batch reaches a client in
 *                │            one write
 *                └─◄ streaming merge: a per-request reorder buffer
 *                    emits rows in seq order, so a pooled sweep is
 *                    bit-identical — order included — to the
 *                    single-node run
 *
 * Caches stay SHARD-LOCAL: the ring routes by the same fingerprint
 * the ResultCache keys on, so each shard exclusively owns its slice
 * of the key space and a resubmitted sweep is answered entirely
 * from the shards' caches with no invalidation traffic. `stats`
 * fans out and aggregates per-shard hit/miss counts.
 *
 * Failure model (DESIGN.md §14 has the matrix): row streaming is
 * optimistic — once phase 2 commits, rows flow as shards produce
 * them. A shard that dies or drains mid-request fails the request
 * with a typed error (`shard_failed` / the shard's own code), later
 * rows for it are dropped, and the shard leaves the ring (minimal
 * remap) until a health-checked reconnect brings it back. Committed
 * survivors finish server-side and warm their caches for the retry.
 * A drain lets admitted requests finish, then flushes what live
 * clients have yet to read before it closes them.
 */

#ifndef TW_SERVE_SHARD_ROUTER_HH
#define TW_SERVE_SHARD_ROUTER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/json.hh"
#include "serve/poller.hh"
#include "serve/shard/shard_map.hh"

namespace tw
{
namespace serve
{

/** Error code for a request that lost a shard mid-flight (link
 *  death or an empty ring). Worker-originated rejections keep the
 *  worker's own code (`overloaded`, `shutting_down`). */
inline constexpr const char *kErrShardFailed = "shard_failed";

struct RequestLine;

struct RouterConfig
{
    /** Front-door unix socket (required). */
    std::string socketPath;

    /** Also listen on TCP when nonzero. */
    int tcpPort = 0;
    std::string tcpBind = "127.0.0.1";

    /** Worker addresses — unix socket paths (contain '/') or
     *  "host:port". The address STRING is the ring member name, so
     *  router and `twctl shard-owner --pool` agree on ownership. */
    std::vector<std::string> shards;

    /** Virtual nodes per shard on the ring. */
    unsigned vnodes = ShardMap::kDefaultVnodes;

    /** Health-check / reconnect cadence. A worker that misses two
     *  consecutive pings is cut from the ring. */
    unsigned healthIntervalMs = 1000;

    bool verbose = false;
};

class Router
{
  public:
    explicit Router(RouterConfig cfg);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** Bind the front door and start the loop thread; false + @p
     *  err on bind failure. Worker links come up asynchronously —
     *  use `twctl ping --retry` (or submit and let admission
     *  answer) rather than assuming instant connectivity. */
    bool start(std::string *err = nullptr);

    /** Begin graceful drain: stop accepting, reject new work with
     *  shutting_down, let in-flight requests finish, and flush their
     *  rows to clients that read slowly (for up to 30 s) before
     *  closing. Idempotent; callable from signal-watcher threads. */
    void requestStop();

    /** Block until a requested stop has fully drained. */
    void join();

    /** requestStop() + join(). */
    void stop();

    bool stopping() const { return stopping_.load(); }
    const RouterConfig &config() const { return cfg_; }

    /** Live (ring-member) worker count — test/ops visibility,
     *  updated by the loop thread. */
    std::size_t upShardCount() const { return upShards_.load(); }

  private:
    struct Io;
    struct Listener;
    struct ClientConn;
    struct WorkerLink;
    struct Pending;
    struct AdminFan;
    struct PlannedJob;

    /** What an outstanding worker op (keyed by its router-chosen
     *  request id) was for, so the reply — or the link's death —
     *  settles the right piece of state. */
    struct OpRef
    {
        enum class Kind
        {
            Reserve,
            Run,
            Release,
            Ping,
            Stats,
            Flush
        };
        Kind kind = Kind::Ping;
        WorkerLink *link = nullptr;
        Pending *pending = nullptr;
        std::size_t part = 0;
        AdminFan *fan = nullptr;
    };

    void loop();
    void tick();
    bool connectLink(WorkerLink &link);
    void markLinkDown(WorkerLink &link, const char *why);
    void flushConn(Io *io, Conn &conn, int fd);
    void acceptReady(Listener &l);
    void clientReadable(ClientConn *c);
    void workerReadable(WorkerLink *w);
    void closeClient(ClientConn *c);
    void handleClientLine(ClientConn *c, const std::string &line);
    void handleWorkerLine(WorkerLink *w, const std::string &line);
    void sendToClient(ClientConn *c, const Json &j);
    /** Count and answer a bad_request. */
    void badRequest(ClientConn *c, std::uint64_t id,
                    const std::string &msg);
    std::uint64_t sendWorkerOp(WorkerLink &w, Json req, OpRef ref);

    /** submit / run_experiment: decode, fingerprint, fan out. */
    void handleTrials(ClientConn *c, const RequestLine &req);
    void startRequest(ClientConn *c, std::uint64_t id,
                      std::string experiment,
                      std::vector<PlannedJob> jobs,
                      std::optional<std::uint64_t> deadline_ms);
    void startFan(ClientConn *c, std::uint64_t id, bool stats);

    void commitPending(Pending &p);
    void failPending(Pending &p, const char *code,
                     const std::string &msg);
    void partTerminal(Pending &p);
    void finishPending(Pending &p);
    void emitReadyRows(Pending &p);
    void abandonPendingsOf(ClientConn *c);
    void finishFan(AdminFan &f);

    RouterConfig cfg_;
    ShardMap map_;
    Poller poller_;

    int unixFd_ = -1;
    int tcpFd_ = -1;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> started_{false};
    std::atomic<std::size_t> upShards_{0};
    std::thread thread_;
    std::chrono::steady_clock::time_point started_at_;

    // Everything below is owned by the loop thread.
    std::vector<std::unique_ptr<Listener>> listeners_;
    std::list<std::unique_ptr<ClientConn>> clients_;
    std::vector<std::unique_ptr<WorkerLink>> links_;
    std::list<std::unique_ptr<Pending>> pendings_;
    std::list<std::unique_ptr<AdminFan>> fans_;
    std::unordered_map<std::uint64_t, OpRef> ops_;
    std::uint64_t nextOpId_ = 1;
    /** Clients given rows by the worker read batch in progress;
     *  workerReadable flushes each once at the batch's end. */
    std::vector<ClientConn *> rowsQueued_;

    Json routerStatsJson() const;
};

} // namespace serve
} // namespace tw

#endif // TW_SERVE_SHARD_ROUTER_HH
