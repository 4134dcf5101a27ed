#include "serve/shard/router.hh"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "base/logging.hh"
#include "harness/specio.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/wire.hh"

namespace tw
{
namespace serve
{

using Clock = std::chrono::steady_clock;

namespace
{

/** router.* counters (process-wide; the router runs one per
 *  process). Names are asserted prom-mangleable by tests/obs. */
struct RouterCounters
{
    obs::Counter submits =
        obs::registry().counter("router.requests.submits");
    obs::Counter runExperiments =
        obs::registry().counter("router.requests.run_experiments");
    obs::Counter badRequests =
        obs::registry().counter("router.requests.bad");
    obs::Counter rejected =
        obs::registry().counter("router.requests.rejected");
    obs::Counter rowsMerged =
        obs::registry().counter("router.rows.merged");
    obs::Counter rowsBuffered =
        obs::registry().counter("router.rows.buffered");
    obs::Counter reserves =
        obs::registry().counter("router.fanout.reserves");
    obs::Counter commits =
        obs::registry().counter("router.fanout.commits");
    obs::Counter releases =
        obs::registry().counter("router.fanout.releases");
    obs::Counter shardFailures =
        obs::registry().counter("router.shards.failures");
    obs::Counter clientsAccepted =
        obs::registry().counter("router.clients.accepted");
    obs::Counter healthPings =
        obs::registry().counter("router.health.pings");
};

RouterCounters &
rc()
{
    static RouterCounters c;
    return c;
}

/** How long a drain waits for slow readers to take the rows they
 *  were admitted for — the Server's default send timeout. */
constexpr std::chrono::seconds kDrainFlushTimeout{30};

/** Per-experiment ResultCache (hits, misses), summed over shards. */
using ExperimentCounts =
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

/**
 * Add the per-experiment hits and misses of one shard's @p stats to
 * @p totals. False, adding nothing, when one is a number that no
 * u64 holds (see peerU64).
 */
bool
addExperimentCounts(ExperimentCounts &totals, const Json &stats,
                    std::string &err)
{
    const Json *exps = stats.find("experiments");
    if (!exps || !exps->isObject())
        return true;
    ExperimentCounts shard;
    for (const auto &[name, e] : exps->members()) {
        std::optional<std::uint64_t> hits = peerU64(e, "hits", err),
                                     misses = peerU64(e, "misses", err);
        if (!hits || !misses)
            return false;
        shard[name].first += *hits;
        shard[name].second += *misses;
    }
    for (const auto &[name, counts] : shard) {
        totals[name].first += counts.first;
        totals[name].second += counts.second;
    }
    return true;
}

} // anonymous namespace

/** Common epoll-tag head: every registered pointer starts with a
 *  Type so wait() results dispatch without RTTI. */
struct Router::Io
{
    enum class Type { Listen, Client, Worker };
    Type type;
    explicit Io(Type t) : type(t) {}
};

struct Router::Listener : Io
{
    Listener() : Io(Type::Listen) {}
    int fd = -1;
};

struct Router::ClientConn : Io
{
    ClientConn() : Io(Type::Client) {}
    Conn conn;
    std::set<Pending *> pendings;
    std::set<AdminFan *> fans;
};

struct Router::WorkerLink : Io
{
    WorkerLink() : Io(Type::Worker) {}
    std::string name; //!< address string = ring member name
    bool isUnix = true;
    std::string host;
    int port = 0;
    Conn conn;
    bool up = false;
    bool awaitingPong = false;
};

/** One trial, planned and fingerprinted at the front door. Trials
 *  of one spec share its key, rendered once; run_jobs ships its
 *  text. */
struct Router::PlannedJob
{
    std::shared_ptr<const SpecKey> key;
    std::uint64_t fingerprint = 0;
    Trial trial;
};

/** One client request fanned over the ring: per-shard two-phase
 *  state plus the seq reorder buffer of the streaming merge. */
struct Router::Pending
{
    ClientConn *client = nullptr; //!< null once the client is gone
    std::uint64_t clientId = 0;
    std::string experiment;
    std::optional<std::uint64_t> deadlineMs;

    struct Part
    {
        WorkerLink *link = nullptr;
        std::vector<PlannedJob> jobs;
        std::uint64_t reservation = 0;
        enum class State
        {
            Reserving,
            Reserved,
            Running,
            Done,
            Failed
        } state = State::Reserving;
    };
    std::vector<Part> parts;
    std::size_t terminal = 0;
    bool committed = false;
    bool failed = false;

    /** seq -> re-tagged framed row line, drained in order. */
    std::map<std::uint64_t, std::string> buffered;
    std::uint64_t nextSeq = 0;
    std::uint64_t totalJobs = 0;

    std::uint64_t rows = 0, cached = 0, computed = 0, expired = 0;
};

/** One stats/flush-cache fan-out over every live shard. */
struct Router::AdminFan
{
    ClientConn *client = nullptr;
    std::uint64_t clientId = 0;
    bool stats = true; //!< else flush-cache
    unsigned outstanding = 0;
    Json shards = Json::object();
    ExperimentCounts experiments;
};

Router::Router(RouterConfig cfg) : cfg_(std::move(cfg)), map_(cfg_.vnodes)
{
    for (const std::string &addr : cfg_.shards) {
        auto link = std::make_unique<WorkerLink>();
        link->name = addr;
        if (addr.find('/') != std::string::npos) {
            link->isUnix = true;
        } else {
            link->isUnix = false;
            std::size_t colon = addr.rfind(':');
            if (colon != std::string::npos) {
                link->host = addr.substr(0, colon);
                link->port = std::atoi(addr.c_str() + colon + 1);
            }
        }
        links_.push_back(std::move(link));
    }
}

Router::~Router()
{
    stop();
}

bool
Router::start(std::string *err)
{
    if (started_.load()) {
        if (err)
            *err = "router already started";
        return false;
    }
    if (cfg_.socketPath.empty()) {
        if (err)
            *err = "no socket path configured";
        return false;
    }
    if (links_.empty()) {
        if (err)
            *err = "no shards configured";
        return false;
    }
    if (!poller_.valid()) {
        if (err)
            *err = "epoll unavailable";
        return false;
    }
    unixFd_ = listenUnixSocket(cfg_.socketPath, err);
    if (unixFd_ < 0)
        return false;
    if (cfg_.tcpPort != 0) {
        tcpFd_ = listenTcpSocket(cfg_.tcpBind, cfg_.tcpPort, err);
        if (tcpFd_ < 0) {
            ::close(unixFd_);
            unixFd_ = -1;
            ::unlink(cfg_.socketPath.c_str());
            return false;
        }
    }
    {
        auto l = std::make_unique<Listener>();
        l->fd = unixFd_;
        setNonBlocking(l->fd);
        poller_.add(l->fd, static_cast<Io *>(l.get()));
        listeners_.push_back(std::move(l));
    }
    if (tcpFd_ >= 0) {
        auto l = std::make_unique<Listener>();
        l->fd = tcpFd_;
        setNonBlocking(l->fd);
        poller_.add(l->fd, static_cast<Io *>(l.get()));
        listeners_.push_back(std::move(l));
    }
    started_.store(true);
    started_at_ = Clock::now();
    thread_ = std::thread([this] { loop(); });
    if (cfg_.verbose)
        std::fprintf(stderr,
                     "twserved: routing %s over %zu shards\n",
                     cfg_.socketPath.c_str(), links_.size());
    return true;
}

void
Router::requestStop()
{
    stopping_.store(true);
    poller_.wake();
}

void
Router::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
Router::stop()
{
    if (!started_.load())
        return;
    requestStop();
    join();
    started_.store(false);
}

// ---------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------

void
Router::loop()
{
    // Connect whatever is already up before serving anything.
    tick();

    std::vector<Poller::Event> events;
    auto interval =
        std::chrono::milliseconds(std::max(1u, cfg_.healthIntervalMs));
    Clock::time_point lastTick = Clock::now();
    bool listenersClosed = false;
    std::optional<Clock::time_point> flushDeadline;

    while (true) {
        if (stopping_.load() && !listenersClosed) {
            for (auto &l : listeners_) {
                poller_.del(l->fd);
                ::close(l->fd);
                l->fd = -1;
            }
            unixFd_ = -1;
            tcpFd_ = -1;
            ::unlink(cfg_.socketPath.c_str());
            listenersClosed = true;
        }
        if (stopping_.load() && pendings_.empty() && fans_.empty()) {
            // Every admitted request has finished, but a slow
            // reader may still hold rows and its `done` in our
            // buffer: keep flushing (bounded) before closing.
            if (!flushDeadline)
                flushDeadline = Clock::now() + kDrainFlushTimeout;
            bool unflushed = false;
            for (const auto &c : clients_)
                unflushed |= !c->conn.dead && c->conn.pendingOut() > 0;
            if (!unflushed || Clock::now() >= *flushDeadline)
                break;
        }

        if (Clock::now() - lastTick >= interval) {
            tick();
            lastTick = Clock::now();
        }

        poller_.wait(50, events);
        for (const Poller::Event &ev : events) {
            Io *io = static_cast<Io *>(ev.tag);
            switch (io->type) {
            case Io::Type::Listen:
                acceptReady(*static_cast<Listener *>(io));
                break;
            case Io::Type::Client: {
                auto *c = static_cast<ClientConn *>(io);
                if (ev.writable)
                    flushConn(io, c->conn, c->conn.fd);
                if (ev.readable)
                    clientReadable(c);
                break;
            }
            case Io::Type::Worker: {
                auto *w = static_cast<WorkerLink *>(io);
                if (ev.writable)
                    flushConn(io, w->conn, w->conn.fd);
                if (ev.readable)
                    workerReadable(w);
                break;
            }
            }
        }

        // Deferred teardown: fds close only here, never mid-batch,
        // so stale tags in `events` cannot dangle.
        for (auto it = clients_.begin(); it != clients_.end();) {
            if ((*it)->conn.dead) {
                ClientConn *c = it->get();
                ++it;
                closeClient(c);
            } else {
                ++it;
            }
        }
        for (auto &l : links_)
            if (l->conn.dead)
                markLinkDown(*l, "connection lost");
    }

    // Drained (or abandoned): tear everything down.
    for (auto &c : clients_) {
        if (c->conn.fd >= 0) {
            poller_.del(c->conn.fd);
            c->conn.closeFd();
        }
    }
    clients_.clear();
    for (auto &l : links_)
        if (l->conn.fd >= 0) {
            poller_.del(l->conn.fd);
            l->conn.closeFd();
        }
    if (!listenersClosed) {
        for (auto &l : listeners_)
            if (l->fd >= 0) {
                poller_.del(l->fd);
                ::close(l->fd);
            }
        ::unlink(cfg_.socketPath.c_str());
    }
    if (cfg_.verbose)
        std::fprintf(stderr, "twserved: router drained\n");
}

void
Router::tick()
{
    for (auto &lp : links_) {
        WorkerLink &l = *lp;
        if (!l.up) {
            if (!stopping_.load())
                connectLink(l);
            continue;
        }
        if (l.awaitingPong) {
            // Two intervals without a pong: the worker is wedged,
            // not just slow — cut it from the ring.
            markLinkDown(l, "health check timeout");
            continue;
        }
        Json ping = Json::object();
        ping.set("op", Json::str("ping"));
        OpRef ref;
        ref.kind = OpRef::Kind::Ping;
        ref.link = &l;
        sendWorkerOp(l, std::move(ping), ref);
        l.awaitingPong = true;
        rc().healthPings.inc();
    }
}

bool
Router::connectLink(WorkerLink &link)
{
    std::string err;
    int fd = link.isUnix
                 ? connectUnixSocket(link.name, &err)
                 : connectTcpSocket(link.host, link.port, &err);
    if (fd < 0)
        return false;
    setNonBlocking(fd);
    link.conn = Conn{};
    link.conn.fd = fd;
    link.awaitingPong = false;
    if (!poller_.add(fd, static_cast<Io *>(&link))) {
        ::close(fd);
        link.conn.fd = -1;
        return false;
    }
    link.up = true;
    upShards_.fetch_add(1);
    map_.add(link.name);
    if (cfg_.verbose)
        std::fprintf(stderr, "twserved: shard %s up (%zu in ring)\n",
                     link.name.c_str(), map_.size());
    return true;
}

void
Router::markLinkDown(WorkerLink &link, const char *why)
{
    if (link.conn.fd >= 0) {
        poller_.del(link.conn.fd);
        link.conn.closeFd();
    }
    link.conn = Conn{};
    link.awaitingPong = false;
    if (link.up) {
        link.up = false;
        upShards_.fetch_sub(1);
        map_.remove(link.name);
        rc().shardFailures.inc();
        if (cfg_.verbose)
            std::fprintf(stderr,
                         "twserved: shard %s down (%s, %zu left)\n",
                         link.name.c_str(), why, map_.size());
    }

    // Settle every op that was in flight on this link. Handling one
    // can mutate ops_ (releases, pending teardown), so restart the
    // scan after each.
    while (true) {
        auto it = ops_.begin();
        for (; it != ops_.end(); ++it)
            if (it->second.link == &link)
                break;
        if (it == ops_.end())
            return;
        OpRef ref = it->second;
        ops_.erase(it);
        switch (ref.kind) {
        case OpRef::Kind::Reserve:
        case OpRef::Kind::Run: {
            Pending &p = *ref.pending;
            Pending::Part &part = p.parts[ref.part];
            if (part.state != Pending::Part::State::Done
                && part.state != Pending::Part::State::Failed) {
                part.state = Pending::Part::State::Failed;
                ++p.terminal;
            }
            failPending(p, kErrShardFailed,
                        "shard " + link.name + " failed");
            partTerminal(p);
            break;
        }
        case OpRef::Kind::Stats:
        case OpRef::Kind::Flush:
            if (ref.fan && ref.fan->outstanding > 0) {
                --ref.fan->outstanding;
                finishFan(*ref.fan);
            }
            break;
        case OpRef::Kind::Ping:
        case OpRef::Kind::Release:
            break;
        }
    }
}

void
Router::flushConn(Io *io, Conn &conn, int fd)
{
    if (conn.dead || fd < 0)
        return;
    conn.flushOut();
    if (!conn.dead)
        poller_.mod(fd, io, conn.wantWrite);
}

void
Router::acceptReady(Listener &l)
{
    while (true) {
        int fd = ::accept(l.fd, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN (or transient) — poll again later
        setNonBlocking(fd);
        auto c = std::make_unique<ClientConn>();
        c->conn.fd = fd;
        if (!poller_.add(fd, static_cast<Io *>(c.get()))) {
            ::close(fd);
            continue;
        }
        rc().clientsAccepted.inc();
        clients_.push_back(std::move(c));
    }
}

void
Router::clientReadable(ClientConn *c)
{
    if (!c->conn.readReady()) {
        // Dead; the post-batch reaper calls closeClient.
    }
    std::string line;
    while (!c->conn.dead && c->conn.extractLine(line))
        if (!line.empty())
            handleClientLine(c, line);
    flushConn(static_cast<Io *>(c), c->conn, c->conn.fd);
}

void
Router::workerReadable(WorkerLink *w)
{
    if (!w->conn.readReady()) {
        // Dead; the post-batch reaper calls markLinkDown.
    }
    std::string line;
    while (!w->conn.dead && w->conn.extractLine(line))
        if (!line.empty())
            handleWorkerLine(w, line);
    // The rows this batch queued go out in one write per client.
    // Clients close only after the event batch, so none is gone.
    for (ClientConn *c : rowsQueued_)
        flushConn(static_cast<Io *>(c), c->conn, c->conn.fd);
    rowsQueued_.clear();
    flushConn(static_cast<Io *>(w), w->conn, w->conn.fd);
}

void
Router::closeClient(ClientConn *c)
{
    abandonPendingsOf(c);
    for (AdminFan *f : c->fans)
        f->client = nullptr;
    c->fans.clear();
    if (c->conn.fd >= 0) {
        poller_.del(c->conn.fd);
        c->conn.closeFd();
    }
    for (auto it = clients_.begin(); it != clients_.end(); ++it)
        if (it->get() == c) {
            clients_.erase(it);
            return;
        }
}

void
Router::abandonPendingsOf(ClientConn *c)
{
    std::vector<Pending *> mine(c->pendings.begin(),
                                c->pendings.end());
    c->pendings.clear();
    for (Pending *p : mine) {
        p->client = nullptr;
        // Releases uncommitted reservations and drops buffered
        // rows; committed shards run to completion and warm their
        // caches (the retry will hit them).
        failPending(*p, kErrShardFailed, "client vanished");
        partTerminal(*p);
    }
}

// ---------------------------------------------------------------
// Client-side protocol
// ---------------------------------------------------------------

void
Router::sendToClient(ClientConn *c, const Json &j)
{
    if (!c || c->conn.dead)
        return;
    c->conn.queueLine(j.dump());
    flushConn(static_cast<Io *>(c), c->conn, c->conn.fd);
}

void
Router::badRequest(ClientConn *c, std::uint64_t id,
                   const std::string &msg)
{
    rc().badRequests.inc();
    sendToClient(c, errorFrame(id, kErrBadRequest, msg));
}

std::uint64_t
Router::sendWorkerOp(WorkerLink &w, Json req, OpRef ref)
{
    std::uint64_t id = nextOpId_++;
    req.set("id", Json::number(id));
    ref.link = &w;
    ops_[id] = ref;
    w.conn.queueLine(req.dump());
    flushConn(static_cast<Io *>(&w), w.conn, w.conn.fd);
    return id;
}

void
Router::handleClientLine(ClientConn *c, const std::string &line)
{
    RequestLine req;
    std::string err;
    if (!decodeRequestLine(line, req, err))
        return badRequest(c, req.id, err);
    const std::uint64_t id = req.id;
    const std::string &op = req.op;

    if (op == "submit" || op == "run_experiment") {
        handleTrials(c, req);
        return;
    }
    if (op == "ping") {
        sendToClient(c, replyFrame(id, "pong"));
        return;
    }
    if (op == "stats") {
        startFan(c, id, /*stats=*/true);
        return;
    }
    if (op == "flush-cache") {
        startFan(c, id, /*stats=*/false);
        return;
    }
    if (op == "metrics") {
        sendToClient(c, metricsFrame(id, req.json));
        return;
    }
    if (op == "shutdown") {
        sendToClient(c, replyFrame(id, "ok"));
        requestStop();
        return;
    }
    badRequest(c, id, "unknown op '" + op + "'");
}

void
Router::handleTrials(ClientConn *c, const RequestLine &req)
{
    (req.op == "submit" ? rc().submits : rc().runExperiments).inc();
    obs::ScopedSpan span("route", "router");

    TrialRequest trials;
    std::string err;
    if (!decodeTrials(req, trials, err))
        return badRequest(c, req.id, err);
    // Fingerprint every trial the way its owner's ResultCache keys
    // it, rendering each spec once: a submit's seeds share one spec,
    // an experiment's jobs each bring their own.
    std::vector<PlannedJob> jobs(trials.trials.size());
    const RunSpec *rendered = nullptr;
    std::shared_ptr<const SpecKey> key;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        Trial &t = trials.trials[i];
        if (t.spec.get() != rendered) {
            rendered = t.spec.get();
            key = std::make_shared<const SpecKey>(*t.spec);
        }
        jobs[i].key = key;
        jobs[i].fingerprint = key->fingerprint(t.seed, t.slowdown);
        jobs[i].trial = std::move(t);
    }
    startRequest(c, req.id, std::move(trials.experiment),
                 std::move(jobs), trials.deadlineMs);
}

void
Router::startRequest(ClientConn *c, std::uint64_t id,
                     std::string experiment,
                     std::vector<PlannedJob> jobs,
                     std::optional<std::uint64_t> deadline_ms)
{
    if (jobs.empty()) {
        // Nothing to fan out (an experiment with no jobs): answer at
        // once, as a single Server does. A pending request with no
        // parts would never finish.
        sendToClient(c, doneFrame(id, 0, 0, 0, 0));
        return;
    }
    if (stopping_.load()) {
        rc().rejected.inc();
        sendToClient(c, errorFrame(id, kErrShuttingDown,
                                   "router is draining"));
        return;
    }
    if (map_.empty()) {
        rc().rejected.inc();
        sendToClient(c, errorFrame(id, kErrShardFailed,
                                   "no shards available"));
        return;
    }

    auto p = std::make_unique<Pending>();
    p->client = c;
    p->clientId = id;
    p->experiment = std::move(experiment);
    p->totalJobs = jobs.size();
    p->deadlineMs = deadline_ms;

    // Group by ring owner. Member order is the sorted member set,
    // so part order is deterministic too.
    std::map<std::string, std::vector<PlannedJob>> byOwner;
    for (PlannedJob &pj : jobs)
        byOwner[map_.owner(pj.fingerprint)].push_back(std::move(pj));
    for (auto &kv : byOwner) {
        Pending::Part part;
        for (auto &lp : links_)
            if (lp->name == kv.first) {
                part.link = lp.get();
                break;
            }
        part.jobs = std::move(kv.second);
        p->parts.push_back(std::move(part));
    }

    Pending *raw = p.get();
    pendings_.push_back(std::move(p));
    c->pendings.insert(raw);

    // Phase 1: reserve on every involved shard. Commit happens only
    // once ALL of them have said yes — all-or-nothing admission,
    // distributed.
    for (std::size_t i = 0; i < raw->parts.size(); ++i) {
        Pending::Part &part = raw->parts[i];
        Json req = Json::object();
        req.set("op", Json::str("reserve"));
        req.set("jobs",
                Json::number(static_cast<std::uint64_t>(
                    part.jobs.size())));
        OpRef ref;
        ref.kind = OpRef::Kind::Reserve;
        ref.pending = raw;
        ref.part = i;
        sendWorkerOp(*part.link, std::move(req), ref);
        rc().reserves.inc();
    }
}

void
Router::commitPending(Pending &p)
{
    obs::ScopedSpan span("commit", "router");
    p.committed = true;
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
        Pending::Part &part = p.parts[i];
        Json req = Json::object();
        req.set("op", Json::str("run_jobs"));
        req.set("reservation", Json::number(part.reservation));
        if (!p.experiment.empty())
            req.set("experiment", Json::str(p.experiment));
        if (p.deadlineMs)
            req.set("deadline_ms", Json::number(*p.deadlineMs));
        // The canonical spec text dwarfs everything else on this
        // wire (~6 KB vs ~100 B of coordinates per job). Hoist the
        // first job's spec to the batch default and only spell out
        // per-job specs that differ (mixed-spec experiment slices).
        // It is the key's text, with sys.trialSeed 0: the worker runs
        // each trial with its own seed there, so that field is moot.
        const std::shared_ptr<const SpecKey> &defaultKey =
            part.jobs.front().key;
        req.set("spec", Json::str(defaultKey->text()));
        Json jobs = Json::array();
        for (const PlannedJob &pj : part.jobs) {
            const Trial &t = pj.trial;
            Json j = Json::object();
            if (pj.key != defaultKey
                && pj.key->text() != defaultKey->text())
                j.set("spec", Json::str(pj.key->text()));
            j.set("seed", Json::number(t.seed));
            j.set("slowdown", Json::boolean(t.slowdown));
            if (!t.unit.empty())
                j.set("unit", Json::str(t.unit));
            j.set("seq", Json::number(t.seq));
            j.set("trial", Json::number(t.index));
            jobs.push(std::move(j));
        }
        req.set("jobs", std::move(jobs));
        part.state = Pending::Part::State::Running;
        OpRef ref;
        ref.kind = OpRef::Kind::Run;
        ref.pending = &p;
        ref.part = i;
        sendWorkerOp(*part.link, std::move(req), ref);
        rc().commits.inc();
    }
}

void
Router::failPending(Pending &p, const char *code,
                    const std::string &msg)
{
    if (!p.failed) {
        p.failed = true;
        if (p.client)
            sendToClient(p.client, errorFrame(p.clientId, code, msg));
        rc().rejected.inc();
    }
    p.buffered.clear();
    // Hand back every reservation that was granted but never
    // committed (only possible while still in phase 1).
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
        Pending::Part &part = p.parts[i];
        if (part.state != Pending::Part::State::Reserved)
            continue;
        part.state = Pending::Part::State::Failed;
        ++p.terminal;
        if (part.link->up) {
            Json rel = Json::object();
            rel.set("op", Json::str("release"));
            rel.set("reservation", Json::number(part.reservation));
            OpRef ref;
            ref.kind = OpRef::Kind::Release;
            sendWorkerOp(*part.link, std::move(rel), ref);
            rc().releases.inc();
        }
    }
}

void
Router::partTerminal(Pending &p)
{
    if (p.terminal < p.parts.size())
        return;
    finishPending(p);
}

void
Router::emitReadyRows(Pending &p)
{
    if (!p.client || p.failed)
        return;
    while (!p.buffered.empty()
           && p.buffered.begin()->first == p.nextSeq) {
        p.client->conn.queueBytes(p.buffered.begin()->second.data(),
                                  p.buffered.begin()->second.size());
        p.buffered.erase(p.buffered.begin());
        ++p.nextSeq;
        rc().rowsMerged.inc();
    }
}

void
Router::finishPending(Pending &p)
{
    if (!p.failed && p.client) {
        emitReadyRows(p);
        // Stragglers (a seq gap from a dropped row) would stall the
        // cursor; a non-failed request has none by construction.
        sendToClient(p.client, doneFrame(p.clientId, p.rows, p.cached,
                                         p.computed, p.expired));
    }
    if (p.client)
        p.client->pendings.erase(&p);
    // Defensive: no op may outlive its pending.
    for (auto it = ops_.begin(); it != ops_.end();)
        it = it->second.pending == &p ? ops_.erase(it) : ++it;
    for (auto it = pendings_.begin(); it != pendings_.end(); ++it)
        if (it->get() == &p) {
            pendings_.erase(it);
            return;
        }
}

// ---------------------------------------------------------------
// Worker-side protocol
// ---------------------------------------------------------------

void
Router::handleWorkerLine(WorkerLink *w, const std::string &line)
{
    Json resp;
    std::string err;
    // A line that does not parse, or a number no u64 holds, is a
    // protocol violation: cut the link (markLinkDown then fails the
    // ops still in flight on it with shard_failed).
    auto violation = [w] { w->conn.dead = true; };
    if (!Json::parse(line, resp, &err) || !resp.isObject())
        return violation();
    std::optional<std::uint64_t> id = peerU64(resp, "id", err);
    if (!id)
        return violation();
    const Json *evj = resp.find("ev");
    if (!evj || !evj->isString())
        return;
    const std::string &ev = evj->asString();

    auto it = ops_.find(*id);
    if (it == ops_.end())
        return; // settled already (late row after a failure)
    OpRef ref = it->second;

    if (ev == "row") {
        if (ref.kind != OpRef::Kind::Run)
            return;
        Pending &p = *ref.pending;
        if (p.failed || !p.client)
            return; // optimistic streaming: late rows are dropped
        const Json *seqj =
            resp.find(p.experiment.empty() ? "trial" : "seq");
        if (!seqj || !seqj->isNumber())
            return;
        std::optional<std::uint64_t> seq =
            integerValue<std::uint64_t>(*seqj);
        if (!seq)
            return violation();
        Json row = resp;
        row.set("id", Json::number(p.clientId));
        std::string framed = row.dump();
        framed.push_back('\n');
        if (*seq != p.nextSeq)
            rc().rowsBuffered.inc();
        p.buffered[*seq] = std::move(framed);
        emitReadyRows(p);
        if (std::find(rowsQueued_.begin(), rowsQueued_.end(), p.client)
            == rowsQueued_.end())
            rowsQueued_.push_back(p.client);
        return;
    }

    if (ev == "done") {
        if (ref.kind != OpRef::Kind::Run)
            return;
        std::optional<std::uint64_t> rows = peerU64(resp, "rows", err);
        std::optional<std::uint64_t> cached = peerU64(resp, "cached", err);
        std::optional<std::uint64_t> computed =
            peerU64(resp, "computed", err);
        std::optional<std::uint64_t> expired =
            peerU64(resp, "expired", err);
        if (!rows || !cached || !computed || !expired)
            return violation();
        ops_.erase(it);
        Pending &p = *ref.pending;
        Pending::Part &part = p.parts[ref.part];
        p.rows += *rows;
        p.cached += *cached;
        p.computed += *computed;
        p.expired += *expired;
        if (part.state != Pending::Part::State::Done
            && part.state != Pending::Part::State::Failed) {
            part.state = Pending::Part::State::Done;
            ++p.terminal;
        }
        partTerminal(p);
        return;
    }

    if (ev == "reserved") {
        if (ref.kind != OpRef::Kind::Reserve)
            return;
        std::optional<std::uint64_t> token =
            peerU64(resp, "reservation", err);
        if (!token)
            return violation();
        ops_.erase(it);
        Pending &p = *ref.pending;
        Pending::Part &part = p.parts[ref.part];
        part.reservation = *token;
        if (p.failed) {
            // Too late — a sibling shard already said no. Hand the
            // slots straight back.
            part.state = Pending::Part::State::Failed;
            ++p.terminal;
            Json rel = Json::object();
            rel.set("op", Json::str("release"));
            rel.set("reservation", Json::number(part.reservation));
            OpRef rref;
            rref.kind = OpRef::Kind::Release;
            sendWorkerOp(*w, std::move(rel), rref);
            rc().releases.inc();
            partTerminal(p);
            return;
        }
        part.state = Pending::Part::State::Reserved;
        for (const Pending::Part &q : p.parts)
            if (q.state != Pending::Part::State::Reserved)
                return; // still waiting on a sibling
        commitPending(p);
        return;
    }

    if (ev == "error") {
        ops_.erase(it);
        const Json *codej = resp.find("code");
        const Json *msgj = resp.find("msg");
        std::string code =
            codej && codej->isString() ? codej->asString()
                                       : kErrShardFailed;
        std::string msg = msgj && msgj->isString()
                              ? msgj->asString()
                              : "shard error";
        switch (ref.kind) {
        case OpRef::Kind::Reserve:
        case OpRef::Kind::Run: {
            Pending &p = *ref.pending;
            Pending::Part &part = p.parts[ref.part];
            if (part.state != Pending::Part::State::Done
                && part.state != Pending::Part::State::Failed) {
                part.state = Pending::Part::State::Failed;
                ++p.terminal;
            }
            failPending(p, code.c_str(),
                        part.link->name + ": " + msg);
            partTerminal(p);
            break;
        }
        case OpRef::Kind::Stats:
        case OpRef::Kind::Flush:
            if (ref.fan && ref.fan->outstanding > 0) {
                --ref.fan->outstanding;
                finishFan(*ref.fan);
            }
            break;
        case OpRef::Kind::Ping:
        case OpRef::Kind::Release:
            break;
        }
        return;
    }

    if (ev == "pong") {
        ops_.erase(it);
        if (ref.kind == OpRef::Kind::Ping)
            w->awaitingPong = false;
        return;
    }

    if (ev == "ok") {
        ops_.erase(it);
        if (ref.kind == OpRef::Kind::Flush && ref.fan
            && ref.fan->outstanding > 0) {
            --ref.fan->outstanding;
            finishFan(*ref.fan);
        }
        return;
    }

    if (ev == "stats") {
        AdminFan *fan =
            ref.kind == OpRef::Kind::Stats ? ref.fan : nullptr;
        const Json *stats = resp.find("stats");
        if (fan && stats
            && !addExperimentCounts(fan->experiments, *stats, err))
            return violation();
        ops_.erase(it);
        if (fan) {
            if (stats)
                fan->shards.set(w->name, *stats);
            if (fan->outstanding > 0)
                --fan->outstanding;
            finishFan(*fan);
        }
        return;
    }
    // Unknown ev: ignore (forward compatibility).
}

// ---------------------------------------------------------------
// Admin fan-out
// ---------------------------------------------------------------

void
Router::startFan(ClientConn *c, std::uint64_t id, bool stats)
{
    auto f = std::make_unique<AdminFan>();
    f->client = c;
    f->clientId = id;
    f->stats = stats;
    AdminFan *raw = f.get();
    fans_.push_back(std::move(f));
    c->fans.insert(raw);
    for (auto &lp : links_) {
        if (!lp->up)
            continue;
        Json req = Json::object();
        req.set("op", Json::str(stats ? "stats" : "flush-cache"));
        OpRef ref;
        ref.kind = stats ? OpRef::Kind::Stats : OpRef::Kind::Flush;
        ref.fan = raw;
        sendWorkerOp(*lp, std::move(req), ref);
        ++raw->outstanding;
    }
    finishFan(*raw); // replies immediately when no shard is up
}

void
Router::finishFan(AdminFan &f)
{
    if (f.outstanding > 0)
        return;
    if (f.client) {
        Json resp = replyFrame(f.clientId, f.stats ? "stats" : "ok");
        if (f.stats) {
            Json stats = Json::object();
            stats.set("role", Json::str("router"));
            stats.set("router", routerStatsJson());
            // Cross-shard ResultCache visibility: per-experiment
            // hit/miss totals summed over every shard's answer.
            Json exps = Json::object();
            for (const auto &[name, counts] : f.experiments) {
                Json e = Json::object();
                e.set("hits", Json::number(counts.first));
                e.set("misses", Json::number(counts.second));
                exps.set(name, std::move(e));
            }
            stats.set("experiments", std::move(exps));
            stats.set("shards", f.shards);
            resp.set("stats", std::move(stats));
        }
        sendToClient(f.client, resp);
        f.client->fans.erase(&f);
    }
    for (auto it = ops_.begin(); it != ops_.end();)
        it = it->second.fan == &f ? ops_.erase(it) : ++it;
    for (auto it = fans_.begin(); it != fans_.end(); ++it)
        if (it->get() == &f) {
            fans_.erase(it);
            return;
        }
}

Json
Router::routerStatsJson() const
{
    Json j = Json::object();
    j.set("uptime_s",
          Json::number(std::chrono::duration<double>(
                           Clock::now() - started_at_)
                           .count()));
    j.set("shards_configured",
          Json::number(
              static_cast<std::uint64_t>(links_.size())));
    j.set("shards_up",
          Json::number(
              static_cast<std::uint64_t>(map_.size())));
    Json shards = Json::object();
    for (const auto &lp : links_)
        shards.set(lp->name, Json::boolean(lp->up));
    j.set("shard_up", std::move(shards));
    j.set("pending_requests",
          Json::number(
              static_cast<std::uint64_t>(pendings_.size())));
    Json ops = Json::object();
    ops.set("submits", Json::number(rc().submits.value()));
    ops.set("run_experiments",
            Json::number(rc().runExperiments.value()));
    ops.set("bad_requests", Json::number(rc().badRequests.value()));
    ops.set("rejected", Json::number(rc().rejected.value()));
    j.set("ops", std::move(ops));
    Json rows = Json::object();
    rows.set("merged", Json::number(rc().rowsMerged.value()));
    rows.set("buffered", Json::number(rc().rowsBuffered.value()));
    j.set("rows", std::move(rows));
    Json fan = Json::object();
    fan.set("reserves", Json::number(rc().reserves.value()));
    fan.set("commits", Json::number(rc().commits.value()));
    fan.set("releases", Json::number(rc().releases.value()));
    j.set("fanout", std::move(fan));
    j.set("shard_failures",
          Json::number(rc().shardFailures.value()));
    return j;
}

} // namespace serve
} // namespace tw
