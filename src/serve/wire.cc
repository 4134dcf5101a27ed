#include "serve/wire.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <limits>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/logging.hh"
#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "obs/metrics.hh"

namespace tw
{
namespace serve
{

// ---------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------

bool
decodeRequestLine(const std::string &line, RequestLine &out,
                  std::string &err)
{
    out.id = 0;
    std::string perr;
    if (!Json::parse(line, out.json, &perr) || !out.json.isObject()) {
        err = "unparseable request: " + perr;
        return false;
    }
    // An id that is not a u64 reads as none, like a non-number one.
    if (const Json *j = out.json.find("id"))
        out.id = integerValue<std::uint64_t>(*j).value_or(0);
    const Json *op = out.json.find("op");
    if (!op || !op->isString()) {
        err = "missing op";
        return false;
    }
    out.op = op->asString();
    return true;
}

std::optional<std::uint64_t>
requestU64(const Json *j, const char *field, const char *kind_msg,
           std::string &err)
{
    if (!j || !j->isNumber() || j->isNegative()) {
        err = kind_msg;
        return {};
    }
    std::optional<std::uint64_t> v = integerValue<std::uint64_t>(*j);
    if (!v)
        err = std::string(field) + " is out of range";
    return v;
}

std::optional<std::uint64_t>
peerU64(const Json &frame, const char *key, std::string &err)
{
    const Json *j = frame.find(key);
    if (!j || !j->isNumber())
        return 0;
    std::optional<std::uint64_t> v = integerValue<std::uint64_t>(*j);
    if (!v)
        err = std::string(key) + " is out of range";
    return v;
}

namespace
{

/** Fail a decode with the bad_request message @p msg. */
bool
bad(std::string &err, std::string msg)
{
    err = std::move(msg);
    return false;
}

bool
decodeSubmit(const Json &req, TrialRequest &out, std::string &err)
{
    const Json *specj = req.find("spec");
    if (!specj)
        return bad(err, "missing spec");
    auto spec = std::make_shared<RunSpec>();
    std::string perr;
    if (specj->isString()) {
        // Canonical text pass-through (what twctl sends).
        if (!parseRunSpec(specj->asString(), *spec, perr))
            return bad(err, "bad spec: " + perr);
    } else if (specj->isObject()) {
        if (!specFromJson(*specj, *spec, perr))
            return bad(err, "bad spec: " + perr);
    } else {
        return bad(err, "spec must be an object or canonical text");
    }

    const Json *seedsj = req.find("seeds");
    if (!seedsj || !seedsj->isArray() || seedsj->size() == 0)
        return bad(err, "seeds must be a non-empty array");
    std::vector<std::uint64_t> seeds;
    seeds.reserve(seedsj->size());
    for (std::size_t i = 0; i < seedsj->size(); ++i) {
        // A clamped or wrapped seed would silently compute the wrong
        // trial.
        std::optional<std::uint64_t> seed =
            requestU64(&seedsj->at(i), "seeds",
                       "seeds must be non-negative integers", err);
        if (!seed)
            return false;
        seeds.push_back(*seed);
    }
    bool slowdown = true;
    if (const Json *j = req.find("slowdown")) {
        if (!j->isBool())
            return bad(err, "slowdown must be a bool");
        slowdown = j->asBool();
    }
    if (const Json *j = req.find("deadline_ms")) {
        out.deadlineMs = requestU64(
            j, "deadline_ms", "deadline_ms must be a non-negative number",
            err);
        if (!out.deadlineMs)
            return false;
    }

    out.trials.resize(seeds.size());
    for (std::size_t t = 0; t < seeds.size(); ++t) {
        Trial &trial = out.trials[t];
        trial.spec = spec;
        trial.seed = seeds[t];
        trial.slowdown = slowdown;
        trial.seq = trial.index = t;
    }
    return true;
}

bool
decodeRunExperiment(const Json &req, TrialRequest &out,
                    std::string &err)
{
    const Json *ej = req.find("experiment");
    if (!ej || !ej->isString())
        return bad(err, "missing experiment");
    const ExperimentDef *def =
        ExperimentRegistry::instance().find(ej->asString());
    if (!def)
        return bad(err, "unknown experiment '" + ej->asString() + "'");
    // A served experiment depends on its request alone: the scale is
    // its one setting, and the grid runs every other option at its
    // default (the paper setup).
    RunExperimentOptions opts;
    if (const Json *j = req.find("scale")) {
        std::optional<std::uint64_t> scale = requestU64(
            j, "scale", "scale must be a non-negative number", err);
        if (!scale)
            return false;
        if (*scale > std::numeric_limits<unsigned>::max())
            return bad(err, "scale is out of range");
        opts.scaleDiv = static_cast<unsigned>(*scale);
    }

    // The SAME deterministic enumeration bench_driver runs locally:
    // units in grid order, trials in plan order, seq dense from 0.
    // Each trial's cache key is the one a local run would use, so a
    // served experiment and a local one share ResultCache entries,
    // and a Router's merge can reorder on seq. Adaptive plans
    // (TrialPlan::stopWhen) do not perturb this: experimentJobs
    // always enumerates the FULL seed list — the upper bound an
    // adaptive local run may stop short of — so all-or-nothing
    // admission sizes against a known worst case.
    out.experiment = def->name;
    std::vector<ExperimentJob> jobs = experimentJobs(*def, opts);
    out.trials.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ExperimentJob &job = jobs[i];
        Trial &t = out.trials[i];
        t.spec = std::make_shared<const RunSpec>(std::move(job.spec));
        t.seed = job.seed;
        t.slowdown = job.withSlowdown;
        t.unit = std::move(job.unit);
        t.seq = job.seq;
        t.index = job.trial;
    }
    return true;
}

} // anonymous namespace

bool
decodeTrials(const RequestLine &req, TrialRequest &out,
             std::string &err)
{
    out = TrialRequest{};
    if (req.op == "submit")
        return decodeSubmit(req.json, out, err);
    if (req.op == "run_experiment")
        return decodeRunExperiment(req.json, out, err);
    err = "unknown op '" + req.op + "'";
    return false;
}

// ---------------------------------------------------------------
// Reply frames
// ---------------------------------------------------------------

Json
replyFrame(std::uint64_t id, const char *ev)
{
    Json j = Json::object();
    j.set("id", Json::number(id));
    j.set("ev", Json::str(ev));
    return j;
}

Json
errorFrame(std::uint64_t id, const char *code, const std::string &msg)
{
    Json j = replyFrame(id, "error");
    j.set("code", Json::str(code));
    j.set("msg", Json::str(msg));
    return j;
}

Json
doneFrame(std::uint64_t id, std::uint64_t rows, std::uint64_t cached,
          std::uint64_t computed, std::uint64_t expired)
{
    Json j = replyFrame(id, "done");
    j.set("rows", Json::number(rows));
    j.set("cached", Json::number(cached));
    j.set("computed", Json::number(computed));
    j.set("expired", Json::number(expired));
    return j;
}

Json
metricsFrame(std::uint64_t id, const Json &req)
{
    Json j = replyFrame(id, "metrics");
    const Json *format = req.find("format");
    if (format && format->isString() && format->asString() == "prom")
        j.set("prom", Json::str(obs::registry().promText()));
    else
        j.set("metrics", obs::registry().snapshotJson());
    return j;
}

Json
rowFrame(std::uint64_t id, const std::string &experiment,
         const Trial &t, bool cached, const RunOutcome *outcome)
{
    Json row = replyFrame(id, "row");
    if (!experiment.empty()) {
        row.set("experiment", Json::str(experiment));
        row.set("unit", Json::str(t.unit));
        row.set("seq", Json::number(t.seq));
    }
    row.set("trial", Json::number(t.index));
    row.set("seed", Json::number(t.seed));
    row.set("cached", Json::boolean(cached));
    if (outcome) {
        row.set("host_s", Json::number(outcome->hostSeconds));
        row.set("outcome", outcomeToJson(*outcome));
    } else {
        row.set("error", Json::str("deadline"));
    }
    return row;
}

bool
decodeRow(const Json &frame, SweepRow &out, std::string &err)
{
    if (const Json *j = frame.find("unit"))
        out.unit = j->asString();
    for (auto [key, field] : {std::pair{"seq", &out.seq},
                              {"trial", &out.trial},
                              {"seed", &out.seed}}) {
        std::optional<std::uint64_t> v = peerU64(frame, key, err);
        if (!v) {
            err = "bad row: " + err;
            return false;
        }
        *field = *v;
    }
    if (const Json *j = frame.find("cached"))
        out.cached = j->asBool();
    if (const Json *j = frame.find("host_s"))
        out.hostSeconds = j->asDouble();
    if (frame.find("error")) {
        out.expired = true;
        return true;
    }
    if (const Json *j = frame.find("outcome")) {
        std::string oerr;
        if (!outcomeFromJson(*j, out.outcome, oerr)) {
            err = "bad outcome row: " + oerr;
            return false;
        }
        // hostSeconds travels outside the canonical text.
        out.outcome.hostSeconds = out.hostSeconds;
    }
    return true;
}

// ---------------------------------------------------------------
// Framing and sockets
// ---------------------------------------------------------------

bool
sendAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed += '\n';
    return sendAll(fd, framed.data(), framed.size());
}

bool
sendJsonLine(int fd, const Json &j)
{
    std::string line = j.dump();
    line += '\n';
    return sendAll(fd, line.data(), line.size());
}

void
LineReader::reset(int fd)
{
    fd_ = fd;
    buf_.clear();
    pos_ = 0;
}

LineReader::Status
LineReader::readLine(std::string &out)
{
    while (true) {
        std::size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            out.assign(buf_, pos_, nl - pos_);
            pos_ = nl + 1;
            // Compact once the consumed prefix dominates.
            if (pos_ > 64 * 1024 && pos_ > buf_.size() / 2) {
                buf_.erase(0, pos_);
                pos_ = 0;
            }
            return Status::Line;
        }
        if (buf_.size() - pos_ > kMaxLineBytes)
            return Status::Error; // unframed flood; see kMaxLineBytes
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::Error;
        }
        if (n == 0)
            return pos_ == buf_.size() ? Status::Eof : Status::Error;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

namespace
{

bool
fillUnixAddr(const std::string &path, sockaddr_un &addr,
             std::string *err)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = csprintf("socket path too long (%zu >= %zu): %s",
                            path.size(), sizeof(addr.sun_path),
                            path.c_str());
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

void
setErr(std::string *err, const char *what)
{
    if (err)
        *err = csprintf("%s: %s", what, std::strerror(errno));
}

} // anonymous namespace

int
connectUnixSocket(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr, err))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        setErr(err, "connect");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectTcpSocket(const std::string &host, int port, std::string *err)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (err)
            *err = csprintf("bad IPv4 address '%s'", host.c_str());
        return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        setErr(err, "connect");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenUnixSocket(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    if (!fillUnixAddr(path, addr, err))
        return -1;
    // A stale socket file from a dead daemon would make bind fail;
    // remove it. A LIVE daemon also loses its file this way — the
    // operator owns path uniqueness (DESIGN.md §9).
    ::unlink(path.c_str());
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        setErr(err, "bind");
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        setErr(err, "listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
listenTcpSocket(const std::string &bind_addr, int port,
                std::string *err)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr)
        != 1) {
        if (err)
            *err = csprintf("bad IPv4 address '%s'",
                            bind_addr.c_str());
        return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, "socket");
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        setErr(err, "bind");
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        setErr(err, "listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace serve
} // namespace tw
