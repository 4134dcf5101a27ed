#include "serve/client.hh"

#include <algorithm>
#include <unistd.h>

#include "harness/specio.hh"

namespace tw
{
namespace serve
{

std::vector<RunOutcome>
SweepResult::outcomes() const
{
    std::uint64_t maxTrial = 0;
    for (const SweepRow &r : rows)
        maxTrial = std::max(maxTrial, r.trial);
    std::vector<RunOutcome> out(rows.empty() ? 0 : maxTrial + 1);
    for (const SweepRow &r : rows)
        if (!r.expired)
            out[r.trial] = r.outcome;
    return out;
}

Client::~Client()
{
    disconnect();
}

bool
Client::connectUnix(const std::string &path, std::string *err)
{
    disconnect();
    fd_ = connectUnixSocket(path, err);
    if (fd_ < 0)
        return false;
    reader_.reset(fd_);
    return true;
}

bool
Client::connectTcp(const std::string &host, int port,
                   std::string *err)
{
    disconnect();
    fd_ = connectTcpSocket(host, port, err);
    if (fd_ < 0)
        return false;
    reader_.reset(fd_);
    return true;
}

void
Client::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

namespace
{

/** A request object carrying just its op (the id is added when it
 *  is sent). */
Json
opRequest(const char *op)
{
    Json req = Json::object();
    req.set("op", Json::str(op));
    return req;
}

} // anonymous namespace

bool
Client::exchange(
    Json req,
    const std::function<bool(const Json &, const std::string &)>
        &on_frame,
    std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    std::uint64_t id = nextId_++;
    req.set("id", Json::number(id)); // in place, if the caller put it
    if (!sendJsonLine(fd_, req)) {
        err = "send failed";
        return false;
    }
    std::string line;
    while (true) {
        if (reader_.readLine(line) != LineReader::Status::Line) {
            err = "connection closed mid-response";
            return false;
        }
        Json frame;
        std::string perr;
        if (!Json::parse(line, frame, &perr) || !frame.isObject()) {
            err = "bad frame from server: " + perr;
            return false;
        }
        // An id that no u64 holds reads as none, as in
        // decodeRequestLine.
        const Json *idj = frame.find("id");
        if (!idj || integerValue<std::uint64_t>(*idj).value_or(0) != id)
            continue; // a frame for some other request id
        const Json *evj = frame.find("ev");
        if (on_frame(frame, evj ? evj->asString() : std::string()))
            return true;
    }
}

SweepResult
Client::collectRows(Json req,
                    const std::function<void(const SweepRow &)> &on_row)
{
    SweepResult result;
    auto onFrame = [&](const Json &frame, const std::string &ev) {
        if (ev == "row") {
            SweepRow row;
            if (!decodeRow(frame, row, result.errorMsg))
                return true;
            if (on_row)
                on_row(row);
            result.rows.push_back(std::move(row));
            return false;
        }
        if (ev == "done") {
            for (auto [key, field] :
                 {std::pair{"cached", &result.cached},
                  {"computed", &result.computed},
                  {"expired", &result.expired}}) {
                std::optional<std::uint64_t> v =
                    peerU64(frame, key, result.errorMsg);
                if (!v) {
                    result.errorMsg =
                        "bad frame from server: " + result.errorMsg;
                    return true;
                }
                *field = *v;
            }
            result.ok = true;
        } else if (ev == "error") {
            if (const Json *j = frame.find("code"))
                result.errorCode = j->asString();
            if (const Json *j = frame.find("msg"))
                result.errorMsg = j->asString();
        } else {
            // Unknown event for our id: protocol error.
            result.errorMsg = "unexpected event '" + ev + "'";
        }
        return true;
    };
    exchange(std::move(req), onFrame, result.errorMsg);
    return result;
}

SweepResult
Client::submitSweep(
    const RunSpec &spec, const std::vector<std::uint64_t> &seeds,
    bool with_slowdown, std::optional<std::uint64_t> deadline_ms,
    const std::function<void(const SweepRow &)> &on_row)
{
    Json req = opRequest("submit");
    req.set("id", Json::number(nextId_));
    // Ship the spec as canonical text: the server parses it back
    // with the same strict reader, so what was submitted is exactly
    // what is fingerprinted.
    req.set("spec", Json::str(formatRunSpec(spec)));
    Json seedArr = Json::array();
    for (std::uint64_t s : seeds)
        seedArr.push(Json::number(s));
    req.set("seeds", std::move(seedArr));
    req.set("slowdown", Json::boolean(with_slowdown));
    if (deadline_ms)
        req.set("deadline_ms", Json::number(*deadline_ms));
    return collectRows(std::move(req), on_row);
}

ExperimentResult
Client::runExperiment(const std::string &name, unsigned scale_div)
{
    Json req = opRequest("run_experiment");
    req.set("id", Json::number(nextId_));
    req.set("experiment", Json::str(name));
    if (scale_div != 0)
        req.set("scale", Json::number(
                             static_cast<std::uint64_t>(scale_div)));
    ExperimentResult result = collectRows(std::move(req), {});
    // Workers finish out of order; the registry's job order is by
    // dense seq.
    std::sort(result.rows.begin(), result.rows.end(),
              [](const SweepRow &a, const SweepRow &b) {
                  return a.seq < b.seq;
              });
    return result;
}

bool
Client::requestResponse(Json req, const char *expect_ev, Json &resp,
                        std::string *err)
{
    std::string why;
    bool got = false;
    exchange(
        std::move(req),
        [&](const Json &frame, const std::string &ev) {
            if (ev == expect_ev) {
                resp = frame;
                got = true;
            } else if (ev == "error") {
                const Json *m = frame.find("msg");
                why = m ? m->asString() : "server error";
            } else {
                why = "unexpected event '" + ev + "'";
            }
            return true;
        },
        why);
    if (!got && err)
        *err = why;
    return got;
}

bool
Client::stats(Json &out, std::string *err)
{
    Json resp;
    if (!requestResponse(opRequest("stats"), "stats", resp, err))
        return false;
    if (const Json *s = resp.find("stats")) {
        out = *s;
        return true;
    }
    if (err)
        *err = "stats response missing payload";
    return false;
}

bool
Client::metrics(Json &out, std::string *prom_text, bool prom,
                std::string *err)
{
    Json req = opRequest("metrics");
    if (prom)
        req.set("format", Json::str("prom"));
    Json resp;
    if (!requestResponse(std::move(req), "metrics", resp, err))
        return false;
    if (prom) {
        const Json *p = resp.find("prom");
        if (!p || !p->isString()) {
            if (err)
                *err = "metrics response missing prom payload";
            return false;
        }
        if (prom_text)
            *prom_text = p->asString();
        return true;
    }
    if (const Json *m = resp.find("metrics")) {
        out = *m;
        return true;
    }
    if (err)
        *err = "metrics response missing payload";
    return false;
}

bool
Client::flushCache(std::string *err)
{
    Json resp;
    return requestResponse(opRequest("flush-cache"), "ok", resp, err);
}

bool
Client::shutdownServer(std::string *err)
{
    Json resp;
    return requestResponse(opRequest("shutdown"), "ok", resp, err);
}

bool
Client::ping(std::string *err)
{
    Json resp;
    return requestResponse(opRequest("ping"), "pong", resp, err);
}

} // namespace serve
} // namespace tw
