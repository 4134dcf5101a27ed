/**
 * @file
 * The experiment service's wire: newline-delimited JSON framing over
 * a connected socket, and the one codec of the client-facing
 * protocol that Server, Router and Client all speak.
 *
 * The protocol (grammar in DESIGN.md §9) is symmetric at the framing
 * layer: each side writes complete single-line JSON objects
 * terminated by '\n' and reads the peer's lines back. Requests
 * carry an "op" and a client-chosen "id"; every response echoes the
 * "id" and tags itself with an "ev" (row/done/error/stats/ok/pong),
 * so responses to interleaved requests are attributable.
 *
 * Decoding happens here once: a request line becomes an id and an
 * op, and a `submit` or `run_experiment` becomes one list of trials.
 * The reply frames are built here too, so a Server and a Router
 * answer the same request with the same bytes. What each side does
 * with the trials (admission, the result cache, fan-out and the
 * merge) stays with that side. The worker-link ops (`reserve`,
 * `release`, `run_jobs`) have one encoder, the Router, and one
 * decoder, the Server, and live there.
 *
 * Writes use send(MSG_NOSIGNAL): a vanished client must surface as
 * an error return to the worker streaming its rows, never as
 * SIGPIPE killing the daemon.
 */

#ifndef TW_SERVE_WIRE_HH
#define TW_SERVE_WIRE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "harness/runner.hh"

namespace tw
{
namespace serve
{

/** Machine-readable error codes of "ev":"error" responses. */
inline constexpr const char *kErrBadRequest = "bad_request";
inline constexpr const char *kErrOverloaded = "overloaded";
inline constexpr const char *kErrShuttingDown = "shutting_down";

// ---------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------

/** One request line, decoded as far as its envelope. */
struct RequestLine
{
    Json json;            //!< the whole request object
    std::uint64_t id = 0; //!< 0 when the request names none
    std::string op;
};

/**
 * Decode @p line into @p out. False + @p err, the bad_request
 * message, when the line is not a JSON object or carries no string
 * "op"; @p out.id is then whatever id the request did carry.
 */
bool decodeRequestLine(const std::string &line, RequestLine &out,
                       std::string &err);

/**
 * The request field @p field, @p j, as an unsigned 64-bit integer,
 * read through integerValue(). Nothing, with the bad_request message
 * in @p err, when @p j is absent, not a number or negative
 * (@p kind_msg), or one that no u64 holds ("<field> is out of
 * range"). Every count, seed and deadline of the client ops and the
 * worker-link ops is read here.
 */
std::optional<std::uint64_t> requestU64(const Json *j, const char *field,
                                        const char *kind_msg,
                                        std::string &err);

/**
 * Member @p key of @p frame, a frame from a peer (a worker's reply
 * at the router, a server's at the client), read through
 * integerValue(): 0 when absent or not a number; nothing, with
 * "<key> is out of range" in @p err, when it is a number that no
 * u64 holds. The router cuts a worker link that sends one; the
 * client fails the request with a bad frame.
 */
std::optional<std::uint64_t> peerU64(const Json &frame, const char *key,
                                     std::string &err);

/** One trial a request asks for. */
struct Trial
{
    /** A submit shares one parsed spec across all of its seeds; an
     *  experiment's jobs each carry their unit's own. */
    std::shared_ptr<const RunSpec> spec;
    std::uint64_t seed = 0;
    bool slowdown = true;
    std::string unit;        //!< experiment rows only
    std::uint64_t seq = 0;   //!< merge order; a submit's = index
    std::uint64_t index = 0; //!< the row's "trial" field
};

/** A submit or run_experiment, decoded into its trials. */
struct TrialRequest
{
    /** Registry name of a run_experiment; empty for a submit. */
    std::string experiment;
    std::vector<Trial> trials;
    /** A submit's deadline_ms (run_experiment carries none). */
    std::optional<std::uint64_t> deadlineMs;
};

/**
 * Decode the submit or run_experiment @p req (by its op) into @p
 * out. False + @p err, the bad_request message, on a malformed
 * request. A run_experiment enumerates experimentJobs() — the job
 * list a local run uses — and an experiment with no jobs decodes to
 * zero trials, which both Server and Router answer with a `done`.
 */
bool decodeTrials(const RequestLine &req, TrialRequest &out,
                  std::string &err);

// ---------------------------------------------------------------
// Reply frames
// ---------------------------------------------------------------

/** {"id","ev"}: the head of every reply, and the whole of `pong`
 *  and a plain `ok`. */
Json replyFrame(std::uint64_t id, const char *ev);

/** {"id","ev":"error","code","msg"}. */
Json errorFrame(std::uint64_t id, const char *code,
                const std::string &msg);

/** The terminal frame of a submit or run_experiment. */
Json doneFrame(std::uint64_t id, std::uint64_t rows,
               std::uint64_t cached, std::uint64_t computed,
               std::uint64_t expired);

/** The `metrics` reply to @p req: the whole-process registry, as a
 *  snapshot or (with "format":"prom") as Prometheus text. */
Json metricsFrame(std::uint64_t id, const Json &req);

/**
 * The "row" frame of trial @p t of request @p id: its identity
 * (with the unit and seq of an @p experiment row), "cached", then
 * "host_s" and "outcome" — or, for a trial whose deadline expired
 * (null @p outcome), "error":"deadline".
 */
Json rowFrame(std::uint64_t id, const std::string &experiment,
              const Trial &t, bool cached, const RunOutcome *outcome);

/** One streamed trial result, as a client decodes a row frame. */
struct SweepRow
{
    std::string unit;      //!< experiment rows only
    std::uint64_t seq = 0; //!< experiment rows only
    std::uint64_t trial = 0;
    std::uint64_t seed = 0;
    bool cached = false;
    /** Deadline-expired rows carry no outcome. */
    bool expired = false;
    double hostSeconds = 0.0;
    RunOutcome outcome;
};

/** Decode a "row" frame; false + @p err on a malformed outcome or
 *  a seq, trial or seed that no u64 holds (see peerU64). */
bool decodeRow(const Json &frame, SweepRow &out, std::string &err);

// ---------------------------------------------------------------
// Framing and sockets
// ---------------------------------------------------------------

/** Write all of @p data to @p fd (EINTR-safe, SIGPIPE-free). */
bool sendAll(int fd, const char *data, std::size_t len);

/** Write one '\n'-terminated frame. */
bool sendLine(int fd, const std::string &line);

/** dump() + newline + send, the standard response path. */
bool sendJsonLine(int fd, const Json &j);

/**
 * Buffered '\n'-delimited reader over one socket.
 */
class LineReader
{
  public:
    enum class Status { Line, Eof, Error };

    /** Longest accepted line. A peer streaming bytes with no
     *  newline (the listener is unauthenticated on loopback) must
     *  hit a bound, not exhaust memory; 8 MiB is orders of
     *  magnitude above any legitimate frame. */
    static constexpr std::size_t kMaxLineBytes = 8u << 20;

    LineReader() = default;
    explicit LineReader(int fd) : fd_(fd) {}

    void reset(int fd);

    /**
     * Block for the next complete line (without the newline).
     * Eof after the final byte of an exactly-terminated stream;
     * a non-empty partial line at EOF is reported as Error (a
     * truncated frame is a protocol violation, not a message), and
     * so is an unterminated line past kMaxLineBytes.
     */
    Status readLine(std::string &out);

  private:
    int fd_ = -1;
    std::string buf_;
    std::size_t pos_ = 0; //!< scan offset into buf_
};

/** Connect a SOCK_STREAM unix-domain socket; -1 + @p err on
 *  failure. */
int connectUnixSocket(const std::string &path, std::string *err);

/** Connect TCP to @p host:@p port; -1 + @p err on failure. */
int connectTcpSocket(const std::string &host, int port,
                     std::string *err);

/** Bind + listen a unix-domain socket (unlinking any stale file at
 *  @p path); -1 + @p err on failure. */
int listenUnixSocket(const std::string &path, std::string *err);

/** Bind + listen TCP on @p bind_addr:@p port; -1 + @p err. */
int listenTcpSocket(const std::string &bind_addr, int port,
                    std::string *err);

} // namespace serve
} // namespace tw

#endif // TW_SERVE_WIRE_HH
