/**
 * @file
 * Client side of the experiment service: connect, submit a sweep,
 * and fold the streamed rows back into RunOutcomes.
 *
 * This is the library twctl and bench_serve are thin shells over.
 * One Client owns one connection; it is NOT thread-safe (one
 * request in flight at a time — the protocol allows interleaving by
 * id, but no caller here needs it, and a sequential client keeps
 * the row callback ordering trivial to reason about).
 */

#ifndef TW_SERVE_CLIENT_HH
#define TW_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "harness/runner.hh"
#include "serve/wire.hh"

namespace tw
{
namespace serve
{

/** Everything a submit or run_experiment returned. */
struct SweepResult
{
    bool ok = false;
    /** kErrOverloaded / kErrShuttingDown / kErrBadRequest / "" on
     *  transport failure. */
    std::string errorCode;
    std::string errorMsg;

    /** A submit's rows in arrival order; a run_experiment's sorted
     *  by seq — the registry's deterministic job order — so
     *  rendering them with experimentRowJson reproduces a local
     *  `bench_driver --run --rows` stream byte for byte. */
    std::vector<SweepRow> rows;
    std::uint64_t cached = 0;
    std::uint64_t computed = 0;
    std::uint64_t expired = 0;

    /** Outcomes indexed by trial (expired rows left
     *  default-constructed). Size = max trial index + 1. */
    std::vector<RunOutcome> outcomes() const;
};

/** The names run_experiment callers use for the same types. */
using ServedExperimentRow = SweepRow;
using ExperimentResult = SweepResult;

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    bool connectUnix(const std::string &path,
                     std::string *err = nullptr);
    bool connectTcp(const std::string &host, int port,
                    std::string *err = nullptr);
    bool connected() const { return fd_ >= 0; }
    void disconnect();

    /**
     * Submit @p spec over @p seeds and collect every row until the
     * server's "done" (or an error). @p on_row, when set, sees each
     * row as it arrives — rows appear in server completion order,
     * not trial order.
     */
    SweepResult submitSweep(
        const RunSpec &spec,
        const std::vector<std::uint64_t> &seeds,
        bool with_slowdown = true,
        std::optional<std::uint64_t> deadline_ms = std::nullopt,
        const std::function<void(const SweepRow &)> &on_row = {});

    /**
     * Run registry experiment @p name on the server (the
     * run_experiment op) and collect every row. @p scale_div of 0
     * lets the server resolve the experiment's own scale.
     */
    ExperimentResult runExperiment(const std::string &name,
                                   unsigned scale_div = 0);

    /** Fetch the admin stats object into @p out. */
    bool stats(Json &out, std::string *err = nullptr);

    /**
     * Fetch the process-wide metric registry. With @p prom false,
     * @p out is the structured snapshot
     * {"counters":..,"gauges":..,"histograms":..} and @p prom_text
     * is untouched; with @p prom true, @p prom_text receives the
     * Prometheus text exposition instead.
     */
    bool metrics(Json &out, std::string *prom_text,
                 bool prom = false, std::string *err = nullptr);

    bool flushCache(std::string *err = nullptr);

    /** Ask the server to drain and exit. */
    bool shutdownServer(std::string *err = nullptr);

    bool ping(std::string *err = nullptr);

  private:
    /**
     * The one frame loop: send @p req under the next id, then hand
     * each frame answering it to @p on_frame (with its "ev") until
     * that returns true. False + @p err on a transport or framing
     * failure. The id replaces an "id" @p req already holds, so a
     * caller can fix its place in the line; otherwise it goes last.
     */
    bool exchange(
        Json req,
        const std::function<bool(const Json &, const std::string &)>
            &on_frame,
        std::string &err);
    /** Run a submit or run_experiment, collecting its rows. */
    SweepResult collectRows(
        Json req, const std::function<void(const SweepRow &)> &on_row);
    /** Send @p req (op filled in by the caller, id here) and expect
     *  one @p expect_ev frame back. */
    bool requestResponse(Json req, const char *expect_ev,
                         Json &resp, std::string *err);

    int fd_ = -1;
    LineReader reader_;
    std::uint64_t nextId_ = 1;
};

} // namespace serve
} // namespace tw

#endif // TW_SERVE_CLIENT_HH
