/**
 * @file
 * The experiment layer: every table and figure of the paper as a
 * first-class value.
 *
 * A paper artifact is a *configured experiment* — a grid of RunSpecs,
 * a trial plan per grid point, and a presentation that turns the
 * outcomes into the published table. Encoding that as data
 * (ExperimentDef) instead of as 26 near-identical main() functions
 * buys three things at once:
 *
 *  - one driver (`bench_driver --run fig2`) replaces a binary per
 *    artifact, and `--list` enumerates everything the reproduction
 *    can regenerate;
 *  - the service (twserved) can run the same registry entry with a
 *    `run_experiment` op, reusing the same canonical spec text and
 *    therefore the same ResultCache keys as hand-submitted sweeps —
 *    a served run of `fig2` is bit-identical to a local one;
 *  - output is a row PIPELINE (StatSink) rather than printf glue:
 *    the same run can feed the human table, an NDJSON row stream,
 *    the BENCH_*.json perf report, and the wire — without the
 *    experiment knowing which are attached.
 *
 * Determinism contract: unit enumeration (experimentJobs) is a pure
 * function of (def, RunExperimentOptions) — the grid reads no
 * environment, so every setting a run depends on is in its
 * arguments; trials dispatch through parallelFor with per-index
 * writes, so every outcome (minus hostSeconds) is bit-identical to a
 * serial run at any thread count.
 */

#ifndef TW_HARNESS_EXPERIMENT_HH
#define TW_HARNESS_EXPERIMENT_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "harness/runner.hh"
#include "harness/trials.hh"

namespace tw
{

/**
 * How many trials one grid point runs, with which seeds. Seeds are
 * explicit so the serve layer can enumerate (and cache-key) every
 * job without private knowledge of the derivation rule.
 *
 * `seeds` is always the full enumeration — the UPPER BOUND an
 * adaptive plan may run. Job enumeration (experimentJobs) and
 * therefore server admission always see the full list; a run-time
 * stop merely leaves the tail unexecuted (rows keep their
 * full-enumeration seq values, so the emitted prefix is unchanged).
 */
struct TrialPlan
{
    std::vector<std::uint64_t> seeds;
    /** Pair each trial with its memoized uninstrumented baseline
     *  (fills RunOutcome::slowdown). */
    bool withSlowdown = false;
    /** CI-driven early stopping (disabled by default: classic fixed
     *  plan). Deliberately NOT serialized into specs or cache keys —
     *  adaptive trials hit the very same ResultCache entries the
     *  full plan would. */
    StopRule stopWhen;

    /** A single run with @p seed. */
    static TrialPlan one(std::uint64_t seed, bool with_slowdown = false);

    /** @p n trials with the seeds derivedTrialSeeds(n, base). */
    static TrialPlan derived(unsigned n, std::uint64_t base,
                             bool with_slowdown = false);

    /** Up to @p max_n derived trials, stopping early per @p rule
     *  (rule.enabled is forced on). */
    static TrialPlan adaptive(unsigned max_n, std::uint64_t base,
                              StopRule rule,
                              bool with_slowdown = false);
};

/** One grid point: an id unique within the experiment, a spec, and
 *  the trials to run on it. */
struct ExperimentUnit
{
    std::string id;
    RunSpec spec;
    TrialPlan plan;
};

struct ExperimentDef;
class ExperimentContext;

/**
 * Everything a run of an experiment depends on besides its
 * definition. A grid receives these with the scale resolved, so the
 * caller — bench_driver's flags, a run_experiment request, a test —
 * is the one place a setting comes from. The defaults are the
 * paper's setup: table5 pricing, no sampling, DMA on, fixed trial
 * plans.
 */
struct RunExperimentOptions
{
    /** Workload scale divisor; 0 = the experiment's own
     *  (def.scaleDiv). Fixed-scale experiments ignore it. */
    unsigned scaleDiv = 0;
    /** Emit the [report] presentation extras (the driver pairs this
     *  with a JsonReportSink). */
    bool report = false;
    /** Miss-cost backend of every unit built on the default spec;
     *  the default keeps the default spec bytes. */
    CostBackendConfig costBackend{};
    /** Representative-interval sampling for the units that can be
     *  eligible (disabled = the full run, bit-identical). */
    SampleConfig sample{};
    /** Zero SystemConfig::dmaFlushPeriod on those same units: the
     *  sampled-vs-full comparison runs both sides without DMA frame
     *  recycling, which the stream-driven estimator does not
     *  model. */
    bool noDma = false;
    /** Adaptive stopping for the variation sweeps; disabled = the
     *  fixed trial plans. */
    StopRule stopRule{};
};

/**
 * One declarative experiment. `grid` builds the servable part (may
 * be empty for host-probe style artifacts); `present` renders the
 * human table from the grid outcomes and may run bespoke
 * non-Runner machinery of its own (write buffers, stack simulators,
 * live code counting).
 */
struct ExperimentDef
{
    /** Registry key (`--run fig2`). Stable, unique, lowercase. */
    std::string name;
    /** The paper artifact regenerated ("Figure 2", "Table 7"...). */
    std::string artifact;
    /** One-line description (banner + --list). */
    std::string description;
    /** BENCH_<report>.json stem; empty = no machine report. */
    std::string report;
    /** Default workload scale divisor (RunExperimentOptions::scaleDiv
     *  overrides it). */
    unsigned scaleDiv = 200;
    /** true: the artifact always runs at scaleDiv and no scale
     *  setting applies (e.g. synthetic streams that don't scale). */
    bool fixedScale = false;
    /** Print the standard banner before the run. */
    bool banner = true;
    /** Build the spec grid under @p opts (scaleDiv resolved). Null =
     *  no grid. */
    std::function<std::vector<ExperimentUnit>(
        const RunExperimentOptions &opts)>
        grid;
    /** Render tables/metrics from the outcomes. Null = rows only. */
    std::function<void(ExperimentContext &ctx)> present;
};

/** One flattened (unit, trial) job: the unit of caching, queueing
 *  and row streaming. `seq` is the deterministic global row index. */
struct ExperimentJob
{
    std::string unit;
    std::uint64_t seq = 0;
    std::uint64_t trial = 0;
    std::uint64_t seed = 0;
    bool withSlowdown = false;
    RunSpec spec;
};

/**
 * The deterministic job enumeration of @p def under @p opts: units in
 * grid order, trials in plan order, seq densely increasing from 0.
 * Local driver and server both run exactly this list, which is what
 * makes their rows (and ResultCache keys) bit-identical.
 */
std::vector<ExperimentJob>
experimentJobs(const ExperimentDef &def,
               const RunExperimentOptions &opts);

/** One result row flowing through a StatSink. */
struct ExperimentRow
{
    std::string experiment;
    std::string unit;
    std::uint64_t seq = 0;
    std::uint64_t trial = 0;
    std::uint64_t seed = 0;
    /** Non-default cost backend name; empty (the table5 default)
     *  keeps the row bytes of the pre-backend schema. */
    std::string costBackend;
    const RunOutcome *outcome = nullptr;
};

/** The row tag of @p spec's cost backend: empty for the default
 *  (table5) so default rows stay byte-identical, the backend name
 *  otherwise. Follows the sim kind: only the simulator that runs
 *  prices misses. */
std::string costBackendTag(const RunSpec &spec);

/**
 * The canonical row object: {experiment, unit, seq, trial, seed,
 * [backend,] outcome} with outcome rendered by outcomeToJson
 * (hostSeconds excluded) and "backend" present only when
 * @p cost_backend is non-empty (a non-default backend). Served rows
 * re-render through this exact function, so `twctl --experiment`
 * output diffs clean against `bench_driver --run X --rows -`.
 */
Json experimentRowJson(const std::string &experiment,
                       const std::string &unit, std::uint64_t seq,
                       std::uint64_t trial, std::uint64_t seed,
                       const RunOutcome &outcome,
                       const std::string &cost_backend = std::string());

/**
 * Row pipeline stage. The engine drives every attached sink with
 * the banner/table text, each result row, and the scalar metrics;
 * sinks pick what they care about.
 */
class StatSink
{
  public:
    virtual ~StatSink() = default;

    /** Run is starting (after scale resolution). */
    virtual void begin(const ExperimentDef &def, unsigned scale)
    {
        (void)def;
        (void)scale;
    }

    /** Human-readable output chunk (banner, tables, notes). */
    virtual void text(const std::string &chunk) { (void)chunk; }

    /** One result row, in seq order. */
    virtual void row(const ExperimentRow &r) { (void)r; }

    /** One scalar metric (BENCH report channel). */
    virtual void metric(const std::string &key, double value)
    {
        (void)key;
        (void)value;
    }

    /** One string annotation (BENCH report channel) — host facts
     *  that are labels, not measurements (e.g. the SIMD level the
     *  run used). Kept apart from metric() so numeric consumers
     *  never see non-numeric fields. */
    virtual void note(const std::string &key, const std::string &value)
    {
        (void)key;
        (void)value;
    }

    /** Run finished (presentation included). */
    virtual void end(const ExperimentDef &def) { (void)def; }
};

/** Fan out to several sinks in order. Does not own them. */
class MultiSink : public StatSink
{
  public:
    void add(StatSink *sink) { sinks_.push_back(sink); }

    void begin(const ExperimentDef &def, unsigned scale) override;
    void text(const std::string &chunk) override;
    void row(const ExperimentRow &r) override;
    void metric(const std::string &key, double value) override;
    void note(const std::string &key, const std::string &value) override;
    void end(const ExperimentDef &def) override;

  private:
    std::vector<StatSink *> sinks_;
};

/** The human table channel: text chunks to a FILE* (stdout). */
class TablePrinterSink : public StatSink
{
  public:
    explicit TablePrinterSink(std::FILE *out = stdout) : out_(out) {}
    void text(const std::string &chunk) override;

  private:
    std::FILE *out_;
};

/** Canonical row stream: one experimentRowJson line per row. */
class NdjsonSink : public StatSink
{
  public:
    explicit NdjsonSink(std::FILE *out) : out_(out) {}
    void row(const ExperimentRow &r) override;

  private:
    std::FILE *out_;
};

/**
 * The BENCH_<report>.json reporter (schema_version 2): collects
 * metrics during the run and writes the report at end(), stamping
 * schema_version / experiment / generated_by alongside the legacy
 * bench / threads / wall_clock_s fields.
 */
/**
 * Write BENCH_<report>.json in the unified schema (schema_version,
 * bench, experiment, generated_by, threads, wall_clock_s, then the
 * metrics in insertion order) and print the [json] stdout line.
 * JsonReportSink and bench_serve's report both funnel through
 * here so every report stays uniform.
 *
 * @p obs_metrics optionally appends a `"metrics"` object — a
 * snapshot of the process-wide obs registry (engine.* counters and
 * friends). Host-side diagnostics only, like wall_clock_s: never
 * part of the canonical result rows.
 */
void writeBenchReport(
    const std::string &report, const std::string &experiment,
    const std::string &generated_by, double wall_clock_s,
    const std::vector<std::pair<std::string, double>> &metrics,
    const Json *obs_metrics = nullptr,
    const std::vector<std::pair<std::string, std::string>> &notes = {});

class JsonReportSink : public StatSink
{
  public:
    /** @p generated_by names the producing tool (argv[0] basename). */
    JsonReportSink(std::string report, std::string experiment,
                   std::string generated_by);

    void begin(const ExperimentDef &def, unsigned scale) override;
    void metric(const std::string &key, double value) override;
    void note(const std::string &key, const std::string &value) override;
    void end(const ExperimentDef &def) override;

    /** Also embed an obs-registry snapshot under `"metrics"` in the
     *  report (bench_driver --metrics). */
    void setIncludeObsMetrics(bool on) { includeObsMetrics_ = on; }

  private:
    std::string report_;
    std::string experiment_;
    std::string generatedBy_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
    bool includeObsMetrics_ = false;
};

/**
 * What present() sees: the grid outcomes plus the output channels.
 * Outcomes are indexed by unit id; missing ids are fatal (a typo in
 * a registration is a bug, not a condition).
 */
class ExperimentContext
{
  public:
    unsigned scale() const { return scale_; }
    /** --report passed: emit the [report] stdout lines too. */
    bool reportRequested() const { return report_; }

    const std::vector<ExperimentUnit> &units() const { return units_; }

    /** All trial outcomes of @p unit_id, in trial order. */
    const std::vector<RunOutcome> &
    outcomes(const std::string &unit_id) const;

    /** The single/first outcome of @p unit_id. */
    const RunOutcome &outcome(const std::string &unit_id) const;

    /** printf to the text channel. */
    void print(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    /** Record a scalar metric (BENCH report channel). */
    void metric(const std::string &key, double value);

    /** Record a string annotation (BENCH report channel). */
    void note(const std::string &key, const std::string &value);

  private:
    friend void runExperiment(const ExperimentDef &, StatSink &,
                              const RunExperimentOptions &);

    ExperimentContext(StatSink &sink, unsigned scale, bool report)
        : sink_(sink), scale_(scale), report_(report)
    {
    }

    StatSink &sink_;
    unsigned scale_;
    bool report_;
    std::vector<ExperimentUnit> units_;
    std::map<std::string, std::vector<RunOutcome>> outcomes_;
};

/** The scale a run of @p def uses when asked for @p scale_div
 *  (0 = the experiment's own; a fixed-scale experiment ignores it). */
unsigned experimentScale(const ExperimentDef &def, unsigned scale_div);

/**
 * Run @p def: banner, grid (trials in parallel, rows streamed in
 * seq order), then presentation. All output flows through @p sink.
 */
void runExperiment(const ExperimentDef &def, StatSink &sink,
                   const RunExperimentOptions &opts = {});

/**
 * The process-wide experiment registry. Registration happens from
 * static initializers (ExperimentRegistrar), so any binary linking
 * the tw_experiments object library sees the full catalogue; the
 * built-in `smoke` experiment registers from tw_harness itself.
 */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Fatal on duplicate name (two registrations colliding is a
     *  build error, not a runtime condition). */
    void add(ExperimentDef def);

    /** Null when unknown. */
    const ExperimentDef *find(const std::string &name) const;

    /** All names, sorted (the --list order). */
    std::vector<std::string> names() const;

    std::size_t size() const { return defs_.size(); }

  private:
    ExperimentRegistry() = default;
    std::map<std::string, ExperimentDef> defs_;
};

/** Registers @p def at static-init time. */
struct ExperimentRegistrar
{
    explicit ExperimentRegistrar(ExperimentDef def)
    {
        ExperimentRegistry::instance().add(std::move(def));
    }
};

} // namespace tw

#endif // TW_HARNESS_EXPERIMENT_HH
