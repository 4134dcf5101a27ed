#include "harness/experiment.hh"

#include <algorithm>
#include <cstdarg>

#include "base/logging.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "harness/specio.hh"
#include "harness/trials.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workload/spec.hh"

namespace tw
{

// --------------------------------------------------------------------
// Trial plans.

TrialPlan
TrialPlan::one(std::uint64_t seed, bool with_slowdown)
{
    TrialPlan plan;
    plan.seeds = {seed};
    plan.withSlowdown = with_slowdown;
    return plan;
}

TrialPlan
TrialPlan::derived(unsigned n, std::uint64_t base, bool with_slowdown)
{
    TrialPlan plan;
    plan.seeds = derivedTrialSeeds(n, base);
    plan.withSlowdown = with_slowdown;
    return plan;
}

TrialPlan
TrialPlan::adaptive(unsigned max_n, std::uint64_t base,
                    StopRule rule, bool with_slowdown)
{
    TrialPlan plan = derived(max_n, base, with_slowdown);
    rule.enabled = true;
    plan.stopWhen = rule;
    return plan;
}

// --------------------------------------------------------------------
// Job enumeration and canonical rows.

namespace
{

/** @p opts with its scale resolved for @p def: what a grid sees. */
RunExperimentOptions
resolved(const ExperimentDef &def, const RunExperimentOptions &opts)
{
    RunExperimentOptions out = opts;
    out.scaleDiv = experimentScale(def, opts.scaleDiv);
    return out;
}

} // namespace

std::vector<ExperimentJob>
experimentJobs(const ExperimentDef &def,
               const RunExperimentOptions &opts)
{
    std::vector<ExperimentJob> jobs;
    if (!def.grid)
        return jobs;
    std::uint64_t seq = 0;
    for (const auto &unit : def.grid(resolved(def, opts))) {
        for (std::size_t t = 0; t < unit.plan.seeds.size(); ++t) {
            ExperimentJob job;
            job.unit = unit.id;
            job.seq = seq++;
            job.trial = t;
            job.seed = unit.plan.seeds[t];
            job.withSlowdown = unit.plan.withSlowdown;
            job.spec = unit.spec;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::string
costBackendTag(const RunSpec &spec)
{
    const CostBackendConfig *cfg = nullptr;
    switch (spec.sim) {
      case SimKind::Tapeworm:
        cfg = &spec.tw.costBackend;
        break;
      case SimKind::TapewormTlbSim:
        cfg = &spec.tlb.costBackend;
        break;
      default:
        return {};
    }
    if (cfg->isDefault())
        return {};
    return costBackendKindName(cfg->kind);
}

Json
experimentRowJson(const std::string &experiment,
                  const std::string &unit, std::uint64_t seq,
                  std::uint64_t trial, std::uint64_t seed,
                  const RunOutcome &outcome,
                  const std::string &cost_backend)
{
    Json j = Json::object();
    j.set("experiment", Json::str(experiment));
    j.set("unit", Json::str(unit));
    j.set("seq", Json::number(seq));
    j.set("trial", Json::number(trial));
    j.set("seed", Json::number(seed));
    if (!cost_backend.empty())
        j.set("backend", Json::str(cost_backend));
    j.set("outcome", outcomeToJson(outcome));
    return j;
}

// --------------------------------------------------------------------
// Sinks.

void
MultiSink::begin(const ExperimentDef &def, unsigned scale)
{
    for (StatSink *s : sinks_)
        s->begin(def, scale);
}

void
MultiSink::text(const std::string &chunk)
{
    for (StatSink *s : sinks_)
        s->text(chunk);
}

void
MultiSink::row(const ExperimentRow &r)
{
    for (StatSink *s : sinks_)
        s->row(r);
}

void
MultiSink::metric(const std::string &key, double value)
{
    for (StatSink *s : sinks_)
        s->metric(key, value);
}

void
MultiSink::note(const std::string &key, const std::string &value)
{
    for (StatSink *s : sinks_)
        s->note(key, value);
}

void
MultiSink::end(const ExperimentDef &def)
{
    for (StatSink *s : sinks_)
        s->end(def);
}

void
TablePrinterSink::text(const std::string &chunk)
{
    std::fwrite(chunk.data(), 1, chunk.size(), out_);
    std::fflush(out_);
}

void
NdjsonSink::row(const ExperimentRow &r)
{
    std::string line = experimentRowJson(r.experiment, r.unit, r.seq,
                                         r.trial, r.seed, *r.outcome,
                                         r.costBackend)
                           .dump();
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fflush(out_);
}

JsonReportSink::JsonReportSink(std::string report,
                               std::string experiment,
                               std::string generated_by)
    : report_(std::move(report)), experiment_(std::move(experiment)),
      generatedBy_(std::move(generated_by)),
      t0_(std::chrono::steady_clock::now())
{
}

void
JsonReportSink::begin(const ExperimentDef &def, unsigned scale)
{
    (void)def;
    (void)scale;
    t0_ = std::chrono::steady_clock::now();
}

void
JsonReportSink::metric(const std::string &key, double value)
{
    metrics_.emplace_back(key, value);
}

void
JsonReportSink::note(const std::string &key, const std::string &value)
{
    notes_.emplace_back(key, value);
}

void
writeBenchReport(
    const std::string &report, const std::string &experiment,
    const std::string &generated_by, double wall_clock_s,
    const std::vector<std::pair<std::string, double>> &metrics,
    const Json *obs_metrics,
    const std::vector<std::pair<std::string, std::string>> &notes)
{
    std::string path = "BENCH_" + report + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warn: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"schema_version\": 2,\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", report.c_str());
    std::fprintf(f, "  \"experiment\": \"%s\",\n", experiment.c_str());
    std::fprintf(f, "  \"generated_by\": \"%s\",\n",
                 generated_by.c_str());
    std::fprintf(f, "  \"threads\": %u,\n", defaultThreads());
    std::fprintf(f, "  \"wall_clock_s\": %.6f", wall_clock_s);
    for (const auto &[key, value] : metrics)
        std::fprintf(f, ",\n  \"%s\": %.17g", key.c_str(), value);
    for (const auto &[key, value] : notes)
        std::fprintf(f, ",\n  \"%s\": \"%s\"", key.c_str(),
                     value.c_str());
    if (obs_metrics) {
        std::string dumped = obs_metrics->dump();
        std::fprintf(f, ",\n  \"metrics\": %s", dumped.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("[json] %s (%.2fs, %u threads)\n", path.c_str(),
                wall_clock_s, defaultThreads());
}

void
JsonReportSink::end(const ExperimentDef &def)
{
    (void)def;
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0_)
                      .count();
    if (includeObsMetrics_) {
        Json snap = obs::registry().snapshotJson();
        writeBenchReport(report_, experiment_, generatedBy_, wall,
                         metrics_, &snap, notes_);
    } else {
        writeBenchReport(report_, experiment_, generatedBy_, wall,
                         metrics_, nullptr, notes_);
    }
}

// --------------------------------------------------------------------
// Context.

const std::vector<RunOutcome> &
ExperimentContext::outcomes(const std::string &unit_id) const
{
    auto it = outcomes_.find(unit_id);
    if (it == outcomes_.end())
        fatal("experiment unit '%s' has no outcomes",
              unit_id.c_str());
    return it->second;
}

const RunOutcome &
ExperimentContext::outcome(const std::string &unit_id) const
{
    const auto &all = outcomes(unit_id);
    if (all.empty())
        fatal("experiment unit '%s' ran no trials", unit_id.c_str());
    return all.front();
}

void
ExperimentContext::print(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string chunk = vcsprintf(fmt, args);
    va_end(args);
    sink_.text(chunk);
}

void
ExperimentContext::metric(const std::string &key, double value)
{
    sink_.metric(key, value);
}

void
ExperimentContext::note(const std::string &key, const std::string &value)
{
    sink_.note(key, value);
}

// --------------------------------------------------------------------
// Engine.

unsigned
experimentScale(const ExperimentDef &def, unsigned scale_div)
{
    if (def.fixedScale || scale_div == 0)
        return def.scaleDiv;
    return scale_div;
}

void
runExperiment(const ExperimentDef &def, StatSink &sink,
              const RunExperimentOptions &opts)
{
    obs::ScopedSpan expSpan(std::string("experiment:") + def.name,
                            "harness");
    const RunExperimentOptions gridOpts = resolved(def, opts);
    const unsigned scale = gridOpts.scaleDiv;
    sink.begin(def, scale);

    if (def.banner) {
        sink.text(csprintf(
            "==============================================="
            "=================\n"
            "%s — %s\n"
            "workloads scaled 1/%u; miss columns extrapolated "
            "to paper scale; %u trial thread(s)\n"
            "==============================================="
            "=================\n",
            def.artifact.c_str(), def.description.c_str(), scale,
            defaultThreads()));
    }

    ExperimentContext ctx(sink, scale, opts.report);
    if (def.grid)
        ctx.units_ = def.grid(gridOpts);

    // Flatten every fixed-plan (unit, trial) into one parallelFor so
    // a sweep keeps every worker busy even when units run few trials.
    // Per-index writes keep the result bit-identical to a serial
    // loop. Adaptive units run afterwards, one batched sweep each:
    // their trial count is a run-time quantity, so they cannot join
    // a pre-sized flatten.
    static obs::Counter obsTrialsRun =
        obs::registry().counter("trials.run");
    std::vector<const ExperimentUnit *> jobUnit;
    std::vector<std::size_t> jobTrial;
    for (const auto &unit : ctx.units_) {
        if (unit.plan.stopWhen.enabled) {
            (void)ctx.outcomes_[unit.id]; // materialize the entry
            continue;
        }
        ctx.outcomes_[unit.id].resize(unit.plan.seeds.size());
        for (std::size_t t = 0; t < unit.plan.seeds.size(); ++t) {
            jobUnit.push_back(&unit);
            jobTrial.push_back(t);
        }
    }
    {
        obs::ScopedSpan batchSpan("batch", "harness");
        parallelFor(jobUnit.size(), [&](std::size_t i) {
            const ExperimentUnit &unit = *jobUnit[i];
            std::size_t t = jobTrial[i];
            std::uint64_t seed = unit.plan.seeds[t];
            obs::ScopedSpan unitSpan(std::string("unit:") + unit.id,
                                     "harness");
            RunOutcome out =
                unit.plan.withSlowdown
                    ? Runner::runWithSlowdown(unit.spec, seed)
                    : Runner::runOne(unit.spec, seed);
            ctx.outcomes_[unit.id][t] = std::move(out);
        });
        obsTrialsRun.add(jobUnit.size());
    }
    for (const auto &unit : ctx.units_) {
        if (!unit.plan.stopWhen.enabled)
            continue;
        obs::ScopedSpan unitSpan(std::string("unit:") + unit.id,
                                 "harness");
        AdaptiveTrialsResult res = runTrialsAdaptive(
            unit.spec, unit.plan.seeds, unit.plan.stopWhen,
            unit.plan.withSlowdown);
        ctx.outcomes_[unit.id] = std::move(res.outcomes);
    }

    // Stream rows in the deterministic seq order. seq advances by
    // the FULL enumeration (experimentJobs' numbering) even when an
    // adaptive unit stopped early: executed rows keep the seq they
    // would have under the full plan, skipped tails leave gaps.
    std::uint64_t seq = 0;
    for (const auto &unit : ctx.units_) {
        const auto &outs = ctx.outcomes_[unit.id];
        for (std::size_t t = 0; t < outs.size(); ++t) {
            ExperimentRow r;
            r.experiment = def.name;
            r.unit = unit.id;
            r.seq = seq + t;
            r.trial = t;
            r.seed = unit.plan.seeds[t];
            r.costBackend = costBackendTag(unit.spec);
            r.outcome = &outs[t];
            sink.row(r);
        }
        seq += unit.plan.seeds.size();
    }

    if (def.present)
        def.present(ctx);
    sink.end(def);
}

// --------------------------------------------------------------------
// Registry.

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(ExperimentDef def)
{
    if (def.name.empty())
        fatal("experiment registered without a name");
    auto [it, inserted] = defs_.emplace(def.name, std::move(def));
    if (!inserted)
        fatal("duplicate experiment registration '%s'",
              it->first.c_str());
}

const ExperimentDef *
ExperimentRegistry::find(const std::string &name) const
{
    auto it = defs_.find(name);
    return it == defs_.end() ? nullptr : &it->second;
}

std::vector<std::string>
ExperimentRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(defs_.size());
    for (const auto &[name, def] : defs_)
        out.push_back(name);
    return out;
}

// --------------------------------------------------------------------
// The built-in `smoke` experiment: small enough for tests and the
// check.sh golden diff, registered from the harness itself so every
// linker of tw_harness (twserved's unit tests included) can run it.

namespace
{

ExperimentDef
makeSmoke()
{
    ExperimentDef def;
    def.name = "smoke";
    def.artifact = "Smoke";
    def.description = "registry smoke: espresso, two sizes, "
                      "two trials";
    def.report = "smoke";
    def.scaleDiv = 2000;
    def.banner = false;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (std::uint64_t kb : {4, 16}) {
            RunSpec spec;
            spec.workload = makeWorkload("espresso", opts.scaleDiv);
            spec.sys.scope = SimScope::userOnly();
            spec.sim = SimKind::Tapeworm;
            spec.tw.cache = CacheConfig::icache(kb * 1024, 16, 1,
                                                Indexing::Virtual);
            ExperimentUnit unit;
            unit.id = csprintf("%lluK", (unsigned long long)kb);
            unit.spec = spec;
            unit.plan = TrialPlan::derived(2, 0x5eed);
            units.push_back(std::move(unit));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        TextTable t({"size", "mean est misses", "trials"});
        for (const auto &unit : ctx.units()) {
            const auto &outs = ctx.outcomes(unit.id);
            t.addRow({
                unit.id,
                fmtF(meanOf(outs,
                            [](const RunOutcome &o) {
                                return o.estMisses;
                            }),
                     1),
                csprintf("%zu", outs.size()),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        double total = 0.0;
        unsigned trials = 0;
        for (const auto &unit : ctx.units()) {
            for (const auto &o : ctx.outcomes(unit.id))
                total += o.estMisses;
            trials += ctx.outcomes(unit.id).size();
        }
        ctx.metric("trials", trials);
        ctx.metric("total_est_misses", total);
    };
    return def;
}

const ExperimentRegistrar smokeRegistrar(makeSmoke());

} // namespace

} // namespace tw
