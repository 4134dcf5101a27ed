/**
 * @file
 * The client-facing codec shared by Server, Router and Client:
 * request-line and trial decoding with their bad_request messages,
 * and the exact bytes of every reply frame (field order included),
 * which a single daemon and a router must both produce.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "serve/wire.hh"
#include "workload/spec.hh"

namespace tw
{
namespace
{

using namespace serve;

RunSpec
smallSpec()
{
    RunSpec spec;
    spec.workload = makeWorkload("espresso", 4000);
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(2048);
    return spec;
}

RequestLine
decoded(const std::string &line)
{
    RequestLine req;
    std::string err;
    EXPECT_TRUE(decodeRequestLine(line, req, err)) << err;
    return req;
}

TEST(Wire, RequestLineErrorsKeepTheirMessages)
{
    RequestLine req;
    std::string err;
    EXPECT_FALSE(decodeRequestLine("this is not json", req, err));
    EXPECT_EQ(err.rfind("unparseable request: ", 0), 0u) << err;
    EXPECT_EQ(req.id, 0u);

    EXPECT_FALSE(decodeRequestLine("[1,2]", req, err));
    EXPECT_EQ(err, "unparseable request: ");

    EXPECT_FALSE(decodeRequestLine("{\"id\":7,\"op\":3}", req, err));
    EXPECT_EQ(err, "missing op");
    EXPECT_EQ(req.id, 7u); // the error still answers the right id

    req = decoded("{\"id\":8,\"op\":\"ping\"}");
    EXPECT_EQ(req.id, 8u);
    EXPECT_EQ(req.op, "ping");

    // An id that no u64 holds reads as none, as a non-number one
    // does.
    for (const char *id : {"1e309", "1e20", "18446744073709551616",
                           "-1", "\"8\""}) {
        req = decoded(std::string("{\"id\":") + id
                      + ",\"op\":\"ping\"}");
        EXPECT_EQ(req.id, 0u) << id;
    }
}

TEST(Wire, SubmitSharesOneSpecAcrossItsSeeds)
{
    Json line = Json::object();
    line.set("id", Json::number(1u));
    line.set("op", Json::str("submit"));
    line.set("spec", Json::str(formatRunSpec(smallSpec())));
    Json seeds = Json::array();
    for (unsigned s : {11u, 22u, 33u})
        seeds.push(Json::number(s));
    line.set("seeds", std::move(seeds));
    line.set("slowdown", Json::boolean(false));
    line.set("deadline_ms", Json::number(250u));

    TrialRequest out;
    std::string err;
    ASSERT_TRUE(decodeTrials(decoded(line.dump()), out, err)) << err;
    EXPECT_TRUE(out.experiment.empty());
    ASSERT_EQ(out.deadlineMs, std::optional<std::uint64_t>(250));
    ASSERT_EQ(out.trials.size(), 3u);
    for (std::size_t t = 0; t < out.trials.size(); ++t) {
        const Trial &trial = out.trials[t];
        EXPECT_EQ(trial.spec, out.trials[0].spec); // one parse
        EXPECT_EQ(trial.seed, 11u * (t + 1));
        EXPECT_FALSE(trial.slowdown);
        EXPECT_EQ(trial.index, t);
        EXPECT_EQ(trial.seq, t);
        EXPECT_TRUE(trial.unit.empty());
    }
    EXPECT_EQ(formatRunSpec(*out.trials[0].spec),
              formatRunSpec(smallSpec()));
}

TEST(Wire, MalformedTrialRequestsKeepTheirMessages)
{
    std::string spec = Json::str(formatRunSpec(smallSpec())).dump();
    const std::pair<std::string, std::string> kCases[] = {
        {"{\"op\":\"submit\"}", "missing spec"},
        {"{\"op\":\"submit\",\"spec\":7,\"seeds\":[1]}",
         "spec must be an object or canonical text"},
        {"{\"op\":\"submit\",\"spec\":" + spec + ",\"seeds\":[]}",
         "seeds must be a non-empty array"},
        {"{\"op\":\"submit\",\"spec\":" + spec + ",\"seeds\":[-1]}",
         "seeds must be non-negative integers"},
        {"{\"op\":\"submit\",\"spec\":" + spec
             + ",\"seeds\":[1],\"slowdown\":1}",
         "slowdown must be a bool"},
        {"{\"op\":\"submit\",\"spec\":" + spec
             + ",\"seeds\":[1],\"deadline_ms\":-5}",
         "deadline_ms must be a non-negative number"},
        {"{\"op\":\"run_experiment\"}", "missing experiment"},
        {"{\"op\":\"run_experiment\",\"experiment\":\"nosuch\"}",
         "unknown experiment 'nosuch'"},
        {"{\"op\":\"run_experiment\",\"experiment\":\"smoke\","
         "\"scale\":-1}",
         "scale must be a non-negative number"},
        // 2^32 + 1 must not narrow to a 1/1 run.
        {"{\"op\":\"run_experiment\",\"experiment\":\"smoke\","
         "\"scale\":4294967297}",
         "scale is out of range"},
        // Numbers no u64 holds: casting them is undefined, and 2^64
        // would clamp to 2^64 - 1 and run a different trial.
        {"{\"op\":\"submit\",\"spec\":" + spec + ",\"seeds\":[1e309]}",
         "seeds is out of range"},
        {"{\"op\":\"submit\",\"spec\":" + spec + ",\"seeds\":[1,1e20]}",
         "seeds is out of range"},
        {"{\"op\":\"submit\",\"spec\":" + spec
             + ",\"seeds\":[18446744073709551616]}",
         "seeds is out of range"},
        {"{\"op\":\"submit\",\"spec\":" + spec
             + ",\"seeds\":[1],\"deadline_ms\":1e309}",
         "deadline_ms is out of range"},
        {"{\"op\":\"run_experiment\",\"experiment\":\"smoke\","
         "\"scale\":1e309}",
         "scale is out of range"},
    };
    for (const auto &[line, msg] : kCases) {
        TrialRequest out;
        std::string err;
        EXPECT_FALSE(decodeTrials(decoded(line), out, err)) << line;
        EXPECT_EQ(err, msg) << line;
    }
    TrialRequest out;
    std::string err;
    EXPECT_FALSE(decodeTrials(
        decoded("{\"op\":\"submit\",\"spec\":\"{}\",\"seeds\":[1]}"),
        out, err));
    EXPECT_EQ(err.rfind("bad spec: ", 0), 0u) << err;
}

TEST(Wire, RunExperimentDecodesTheRegistryJobList)
{
    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr);
    std::vector<ExperimentJob> jobs = experimentJobs(*def, {.scaleDiv = 4000});

    TrialRequest out;
    std::string err;
    ASSERT_TRUE(decodeTrials(
        decoded("{\"op\":\"run_experiment\",\"experiment\":\"smoke\","
                "\"scale\":4000}"),
        out, err))
        << err;
    EXPECT_EQ(out.experiment, "smoke");
    EXPECT_FALSE(out.deadlineMs);
    ASSERT_EQ(out.trials.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Trial &t = out.trials[i];
        EXPECT_EQ(t.unit, jobs[i].unit);
        EXPECT_EQ(t.seq, jobs[i].seq);
        EXPECT_EQ(t.index, jobs[i].trial);
        EXPECT_EQ(t.seed, jobs[i].seed);
        EXPECT_EQ(t.slowdown, jobs[i].withSlowdown);
        EXPECT_EQ(cacheKey(*t.spec, t.seed, t.slowdown),
                  cacheKey(jobs[i].spec, jobs[i].seed,
                           jobs[i].withSlowdown));
    }
}

TEST(Wire, ReplyFramesKeepTheirBytes)
{
    EXPECT_EQ(replyFrame(3, "pong").dump(), "{\"id\":3,\"ev\":\"pong\"}");
    EXPECT_EQ(replyFrame(4, "ok").dump(), "{\"id\":4,\"ev\":\"ok\"}");
    EXPECT_EQ(errorFrame(5, kErrBadRequest, "missing op").dump(),
              "{\"id\":5,\"ev\":\"error\",\"code\":\"bad_request\","
              "\"msg\":\"missing op\"}");
    EXPECT_EQ(doneFrame(6, 3, 1, 2, 0).dump(),
              "{\"id\":6,\"ev\":\"done\",\"rows\":3,\"cached\":1,"
              "\"computed\":2,\"expired\":0}");

    Json req = Json::object();
    Json snapshot = metricsFrame(7, req);
    EXPECT_NE(snapshot.find("metrics"), nullptr);
    EXPECT_EQ(snapshot.find("prom"), nullptr);
    req.set("format", Json::str("prom"));
    Json prom = metricsFrame(7, req);
    ASSERT_NE(prom.find("prom"), nullptr);
    EXPECT_TRUE(prom.find("prom")->isString());
    EXPECT_EQ(prom.dump().rfind("{\"id\":7,\"ev\":\"metrics\",", 0), 0u);
}

TEST(Wire, RowFramesRoundTripThroughDecodeRow)
{
    RunOutcome outcome;
    outcome.run.cycles = 12345;
    outcome.rawMisses = 67;
    outcome.hostSeconds = 0.25;
    Trial t;
    t.seed = 99;
    t.index = 2;
    t.seq = 5;
    t.unit = "4K";

    // A submit row carries no experiment coordinates.
    Json row = rowFrame(1, "", t, true, &outcome);
    EXPECT_EQ(row.dump().rfind("{\"id\":1,\"ev\":\"row\",\"trial\":2,"
                               "\"seed\":99,\"cached\":true,"
                               "\"host_s\":0.25,\"outcome\":",
                               0),
              0u)
        << row.dump();
    SweepRow back;
    std::string err;
    ASSERT_TRUE(decodeRow(row, back, err)) << err;
    EXPECT_EQ(back.trial, 2u);
    EXPECT_EQ(back.seed, 99u);
    EXPECT_TRUE(back.cached);
    EXPECT_FALSE(back.expired);
    EXPECT_TRUE(back.unit.empty());
    EXPECT_EQ(formatRunOutcome(back.outcome), formatRunOutcome(outcome));
    EXPECT_EQ(back.outcome.hostSeconds, 0.25);

    // An experiment row names its experiment, unit and seq first.
    row = rowFrame(1, "smoke", t, false, &outcome);
    EXPECT_EQ(row.dump().rfind("{\"id\":1,\"ev\":\"row\","
                               "\"experiment\":\"smoke\",\"unit\":\"4K\","
                               "\"seq\":5,\"trial\":2,\"seed\":99,"
                               "\"cached\":false,",
                               0),
              0u)
        << row.dump();
    back = SweepRow{};
    ASSERT_TRUE(decodeRow(row, back, err)) << err;
    EXPECT_EQ(back.unit, "4K");
    EXPECT_EQ(back.seq, 5u);

    // An expired trial carries the deadline error instead.
    row = rowFrame(1, "", t, false, nullptr);
    EXPECT_EQ(row.dump(), "{\"id\":1,\"ev\":\"row\",\"trial\":2,"
                          "\"seed\":99,\"cached\":false,"
                          "\"error\":\"deadline\"}");
    back = SweepRow{};
    ASSERT_TRUE(decodeRow(row, back, err)) << err;
    EXPECT_TRUE(back.expired);

    // A seq, trial or seed that no u64 holds makes a bad row that
    // names the field, instead of a cast with undefined behaviour.
    for (const char *field : {"seq", "trial", "seed"}) {
        for (const char *lexeme : {"1e309", "1e20",
                                   "18446744073709551616", "-1"}) {
            row = rowFrame(1, "smoke", t, false, &outcome);
            row.set(field, Json::numberLexeme(lexeme));
            back = SweepRow{};
            EXPECT_FALSE(decodeRow(row, back, err)) << row.dump();
            EXPECT_EQ(err, std::string("bad row: ") + field
                               + " is out of range")
                << row.dump();
        }
    }
}

} // namespace
} // namespace tw
