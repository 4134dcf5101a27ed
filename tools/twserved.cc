/**
 * @file
 * twserved — the persistent experiment daemon.
 *
 * Section 5 of the paper: a trap-driven simulator is cheap enough
 * to leave RESIDENT, answering "what would an 8K cache do to this
 * workload" queries as they arrive instead of rebooting a simulator
 * per question. twserved is that residency: it keeps the Runner's
 * baseline memo and a result cache warm across requests, bounds its
 * appetite with an explicit job queue, and drains gracefully on
 * SIGTERM so an operator can restart it without losing admitted
 * work.
 *
 * Protocol and policy: DESIGN.md §9. Client: twctl (or anything
 * that can write newline-delimited JSON to a socket).
 *
 *   twserved --socket /tmp/tw.sock
 *   twserved --socket /tmp/tw.sock --tcp 7733 --workers 8 \
 *            --queue 512 --cache 8192
 */

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <pthread.h>
#include <string>
#include <thread>

#include "base/logging.hh"
#include "base/numparse.hh"
#include "obs/trace.hh"
#include "serve/server.hh"
#include "serve/shard/router.hh"

using namespace tw;
using namespace tw::serve;

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "twserved — persistent Tapeworm II experiment service\n\n"
        "usage: twserved --socket PATH [options]\n"
        "  --socket PATH     unix-domain socket to listen on "
        "(required)\n"
        "  --tcp PORT        also listen on TCP PORT (loopback)\n"
        "  --bind ADDR       TCP bind address (default "
        "127.0.0.1)\n"
        "  --workers N       simulation workers (default: "
        "hardware\n"
        "                    threads)\n"
        "  --queue N         job-queue bound; a sweep that does "
        "not\n"
        "                    fit is rejected 'overloaded' "
        "(default 256)\n"
        "  --cache N         result-cache entries (default 4096)\n"
        "  --baseline-cap N  Runner baseline-memo entries "
        "(default\n"
        "                    4096)\n"
        "  --send-timeout MS per-connection send timeout; a "
        "client\n"
        "                    that stops reading its rows is "
        "dropped\n"
        "                    after MS ms (default 30000, 0 = "
        "never)\n"
        "  --quiet           no per-request logging\n"
        "  --help            this text\n\n"
        "router mode (MANUAL.md §10):\n"
        "  --router          run as the pool's async front door\n"
        "                    instead of a worker; requires "
        "--shards\n"
        "  --shards A,B,...  worker addresses (unix socket paths "
        "or\n"
        "                    host:port); the address strings are "
        "the\n"
        "                    consistent-hash ring members\n"
        "  --vnodes N        virtual nodes per shard (default "
        "64)\n"
        "  --health-interval MS   worker ping cadence (default "
        "1000)\n\n"
        "environment (read here, nowhere else):\n"
        "  TW_TRACE=FILE     record request-phase spans; the "
        "Chrome\n"
        "                    trace-event JSON is written at "
        "drain\n"
        "  TW_LOG=json       structured log lines on stderr\n\n"
        "A run_experiment request runs at its own scale with every\n"
        "other experiment option at its default, whatever this\n"
        "process's environment holds.\n\n"
        "Stop with SIGTERM/SIGINT (drains admitted jobs, then "
        "exits 0)\nor with `twctl shutdown`.\n\n"
        "N is a positive integer, MS one too (--send-timeout also "
        "takes 0)\nand PORT one below 65536; anything else exits "
        "2, as does an\nunknown option.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setLogComponent("twserved");
    if (const char *log = std::getenv("TW_LOG"))
        setLogJson(std::strcmp(log, "json") == 0);
    ServerConfig cfg;
    cfg.verbose = true;
    std::size_t baselineCap = 0;
    bool routerMode = false;
    std::string shardsArg;
    unsigned vnodes = 0;
    unsigned healthIntervalMs = 1000;
    const NumericFlags flags("twserved", usage);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--help") {
            usage(stdout);
            return 0;
        } else if (arg == "--socket") {
            cfg.socketPath = value();
        } else if (arg == "--tcp") {
            cfg.tcpPort =
                static_cast<int>(flags.number(arg, value(), 1, 65535));
        } else if (arg == "--bind") {
            cfg.tcpBind = value();
        } else if (arg == "--workers") {
            cfg.workers = flags.positive(arg, value());
        } else if (arg == "--queue") {
            cfg.queueCapacity = flags.positive(arg, value());
        } else if (arg == "--cache") {
            cfg.cacheCapacity = flags.positive(arg, value());
        } else if (arg == "--baseline-cap") {
            baselineCap = flags.positive(arg, value());
        } else if (arg == "--send-timeout") {
            cfg.sendTimeoutMs = static_cast<unsigned>(
                flags.number(arg, value(), 0, UINT_MAX));
        } else if (arg == "--router") {
            routerMode = true;
        } else if (arg == "--shards") {
            shardsArg = value();
        } else if (arg == "--vnodes") {
            vnodes = flags.positive(arg, value());
        } else if (arg == "--health-interval") {
            healthIntervalMs = flags.positive(arg, value());
        } else if (arg == "--quiet") {
            cfg.verbose = false;
        } else {
            flags.refuse("unknown option '" + arg + "'");
        }
    }
    if (cfg.socketPath.empty()) {
        usage(stderr);
        fatal("--socket is required");
    }
    if (baselineCap)
        Runner::setBaselineCacheCapacity(baselineCap);

    if (const char *tracePath = std::getenv("TW_TRACE");
        tracePath && *tracePath) {
        std::string terr;
        if (!obs::traceStart(tracePath, &terr))
            fatal("TW_TRACE: %s", terr.c_str());
    }

    // Signals are consumed synchronously by a watcher thread:
    // requestStop() takes locks, so it must not run in handler
    // context. Block them BEFORE any thread spawns so every thread
    // inherits the mask.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    if (routerMode) {
        RouterConfig rcfg;
        rcfg.socketPath = cfg.socketPath;
        rcfg.tcpPort = cfg.tcpPort;
        rcfg.tcpBind = cfg.tcpBind;
        rcfg.verbose = cfg.verbose;
        if (vnodes)
            rcfg.vnodes = vnodes;
        rcfg.healthIntervalMs = healthIntervalMs;
        for (std::size_t at = 0; at < shardsArg.size();) {
            std::size_t comma = shardsArg.find(',', at);
            if (comma == std::string::npos)
                comma = shardsArg.size();
            if (comma > at)
                rcfg.shards.push_back(
                    shardsArg.substr(at, comma - at));
            at = comma + 1;
        }
        if (rcfg.shards.empty()) {
            usage(stderr);
            fatal("--router requires --shards A,B,...");
        }

        Router router(rcfg);
        std::string err;
        if (!router.start(&err))
            fatal("cannot start router: %s", err.c_str());

        std::thread watcher([&] {
            while (true) {
                int sig = 0;
                if (sigwait(&sigs, &sig) != 0)
                    continue;
                if (sig == SIGUSR1)
                    return;
                if (cfg.verbose)
                    std::fprintf(stderr,
                                 "twserved: %s, draining...\n",
                                 strsignal(sig));
                router.requestStop();
            }
        });

        router.join();
        pthread_kill(watcher.native_handle(), SIGUSR1);
        watcher.join();
        obs::traceStop();
        return 0;
    }

    Server server(cfg);
    std::string err;
    if (!server.start(&err))
        fatal("cannot start: %s", err.c_str());

    std::thread watcher([&] {
        while (true) {
            int sig = 0;
            if (sigwait(&sigs, &sig) != 0)
                continue;
            if (sig == SIGUSR1)
                return; // main is done; unblocked for join
            if (cfg.verbose)
                std::fprintf(stderr,
                             "twserved: %s, draining...\n",
                             strsignal(sig));
            server.requestStop();
        }
    });

    // Blocks until a SIGTERM/SIGINT or a `shutdown` op drains the
    // server.
    server.join();
    pthread_kill(watcher.native_handle(), SIGUSR1);
    watcher.join();
    obs::traceStop(); // writes TW_TRACE, if armed
    return 0;
}
