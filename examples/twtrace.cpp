/**
 * @file
 * twtrace — trace-file utility for the classic offline workflow.
 *
 * The trace-driven world's tooling: record a workload's user-task
 * instruction trace to a compact binary file, inspect it, and
 * replay it through the Cache2000 simulator at any configuration.
 *
 *   twtrace record mpeg_play /tmp/mpeg.trc [scale]
 *   twtrace info   /tmp/mpeg.trc
 *   twtrace replay /tmp/mpeg.trc [cache_kb]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "tapeworm.hh"

using namespace tw;

namespace
{

int
record(const std::string &workload, const std::string &path,
       unsigned scale)
{
    WorkloadSpec wl = makeWorkload(workload, scale);
    SystemConfig cfg;
    cfg.trialSeed = 1;
    System system(cfg, wl);

    TraceWriter writer(path);
    PixieClient pixie(kFirstUserTaskId, &writer);
    system.setClient(&pixie);
    RunResult r = system.run();
    writer.close();

    std::printf("recorded %llu references of %s's first user task "
                "(of %llu total instructions — the other tasks and "
                "the kernel are invisible to annotation)\n",
                static_cast<unsigned long long>(pixie.traced()),
                workload.c_str(),
                static_cast<unsigned long long>(r.totalInstr()));
    std::printf("wrote %s: %llu bytes (%.2f bytes/ref)\n",
                path.c_str(),
                static_cast<unsigned long long>(writer.bytesWritten()),
                static_cast<double>(writer.bytesWritten())
                    / static_cast<double>(pixie.traced()));
    return 0;
}

int
info(const std::string &path)
{
    TraceReader reader(path);
    TraceRecord rec;
    Counter records = 0, tid_switches = 0;
    Addr lo = ~static_cast<Addr>(0), hi = 0;
    TaskId prev_tid = -1;
    Counter sequential = 0;
    Addr prev_va = 0;
    while (reader.next(rec)) {
        ++records;
        lo = std::min(lo, rec.va);
        hi = std::max(hi, rec.va);
        if (rec.tid != prev_tid) {
            ++tid_switches;
            prev_tid = rec.tid;
        }
        if (rec.va == prev_va + kWordBytes)
            ++sequential;
        prev_va = rec.va;
    }
    if (records == 0) {
        std::printf("%s: empty trace\n", path.c_str());
        return 0;
    }
    std::printf("%s:\n", path.c_str());
    std::printf("  records        : %llu\n",
                static_cast<unsigned long long>(records));
    std::printf("  address range  : 0x%llx - 0x%llx (%.1f KB)\n",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi),
                static_cast<double>(hi - lo) / 1024.0);
    std::printf("  task switches  : %llu\n",
                static_cast<unsigned long long>(tid_switches));
    std::printf("  sequential refs: %.1f%%\n",
                100.0 * static_cast<double>(sequential)
                    / static_cast<double>(records));
    return 0;
}

int
replay(const std::string &path, unsigned cache_kb)
{
    Cache2000Config cfg;
    cfg.cache = CacheConfig::icache(cache_kb * 1024ull, 16, 1,
                                    Indexing::Virtual);
    Cache2000 sim(cfg);
    TraceReader reader(path);
    sim.run(reader);

    const Cache2000Stats &s = sim.stats();
    std::printf("replayed %llu references into a %u KB cache:\n",
                static_cast<unsigned long long>(s.refs), cache_kb);
    std::printf("  hits   : %llu\n",
                static_cast<unsigned long long>(s.hits));
    std::printf("  misses : %llu (ratio %.4f)\n",
                static_cast<unsigned long long>(s.misses),
                static_cast<double>(s.misses)
                    / static_cast<double>(s.refs));
    std::printf("  cost   : %llu simulated cycles "
                "(%.0f per reference — paid on every address, the "
                "Figure 1 trace-driven loop)\n",
                static_cast<unsigned long long>(s.cycles),
                static_cast<double>(s.cycles)
                    / static_cast<double>(s.refs));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::printf("usage:\n"
                    "  twtrace record WORKLOAD FILE [scale]\n"
                    "  twtrace info   FILE\n"
                    "  twtrace replay FILE [cache_kb]\n");
        return 1;
    }
    std::string cmd = argv[1];
    if (cmd == "record" && argc >= 4) {
        unsigned scale = argc > 4
                             ? static_cast<unsigned>(std::atoi(argv[4]))
                             : 200;
        return record(argv[2], argv[3], scale);
    }
    if (cmd == "info") {
        return info(argv[2]);
    }
    if (cmd == "replay") {
        unsigned kb = argc > 3
                          ? static_cast<unsigned>(std::atoi(argv[3]))
                          : 4;
        return replay(argv[2], kb);
    }
    fatal("unknown command '%s'", cmd.c_str());
}
