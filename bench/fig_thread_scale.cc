/**
 * @file
 * Intra-run thread scaling anchor (host-perf bench, not a paper
 * figure): replays the same LeaFTL run with a shard pool of 1, 2, 4
 * and 8 workers and reports host wall-clock speedup over the serial
 * engine. The simulated results are deterministic by construction --
 * the pool only runs disjoint per-group learns and compactions
 * between conservative barriers -- so the bench
 * hard-fails if any simulated metric differs across worker counts;
 * the speedup column is informational (it depends on the host's core
 * count, which CI containers often cap at 1).
 *
 * A write-heavy skewed mix keeps the learned table busy: every buffer
 * flush learns into many groups at once, which is where the pool
 * earns its keep.
 */

#include <cinttypes>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "sim/reporter.hh"
#include "sim/shard_runner.hh"
#include "workload/synthetic.hh"

namespace
{

leaftl::MixSpec
threadMixSpec(const leaftl::bench::BenchScale &s)
{
    leaftl::MixSpec spec;
    spec.name = "thread-mix";
    spec.working_set_pages = s.working_set_pages;
    spec.num_requests = s.requests;
    // Write-heavy: flush-time learns and compactions dominate, the
    // paths the worker pool parallelizes.
    spec.read_ratio = 0.4;
    spec.p_seq = 0.2;
    spec.seq_len_mean = 32;
    spec.p_stride = 0.05;
    spec.p_log = 0.05;
    spec.zipf_theta = 0.9;
    return spec;
}

struct SimFingerprint
{
    leaftl::Tick sim_time_ns = 0;
    uint64_t pages_touched = 0;
    uint64_t mapping_bytes = 0;
    double waf = 0.0;
    double mispredict_ratio = 0.0;
    double p99_read_latency_us = 0.0;
    double avg_latency_us = 0.0;

    bool
    operator==(const SimFingerprint &o) const = default;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace leaftl;
    using namespace leaftl::bench;

    BenchScale s = parseScale(argc, argv);
    if (!s.from_config && !s.fast && s.requests == 200'000) {
        // Four full replays; trim the default a bit.
        s.requests = 80'000;
        s.working_set_pages = 32 * 1024;
    }
    s.gamma = s.gamma ? s.gamma : 4;
    s.queue_depth = std::max(s.queue_depth, 8u);

    banner("fig_thread_scale",
           "host wall-clock vs. --threads (simulated results must not "
           "move)");
    std::printf("host hardware threads: %u\n\n",
                std::max(1u, std::thread::hardware_concurrency()));

    TextTable table({"threads", "wall_ms", "speedup", "MB/s(sim)",
                     "p99_read_us", "waf", "mapping_KB"});

    SimFingerprint reference;
    double base_wall_ms = 0.0;
    bool diverged = false;
    const std::vector<uint32_t> counts = {1, 2, 4, 8};
    for (const uint32_t threads : counts) {
        SsdConfig cfg = benchConfig(FtlKind::LeaFTL, s);
        Ssd ssd(cfg);
        std::unique_ptr<ShardPool> pool;
        RunOptions opts;
        if (threads > 1) {
            pool = std::make_unique<ShardPool>(threads);
            ssd.attachShardPool(pool.get());
        }
        auto wl = std::make_unique<MixWorkload>(threadMixSpec(s));
        opts.prefill_pages = s.working_set_pages;
        opts.mixed_prefill = true;
        opts.queue_depth = s.queue_depth;

        HostTimer timer;
        const RunResult res = Runner::replay(ssd, *wl, opts);
        const double wall_ms = timer.elapsedNs() / 1e6;
        if (threads == counts.front())
            base_wall_ms = wall_ms;

        const SimFingerprint fp{res.sim_time_ns,
                                res.pages_touched,
                                res.mapping_bytes,
                                res.waf,
                                res.mispredict_ratio,
                                res.p99_read_latency_us,
                                res.avg_latency_us};
        if (threads == counts.front())
            reference = fp;
        else if (!(fp == reference))
            diverged = true;

        const double sim_s = static_cast<double>(res.sim_time_ns) /
                             static_cast<double>(kSecond);
        const double mbps =
            sim_s > 0.0 ? static_cast<double>(res.pages_touched) *
                              cfg.geometry.page_size / sim_s / (1 << 20)
                        : 0.0;
        table.addRow({std::to_string(threads), TextTable::fmt(wall_ms),
                      TextTable::fmt(wall_ms > 0.0 ? base_wall_ms / wall_ms
                                                   : 0.0),
                      TextTable::fmt(mbps),
                      TextTable::fmt(res.p99_read_latency_us),
                      TextTable::fmt(res.waf),
                      std::to_string(res.mapping_bytes >> 10)});
    }
    table.print();
    std::printf("\nspeedup is host wall clock vs. --threads 1 (depends on "
                "the machine's core\ncount); every simulated column is "
                "barrier-deterministic and must be identical.\n");

    if (diverged) {
        std::printf("\nFAIL: simulated results changed with the worker "
                    "count\n");
        return 1;
    }
    std::printf("\nsimulated results identical across threads {1, 2, 4, "
                "8}: OK\n");
    return 0;
}
