/**
 * @file
 * simbench: the end-to-end benchmark of the simulator.
 *
 * One run = one workload. The benchmark generates the requests of the
 * workload's stream 0 up front from --seed, replays its other streams
 * (if any) once each for the simulated metrics, then repeats set-up +
 * replay of stream 0 until --seconds have passed:
 *
 *   set-up  Ssd construction + Runner::prefillMixed(0.85 * ws)
 *   replay  Runner::replay (no prefill, closed loop, qd 1, serial)
 *   check   oracle walk of every written LPA, flash scan, invariants
 *
 * and reports the fastest times over the repeats (see WindowBest) and
 * the simulated metrics averaged over the streams. The device config
 * and the request streams come from the leaftl_sim helpers
 * (cli::makeConfig, cli::makeWorkload), so every stream's simulated
 * numbers equal the matching
 * `leaftl_sim --device auto --ws 65536 --gamma 4 ...` row; the rows
 * are echoed on stderr for diffing.
 *
 * --trace 1 alternates untraced and traced repeats. A traced repeat
 * wraps the request source in a timer that stamps every next() call:
 * the span from one next() return to the following call is the time
 * the runner and the device spent on that request, classified by the
 * public counters it moved. The program itself is not instrumented.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli/sim_cli.hh"
#include "learned/learned_table.hh"
#include "sim/runner.hh"
#include "ssd/ssd.hh"
#include "util/host_clock.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

constexpr uint64_t kWorkingSet = 65536;
constexpr uint32_t kGamma = 4;
constexpr double kPrefillFrac = 0.85;
/** Fewest repeats a run makes, however long they take. */
constexpr int kMinRepeats = 3;

/**
 * The workloads. All share the MixSpec stream shape and the
 * ws-derived fig16 geometry (host pages = ws * 4/3, 20% OP, DRAM at
 * half the page-level table), so GC and mapping misses both occur.
 * Request counts size one replay of stream 0 to about a host second
 * or less, so a run holds dozens of repeats of it.
 */
struct WorkloadDef
{
    const char *name;
    FtlKind ftl;
    const char *spec;
    double read_ratio;
    uint64_t requests;
    /**
     * Request streams the simulated metrics average over. Stream k is
     * generated with seed `--seed * streams + k`; stream 0 is the one
     * the host time is measured on, the others are replayed once each.
     * LeaFTL's simulated latency on 200K random requests moves by ~2%
     * (standard deviation) from one stream to the next, so a single
     * stream would make the simulated metrics' spread over seeds as
     * wide as their bounds.
     */
    uint32_t streams;
};

const WorkloadDef kWorkloads[] = {
    // Learned compaction/merge dominates host time.
    {"leaftl-rand", FtlKind::LeaFTL, "synthetic:rand", 0.5, 200'000, 8},
    // Same stream, no learned layer: mapping misses, flushes, GC. Not
    // gated: its memory-bound host time is not steady on a shared host.
    {"dftl-rand", FtlKind::DFTL, "synthetic:rand", 0.5, 1'000'000, 1},
    // Skewed and read-heavy: lookups, OOB mispredictions, cache reuse.
    {"leaftl-zipf-r90", FtlKind::LeaFTL, "synthetic:zipf", 0.9, 500'000, 4},
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Requests per timing window of a replay. */
constexpr size_t kWindow = 4096;

/**
 * The host time of a run. Every repeat replays the same requests, so
 * window i (requests [i * kWindow, (i + 1) * kWindow)) does the same
 * work in every repeat, and interference from the rest of the machine
 * only ever slows a window down. The run's replay time is the sum over
 * windows of each window's fastest time across the repeats: the
 * minimum-time estimator (Chen & Revels, "Robust benchmarking in noisy
 * environments", arXiv:1608.04295) applied per window, so a quiet
 * moment anywhere in the run counts, not only a whole quiet repeat.
 */
class WindowBest
{
  public:
    /** @a stamps: replay start, each window boundary, replay end. */
    void
    add(const std::vector<uint64_t> &stamps)
    {
        const size_t windows = stamps.size() - 1;
        if (best_.empty())
            best_.assign(windows, std::numeric_limits<uint64_t>::max());
        LEAFTL_ASSERT(best_.size() == windows, "window count changed");
        for (size_t i = 0; i < windows; i++)
            best_[i] = std::min(best_[i], stamps[i + 1] - stamps[i]);
    }

    double
    seconds() const
    {
        uint64_t ns = 0;
        for (const uint64_t w : best_)
            ns += w;
        return static_cast<double>(ns) / 1e9;
    }

  private:
    std::vector<uint64_t> best_;
};

/** Nearest-rank percentile of @a v (reorders it). */
uint64_t
percentile(std::vector<uint64_t> &v, double p)
{
    if (v.empty())
        return 0;
    size_t rank = static_cast<size_t>(p / 100.0 * v.size());
    rank = std::min(rank, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + rank, v.end());
    return v[rank];
}

/**
 * A field of this process's /proc/self/status in bytes ("VmRSS",
 * "VmHWM"). These count this program's image only; getrusage's
 * ru_maxrss would also count the peak of whatever process exec'd it.
 */
uint64_t
procStatusBytes(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.compare(0, field.size() + 1, field + ":") == 0)
            return std::strtoull(line.c_str() + field.size() + 1, nullptr,
                                 10) *
                   1024;
    }
    LEAFTL_PANIC("simbench: no " + field + " in /proc/self/status");
}

/**
 * Replays a pre-generated request vector, stamping the host clock
 * into @a stamps each time a window of kWindow requests has been
 * handed out.
 */
class VectorSource : public WorkloadSource
{
  public:
    VectorSource(const std::vector<IoRequest> &reqs, const std::string &name,
                 std::vector<uint64_t> &stamps)
        : reqs_(reqs), name_(name), stamps_(stamps)
    {
    }

    bool
    next(IoRequest &req) override
    {
        if (pos_ >= reqs_.size())
            return false;
        if (pos_ != 0 && pos_ % kWindow == 0)
            stamps_.push_back(hostNowNs());
        req = reqs_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }
    const std::string &name() const override { return name_; }

  private:
    const std::vector<IoRequest> &reqs_;
    const std::string &name_;
    std::vector<uint64_t> &stamps_;
    size_t pos_ = 0;
};

/** Marks the LPAs a request writes in @a written. */
void
markWrite(std::vector<uint8_t> &written, const IoRequest &r)
{
    if (r.op != Op::Write)
        return;
    for (uint32_t i = 0; i < r.npages; i++)
        written[(r.lpa + i) % written.size()] = 1;
}

/**
 * Passes a generator's requests through, marking the LPAs they write,
 * so a stream that is replayed once needs no request vector.
 */
class MarkingSource : public WorkloadSource
{
  public:
    MarkingSource(WorkloadSource &inner, std::vector<uint8_t> &written)
        : inner_(inner), written_(written)
    {
    }

    bool
    next(IoRequest &req) override
    {
        if (!inner_.next(req))
            return false;
        markWrite(written_, req);
        return true;
    }

    void reset() override { inner_.reset(); }
    const std::string &name() const override { return inner_.name(); }

  private:
    WorkloadSource &inner_;
    std::vector<uint8_t> &written_;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The simulated end-to-end metrics of one replay. */
struct SimNumbers
{
    double iops = 0, avg_lat_us = 0, avg_read_us = 0, mapping_kb = 0,
           waf = 0, read_amp = 0;

    static SimNumbers
    of(const RunResult &res)
    {
        const SsdStats &st = res.ssd;
        SimNumbers n;
        n.iops = res.achieved_iops;
        n.avg_lat_us = res.avg_latency_us;
        n.avg_read_us = res.avg_read_latency_us;
        n.mapping_kb = static_cast<double>(res.mapping_bytes) / 1024.0;
        n.waf = res.waf;
        n.read_amp =
            ratio(static_cast<double>(st.data_reads + st.trans_reads),
                  static_cast<double>(st.host_reads));
        return n;
    }

    void
    add(const SimNumbers &o)
    {
        iops += o.iops;
        avg_lat_us += o.avg_lat_us;
        avg_read_us += o.avg_read_us;
        mapping_kb += o.mapping_kb;
        waf += o.waf;
        read_amp += o.read_amp;
    }

    SimNumbers
    scaled(double f) const
    {
        return {iops * f,       avg_lat_us * f, avg_read_us * f,
                mapping_kb * f, waf * f,        read_amp * f};
    }
};

/** Span classes, exclusive, in classification priority order. */
enum SpanClass : uint8_t
{
    kCompact,
    kGc,
    kFlush,
    kMapMiss,
    kMispredict,
    kRead,
    kWrite,
    kNumClasses,
};

const char *const kClassNames[kNumClasses] = {
    "learned.compact",   "ssd.gc",   "ssd.flush", "ftl.map_miss_read",
    "learned.mispredict_read", "ssd.read", "ssd.write",
};

/** The SsdStats counters a span is classified by. */
struct SpanCounters
{
    uint64_t compactions, gc_runs, wear_migrations, data_writes,
        trans_reads, mispredictions;

    static SpanCounters
    of(const SsdStats &s)
    {
        return {s.compactions, s.gc_runs,     s.wear_migrations,
                s.data_writes, s.trans_reads, s.mispredictions};
    }
};

/**
 * Times every request from outside the program. The span of request i
 * runs from the next() call that returned it to the next() call that
 * asks for request i+1; in between the runner submits it and the
 * device serves it. The source's own bookkeeping falls outside the
 * spans (into sim.other).
 */
class TracedSource : public WorkloadSource
{
  public:
    TracedSource(WorkloadSource &inner, Ssd &ssd, size_t expected)
        : inner_(inner), ssd_(ssd),
          learned_(ssd.ftl().learnedTable() != nullptr)
    {
        span_ns_.reserve(expected);
        span_class_.reserve(expected);
    }

    bool
    next(IoRequest &req) override
    {
        const uint64_t now = hostNowNs();
        if (open_) {
            span_ns_.push_back(now - returned_at_);
            span_class_.push_back(classify());
            open_ = false;
        }
        if (!inner_.next(req))
            return false;
        before_ = SpanCounters::of(ssd_.stats());
        op_ = req.op;
        open_ = true;
        returned_at_ = hostNowNs();
        return true;
    }

    void reset() override { inner_.reset(); }
    const std::string &name() const override { return inner_.name(); }

    const std::vector<uint64_t> &spanNs() const { return span_ns_; }
    const std::vector<uint8_t> &spanClass() const { return span_class_; }

  private:
    /**
     * Priority compact > gc > flush > map_miss > mispredict > plain.
     * Compaction ticks for every FTL (a no-op for DFTL); without a
     * learned table the span is left to the flush/GC it rode on.
     */
    uint8_t
    classify() const
    {
        const SpanCounters a = SpanCounters::of(ssd_.stats());
        if (learned_ && a.compactions != before_.compactions)
            return kCompact;
        if (a.gc_runs != before_.gc_runs ||
            a.wear_migrations != before_.wear_migrations)
            return kGc;
        if (a.data_writes != before_.data_writes)
            return kFlush;
        if (a.trans_reads != before_.trans_reads)
            return kMapMiss;
        if (a.mispredictions != before_.mispredictions)
            return kMispredict;
        return op_ == Op::Read ? kRead : kWrite;
    }

    WorkloadSource &inner_;
    Ssd &ssd_;
    const bool learned_;
    SpanCounters before_{};
    Op op_ = Op::Read;
    bool open_ = false;
    uint64_t returned_at_ = 0;
    std::vector<uint64_t> span_ns_;
    std::vector<uint8_t> span_class_;
};

/** Per-class totals of one traced replay. */
struct TraceSummary
{
    double replay_ns = 0;
    uint64_t count[kNumClasses] = {};
    double ns[kNumClasses] = {};
    uint64_t p50[kNumClasses] = {};
    uint64_t p99[kNumClasses] = {};
    uint64_t all_p50 = 0, all_p99 = 0;
    double other_ns = 0;
};

TraceSummary
summarize(const TracedSource &tr, double replay_ns)
{
    TraceSummary s;
    s.replay_ns = replay_ns;
    std::vector<uint64_t> per[kNumClasses];
    std::vector<uint64_t> all = tr.spanNs();
    double spans = 0;
    for (size_t i = 0; i < all.size(); i++) {
        const uint8_t c = tr.spanClass()[i];
        per[c].push_back(all[i]);
        s.ns[c] += static_cast<double>(all[i]);
        spans += static_cast<double>(all[i]);
    }
    for (int c = 0; c < kNumClasses; c++) {
        s.count[c] = per[c].size();
        s.p50[c] = percentile(per[c], 50.0);
        s.p99[c] = percentile(per[c], 99.0);
    }
    s.all_p50 = percentile(all, 50.0);
    s.all_p99 = percentile(all, 99.0);
    s.other_ns = replay_ns - spans;
    return s;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct DeviceCounters
{
    SsdStats ssd;
    uint64_t erases = 0;
    uint64_t pick_calls = 0, pick_scanned = 0;
    LearnedTableStats learned;

    static DeviceCounters
    of(Ssd &ssd)
    {
        DeviceCounters c;
        c.ssd = ssd.stats();
        c.erases = ssd.flash().counters().block_erases;
        c.pick_calls = ssd.blocks().gcPickCalls();
        c.pick_scanned = ssd.blocks().gcPickScanned();
        if (const LearnedTable *t = ssd.ftl().learnedTable())
            c.learned = t->stats();
        return c;
    }
};

/**
 * Per-layer counters: replay-window deltas (prefill excluded) and
 * end-of-run ratios. Learned-layer values are 0 without a learned
 * table (DFTL's compaction tick is a no-op).
 */
std::vector<Metric>
layerCounters(const DeviceCounters &a, const DeviceCounters &b, Ssd &ssd,
              const RunResult &res)
{
    auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
    std::vector<Metric> out;
    auto count = [&](const char *name, double v) {
        out.push_back({name, v, "count"});
    };
    auto frac = [&](const char *name, double v) {
        out.push_back({name, v, "ratio"});
    };
    const SsdStats &sa = a.ssd, &sb = b.ssd;
    frac("ssd.cache_hit_ratio", res.cache_hit_ratio);
    count("ssd.cache_pages", static_cast<double>(res.data_cache_pages));
    count("ssd.buffer_read_hits", d(sa.buffer_read_hits, sb.buffer_read_hits));
    count("ssd.gc_runs", d(sa.gc_runs, sb.gc_runs));
    count("ssd.gc_writes", d(sa.gc_writes, sb.gc_writes));
    frac("ssd.gc_pick_scanned_per_call",
         ratio(d(a.pick_scanned, b.pick_scanned),
               d(a.pick_calls, b.pick_calls)));
    count("flash.erases", d(a.erases, b.erases));
    count("flash.data_reads", d(sa.data_reads, sb.data_reads));
    count("flash.data_writes", d(sa.data_writes, sb.data_writes));
    count("ftl.trans_reads", d(sa.trans_reads, sb.trans_reads));
    count("ftl.trans_writes", d(sa.trans_writes, sb.trans_writes));
    count("learned.mispredictions", d(sa.mispredictions, sb.mispredictions));
    frac("learned.mispredict_ratio", res.mispredict_ratio);
    const LearnedTable *t = ssd.ftl().learnedTable();
    count("learned.segments", t ? static_cast<double>(t->numSegments()) : 0.0);
    const double lookups = d(a.learned.lookups, b.learned.lookups);
    count("learned.lookups", lookups);
    frac("learned.lookup_cache_hit_ratio",
         ratio(d(a.learned.lookup_cache_hits, b.learned.lookup_cache_hits),
               lookups));
    frac("learned.avg_lookup_levels",
         ratio(d(a.learned.lookup_levels_total, b.learned.lookup_levels_total),
               lookups));
    count("learned.compactions",
          t ? d(sa.compactions, sb.compactions) : 0.0);
    return out;
}

/**
 * LPAs Runner::prefillMixed writes (its sequential, strided and
 * scattered regions, same seed). The post-replay flash scan cross-
 * checks this set, so a drift between the two shows as failures.
 */
void
markPrefill(std::vector<uint8_t> &written, uint64_t pages,
            uint64_t host_pages)
{
    const uint64_t limit = std::min(pages, host_pages);
    const uint64_t seq_end = limit * 55 / 100;
    const uint64_t stride_end = seq_end + limit / 4;
    for (uint64_t lpa = 0; lpa < stride_end; lpa++)
        written[lpa] = 1;
    const uint64_t scatter = limit > stride_end ? limit - stride_end : 0;
    Rng rng(1);
    for (uint64_t i = 0; i < scatter; i++)
        written[stride_end + rng.nextBounded(scatter)] = 1;
}

/**
 * Correctness gate after a replay. @return the number of failed
 * checks: written LPAs the oracle cannot resolve to a valid page that
 * carries them, valid pages that carry an unwritten or duplicated LPA,
 * and unresolved reads. LearnedTable::checkInvariants() aborts the
 * run on a broken table.
 */
uint64_t
checkDevice(Ssd &ssd, const std::vector<uint8_t> &written)
{
    uint64_t failed = ssd.stats().unresolved_reads;
    FlashArray &flash = ssd.flash();
    const BlockManager &blocks = ssd.blocks();
    const uint64_t host_pages = written.size();

    std::vector<uint8_t> on_flash(host_pages, 0);
    const uint64_t total = flash.geometry().totalPages();
    for (uint64_t p = 0; p < total; p++) {
        const Ppa ppa = static_cast<Ppa>(p);
        if (!blocks.isValid(ppa))
            continue;
        const Lpa lpa = flash.peekLpa(ppa);
        if (lpa >= host_pages || !written[lpa] || on_flash[lpa]) {
            failed++;
            continue;
        }
        on_flash[lpa] = 1;
    }
    for (uint64_t l = 0; l < host_pages; l++) {
        if (!written[l])
            continue;
        const Lpa lpa = static_cast<Lpa>(l);
        const std::optional<Ppa> ppa = ssd.oraclePpa(lpa);
        if (!on_flash[l] || !ppa || flash.peekLpa(*ppa) != lpa ||
            !blocks.isValid(*ppa))
            failed++;
    }
    if (const LearnedTable *t = ssd.ftl().learnedTable())
        t->checkInvariants();
    return failed;
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            have_seed = end && *end == '\0' && *val != '\0';
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (!end || *end != '\0')
                return false;
        } else if (key == "--trace") {
            a.trace = std::strcmp(val, "0") == 0   ? 0
                      : std::strcmp(val, "1") == 0 ? 1
                                                    : -1;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && have_seed &&
           a.seconds > 0 && a.trace >= 0;
}

void
printMetric(std::string &out, const std::string &name, double value,
            const char *unit)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", name.c_str(), value, unit);
    out += buf;
}

int
run(const Args &args)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (args.workload == w.name)
            def = &w;
    if (!def) {
        std::cerr << "simbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }

    config::ExperimentSpec spec;
    spec.working_set_pages = kWorkingSet;
    spec.requests = def->requests;
    spec.read_ratio = def->read_ratio;
    spec.seed = args.seed * def->streams; // Stream 0.
    spec.prefill_frac = kPrefillFrac;
    const SsdConfig cfg = cli::makeConfig(def->ftl, kGamma, spec, "auto");
    const uint64_t prefill_pages =
        static_cast<uint64_t>(spec.prefill_frac * spec.working_set_pages);
    const uint64_t host_pages = cfg.hostPages();

    // Inputs: generated once, outside every timed region.
    std::string err;
    std::unique_ptr<WorkloadSource> gen =
        cli::makeWorkload(def->spec, spec, err);
    if (!gen) {
        std::cerr << "simbench: " << err << '\n';
        return 1;
    }
    const std::string stream_name = gen->name();
    std::vector<IoRequest> reqs;
    reqs.reserve(def->requests);
    HostTimer gen_timer;
    for (IoRequest r; gen->next(r);)
        reqs.push_back(r);
    const double gen_ns_per_req =
        static_cast<double>(gen_timer.elapsedNs()) /
        static_cast<double>(std::max<size_t>(1, reqs.size()));
    gen.reset();

    std::vector<uint8_t> written(host_pages, 0);
    markPrefill(written, prefill_pages, host_pages);
    for (const IoRequest &r : reqs)
        markWrite(written, r);

    const uint64_t rss_inputs = procStatusBytes("VmRSS");

    const RunOptions ropts; // No prefill, closed loop, qd 1, no pool.

    std::vector<double> setup_s, req_per_s;
    WindowBest untraced_best, traced_best;
    std::vector<uint64_t> stamps;
    std::vector<TraceSummary> traces;
    std::string first_row;
    RunResult first_res;
    std::vector<Metric> layers;
    uint64_t attempted = 0, failed = 0;
    int repeats = 0;

    HostTimer budget;
    // Streams 1.. feed only the simulated metrics, so end-to-end runs
    // replay each once, straight from its generator, and check it like
    // stream 0. Their set-ups count towards setup_s (same work).
    SimNumbers sim_sum;
    for (uint32_t k = 1; args.trace == 0 && k < def->streams; k++) {
        config::ExperimentSpec sub = spec;
        sub.seed = spec.seed + k;
        std::unique_ptr<WorkloadSource> sub_gen =
            cli::makeWorkload(def->spec, sub, err);
        LEAFTL_ASSERT(sub_gen != nullptr, err);
        std::vector<uint8_t> sub_written(host_pages, 0);
        markPrefill(sub_written, prefill_pages, host_pages);

        HostTimer setup_timer;
        auto ssd = std::make_unique<Ssd>(cfg);
        Runner::prefillMixed(*ssd, prefill_pages);
        setup_s.push_back(setup_timer.elapsedSeconds());

        MarkingSource src(*sub_gen, sub_written);
        const RunResult res = Runner::replay(*ssd, src, ropts);
        std::cerr << "simbench: stream " << k << " (seed " << sub.seed
                  << ") row:\n"
                  << cli::csvRow(res, def->ftl, kGamma, cfg) << '\n';
        sim_sum.add(SimNumbers::of(res));
        attempted += res.requests;
        failed += checkDevice(*ssd, sub_written);
    }

    while (repeats < kMinRepeats ||
           budget.elapsedSeconds() < args.seconds) {
        const bool traced = args.trace == 1 && repeats % 2 == 1;

        HostTimer setup_timer;
        auto ssd = std::make_unique<Ssd>(cfg);
        Runner::prefillMixed(*ssd, prefill_pages);
        setup_s.push_back(setup_timer.elapsedSeconds());

        const DeviceCounters before = DeviceCounters::of(*ssd);
        stamps.clear();
        VectorSource plain(reqs, stream_name, stamps);
        std::optional<TracedSource> tracer;
        if (traced)
            tracer.emplace(plain, *ssd, reqs.size());
        WorkloadSource &src =
            traced ? static_cast<WorkloadSource &>(*tracer) : plain;

        stamps.push_back(hostNowNs());
        RunResult res = Runner::replay(*ssd, src, ropts);
        stamps.push_back(hostNowNs());
        const uint64_t replay_ns = stamps.back() - stamps.front();
        (traced ? traced_best : untraced_best).add(stamps);
        if (traced)
            traces.push_back(
                summarize(*tracer, static_cast<double>(replay_ns)));
        else
            req_per_s.push_back(static_cast<double>(res.requests) /
                                (static_cast<double>(replay_ns) / 1e9));

        // Simulated results must repeat exactly.
        const std::string row = cli::csvRow(res, def->ftl, kGamma, cfg);
        if (repeats == 0) {
            first_row = row;
            first_res = res;
            layers = layerCounters(before, DeviceCounters::of(*ssd), *ssd,
                                   res);
            std::cerr << "simbench: stream 0 (seed " << spec.seed
                      << ") leaftl_sim row (wall_ns = 0):\n"
                      << cli::csvHeader() << '\n'
                      << row << '\n';
        } else if (row != first_row) {
            std::cerr << "simbench: repeat " << repeats
                      << " diverged from repeat 0:\n"
                      << row << '\n';
            failed++;
        }

        attempted += res.requests;
        failed += checkDevice(*ssd, written);
        repeats++;
    }
    const uint64_t rss_peak = procStatusBytes("VmHWM");

    const double untraced_rate =
        static_cast<double>(reqs.size()) / untraced_best.seconds();
    std::string metrics;
    if (args.trace == 0) {
        // The mean over the streams (one stream: its exact values).
        sim_sum.add(SimNumbers::of(first_res));
        const SimNumbers sim = sim_sum.scaled(1.0 / def->streams);
        printMetric(metrics, "host_req_per_s", untraced_rate, "1/s");
        // Same reasoning as the replay: every set-up does identical
        // work, so the fastest one is the steadiest estimate.
        printMetric(metrics, "setup_s",
                    *std::min_element(setup_s.begin(), setup_s.end()), "s");
        const uint64_t mem_growth = rss_peak - std::min(rss_peak, rss_inputs);
        printMetric(metrics, "host_mem_mb",
                    static_cast<double>(mem_growth) / (1 << 20), "MiB");
        printMetric(metrics, "sim_iops", sim.iops, "1/s");
        printMetric(metrics, "sim_avg_lat_us", sim.avg_lat_us, "us");
        printMetric(metrics, "sim_avg_read_us", sim.avg_read_us, "us");
        printMetric(metrics, "mapping_kb", sim.mapping_kb, "KiB");
        printMetric(metrics, "waf", sim.waf, "ratio");
        printMetric(metrics, "read_amp", sim.read_amp, "ratio");
    } else {
        // Per-layer spans from the fastest traced repeat (the one least
        // slowed by the host), so its spans and sim.other add up to
        // that repeat's wall time.
        const TraceSummary &t = *std::min_element(
            traces.begin(), traces.end(),
            [](const TraceSummary &a, const TraceSummary &b) {
                return a.replay_ns < b.replay_ns;
            });
        for (int c = 0; c < kNumClasses; c++) {
            const std::string n = kClassNames[c];
            printMetric(metrics, n + ".count",
                        static_cast<double>(t.count[c]), "count");
            printMetric(metrics, n + ".ms", t.ns[c] / 1e6, "ms");
            printMetric(metrics, n + ".share", t.ns[c] / t.replay_ns,
                        "ratio");
            printMetric(metrics, n + ".p50_ns",
                        static_cast<double>(t.p50[c]), "ns");
            printMetric(metrics, n + ".p99_ns",
                        static_cast<double>(t.p99[c]), "ns");
        }
        printMetric(metrics, "sim.other.ms", t.other_ns / 1e6, "ms");
        printMetric(metrics, "sim.other.share", t.other_ns / t.replay_ns,
                    "ratio");
        printMetric(metrics, "replay.p50_ns",
                    static_cast<double>(t.all_p50), "ns");
        printMetric(metrics, "replay.p99_ns",
                    static_cast<double>(t.all_p99), "ns");
        printMetric(metrics, "workload.gen_ns_per_req", gen_ns_per_req,
                    "ns");
        const double traced_rate =
            static_cast<double>(reqs.size()) / traced_best.seconds();
        printMetric(metrics, "trace.replay_ms", t.replay_ns / 1e6, "ms");
        printMetric(metrics, "trace.host_req_per_s", traced_rate, "1/s");
        printMetric(metrics, "trace.untraced_host_req_per_s",
                    untraced_rate, "1/s");
        printMetric(metrics, "trace.overhead_pct",
                    (untraced_rate / traced_rate - 1.0) * 100.0, "%");
        for (const Metric &m : layers)
            printMetric(metrics, m.name, m.value, m.unit);
        if (t.other_ns < 0)
            failed++; // Spans cannot exceed the replay they sit in.
    }

    std::cerr << "simbench: " << args.workload << " seed " << args.seed
              << ": " << repeats << " repeats, " << attempted
              << " requests, " << failed << " failed checks; untraced "
              << "req/s: windowed " << untraced_rate << ", fastest repeat "
              << *std::max_element(req_per_s.begin(), req_per_s.end())
              << ", median repeat " << median(req_per_s) << '\n';
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return 0;
}

} // namespace
} // namespace leaftl

int
main(int argc, char **argv)
{
    leaftl::Args args;
    if (!leaftl::parseArgs(argc, argv, args)) {
        std::cerr << "usage: simbench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n";
        return 2;
    }
    return leaftl::run(args);
}
