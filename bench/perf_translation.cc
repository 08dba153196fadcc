/**
 * @file
 * Host-side translation microbench (the repo's perf anchor for the
 * learned mapping stack, complementing the paper's Fig. 23b): drives
 * a bare LearnedTable -- no flash model, no replay engine -- and
 * reports learned mappings/sec and lookups/sec for gamma in
 * {0, 1, 4, 16} over a sequential and a zipfian key stream.
 *
 * Methodology: the learn phase feeds LPA-sorted batches shaped like
 * write-buffer flushes (sequential wraps relearn whole groups; zipfian
 * batches are hot-key overwrites that grow and merge levels), with a
 * periodic compact() mimicking the FTL's maintenance cadence. The
 * lookup phase then replays a pre-generated key stream against the
 * frozen table so the timing loop measures translation alone -- not
 * key generation. Output is CSV (header + one row per combination)
 * on stdout; progress goes to stderr.
 *
 * A second CSV section, `merge`, times the per-group merge alone: the
 * same learn+compact streams, pre-fitted, are replayed through Group
 * and through the bitmap-based RefGroup it replaced
 * (bench/learned_reference.hh, kept verbatim). Rows are
 * merge,new|reference|speedup,stream,gamma,mappings,ns,rate, with the
 * speedup row's rate column = reference_ns / new_ns.
 *
 * A third section, `compact`, replays a uniform random stream the
 * same way but times only the Group::compact / RefGroup::compact
 * calls (the learn steps between them run untimed), so compaction's
 * cost is visible apart from the merges on insert. Its rows have the
 * merge section's columns; ns is the time inside compact() and rate
 * is group compactions per second.
 *
 * Both sections compact after every 1/8 of the batches (at most every
 * compact_every), so every scale runs about eight rounds of
 * learn+compact.
 *
 * The bench exits 1 if the two implementations' final groups differ
 * in any byte of their canonical dump, or if a section ran no
 * compaction.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "learned/learned_table.hh"
#include "learned_reference.hh"
#include "util/host_clock.hh"
#include "util/rng.hh"
#include "workload/zipf.hh"

using namespace leaftl;

namespace
{

struct PerfScale
{
    uint64_t span_pages = 256 * 1024;  ///< LPA space exercised (1 GB).
    uint64_t mappings = 1'000'000;     ///< Mappings learned per combo.
    uint64_t lookups = 2'000'000;      ///< Lookups timed per combo.
    uint64_t batch = 2048;             ///< Mappings per learn() batch.
    uint64_t compact_every = 64;       ///< Batches between compact().
};

PerfScale
parseArgs(int argc, char **argv)
{
    PerfScale s;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg.rfind("--ws=", 0) == 0) {
            s.span_pages = std::stoull(arg.substr(5));
        } else if (arg.rfind("--mappings=", 0) == 0) {
            s.mappings = std::stoull(arg.substr(11));
        } else if (arg.rfind("--lookups=", 0) == 0) {
            s.lookups = std::stoull(arg.substr(10));
        } else if (arg.rfind("--batch=", 0) == 0) {
            s.batch = std::stoull(arg.substr(8));
        } else if (arg == "--fast") {
            s.mappings /= 20;
            s.lookups /= 20;
            s.span_pages /= 4;
        } else {
            std::fprintf(stderr,
                         "perf_translation: unknown arg '%s'\n"
                         "usage: perf_translation [--ws=PAGES] "
                         "[--mappings=N] [--lookups=N] [--batch=N] "
                         "[--fast]\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    if (s.span_pages < kGroupSpan)
        s.span_pages = kGroupSpan;
    if (s.batch == 0)
        s.batch = 1;
    return s;
}

using Batch = std::vector<std::pair<Lpa, Ppa>>;

/** LPA streams: sequential wraps, zipfian and uniform random keys. */
enum class Stream { Seq, Zipf, Rand };

const char *
streamName(Stream stream)
{
    switch (stream) {
    case Stream::Seq:
        return "seq";
    case Stream::Zipf:
        return "zipf";
    case Stream::Rand:
        return "rand";
    }
    return "?";
}

/**
 * Build the write-buffer-flush-shaped batches for ~s.mappings
 * mappings. Zipfian and random batches are deduplicated (a write
 * buffer holds one entry per LPA), so the batches' total is the real
 * learned count, not the raw draw count.
 */
std::vector<Batch>
buildBatches(const PerfScale &s, Stream stream, uint64_t seed)
{
    Rng rng(seed);
    ZipfGenerator zipf(s.span_pages, 0.99);

    std::vector<Batch> batches;
    uint64_t produced = 0;
    Lpa seq_next = 0;
    Ppa next_ppa = 0;
    std::vector<Lpa> keys;
    while (produced < s.mappings) {
        const uint64_t want =
            std::min<uint64_t>(s.batch, s.mappings - produced);
        keys.clear();
        if (stream != Stream::Seq) {
            for (uint64_t i = 0; i < want; i++) {
                keys.push_back(static_cast<Lpa>(
                    stream == Stream::Zipf ? zipf.next(rng)
                                           : rng.nextBounded(s.span_pages)));
            }
            std::sort(keys.begin(), keys.end());
            keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        } else {
            for (uint64_t i = 0; i < want; i++) {
                keys.push_back(seq_next);
                seq_next = (seq_next + 1) % s.span_pages;
            }
            std::sort(keys.begin(), keys.end());
        }
        Batch batch;
        batch.reserve(keys.size());
        for (Lpa lpa : keys)
            batch.emplace_back(lpa, next_ppa++);
        produced += want;
        batches.push_back(std::move(batch));
    }
    return batches;
}

uint64_t
countMappings(const std::vector<Batch> &batches)
{
    uint64_t n = 0;
    for (const Batch &b : batches)
        n += b.size();
    return n;
}

struct LearnResult
{
    uint64_t ns;       ///< Wall time of the timed learn loop.
    uint64_t mappings; ///< Mappings actually learned (post-dedup).
};

/** Learn ~s.mappings mappings into @a table (batches pre-built). */
LearnResult
learnPhase(LearnedTable &table, const PerfScale &s, bool zipfian,
           uint64_t seed)
{
    const std::vector<Batch> batches =
        buildBatches(s, zipfian ? Stream::Zipf : Stream::Seq, seed);
    HostTimer timer;
    for (size_t b = 0; b < batches.size(); b++) {
        table.learn(batches[b]);
        if ((b + 1) % s.compact_every == 0)
            table.compact();
    }
    return {timer.elapsedNs(), countMappings(batches)};
}

/** Time @a s.lookups lookups of a pre-generated key stream. */
uint64_t
lookupPhase(const LearnedTable &table, const PerfScale &s, bool zipfian,
            uint64_t seed)
{
    Rng rng(seed);
    ZipfGenerator zipf(s.span_pages, 0.99);
    std::vector<Lpa> keys;
    keys.reserve(s.lookups);
    Lpa seq_next = 0;
    for (uint64_t i = 0; i < s.lookups; i++) {
        if (zipfian) {
            keys.push_back(static_cast<Lpa>(zipf.next(rng)));
        } else {
            keys.push_back(seq_next);
            seq_next = (seq_next + 1) % s.span_pages;
        }
    }

    volatile uint64_t sink = 0;
    HostTimer timer;
    for (Lpa lpa : keys) {
        const auto r = table.lookup(lpa);
        if (r)
            sink = sink + r->ppa;
    }
    return timer.elapsedNs();
}

double
perSecond(uint64_t ops, uint64_t ns)
{
    return ns ? static_cast<double>(ops) * 1e9 / static_cast<double>(ns)
              : 0.0;
}

/** One learn() call's fitted segments, and whether compact() follows. */
struct MergeStep
{
    std::vector<std::pair<uint32_t, std::vector<FittedSegment>>> fitted;
    bool compact;
};

/** One replay: host time of the whole loop and of compact() alone. */
struct ReplayNs
{
    uint64_t total;
    uint64_t compact;
    uint64_t compactions; ///< Group::compact() calls.
};

/**
 * Replay @a steps into one group per group index, the way
 * LearnedTable::learn/compact drive them, and time it. Fitting is
 * done up front, so only update() and compact() are timed.
 */
template <typename G, typename Scratch>
ReplayNs
replayMerge(std::vector<G> &groups, const std::vector<MergeStep> &steps)
{
    Scratch scratch;
    std::vector<uint32_t> created;
    std::vector<bool> seen(groups.size(), false);
    uint64_t compact_ns = 0, compactions = 0;
    HostTimer timer;
    for (const MergeStep &step : steps) {
        for (const auto &[idx, segs] : step.fitted) {
            if (!seen[idx]) {
                seen[idx] = true;
                created.push_back(idx);
            }
            for (const FittedSegment &fs : segs)
                groups[idx].update(fs, scratch);
        }
        if (step.compact) {
            const HostTimer compact_timer;
            for (uint32_t idx : created)
                groups[idx].compact(scratch);
            compact_ns += compact_timer.elapsedNs();
            compactions += created.size();
        }
    }
    return {timer.elapsedNs(), compact_ns, compactions};
}

/**
 * One row triple of the merge or compact section: Group vs RefGroup
 * on one (stream, gamma), timing the whole replay (merge) or its
 * compact() calls alone (compact).
 * @return false when the two implementations diverged.
 */
bool
benchMerge(const char *section, const PerfScale &s, Stream stream,
           uint32_t gamma)
{
    const bool compact_only = std::strcmp(section, "compact") == 0;
    const std::vector<Batch> batches =
        buildBatches(s, stream, /*seed=*/42 + gamma);
    const uint64_t every =
        std::clamp<uint64_t>(batches.size() / 8, 1, s.compact_every);
    std::vector<MergeStep> steps;
    steps.reserve(batches.size());
    for (size_t b = 0; b < batches.size(); b++)
        steps.push_back({fitRun(batches[b], gamma), (b + 1) % every == 0});

    const size_t num_groups = (s.span_pages + kGroupSpan - 1) / kGroupSpan;
    std::vector<Group> groups(num_groups);
    std::vector<RefGroup> refs(num_groups);
    const ReplayNs new_ns = replayMerge<Group, MergeScratch>(groups, steps);
    const ReplayNs old_ns =
        replayMerge<RefGroup, RefMergeScratch>(refs, steps);

    const char *name = streamName(stream);
    if (new_ns.compactions == 0) {
        std::fprintf(stderr,
                     "perf_translation: %s section ran no compaction "
                     "(%s, gamma %u)\n",
                     section, name, gamma);
        return false;
    }
    for (size_t idx = 0; idx < num_groups; idx++) {
        if (canonicalGroupDump(groups[idx]) != canonicalGroupDump(refs[idx])) {
            std::fprintf(stderr,
                         "perf_translation: %s diverged from the "
                         "reference (%s, gamma %u, group %zu)\n",
                         section, name, gamma, idx);
            return false;
        }
    }

    const uint64_t mappings = countMappings(batches);
    const uint64_t new_t = compact_only ? new_ns.compact : new_ns.total;
    const uint64_t old_t = compact_only ? old_ns.compact : old_ns.total;
    const uint64_t ops = compact_only ? new_ns.compactions : mappings;
    std::printf("%s,new,%s,%u,%" PRIu64 ",%" PRIu64 ",%.0f\n", section,
                name, gamma, mappings, new_t, perSecond(ops, new_t));
    std::printf("%s,reference,%s,%u,%" PRIu64 ",%" PRIu64 ",%.0f\n",
                section, name, gamma, mappings, old_t,
                perSecond(ops, old_t));
    std::printf("%s,speedup,%s,%u,%" PRIu64 ",0,%.2f\n", section, name,
                gamma, mappings,
                new_t ? static_cast<double>(old_t) / static_cast<double>(new_t)
                      : 0.0);
    std::fflush(stdout);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const PerfScale s = parseArgs(argc, argv);
    std::fprintf(stderr,
                 "perf_translation: ws=%" PRIu64 " mappings=%" PRIu64
                 " lookups=%" PRIu64 "\n",
                 s.span_pages, s.mappings, s.lookups);

    std::printf("stream,gamma,span_pages,mappings,learn_ns,"
                "learns_per_sec,lookups,lookup_ns,lookups_per_sec,"
                "avg_levels,cache_hit_ratio,mapping_bytes\n");

    for (const bool zipfian : {false, true}) {
        for (const uint32_t gamma : {0u, 1u, 4u, 16u}) {
            LearnedTable table(gamma);
            const LearnResult learn =
                learnPhase(table, s, zipfian, /*seed=*/42 + gamma);
            const uint64_t lookup_ns =
                lookupPhase(table, s, zipfian, /*seed=*/1042 + gamma);

            const auto &st = table.stats();
            const double avg_levels =
                st.lookups ? static_cast<double>(st.lookup_levels_total) /
                                 static_cast<double>(st.lookups)
                           : 0.0;
            const double hit_ratio =
                st.lookups ? static_cast<double>(st.lookup_cache_hits) /
                                 static_cast<double>(st.lookups)
                           : 0.0;
            std::printf("%s,%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                        ",%.0f,%" PRIu64 ",%" PRIu64 ",%.0f,%.3f,%.3f,"
                        "%zu\n",
                        zipfian ? "zipf" : "seq", gamma, s.span_pages,
                        learn.mappings, learn.ns,
                        perSecond(learn.mappings, learn.ns), s.lookups,
                        lookup_ns, perSecond(s.lookups, lookup_ns),
                        avg_levels, hit_ratio, table.memoryBytes());
            std::fflush(stdout);
        }
    }

    std::fprintf(stderr, "perf_translation: merge vs reference...\n");
    std::printf("section,impl,stream,gamma,mappings,ns,rate\n");
    for (const Stream stream : {Stream::Seq, Stream::Zipf}) {
        for (const uint32_t gamma : {0u, 4u, 16u}) {
            if (!benchMerge("merge", s, stream, gamma))
                return 1;
        }
    }
    std::fprintf(stderr, "perf_translation: compact vs reference...\n");
    for (const uint32_t gamma : {0u, 4u, 16u}) {
        if (!benchMerge("compact", s, Stream::Rand, gamma))
            return 1;
    }
    return 0;
}
