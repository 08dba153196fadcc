/**
 * @file
 * Equivalence suite pinning the word-parallel Group merge and the
 * mask-backed Crb to the bitmap/vector implementation they replaced
 * (kept verbatim in bench/learned_reference.hh as RefGroup/RefCrb).
 *
 * Identical fitRun() output is driven through both, with compact()
 * every few learns, over four LPA streams (sequential wraps, uniform
 * random, zipfian, and interleaved stride runs) at gamma in
 * {0, 1, 4, 16}. After every step each group must produce the same
 * canonical dump (level, S, L, K, I, CRB run: the serialize() layout)
 * and the same lookup -- ppa, approximate, levels_visited -- for all
 * 256 offsets. A LearnedTable fed the same batches must serialize to
 * the blob assembled from the reference groups.
 *
 * All streams are seeded Rng sequences: failures reproduce exactly.
 *
 * GroupEquivScripted drives hand-built segments into the exact states
 * compaction's phase-1 shortcuts reason about -- a lower-level
 * approximate victim whose first or last offset a newer run's CRB
 * deduplication stole, accurate entries over approximate victims and
 * the reverse, a victim fully superseded during compaction, and
 * neighbouring entries whose masks must not leak into each other --
 * and checks the same equivalence after every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "learned/group.hh"
#include "learned/learned_table.hh"
#include "learned/plr.hh"
#include "learned_reference.hh"
#include "util/float16.hh"
#include "util/rng.hh"
#include "workload/zipf.hh"

namespace leaftl
{
namespace
{

constexpr uint32_t kGroups = 4;
constexpr uint32_t kSpan = kGroups * kGroupSpan;
constexpr int kSteps = 240;
constexpr int kCompactEvery = 3;

enum class Stream { Seq, Rand, Zipf, Stride };

const char *
streamName(Stream s)
{
    switch (s) {
    case Stream::Seq:
        return "seq";
    case Stream::Rand:
        return "rand";
    case Stream::Zipf:
        return "zipf";
    case Stream::Stride:
        return "stride";
    }
    return "?";
}

/** Seeded batch source: sorted unique LPAs with flush-shaped PPAs. */
class BatchSource
{
  public:
    BatchSource(Stream stream, uint64_t seed)
        : stream_(stream), rng_(seed), zipf_(kSpan, 0.99)
    {
    }

    std::vector<std::pair<Lpa, Ppa>>
    next()
    {
        std::vector<Lpa> keys;
        const uint64_t want = 8 + rng_.nextBounded(120);
        switch (stream_) {
        case Stream::Seq:
            for (uint64_t i = 0; i < want; i++) {
                keys.push_back(seq_next_);
                seq_next_ = (seq_next_ + 1) % kSpan;
            }
            break;
        case Stream::Rand:
            for (uint64_t i = 0; i < want; i++)
                keys.push_back(static_cast<Lpa>(rng_.nextBounded(kSpan)));
            break;
        case Stream::Zipf:
            for (uint64_t i = 0; i < want; i++)
                keys.push_back(static_cast<Lpa>(zipf_.next(rng_)));
            break;
        case Stream::Stride:
            // Two interleaved arithmetic runs with independent strides
            // and phases: accurate segments of many strides, plus the
            // irregular unions that become approximate ones.
            for (int run = 0; run < 2; run++) {
                const uint64_t d = 1 + rng_.nextBounded(rng_.nextBool(0.5)
                                                            ? 8
                                                            : 300);
                Lpa lpa = static_cast<Lpa>(rng_.nextBounded(kSpan));
                for (uint64_t i = 0; i < want / 2 && lpa < kSpan; i++) {
                    keys.push_back(lpa);
                    lpa += static_cast<Lpa>(d);
                }
            }
            break;
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

        // Flushes write consecutive PPAs; an occasional gap (another
        // stream's pages in between) breaks exact runs.
        std::vector<std::pair<Lpa, Ppa>> batch;
        batch.reserve(keys.size());
        for (Lpa lpa : keys) {
            if (rng_.nextBool(0.05))
                next_ppa_ += 1 + static_cast<Ppa>(rng_.nextBounded(6));
            batch.emplace_back(lpa, next_ppa_++);
        }
        return batch;
    }

  private:
    Stream stream_;
    Rng rng_;
    ZipfGenerator zipf_;
    Lpa seq_next_ = 0;
    Ppa next_ppa_ = 1000;
};

::testing::AssertionResult
sameGroup(const Group &g, const RefGroup &ref)
{
    if (canonicalGroupDump(g) != canonicalGroupDump(ref))
        return ::testing::AssertionFailure() << "canonical dumps differ";
    if (g.numLevels() != ref.numLevels() ||
        g.numSegments() != ref.numSegments() ||
        g.numApproximate() != ref.numApproximate() ||
        g.memoryBytes() != ref.memoryBytes() ||
        g.crb().numRuns() != ref.crb().numRuns())
        return ::testing::AssertionFailure() << "counters differ";
    for (uint32_t off = 0; off < kGroupSpan; off++) {
        const auto a = g.lookup(static_cast<uint8_t>(off));
        const auto b = ref.lookup(static_cast<uint8_t>(off));
        if (a.has_value() != b.has_value())
            return ::testing::AssertionFailure()
                   << "offset " << off << ": hit differs";
        if (a && (a->ppa != b->ppa || a->approximate != b->approximate ||
                  a->levels_visited != b->levels_visited))
            return ::testing::AssertionFailure()
                   << "offset " << off << ": lookup differs (ppa " << a->ppa
                   << " vs " << b->ppa << ", levels " << a->levels_visited
                   << " vs " << b->levels_visited << ")";
    }
    g.checkInvariants();
    return ::testing::AssertionSuccess();
}

template <typename T>
void
put(std::vector<uint8_t> &blob, T v)
{
    const size_t at = blob.size();
    blob.resize(at + sizeof(T));
    std::memcpy(blob.data() + at, &v, sizeof(T));
}

/** The LearnedTable::serialize() blob the reference groups imply. */
std::vector<uint8_t>
referenceBlob(uint32_t gamma, const std::vector<RefGroup> &refs,
              const std::vector<bool> &created)
{
    std::vector<uint8_t> blob;
    put<uint32_t>(blob, gamma);
    put<uint32_t>(blob, static_cast<uint32_t>(
                            std::count(created.begin(), created.end(), true)));
    for (uint32_t idx = 0; idx < refs.size(); idx++) {
        if (!created[idx])
            continue;
        put<uint32_t>(blob, idx);
        put<uint32_t>(blob, static_cast<uint32_t>(refs[idx].numSegments()));
        const std::vector<uint8_t> dump = canonicalGroupDump(refs[idx]);
        blob.insert(blob.end(), dump.begin(), dump.end());
    }
    return blob;
}

class GroupEquiv
    : public ::testing::TestWithParam<std::tuple<Stream, uint32_t>>
{
};

TEST_P(GroupEquiv, MatchesReferenceStepByStep)
{
    const auto [stream, gamma] = GetParam();
    BatchSource source(stream, 7 + gamma * 131 +
                                   static_cast<uint64_t>(stream) * 17);

    std::vector<Group> groups(kGroups);
    std::vector<RefGroup> refs(kGroups);
    std::vector<bool> created(kGroups, false);
    MergeScratch scratch;
    RefMergeScratch ref_scratch;
    LearnedTable table(gamma);
    uint64_t approximate = 0, compactions = 0;
    size_t max_levels = 0;

    for (int step = 0; step < kSteps; step++) {
        const auto batch = source.next();
        table.learn(batch);
        for (const auto &[idx, segs] : fitRun(batch, gamma)) {
            created[idx] = true;
            for (const FittedSegment &fs : segs) {
                approximate += fs.seg.approximate() ? 1 : 0;
                groups[idx].update(fs, scratch);
                refs[idx].update(fs, ref_scratch);
            }
        }
        if (step % kCompactEvery == kCompactEvery - 1) {
            table.compact();
            for (uint32_t idx = 0; idx < kGroups; idx++) {
                groups[idx].compact(scratch);
                refs[idx].compact(ref_scratch);
            }
            compactions++;
        }
        for (uint32_t idx = 0; idx < kGroups; idx++) {
            ASSERT_TRUE(sameGroup(groups[idx], refs[idx]))
                << streamName(stream) << " gamma " << gamma << " step "
                << step << " group " << idx;
            max_levels = std::max(max_levels, groups[idx].numLevels());
        }
        ASSERT_EQ(table.serialize(), referenceBlob(gamma, refs, created))
            << "step " << step;
    }
    table.checkInvariants();

    // The streams must exercise what they claim to: gamma > 0 learns
    // approximate segments (so the CRB path is compared), and the
    // overwrite streams pile up levels that compaction has to merge.
    if (gamma > 0 && stream != Stream::Seq) {
        EXPECT_GT(approximate, 0u);
    }
    if (stream != Stream::Seq) {
        EXPECT_GT(max_levels, 1u);
    }
    EXPECT_GT(compactions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, GroupEquiv,
    ::testing::Combine(::testing::Values(Stream::Seq, Stream::Rand,
                                         Stream::Zipf, Stream::Stride),
                       ::testing::Values(0u, 1u, 4u, 16u)),
    [](const auto &info) {
        return std::string(streamName(std::get<0>(info.param))) + "_g" +
               std::to_string(std::get<1>(info.param));
    });

/** An approximate segment learned from exactly @a offs. */
FittedSegment
approx(std::vector<uint8_t> offs)
{
    FittedSegment fs;
    fs.seg = Segment(offs.front(),
                     static_cast<uint8_t>(offs.back() - offs.front()),
                     float16SetTag(float16Encode(1.0f), true), 1000);
    fs.offs = std::move(offs);
    return fs;
}

/** An accurate segment on the stride-@a d grid over [lo, hi]. */
FittedSegment
accurate(uint8_t lo, uint8_t hi, uint32_t d = 1)
{
    FittedSegment fs;
    fs.seg = Segment(lo, static_cast<uint8_t>(hi - lo),
                     float16SetTag(
                         float16Encode(1.0f / static_cast<float>(d)), false),
                     2000);
    for (uint32_t off = lo; off <= hi; off += d)
        fs.offs.push_back(static_cast<uint8_t>(off));
    return fs;
}

/** A Group and a RefGroup driven in lockstep. */
class Twin
{
  public:
    ::testing::AssertionResult
    update(const FittedSegment &fs)
    {
        g_.update(fs, scratch_);
        ref_.update(fs, ref_scratch_);
        return sameGroup(g_, ref_);
    }

    ::testing::AssertionResult
    compact()
    {
        g_.compact(scratch_);
        ref_.compact(ref_scratch_);
        return sameGroup(g_, ref_);
    }

    const Group &group() const { return g_; }

    /** [S, S+L] and member bounds of each segment on @a level. */
    struct Shape
    {
        uint8_t slpa, end, first, last;
    };

    std::vector<Shape>
    segmentsOn(size_t level) const
    {
        std::vector<Shape> shapes;
        g_.forEachSegment([&](const SegEntry &e, size_t li) {
            if (li != level)
                return;
            const GroupMask members = g_.segmentMask(e);
            shapes.push_back({e.seg.slpa(), e.seg.endOff(), members.first(),
                              members.last()});
        });
        return shapes;
    }

  private:
    Group g_;
    RefGroup ref_;
    MergeScratch scratch_;
    RefMergeScratch ref_scratch_;
};

/**
 * Leave the approximate victim {10, 12, 15, 20, 30} on level 2 with
 * @a stealer on level 0 and @a stealer's offsets taken from the
 * victim's run by CRB deduplication, so the victim's range no longer
 * ends on its run. Level 1 holds only a segment that overlaps the
 * stealer but not the victim, so compaction's second phase never
 * merges anything into the victim: only phase 1 can trim it.
 */
void
buildLooseVictim(Twin &twin, const FittedSegment &stealer)
{
    ASSERT_TRUE(twin.update(approx({10, 12, 15, 20, 30}))); // victim
    ASSERT_TRUE(twin.update(approx({60, 65, 70, 80})));     // neighbour
    // Interleaves both: pops them to level 1 together.
    ASSERT_TRUE(twin.update(approx({11, 61})));
    // Pops {11, 61} onto a dedicated level above the victim's.
    ASSERT_TRUE(twin.update(approx({40, 63, 68})));
    // Empties {11, 61}'s run (the segment dies, its level stays until
    // compaction), steals from the victim, and pops {40, 63, 68} into
    // the emptied level.
    ASSERT_TRUE(twin.update(stealer));
    ASSERT_EQ(twin.group().numLevels(), 3u);
    ASSERT_EQ(twin.segmentsOn(1).size(), 1u);
    ASSERT_EQ(twin.segmentsOn(2).size(), 2u);
}

TEST(GroupEquivScripted, LooseVictimFirstOffsetStolen)
{
    Twin twin;
    buildLooseVictim(twin, approx({10, 11, 45, 61}));
    const Twin::Shape victim = twin.segmentsOn(2)[0];
    EXPECT_EQ(victim.slpa, 10u);
    EXPECT_EQ(victim.first, 12u); // Loose at the start.
    EXPECT_EQ(victim.end, victim.last);

    ASSERT_TRUE(twin.compact());
    const Twin::Shape after = twin.segmentsOn(2)[0];
    EXPECT_EQ(after.slpa, 12u);
    EXPECT_EQ(after.end, 30u);
}

TEST(GroupEquivScripted, LooseVictimLastOffsetStolen)
{
    Twin twin;
    buildLooseVictim(twin, approx({11, 30, 45, 61}));
    const Twin::Shape victim = twin.segmentsOn(2)[0];
    EXPECT_EQ(victim.end, 30u);
    EXPECT_EQ(victim.last, 20u); // Loose at the end.
    EXPECT_EQ(victim.slpa, victim.first);

    ASSERT_TRUE(twin.compact());
    const Twin::Shape after = twin.segmentsOn(2)[0];
    EXPECT_EQ(after.slpa, 10u);
    EXPECT_EQ(after.end, 20u);
}

TEST(GroupEquivScripted, AccurateEntryOverApproximateVictim)
{
    Twin twin;
    ASSERT_TRUE(twin.update(approx({10, 13, 17, 22, 30})));
    ASSERT_TRUE(twin.update(approx({11, 29})));
    // Accurate segments do not go through the CRB, so 20..24 are
    // still in the lower victim's run until compaction subtracts them.
    ASSERT_TRUE(twin.update(accurate(20, 24)));
    ASSERT_EQ(twin.group().numLevels(), 3u);
    ASSERT_TRUE(twin.group().crb().run(twin.group().crb().owner(22)).test(
        10));

    ASSERT_TRUE(twin.compact());
    EXPECT_FALSE(twin.group().crb().contains(twin.group().crb().owner(10),
                                             22));
}

TEST(GroupEquivScripted, ApproximateEntryOverAccurateVictimEdgeAndInterior)
{
    Twin twin;
    ASSERT_TRUE(twin.update(accurate(40, 60)));
    ASSERT_TRUE(twin.update(approx({39, 61})));
    // Takes the accurate victim's first offset (an edge: the range
    // must shrink) and an interior one (shadowed, range unchanged).
    ASSERT_TRUE(twin.update(approx({40, 50, 70})));
    ASSERT_EQ(twin.group().numLevels(), 3u);
    EXPECT_EQ(twin.segmentsOn(2)[0].slpa, 40u);

    ASSERT_TRUE(twin.compact());
    bool trimmed = false;
    twin.group().forEachSegment([&](const SegEntry &e, size_t) {
        if (!e.seg.approximate())
            trimmed = e.seg.slpa() == 41 && e.seg.endOff() == 60;
    });
    EXPECT_TRUE(trimmed);
}

TEST(GroupEquivScripted, VictimFullySupersededDuringCompaction)
{
    Twin twin;
    ASSERT_TRUE(twin.update(accurate(10, 20, 2)));
    ASSERT_TRUE(twin.update(approx({11, 13})));
    // Supersedes {11, 13} at insert and lands above the stride-2
    // victim, whose members it covers completely.
    ASSERT_TRUE(twin.update(accurate(5, 25)));
    ASSERT_EQ(twin.group().numLevels(), 2u);
    ASSERT_EQ(twin.group().numSegments(), 2u);

    ASSERT_TRUE(twin.compact());
    EXPECT_EQ(twin.group().numSegments(), 1u);
    EXPECT_EQ(twin.group().numLevels(), 1u);
}

TEST(GroupEquivScripted, NeighbouringEntriesKeepTheirOwnMasks)
{
    // Two accurate entries side by side on level 0, each over its own
    // approximate victim on level 1: each subtraction must use its
    // own entry's members.
    Twin twin;
    ASSERT_TRUE(twin.update(approx({5, 8, 12, 15})));
    ASSERT_TRUE(twin.update(approx({105, 108, 112, 115})));
    ASSERT_TRUE(twin.update(approx({6, 14, 106, 114})));
    ASSERT_TRUE(twin.update(accurate(0, 9)));
    ASSERT_TRUE(twin.update(accurate(100, 109)));
    ASSERT_GE(twin.group().numLevels(), 2u);

    ASSERT_TRUE(twin.compact());
    const Crb &crb = twin.group().crb();
    EXPECT_EQ(crb.owner(5), Crb::kNoSeg);
    EXPECT_EQ(crb.owner(105), Crb::kNoSeg);
    EXPECT_NE(crb.owner(112), Crb::kNoSeg);
}

} // namespace
} // namespace leaftl
