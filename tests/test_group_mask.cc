/**
 * @file
 * Unit tests for the 256-bit GroupMask, Group::segmentMask and the
 * CRB's per-run masks: word-boundary ranges, single points at both
 * group ends, every stride against a brute-force grid, every segment
 * kind (accurate, trimmed, fresh and loose approximate) inside a real
 * group, and the CRB's mask/owner/byte accounting through dedup,
 * trimming, removal and restore.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "learned/crb.hh"
#include "learned/group.hh"
#include "learned/group_mask.hh"
#include "learned/plr.hh"
#include "util/float16.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

/** Members of @a m in ascending forEach order. */
std::vector<uint32_t>
members(const GroupMask &m)
{
    std::vector<uint32_t> out;
    m.forEach([&](uint8_t off) { out.push_back(off); });
    return out;
}

/** Brute-force grid {lo, lo + d, ...} within [lo, hi]. */
std::vector<uint32_t>
grid(uint32_t lo, uint32_t hi, uint32_t d)
{
    std::vector<uint32_t> out;
    for (uint32_t off = lo; off <= hi; off += d)
        out.push_back(off);
    return out;
}

/** Every query of @a m agrees with the expected member list. */
void
expectMembers(const GroupMask &m, const std::vector<uint32_t> &want)
{
    EXPECT_EQ(members(m), want);
    EXPECT_EQ(m.count(), want.size());
    EXPECT_EQ(m.none(), want.empty());
    if (!want.empty()) {
        EXPECT_EQ(m.first(), want.front());
        EXPECT_EQ(m.last(), want.back());
    }
    size_t k = 0;
    for (uint32_t off = 0; off < kGroupSpan; off++) {
        const bool in = k < want.size() && want[k] == off;
        EXPECT_EQ(m.test(static_cast<uint8_t>(off)), in) << "offset " << off;
        k += in ? 1 : 0;
    }
}

/** An accurate segment over [lo, lo + len] with stride @a d. */
Segment
accurate(uint8_t lo, uint8_t len, uint32_t d)
{
    const uint16_t kbits =
        float16SetTag(float16Encode(1.0f / static_cast<float>(d)), false);
    return Segment(lo, len, kbits, 5000);
}

TEST(GroupMask, StartsEmptyAndSetsClearBits)
{
    GroupMask m;
    EXPECT_TRUE(m.none());
    EXPECT_EQ(m.count(), 0u);
    m.set(0);
    m.set(64);
    m.set(255);
    expectMembers(m, {0, 64, 255});
    m.clear(64);
    expectMembers(m, {0, 255});
    expectMembers(GroupMask{0, 255}, {0, 255});
}

TEST(GroupMask, RangeAcrossWordBoundaries)
{
    const std::vector<std::pair<uint32_t, uint32_t>> spans = {
        {63, 64},  {127, 128}, {191, 192}, {0, 255}, {0, 63},
        {64, 127}, {62, 193},  {0, 0},     {255, 255}, {128, 128}};
    for (const auto &[lo, hi] : spans) {
        SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << "]");
        expectMembers(GroupMask::range(static_cast<uint8_t>(lo),
                                       static_cast<uint8_t>(hi)),
                      grid(lo, hi, 1));
    }
}

TEST(GroupMask, StridedMatchesBruteForceForEveryStride)
{
    const uint32_t starts[] = {0, 1, 5, 62, 63, 64, 65, 100,
                               127, 128, 190, 191, 192, 250, 255};
    for (uint32_t d = 1; d <= 300; d++) {
        for (uint32_t lo : starts) {
            for (uint32_t hi : {lo, lo + d - 1, lo + d, lo + 2 * d + 1,
                                lo + 63, 255u}) {
                if (hi > 255 || hi < lo)
                    continue;
                SCOPED_TRACE(testing::Message() << "d " << d << " [" << lo
                                                << ", " << hi << "]");
                expectMembers(GroupMask::strided(static_cast<uint8_t>(lo),
                                                 static_cast<uint8_t>(hi), d),
                              grid(lo, hi, d));
            }
        }
    }
}

TEST(GroupMask, AndSubtractAndOrder)
{
    const GroupMask a = GroupMask::range(60, 200);
    const GroupMask b = GroupMask::strided(0, 255, 7);
    expectMembers(a & b, [] {
        std::vector<uint32_t> out;
        for (uint32_t off = 63; off <= 200; off += 7)
            out.push_back(off);
        return out;
    }());
    GroupMask c = a;
    c.subtract(b);
    EXPECT_EQ(c.count(), a.count() - (a & b).count());
    EXPECT_TRUE((c & b).none());
    c.subtract(a);
    EXPECT_TRUE(c.none());
}

TEST(GroupMaskDeath, FirstOfEmptyAborts)
{
    EXPECT_DEATH(GroupMask().first(), "empty GroupMask");
    EXPECT_DEATH(GroupMask().last(), "empty GroupMask");
}

TEST(SegmentMask, StrideOneAcrossWordBoundaries)
{
    const Group g;
    const std::vector<std::pair<uint32_t, uint32_t>> spans = {
        {63, 64}, {127, 128}, {191, 192}, {0, 255}, {60, 70}};
    for (const auto &[lo, hi] : spans) {
        SegEntry e;
        e.seg = accurate(static_cast<uint8_t>(lo),
                         static_cast<uint8_t>(hi - lo), 1);
        ASSERT_EQ(e.seg.stride(), 1u);
        SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << "]");
        expectMembers(g.segmentMask(e), grid(lo, hi, 1));
    }
}

TEST(SegmentMask, SinglePointsAtGroupEnds)
{
    const Group g;
    for (uint32_t off : {0u, 255u, 64u}) {
        SegEntry e;
        e.seg = Segment::makeSinglePoint(static_cast<uint8_t>(off), 77);
        expectMembers(g.segmentMask(e), {off});
    }
}

TEST(SegmentMask, EveryStrideAgreesWithHasLpa)
{
    // Strides 2-255, including every stride that does not divide 64;
    // the mask must equal the has_lpa grid on all 256 offsets.
    const Group g;
    for (uint32_t d = 2; d <= 255; d++) {
        for (uint32_t lo : {0u, 1u, 63u, 64u, 130u, 200u}) {
            const uint32_t len = std::min<uint32_t>(255 - lo, 2 * d + 3);
            SegEntry e;
            e.seg = accurate(static_cast<uint8_t>(lo),
                             static_cast<uint8_t>(len), d);
            ASSERT_EQ(e.seg.stride(), d) << "fp16 slope lost stride " << d;
            const GroupMask m = g.segmentMask(e);
            for (uint32_t off = 0; off < kGroupSpan; off++)
                ASSERT_EQ(m.test(static_cast<uint8_t>(off)),
                          g.hasLpa(e, static_cast<uint8_t>(off)))
                    << "d " << d << " lo " << lo << " off " << off;
        }
    }
}

TEST(SegmentMask, LearnedSegmentsAgreeWithHasLpa)
{
    // Real fitted segments, accurate and approximate (the latter read
    // their CRB run), across a random overwrite history.
    Rng rng(5);
    Group g;
    Ppa ppa = 100;
    for (int round = 0; round < 60; round++) {
        std::vector<std::pair<Lpa, Ppa>> run;
        for (uint32_t off = 0; off < kGroupSpan; off++) {
            if (rng.nextBool(0.3))
                run.emplace_back(off, ppa++);
        }
        if (run.empty())
            continue;
        for (const auto &[idx, segs] : fitRun(run, /*gamma=*/4)) {
            for (const FittedSegment &fs : segs)
                g.update(fs);
        }
        if (round % 4 == 3)
            g.compact();
        size_t checked = 0;
        g.forEachSegment([&](const SegEntry &e, size_t) {
            const GroupMask m = g.segmentMask(e);
            for (uint32_t off = 0; off < kGroupSpan; off++)
                ASSERT_EQ(m.test(static_cast<uint8_t>(off)),
                          g.hasLpa(e, static_cast<uint8_t>(off)));
            checked++;
        });
        EXPECT_EQ(checked, g.numSegments());
        g.checkInvariants();
    }
    EXPECT_GT(g.numApproximate(), 0u);
}

/** An approximate fitted segment holding exactly @a offs. */
FittedSegment
approxFit(const std::vector<uint8_t> &offs)
{
    FittedSegment fs;
    const uint16_t kbits = float16SetTag(float16Encode(0.5f), true);
    fs.seg = Segment(offs.front(),
                     static_cast<uint8_t>(offs.back() - offs.front()), kbits,
                     9000);
    fs.offs = offs;
    return fs;
}

/** An accurate fitted segment: @a n members from @a lo with stride @a d. */
FittedSegment
accurateFit(uint8_t lo, uint32_t n, uint32_t d)
{
    FittedSegment fs;
    fs.seg = n == 1 ? Segment::makeSinglePoint(lo, 5000)
                    : accurate(lo, static_cast<uint8_t>((n - 1) * d), d);
    for (uint32_t k = 0; k < n; k++)
        fs.offs.push_back(static_cast<uint8_t>(lo + k * d));
    return fs;
}

/**
 * Every live segment's mask agrees with hasLpa on all 256 offsets, and
 * the group's summaries (rebuilt by checkInvariants) match.
 * @return how many segments are loose (their CRB run lacks S or S+L).
 */
size_t
expectMasksAgree(const Group &g)
{
    size_t loose = 0;
    g.forEachSegment([&](const SegEntry &e, size_t) {
        const GroupMask m = g.segmentMask(e);
        for (uint32_t off = 0; off < kGroupSpan; off++)
            ASSERT_EQ(m.test(static_cast<uint8_t>(off)),
                      g.hasLpa(e, static_cast<uint8_t>(off)))
                << e.seg.toString() << " off " << off;
        if (e.seg.approximate() &&
            (!m.test(e.seg.slpa()) || !m.test(e.seg.endOff())))
            loose++;
    });
    g.checkInvariants();
    return loose;
}

TEST(SegmentMask, EveryKindAgreesWithHasLpaInsideAGroup)
{
    // Accurate segments of every stride, fresh and trimmed at both
    // ends by newer single points.
    for (uint32_t d = 1; d <= 255; d++) {
        for (uint8_t lo : {uint8_t{0}, uint8_t{1}, uint8_t{63}}) {
            const uint32_t n = 1 + (255u - lo) / d;
            if (n < 2)
                continue;
            SCOPED_TRACE(testing::Message() << "d " << d << " lo " << +lo);
            Group g;
            g.update(accurateFit(lo, n, d));
            EXPECT_EQ(expectMasksAgree(g), 0u);
            g.update(accurateFit(lo, 1, 1));
            EXPECT_EQ(expectMasksAgree(g), 0u);
            g.update(accurateFit(static_cast<uint8_t>(lo + (n - 1) * d), 1, 1));
            EXPECT_EQ(expectMasksAgree(g), 0u);
            g.compact();
            EXPECT_EQ(expectMasksAgree(g), 0u);
        }
    }

    // A fresh approximate segment, pushed to level 1 by an accurate
    // segment inside its range; then newer runs steal its first offset
    // or its last one. Only level 0 merges on insert, so the old run
    // becomes loose (its range still spans the stolen end) and must
    // still agree; compaction trims it.
    for (const bool steal_first : {true, false}) {
        SCOPED_TRACE(steal_first ? "first stolen" : "last stolen");
        Group g;
        g.update(approxFit({10, 13, 17, 30, 64, 65, 90}));
        EXPECT_EQ(expectMasksAgree(g), 0u);
        g.update(accurateFit(20, 2, 1));
        ASSERT_EQ(g.numLevels(), 2u);
        g.update(steal_first ? approxFit({2, 5, 10, 11})
                             : approxFit({88, 90, 95, 99}));
        EXPECT_EQ(expectMasksAgree(g), 1u);
        g.update(accurateFit(17, 2, 47));
        EXPECT_EQ(expectMasksAgree(g), 1u);
        g.compact();
        EXPECT_EQ(expectMasksAgree(g), 0u);
    }

    // Deduplication that empties an older run drops its segment.
    Group g;
    g.update(approxFit({40, 41, 47}));
    g.update(approxFit({39, 40, 41, 47, 60}));
    EXPECT_EQ(g.numSegments(), 1u);
    expectMasksAgree(g);
}

TEST(CrbMask, InsertDedupClearsStolenBits)
{
    Crb crb;
    crb.insertRun(1, {10, 70, 130, 200});
    crb.insertRun(2, {70, 71, 200});
    EXPECT_EQ(crb.numRuns(), 2u);
    expectMembers(crb.run(1), {10, 130});
    expectMembers(crb.run(2), {70, 71, 200});
    EXPECT_EQ(crb.sizeBytes(), (2u + 1) + (3u + 1));
    crb.checkAccounting();

    // Full overlap empties run 1, then run 2; emptied ids are freed in
    // the order their runs lose their last offset, so the newest-first
    // free list hands out 2 before 1.
    crb.insertRun(3, {5, 10, 130});
    crb.insertRun(4, {70, 71, 200, 201});
    EXPECT_EQ(crb.unusedId(), 2u);
    EXPECT_TRUE(crb.run(1).none());
    EXPECT_TRUE(crb.run(2).none());
    EXPECT_EQ(crb.numRuns(), 2u);
    EXPECT_EQ(crb.sizeBytes(), (3u + 1) + (4u + 1));
    crb.checkAccounting();
}

TEST(CrbMask, RemoveOffsetsClearsOnlyOwnedBits)
{
    Crb crb;
    crb.insertRun(1, {0, 63, 64, 255});
    crb.insertRun(2, {1, 2});
    // 1 and 2 belong to run 2; 100 belongs to nobody.
    EXPECT_FALSE(crb.removeOffsets(1, GroupMask{1, 2, 63, 64, 100}));
    expectMembers(crb.run(1), {0, 255});
    expectMembers(crb.run(2), {1, 2});
    EXPECT_EQ(crb.owner(63), Crb::kNoSeg);
    EXPECT_EQ(crb.owner(1), 2u);
    EXPECT_EQ(crb.sizeBytes(), (2u + 1) + (2u + 1));
    crb.checkAccounting();

    EXPECT_TRUE(crb.removeOffsets(1, GroupMask::range(0, 255)));
    EXPECT_EQ(crb.numRuns(), 1u);
    EXPECT_EQ(crb.owner(255), Crb::kNoSeg);
    crb.checkAccounting();
    // A missing run reports empty.
    EXPECT_TRUE(crb.removeOffsets(9, GroupMask{1}));
}

TEST(CrbMask, RemoveAndRestoreRunKeepAccounting)
{
    Crb crb;
    crb.insertRun(1, {3, 4, 128});
    crb.removeRun(1);
    EXPECT_EQ(crb.owner(128), Crb::kNoSeg);
    EXPECT_EQ(crb.sizeBytes(), 0u);
    crb.checkAccounting();

    crb.restoreRun(5, GroupMask{3, 4, 128, 255});
    crb.restoreRun(6, GroupMask{0, 127});
    expectMembers(crb.run(5), {3, 4, 128, 255});
    EXPECT_EQ(crb.head(5), 3u);
    EXPECT_EQ(crb.head(6), 0u);
    EXPECT_EQ(crb.owner(255), 5u);
    EXPECT_EQ(crb.sizeBytes(), (4u + 1) + (2u + 1));
    crb.checkAccounting();
}

TEST(CrbMaskDeath, OverlappingRestoreAborts)
{
    Crb crb;
    crb.restoreRun(1, GroupMask{7, 8});
    EXPECT_DEATH(crb.restoreRun(2, GroupMask{8}), "disjoint");
}

} // namespace
} // namespace leaftl
