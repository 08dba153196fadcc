/**
 * @file
 * Unit tests for the Conflict Resolution Buffer (§3.4, Fig. 9).
 */

#include <gtest/gtest.h>

#include "learned/crb.hh"

namespace leaftl
{
namespace
{

TEST(Crb, InsertAndLookup)
{
    Crb crb;
    crb.insertRun(1, {100, 101, 103, 104, 106});
    EXPECT_TRUE(crb.contains(1, 103));
    EXPECT_FALSE(crb.contains(1, 102));
    EXPECT_EQ(crb.owner(104), 1u);
    EXPECT_EQ(crb.owner(99), Crb::kNoSeg);
    EXPECT_EQ(crb.head(1), 100u);
    EXPECT_EQ(crb.numRuns(), 1u);
}

TEST(Crb, PaperFigure9Layout)
{
    // Fig. 9: two approximate segments with interleaved LPAs.
    Crb crb;
    crb.insertRun(1, {100, 101, 103, 104, 106});
    crb.insertRun(2, {102, 105, 107, 108});
    EXPECT_EQ(crb.numRuns(), 2u);

    // Lookup LPA 105 resolves to segment 2, not segment 1, even
    // though 105 is inside segment 1's [100, 106] range.
    EXPECT_EQ(crb.owner(105), 2u);
    EXPECT_EQ(crb.owner(104), 1u);
    // Memory: one byte per LPA plus one separator per run.
    EXPECT_EQ(crb.sizeBytes(), 5u + 1 + 4 + 1);
}

TEST(Crb, DeduplicationStealsOwnership)
{
    Crb crb;
    crb.insertRun(1, {10, 20, 30});
    crb.insertRun(2, {20, 40});
    EXPECT_EQ(crb.numRuns(), 2u);
    EXPECT_EQ(crb.owner(20), 2u);
    EXPECT_FALSE(crb.contains(1, 20));
    EXPECT_EQ(crb.run(1).count(), 2u);
    EXPECT_EQ(crb.head(1), 10u);
}

TEST(Crb, HeadCollisionRebasesOldRun)
{
    // Paper: a new segment starting at an existing run's SLPA bumps
    // the old run to its adjacent LPA.
    Crb crb;
    crb.insertRun(1, {100, 101, 103});
    crb.insertRun(2, {100, 102});
    EXPECT_EQ(crb.owner(100), 2u);
    EXPECT_EQ(crb.head(1), 101u);
}

TEST(Crb, FullOverlapEmptiesOldRun)
{
    Crb crb;
    crb.insertRun(1, {5, 6});
    crb.insertRun(2, {5, 6, 7});
    EXPECT_EQ(crb.numRuns(), 1u);
    EXPECT_TRUE(crb.run(1).none());
}

TEST(Crb, RemoveOffsetsTrimsAndReportsEmpty)
{
    Crb crb;
    crb.insertRun(1, {1, 2, 3});
    EXPECT_FALSE(crb.removeOffsets(1, {2}));
    EXPECT_FALSE(crb.contains(1, 2));
    EXPECT_EQ(crb.owner(2), Crb::kNoSeg);
    EXPECT_TRUE(crb.removeOffsets(1, {1, 3}));
    EXPECT_EQ(crb.numRuns(), 0u);
}

TEST(Crb, RemoveOffsetsSkipsForeignOwners)
{
    Crb crb;
    crb.insertRun(1, {1, 2});
    crb.insertRun(2, {2, 3}); // Steals 2.
    EXPECT_FALSE(crb.removeOffsets(1, {2})); // 2 belongs to run 2 now.
    EXPECT_TRUE(crb.contains(2, 2));
    EXPECT_TRUE(crb.contains(1, 1));
}

TEST(Crb, RemoveRunReleasesOwnership)
{
    Crb crb;
    crb.insertRun(1, {9, 10});
    crb.removeRun(1);
    EXPECT_EQ(crb.owner(9), Crb::kNoSeg);
    EXPECT_EQ(crb.numRuns(), 0u);
    EXPECT_EQ(crb.sizeBytes(), 0u);
    // Removing a missing run is a no-op.
    crb.removeRun(1);
}

TEST(Crb, RestoreRunSkipsDedup)
{
    Crb crb;
    crb.restoreRun(7, {50, 60});
    EXPECT_TRUE(crb.contains(7, 50));
    EXPECT_EQ(crb.numRuns(), 1u);
}

TEST(Crb, AverageSizeMatchesPaperScale)
{
    // Paper Fig. 10: CRBs average ~13.9 bytes. Sanity: small run
    // loads stay tens of bytes, far below the 256-byte worst case.
    Crb crb;
    crb.insertRun(1, {0, 3, 7});
    crb.insertRun(2, {10, 11, 14, 18});
    crb.insertRun(3, {40, 44});
    EXPECT_LE(crb.sizeBytes(), 64u);
    EXPECT_EQ(crb.sizeBytes(), (3u + 1) + (4u + 1) + (2u + 1));
}

TEST(CrbSlots, FreshIdsCountUpFromZero)
{
    Crb crb;
    EXPECT_EQ(crb.unusedId(), 0u);
    crb.insertRun(crb.unusedId(), {1, 2});
    EXPECT_EQ(crb.unusedId(), 1u);
    crb.insertRun(crb.unusedId(), {3});
    EXPECT_EQ(crb.unusedId(), 2u);
    crb.checkAccounting();
}

TEST(CrbSlots, IdEmptiedByDedupIsReused)
{
    Crb crb;
    crb.insertRun(crb.unusedId(), {5, 6});    // id 0
    crb.insertRun(crb.unusedId(), {20, 21});  // id 1
    crb.insertRun(crb.unusedId(), {5, 6, 7}); // id 2 empties 0
    EXPECT_TRUE(crb.run(0).none());
    EXPECT_EQ(crb.numRuns(), 2u);
    EXPECT_EQ(crb.sizeBytes(), (2u + 1) + (3u + 1));
    crb.checkAccounting();

    ASSERT_EQ(crb.unusedId(), 0u);
    crb.insertRun(0, {40});
    EXPECT_EQ(crb.run(0).count(), 1u);
    EXPECT_TRUE(crb.run(0).test(40));
    EXPECT_EQ(crb.owner(40), 0u);
    EXPECT_EQ(crb.owner(5), 2u);
    EXPECT_EQ(crb.numRuns(), 3u);
    EXPECT_EQ(crb.sizeBytes(), (2u + 1) + (3u + 1) + (1u + 1));
    EXPECT_EQ(crb.unusedId(), 3u);
    crb.checkAccounting();
}

TEST(CrbSlots, IdFreedByRemovalIsReusedNewestFirst)
{
    Crb crb;
    for (uint32_t base = 0; base < 40; base += 10) // ids 0..3
        crb.insertRun(crb.unusedId(),
                      {static_cast<uint8_t>(base),
                       static_cast<uint8_t>(base + 1)});
    crb.removeRun(1);
    EXPECT_TRUE(crb.removeOffsets(3, {30, 31}));
    EXPECT_TRUE(crb.run(1).none());
    EXPECT_TRUE(crb.run(3).none());
    EXPECT_EQ(crb.owner(10), Crb::kNoSeg);
    EXPECT_EQ(crb.numRuns(), 2u);
    EXPECT_EQ(crb.sizeBytes(), 2u * 3);
    crb.checkAccounting();

    EXPECT_EQ(crb.unusedId(), 3u);
    crb.insertRun(crb.unusedId(), {50});
    EXPECT_EQ(crb.unusedId(), 1u);
    crb.restoreRun(crb.unusedId(), GroupMask{60, 61, 62});
    EXPECT_EQ(crb.unusedId(), 4u); // Free list drained: a fresh slot.
    EXPECT_TRUE(crb.contains(1, 61));
    EXPECT_TRUE(crb.contains(3, 50));
    EXPECT_EQ(crb.numRuns(), 4u);
    EXPECT_EQ(crb.sizeBytes(), 2u * 3 + 2 + 4);
    crb.checkAccounting();

    // Removing a freed id again is a no-op.
    crb.removeRun(2);
    crb.removeRun(2);
    EXPECT_EQ(crb.numRuns(), 3u);
    crb.checkAccounting();
}

TEST(CrbSlots, CallerChosenIdsLeaveTheFreeListConsistent)
{
    Crb crb;
    crb.insertRun(7, {1}); // Skips ids 0..6 without listing them.
    EXPECT_EQ(crb.unusedId(), 8u);
    crb.insertRun(3, {2});
    crb.removeRun(3);
    crb.removeRun(7);
    EXPECT_EQ(crb.unusedId(), 7u);
    // Re-take the older freed id by hand: the newer one stays listed.
    crb.insertRun(3, {4});
    EXPECT_EQ(crb.unusedId(), 7u);
    crb.insertRun(crb.unusedId(), {5});
    EXPECT_EQ(crb.unusedId(), 8u);
    EXPECT_EQ(crb.numRuns(), 2u);
    crb.checkAccounting();
}

TEST(CrbDeath, ReusedIdAborts)
{
    Crb crb;
    crb.insertRun(1, {1});
    EXPECT_DEATH(crb.insertRun(1, {2}), "id reused");
}

TEST(CrbDeath, UnsortedRunAborts)
{
    Crb crb;
    EXPECT_DEATH(crb.insertRun(1, {5, 3}), "sorted");
}

} // namespace
} // namespace leaftl
