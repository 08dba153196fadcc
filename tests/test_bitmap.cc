/**
 * @file
 * Unit tests for the Bitmap behind the page validity table (PVT) and
 * the pre-mask merge reference (bench/learned_reference.hh); the
 * learned merge itself uses GroupMask (tests/test_group_mask.cc).
 */

#include <gtest/gtest.h>

#include "util/bitmap.hh"

namespace leaftl
{
namespace
{

TEST(Bitmap, StartsEmpty)
{
    Bitmap bm(100);
    EXPECT_EQ(bm.size(), 100u);
    EXPECT_EQ(bm.popcount(), 0u);
    EXPECT_TRUE(bm.none());
    EXPECT_EQ(bm.firstSet(), 100u);
    EXPECT_EQ(bm.lastSet(), 100u);
}

TEST(Bitmap, SetTestClear)
{
    Bitmap bm(256);
    bm.set(0);
    bm.set(63);
    bm.set(64);
    bm.set(255);
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(63));
    EXPECT_TRUE(bm.test(64));
    EXPECT_TRUE(bm.test(255));
    EXPECT_FALSE(bm.test(1));
    EXPECT_EQ(bm.popcount(), 4u);

    bm.clear(63);
    EXPECT_FALSE(bm.test(63));
    EXPECT_EQ(bm.popcount(), 3u);
}

TEST(Bitmap, FirstAndLastSetCrossWords)
{
    Bitmap bm(200);
    bm.set(70);
    bm.set(130);
    EXPECT_EQ(bm.firstSet(), 70u);
    EXPECT_EQ(bm.lastSet(), 130u);
}

TEST(Bitmap, SubtractRemovesOverlap)
{
    Bitmap a(64), b(64);
    for (uint32_t i = 0; i < 64; i += 2)
        a.set(i);
    for (uint32_t i = 0; i < 64; i += 4)
        b.set(i);
    a.subtract(b);
    EXPECT_EQ(a.popcount(), 16u);
    EXPECT_FALSE(a.test(0));
    EXPECT_TRUE(a.test(2));
    EXPECT_FALSE(a.test(4));
}

TEST(Bitmap, SubtractToEmpty)
{
    Bitmap a(32), b(32);
    a.set(5);
    b.set(5);
    a.subtract(b);
    EXPECT_TRUE(a.none());
}

TEST(Bitmap, ResizeClears)
{
    Bitmap bm(16);
    bm.set(3);
    bm.resize(16);
    EXPECT_EQ(bm.popcount(), 0u);
}

TEST(BitmapDeath, OutOfRangeAborts)
{
    Bitmap bm(8);
    EXPECT_DEATH(bm.set(8), "out of range");
    EXPECT_DEATH(bm.test(100), "out of range");
}

} // namespace
} // namespace leaftl
