/**
 * @file
 * Tests for the SFTL baseline: run compression (the incremental run
 * count pinned to a full recount), residency accounting, and
 * translation-page charging.
 */

#include <gtest/gtest.h>

#include "ftl/sftl.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

class MockOps : public FtlOps
{
  public:
    void chargeTransRead() override { reads++; }
    void chargeTransWrite() override { writes++; }
    uint64_t reads = 0;
    uint64_t writes = 0;
};

constexpr uint32_t kPageSize = 4096; // 512 entries per t-page.

std::vector<std::pair<Lpa, Ppa>>
seqRun(Lpa first, uint32_t n, Ppa p0)
{
    std::vector<std::pair<Lpa, Ppa>> run;
    for (uint32_t i = 0; i < n; i++)
        run.emplace_back(first + i, p0 + i);
    return run;
}

TEST(Sftl, SequentialMappingsCompressToOneRun)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings(seqRun(0, 512, 1000));
    const size_t one_page = Sftl::kRunBytes + ftl.tpageHeaderBytes();
    EXPECT_EQ(ftl.fullMappingBytes(), one_page);
    EXPECT_EQ(ftl.residentMappingBytes(), one_page);
    EXPECT_EQ(ftl.translate(100).ppa, 1100u);
}

TEST(Sftl, RandomMappingsDegradeToDftlFootprint)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    // Alternating PPAs break every run: one descriptor per entry.
    std::vector<std::pair<Lpa, Ppa>> run;
    for (uint32_t i = 0; i < 64; i++)
        run.emplace_back(i, 1000 + i * 7);
    ftl.recordMappings(run);
    EXPECT_EQ(ftl.fullMappingBytes(),
              64 * Sftl::kRunBytes + ftl.tpageHeaderBytes());
}

TEST(Sftl, UnmappedLookupCostsNothing)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    EXPECT_FALSE(ftl.translate(9999).found);
    EXPECT_EQ(ops.reads, 0u);
}

TEST(Sftl, MissReloadsPage)
{
    MockOps ops;
    // Budget: one run descriptor -> a second page forces eviction.
    Sftl ftl(ops, kPageSize, Sftl::kRunBytes);
    ftl.recordMappings(seqRun(0, 10, 100));     // t-page 0.
    ftl.recordMappings(seqRun(512, 10, 200));   // t-page 1, evicts 0.
    EXPECT_EQ(ops.writes, 1u); // Dirty page 0 written back.

    const uint64_t reads_before = ops.reads;
    EXPECT_EQ(ftl.translate(5).ppa, 105u); // Miss: reload page 0.
    EXPECT_EQ(ops.reads, reads_before + 1);
}

TEST(Sftl, HitDoesNotCharge)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings(seqRun(0, 4, 100));
    const uint64_t reads_before = ops.reads;
    EXPECT_TRUE(ftl.translate(2).found);
    EXPECT_EQ(ops.reads, reads_before);
    EXPECT_GE(ftl.tpageHits(), 1u);
}

TEST(Sftl, GcUpdatesChargePerPage)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappingsGc(seqRun(0, 4, 100));
    EXPECT_EQ(ops.writes, 1u);
    EXPECT_EQ(ops.reads, 0u); // New page: no RMW read.
    ftl.recordMappingsGc(seqRun(0, 4, 500));
    EXPECT_EQ(ops.writes, 2u);
    EXPECT_EQ(ops.reads, 1u); // Existing page: RMW.
    EXPECT_EQ(ftl.translate(2).ppa, 502u);
}

TEST(Sftl, OverwriteSplitsRun)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings(seqRun(0, 9, 100));
    const size_t header = ftl.tpageHeaderBytes();
    EXPECT_EQ(ftl.fullMappingBytes(), 1 * Sftl::kRunBytes + header);
    // Overwrite the middle entry with a non-contiguous PPA: the run
    // splits into three descriptors.
    ftl.recordMappings({{4, 9999}});
    EXPECT_EQ(ftl.fullMappingBytes(), 3 * Sftl::kRunBytes + header);
    EXPECT_EQ(ftl.translate(4).ppa, 9999u);
    EXPECT_EQ(ftl.translate(3).ppa, 103u);
    EXPECT_EQ(ftl.translate(5).ppa, 105u);
}

TEST(Sftl, ResidentBytesTrackCompressedSizes)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings(seqRun(0, 512, 0));     // 1 run.
    ftl.recordMappings(seqRun(512, 2, 5000));  // 1 run in page 1.
    ftl.recordMappings({{514, 9000}});         // +1 run in page 1.
    const size_t want = 3 * Sftl::kRunBytes + 2 * ftl.tpageHeaderBytes();
    EXPECT_EQ(ftl.residentMappingBytes(), want);
    EXPECT_EQ(ftl.fullMappingBytes(), want);
}

TEST(Sftl, BudgetShrinkEvictsColdPages)
{
    MockOps ops;
    Sftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings(seqRun(0, 512, 0));
    ftl.recordMappings(seqRun(512, 512, 5000));
    const size_t one_page = Sftl::kRunBytes + ftl.tpageHeaderBytes();
    EXPECT_EQ(ftl.residentMappingBytes(), 2 * one_page);
    ftl.setMappingBudget(one_page);
    EXPECT_EQ(ftl.residentMappingBytes(), one_page);
    // Full size unaffected by eviction.
    EXPECT_EQ(ftl.fullMappingBytes(), 2 * one_page);
}

TEST(Sftl, IncrementalRunCountMatchesFullRecount)
{
    // Random single-slot updates on pages of several sizes, biased
    // towards the cases that move run boundaries: extending a
    // neighbour's run, bridging two runs, splitting one, unmapping.
    Rng rng(91);
    for (const uint32_t size : {1u, 2u, 3u, 16u, 512u}) {
        std::vector<Ppa> entries(size, kInvalidPpa);
        uint32_t runs = 0;
        for (int step = 0; step < 4000; step++) {
            const uint32_t slot =
                static_cast<uint32_t>(rng.nextBounded(size));
            Ppa ppa = kInvalidPpa;
            switch (rng.nextBounded(5)) {
            case 0:
                break; // unmap
            case 1:
                if (slot > 0 && entries[slot - 1] != kInvalidPpa)
                    ppa = entries[slot - 1] + 1;
                break;
            case 2:
                if (slot + 1 < size && entries[slot + 1] != kInvalidPpa &&
                    entries[slot + 1] > 0)
                    ppa = entries[slot + 1] - 1;
                break;
            default:
                ppa = static_cast<Ppa>(rng.nextBounded(64));
                break;
            }
            runs = Sftl::setEntry(entries, runs, slot, ppa);
            ASSERT_EQ(entries[slot], ppa);
            ASSERT_EQ(runs, Sftl::countRuns(entries))
                << "size " << size << " step " << step;
        }
    }
}

} // namespace
} // namespace leaftl
