/**
 * @file
 * SFTL baseline: spatial-locality-aware FTL (Jiang et al., MSST'11,
 * [25] in the paper).
 *
 * SFTL caches translation pages rather than individual entries and
 * compresses each cached page by collapsing strictly sequential
 * mapping runs: a run of entries where both LPA index and PPA advance
 * by one costs a single descriptor. DRAM residency is charged at the
 * compressed size: 8 bytes per run (the same entry size DFTL uses)
 * plus a per-page bitmap marking run boundaries (one bit per entry,
 * 64 bytes for a 512-entry page -- S-FTL needs it to locate an
 * entry's run). A fully random page therefore degenerates to DFTL's
 * footprint while a fully sequential one costs one descriptor plus
 * the bitmap.
 */

#pragma once

#include <list>
#include <unordered_map>

#include "ftl/ftl.hh"

namespace leaftl
{

/** Spatial-locality compressed FTL. */
class Sftl : public Ftl
{
  public:
    Sftl(FtlOps &ops, uint32_t page_size, uint64_t budget_bytes);

    TranslateResult translate(Lpa lpa) override;
    void trim(Lpa lpa) override;
    void recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    void
    recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run) override;
    size_t residentMappingBytes() const override;
    size_t fullMappingBytes() const override;
    void setMappingBudget(uint64_t bytes) override;
    const char *name() const override { return "SFTL"; }

    uint64_t tpageHits() const { return hits_; }
    uint64_t tpageMisses() const { return misses_; }

    /** Bytes per compressed run descriptor. */
    static constexpr uint32_t kRunBytes = 8;

    /** Per-page run-boundary bitmap: one bit per entry. */
    uint32_t
    tpageHeaderBytes() const
    {
        return entries_per_tpage_ / 8;
    }

    /**
     * Compressed descriptors of a translation page, counted from
     * scratch: one per slot that starts a run (the reference for
     * setEntry()).
     */
    static uint32_t countRuns(const std::vector<Ppa> &entries);

    /**
     * Set entries[slot] = @a ppa and return the page's new run count
     * given the old one, @a runs. Only the run starts at slot and
     * slot + 1 can change, so this is O(1).
     */
    static uint32_t setEntry(std::vector<Ppa> &entries, uint32_t runs,
                             uint32_t slot, Ppa ppa);

  private:
    struct TPage
    {
        std::vector<Ppa> entries;   ///< kInvalidPpa = unmapped slot.
        uint32_t runs = 0;          ///< Compressed descriptor count.
        bool resident = false;
        bool dirty = false;
        std::list<uint32_t>::iterator lru_it;
    };

    uint32_t tvpnOf(Lpa lpa) const { return lpa / entries_per_tpage_; }
    uint32_t slotOf(Lpa lpa) const { return lpa % entries_per_tpage_; }

    TPage &getOrCreate(uint32_t tvpn);
    /** Fetch a page into the cache (charging a read when it exists). */
    void makeResident(uint32_t tvpn, TPage &tp, bool charge_read);
    void evictToBudget();
    size_t compressedBytes(const TPage &tp) const
    {
        return static_cast<size_t>(tp.runs) * kRunBytes +
               tpageHeaderBytes();
    }

    uint32_t entries_per_tpage_;
    uint64_t budget_bytes_;

    std::unordered_map<uint32_t, TPage> tpages_; ///< Authoritative.
    std::list<uint32_t> lru_;                    ///< Resident tvpns, MRU front.
    size_t resident_bytes_ = 0;
    size_t full_bytes_ = 0; ///< Sum of compressed sizes over all tpages.

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace leaftl
