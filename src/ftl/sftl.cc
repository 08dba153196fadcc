#include "ftl/sftl.hh"

namespace leaftl
{

Sftl::Sftl(FtlOps &ops, uint32_t page_size, uint64_t budget_bytes)
    : Ftl(ops),
      entries_per_tpage_(page_size / kMapEntryBytes),
      budget_bytes_(budget_bytes)
{
    LEAFTL_ASSERT(entries_per_tpage_ > 0, "SFTL: page too small");
}

namespace
{

/** Does slot @a i start a run (mapped, and not continuing slot i-1)? */
bool
startsRun(const std::vector<Ppa> &entries, size_t i)
{
    return entries[i] != kInvalidPpa &&
           (i == 0 || entries[i - 1] == kInvalidPpa ||
            entries[i] != entries[i - 1] + 1);
}

} // namespace

uint32_t
Sftl::countRuns(const std::vector<Ppa> &entries)
{
    uint32_t runs = 0;
    for (size_t i = 0; i < entries.size(); i++)
        runs += startsRun(entries, i) ? 1 : 0;
    return runs;
}

uint32_t
Sftl::setEntry(std::vector<Ppa> &entries, uint32_t runs, uint32_t slot,
               Ppa ppa)
{
    const auto starts_near = [&] {
        return (startsRun(entries, slot) ? 1u : 0u) +
               (slot + 1 < entries.size() && startsRun(entries, slot + 1)
                    ? 1u
                    : 0u);
    };
    runs -= starts_near();
    entries[slot] = ppa;
    return runs + starts_near();
}

Sftl::TPage &
Sftl::getOrCreate(uint32_t tvpn)
{
    auto it = tpages_.find(tvpn);
    if (it == tpages_.end()) {
        TPage tp;
        tp.entries.assign(entries_per_tpage_, kInvalidPpa);
        it = tpages_.emplace(tvpn, std::move(tp)).first;
        // A fresh page already costs its run-boundary bitmap.
        full_bytes_ += compressedBytes(it->second);
    }
    return it->second;
}

void
Sftl::makeResident(uint32_t tvpn, TPage &tp, bool charge_read)
{
    if (tp.resident) {
        lru_.splice(lru_.begin(), lru_, tp.lru_it);
        return;
    }
    if (charge_read)
        ops_.chargeTransRead();
    lru_.push_front(tvpn);
    tp.lru_it = lru_.begin();
    tp.resident = true;
    resident_bytes_ += compressedBytes(tp);
    evictToBudget();
}

void
Sftl::evictToBudget()
{
    while (resident_bytes_ > budget_bytes_ && lru_.size() > 1) {
        const uint32_t victim = lru_.back();
        auto it = tpages_.find(victim);
        LEAFTL_ASSERT(it != tpages_.end(), "SFTL: LRU out of sync");
        TPage &tp = it->second;
        if (tp.dirty) {
            ops_.chargeTransWrite();
            tp.dirty = false;
        }
        resident_bytes_ -= compressedBytes(tp);
        tp.resident = false;
        lru_.pop_back();
    }
}

TranslateResult
Sftl::translate(Lpa lpa)
{
    const uint32_t tvpn = tvpnOf(lpa);
    auto it = tpages_.find(tvpn);
    if (it == tpages_.end())
        return {};
    TPage &tp = it->second;
    if (tp.resident)
        hits_++;
    else
        misses_++;
    makeResident(tvpn, tp, /*charge_read=*/!tp.resident);
    const Ppa ppa = tp.entries[slotOf(lpa)];
    if (ppa == kInvalidPpa)
        return {};
    return {true, ppa, false};
}

void
Sftl::trim(Lpa lpa)
{
    const uint32_t tvpn = tvpnOf(lpa);
    auto it = tpages_.find(tvpn);
    if (it == tpages_.end())
        return; // Never mapped.
    TPage &tp = it->second;
    makeResident(tvpn, tp, /*charge_read=*/!tp.resident);
    const size_t old_compressed = compressedBytes(tp);
    full_bytes_ -= old_compressed;
    tp.runs = setEntry(tp.entries, tp.runs, slotOf(lpa), kInvalidPpa);
    tp.dirty = true;
    full_bytes_ += compressedBytes(tp);
    if (tp.resident) {
        resident_bytes_ += compressedBytes(tp);
        resident_bytes_ -= old_compressed;
    }
    evictToBudget();
}

void
Sftl::recordMappings(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    for (const auto &[lpa, ppa] : run) {
        const uint32_t tvpn = tvpnOf(lpa);
        const bool existed = tpages_.count(tvpn) != 0;
        TPage &tp = getOrCreate(tvpn);
        // Updating a page requires it resident (read when it already
        // lives on flash; fresh pages are born in DRAM).
        makeResident(tvpn, tp, /*charge_read=*/existed && !tp.resident);

        const size_t old_compressed = compressedBytes(tp);
        full_bytes_ -= old_compressed;
        tp.runs = setEntry(tp.entries, tp.runs, slotOf(lpa), ppa);
        tp.dirty = true;
        full_bytes_ += compressedBytes(tp);
        if (tp.resident) {
            resident_bytes_ += compressedBytes(tp);
            resident_bytes_ -= old_compressed;
        }
        evictToBudget();
    }
}

void
Sftl::recordMappingsGc(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    // Direct RMW per affected translation page, no residency change.
    uint32_t cur_tvpn = 0;
    bool have_tvpn = false;
    for (const auto &[lpa, ppa] : run) {
        const uint32_t tvpn = tvpnOf(lpa);
        if (!have_tvpn || tvpn != cur_tvpn) {
            if (tpages_.count(tvpn))
                ops_.chargeTransRead();
            ops_.chargeTransWrite();
            cur_tvpn = tvpn;
            have_tvpn = true;
        }
        TPage &tp = getOrCreate(tvpn);
        const size_t old_compressed = compressedBytes(tp);
        full_bytes_ -= old_compressed;
        tp.runs = setEntry(tp.entries, tp.runs, slotOf(lpa), ppa);
        full_bytes_ += compressedBytes(tp);
        if (tp.resident) {
            resident_bytes_ += compressedBytes(tp);
            resident_bytes_ -= old_compressed;
            tp.dirty = false; // Flash just got the fresh copy.
        }
    }
    evictToBudget();
}

size_t
Sftl::residentMappingBytes() const
{
    return resident_bytes_;
}

size_t
Sftl::fullMappingBytes() const
{
    return full_bytes_;
}

void
Sftl::setMappingBudget(uint64_t bytes)
{
    budget_bytes_ = bytes;
    evictToBudget();
}

} // namespace leaftl
