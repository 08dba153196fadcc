#include "learned/crb.hh"

#include <algorithm>

namespace leaftl
{

namespace
{
const GroupMask kEmptyRun;

bool
runIdLess(const std::pair<Crb::SegId, GroupMask> &run, Crb::SegId id)
{
    return run.first < id;
}
} // namespace

Crb::Crb()
{
    std::fill(std::begin(owner_), std::end(owner_), kNoSeg);
}

std::vector<Crb::Run>::iterator
Crb::findRun(SegId id)
{
    auto it = std::lower_bound(runs_.begin(), runs_.end(), id, runIdLess);
    if (it != runs_.end() && it->first == id)
        return it;
    return runs_.end();
}

std::vector<Crb::Run>::const_iterator
Crb::findRun(SegId id) const
{
    auto it = std::lower_bound(runs_.begin(), runs_.end(), id, runIdLess);
    if (it != runs_.end() && it->first == id)
        return it;
    return runs_.end();
}

void
Crb::insertRun(SegId id, const std::vector<uint8_t> &offs,
               std::vector<SegId> &emptied)
{
    LEAFTL_ASSERT(!offs.empty(), "CRB run must be non-empty");
    LEAFTL_ASSERT(findRun(id) == runs_.end(), "CRB id reused");

    for (size_t i = 1; i < offs.size(); i++)
        LEAFTL_ASSERT(offs[i] > offs[i - 1], "CRB run must be sorted");

    // Deduplicate: steal ownership from older runs, in offset order so
    // emptied runs are reported in the order they lose their last one.
    GroupMask mask;
    for (uint8_t off : offs) {
        mask.set(off);
        const SegId old = owner_[off];
        if (old == kNoSeg || old == id)
            continue;
        auto it = findRun(old);
        LEAFTL_ASSERT(it != runs_.end(), "CRB owner index out of sync");
        it->second.clear(off);
        stored_offs_--; // Offsets are unique per run: exactly one gone.
        if (it->second.none()) {
            runs_.erase(it);
            emptied.push_back(old);
        }
    }

    runs_.insert(
        std::lower_bound(runs_.begin(), runs_.end(), id, runIdLess),
        Run{id, mask});
    stored_offs_ += offs.size();
    for (uint8_t off : offs)
        owner_[off] = id;
}

bool
Crb::contains(SegId id, uint8_t off) const
{
    return owner_[off] == id;
}

bool
Crb::removeOffsets(SegId id, const GroupMask &offs)
{
    auto it = findRun(id);
    if (it == runs_.end())
        return true;
    // A run's members are exactly the offsets it owns, so the owned
    // subset of @a offs is the intersection with the run.
    const GroupMask gone = it->second & offs;
    gone.forEach([&](uint8_t off) { owner_[off] = kNoSeg; });
    stored_offs_ -= gone.count();
    it->second.subtract(gone);
    if (it->second.none()) {
        runs_.erase(it);
        return true;
    }
    return false;
}

void
Crb::restoreRun(SegId id, const GroupMask &offs)
{
    LEAFTL_ASSERT(findRun(id) == runs_.end(), "CRB id reused");
    runs_.insert(
        std::lower_bound(runs_.begin(), runs_.end(), id, runIdLess),
        Run{id, offs});
    stored_offs_ += offs.count();
    offs.forEach([&](uint8_t off) {
        LEAFTL_ASSERT(owner_[off] == kNoSeg,
                      "restored CRB runs must be disjoint");
        owner_[off] = id;
    });
}

void
Crb::removeRun(SegId id)
{
    auto it = findRun(id);
    if (it == runs_.end())
        return;
    it->second.forEach([&](uint8_t off) {
        if (owner_[off] == id)
            owner_[off] = kNoSeg;
    });
    stored_offs_ -= it->second.count();
    runs_.erase(it);
}

const GroupMask &
Crb::run(SegId id) const
{
    auto it = findRun(id);
    return it == runs_.end() ? kEmptyRun : it->second;
}

uint8_t
Crb::head(SegId id) const
{
    const GroupMask &r = run(id);
    return r.none() ? 0 : r.first();
}

void
Crb::checkAccounting() const
{
    size_t offs = 0;
    for (const auto &[id, mask] : runs_) {
        offs += mask.count();
        mask.forEach([&, id = id](uint8_t off) {
            LEAFTL_ASSERT(owner_[off] == id, "CRB owner index out of sync");
        });
    }
    LEAFTL_ASSERT(offs == stored_offs_, "CRB size accounting out of sync");
    const size_t owned = static_cast<size_t>(std::count_if(
        std::begin(owner_), std::end(owner_),
        [](SegId o) { return o != kNoSeg; }));
    LEAFTL_ASSERT(owned == stored_offs_, "CRB owner index out of sync");
}

} // namespace leaftl
