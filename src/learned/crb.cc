#include "learned/crb.hh"

#include <algorithm>

namespace leaftl
{

const GroupMask Crb::kEmptyRun;

Crb::Crb()
{
    std::fill(std::begin(owner_), std::end(owner_), kNoSeg);
}

void
Crb::claim(SegId id)
{
    LEAFTL_ASSERT(run(id).none(), "CRB id reused");
    if (id >= slots_.size()) {
        // Ids skipped by the growth are unused but never listed:
        // unusedId() only hands out the end of the slots or freed ids.
        while (slots_.size() <= id)
            slots_.emplace_back();
        return;
    }
    // unusedId() hands out the newest freed id, so this finds it at
    // the back; only a caller picking its own ids searches further.
    const auto it = std::find(free_.rbegin(), free_.rend(), id);
    if (it != free_.rend())
        free_.erase(std::next(it).base());
}

void
Crb::release(SegId id)
{
    slots_[id] = GroupMask();
    free_.push_back(id);
    live_runs_--;
}

void
Crb::insertRun(SegId id, const std::vector<uint8_t> &offs)
{
    LEAFTL_ASSERT(!offs.empty(), "CRB run must be non-empty");
    claim(id);

    for (size_t i = 1; i < offs.size(); i++)
        LEAFTL_ASSERT(offs[i] > offs[i - 1], "CRB run must be sorted");

    // Deduplicate: steal ownership from older runs, in offset order so
    // emptied runs are freed in the order they lose their last one.
    GroupMask mask;
    for (uint8_t off : offs) {
        mask.set(off);
        const SegId old = owner_[off];
        if (old == kNoSeg)
            continue;
        GroupMask &old_run = slots_[old];
        LEAFTL_ASSERT(old_run.test(off), "CRB owner index out of sync");
        old_run.clear(off);
        stored_offs_--; // Offsets are unique per run: exactly one gone.
        if (old_run.none())
            release(old);
    }

    slots_[id] = mask;
    live_runs_++;
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
    if (run(id).none())
        return true;
    GroupMask &r = slots_[id];
    // A run's members are exactly the offsets it owns, so the owned
    // subset of @a offs is the intersection with the run.
    const GroupMask gone = r & offs;
    gone.forEach([&](uint8_t off) { owner_[off] = kNoSeg; });
    stored_offs_ -= gone.count();
    r.subtract(gone);
    if (r.none()) {
        release(id);
        return true;
    }
    return false;
}

void
Crb::restoreRun(SegId id, const GroupMask &offs)
{
    claim(id);
    slots_[id] = offs;
    live_runs_++;
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
    const GroupMask &r = run(id);
    if (r.none())
        return;
    r.forEach([&](uint8_t off) {
        if (owner_[off] == id)
            owner_[off] = kNoSeg;
    });
    stored_offs_ -= r.count();
    release(id);
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
    size_t offs = 0, live = 0;
    for (SegId id = 0; id < slots_.size(); id++) {
        const GroupMask &mask = slots_[id];
        live += mask.none() ? 0 : 1;
        offs += mask.count();
        mask.forEach([&](uint8_t off) {
            LEAFTL_ASSERT(owner_[off] == id, "CRB owner index out of sync");
        });
    }
    LEAFTL_ASSERT(offs == stored_offs_, "CRB size accounting out of sync");
    LEAFTL_ASSERT(live == live_runs_, "CRB run count out of sync");
    const size_t owned = static_cast<size_t>(std::count_if(
        std::begin(owner_), std::end(owner_),
        [](SegId o) { return o != kNoSeg; }));
    LEAFTL_ASSERT(owned == stored_offs_, "CRB owner index out of sync");
    for (size_t i = 0; i < free_.size(); i++) {
        LEAFTL_ASSERT(free_[i] < slots_.size() && slots_[free_[i]].none(),
                      "CRB free list names a live run");
        LEAFTL_ASSERT(std::find(free_.begin() + static_cast<long>(i) + 1,
                                free_.end(), free_[i]) == free_.end(),
                      "CRB free list holds an id twice");
    }
}

} // namespace leaftl
