#include "learned/group.hh"

#include <algorithm>

namespace leaftl
{

namespace
{

/** Binary search: index of the segment covering @a off, or -1. */
int
findCovering(const std::vector<SegEntry> &segs, uint8_t off)
{
    int lo = 0, hi = static_cast<int>(segs.size()) - 1;
    while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        const Segment &s = segs[mid].seg;
        if (off < s.slpa()) {
            hi = mid - 1;
        } else if (off > s.endOff()) {
            lo = mid + 1;
        } else {
            return mid;
        }
    }
    return -1;
}

/**
 * Index of the first segment whose range ends at or after @a off: the
 * start of the window of segments a range beginning at @a off can
 * overlap (a level's ends ascend with its starts).
 */
size_t
firstEndingAtOrAfter(const std::vector<SegEntry> &segs, uint8_t off)
{
    const auto it = std::lower_bound(
        segs.begin(), segs.end(), off,
        [](const SegEntry &e, uint8_t o) { return e.seg.endOff() < o; });
    return static_cast<size_t>(it - segs.begin());
}

} // namespace

bool
Group::hasLpa(const SegEntry &e, uint8_t off) const
{
    if (!e.seg.covers(off))
        return false;
    if (e.seg.approximate())
        return crb_.contains(e.id, off);
    return e.seg.hasLpaAccurate(off);
}

GroupMask
Group::segmentMask(const SegEntry &e) const
{
    if (e.seg.approximate())
        return crb_.run(e.id);
    const uint32_t d = e.seg.singlePoint() ? 1 : e.seg.stride();
    return GroupMask::strided(e.seg.slpa(), e.seg.endOff(), d);
}

void
Group::insertSorted(Level &level, const SegEntry &entry)
{
    auto it = std::lower_bound(
        level.segs.begin(), level.segs.end(), entry,
        [](const SegEntry &a, const SegEntry &b) {
            return a.seg.slpa() < b.seg.slpa();
        });
    level.segs.insert(it, entry);
    countInsert(entry);
}

void
Group::mergeVictims(size_t level_idx, const SegEntry &entry,
                    bool detach_conflicts, MergeScratch &scratch)
{
    Level &level = levels_[level_idx];
    scratch.conflicts.clear();

    // Algorithm 2 over the window of victims whose ranges intersect
    // the entry: ends ascend with starts in a level, so the window
    // opens at the first end >= S and closes at the first start > S+L.
    const auto in_window = [&](size_t j) {
        return j < level.segs.size() &&
               level.segs[j].seg.slpa() <= entry.seg.endOff();
    };
    size_t i = firstEndingAtOrAfter(level.segs, entry.seg.slpa());
    if (!in_window(i))
        return; // No victims (most compaction probes).
    // The entry's members do not change while its victims are merged.
    const GroupMask entry_bits = segmentMask(entry);
    while (in_window(i)) {
        if (!subtractFromVictim(level.segs, i, entry_bits))
            continue;
        const SegEntry &victim = level.segs[i];
        if (entry.seg.overlaps(victim.seg)) {
            // Range still interleaves: the victim cannot share a sorted
            // run with the entry (Algorithm 1 lines 13-16).
            scratch.conflicts.push_back(victim);
            if (detach_conflicts) {
                countErase(victim);
                level.segs.erase(level.segs.begin() + i);
                continue;
            }
        }
        i++;
    }
}

bool
Group::subtractFromVictim(std::vector<SegEntry> &segs, size_t i,
                          const GroupMask &entry_bits)
{
    SegEntry &victim = segs[i];

    // Subtract the new segment's members from the victim. For
    // approximate victims the CRB insert already stole the overwritten
    // offsets, so the subtraction is mostly a no-op there; accurate
    // victims are trimmed here.
    GroupMask remaining = segmentMask(victim);
    const GroupMask stolen = remaining & entry_bits;
    remaining.subtract(entry_bits);

    if (remaining.none()) {
        // Victim fully superseded: remove it (Algorithm 1 l.11-12).
        if (victim.seg.approximate())
            crb_.removeRun(victim.id);
        countErase(victim);
        segs.erase(segs.begin() + i);
        return false;
    }

    // Trim the victim's range; K and I are never touched.
    victim.seg.trim(remaining.first(), remaining.last());
    if (victim.seg.approximate() && !stolen.none())
        crb_.removeOffsets(victim.id, stolen);
    return true;
}

void
Group::pushVictimDown(size_t from_level, const SegEntry &victim)
{
    const size_t below = from_level + 1;
    if (below >= levels_.size()) {
        levels_.emplace_back();
        insertSorted(levels_.back(), victim);
        return;
    }
    // If the next level has no range conflict with the victim, it can
    // join that sorted run; otherwise it gets a dedicated level to
    // avoid recursive pops (and to preserve recency ordering). Ends
    // ascend, so the first segment ending at or after the victim's
    // start is the only candidate that decides whether any overlaps.
    const Level &next = levels_[below];
    const size_t at = firstEndingAtOrAfter(next.segs, victim.seg.slpa());
    const bool conflict = at < next.segs.size() &&
                          next.segs[at].seg.slpa() <= victim.seg.endOff();
    if (conflict)
        levels_.insert(levels_.begin() + below, Level{});
    insertSorted(levels_[below], victim);
}

void
Group::insertAt(size_t level_idx, const SegEntry &entry,
                MergeScratch &scratch)
{
    while (levels_.size() <= level_idx)
        levels_.emplace_back();

    mergeVictims(level_idx, entry, /*detach_conflicts=*/true, scratch);
    // Pop detached victims below. Order within the new level is
    // restored by sorted insertion. pushVictimDown never merges, so
    // scratch.conflicts is stable across the loop.
    for (const SegEntry &victim : scratch.conflicts)
        pushVictimDown(level_idx, victim);

    insertSorted(levels_[level_idx], entry);
}

bool
Group::tryInsertAt(size_t level_idx, const SegEntry &entry,
                   MergeScratch &scratch)
{
    mergeVictims(level_idx, entry, /*detach_conflicts=*/false, scratch);
    if (!scratch.conflicts.empty())
        return false;
    insertSorted(levels_[level_idx], entry);
    return true;
}

void
Group::update(const FittedSegment &fs, MergeScratch &scratch)
{
    SegEntry entry;
    entry.seg = fs.seg;

    if (fs.seg.approximate()) {
        entry.id = crb_.unusedId();
        scratch.emptied.clear();
        crb_.insertRun(entry.id, fs.offs, scratch.emptied);
        // Runs emptied by deduplication belong to fully superseded
        // approximate segments; drop them wherever they live.
        for (Crb::SegId dead : scratch.emptied)
            removeSegmentById(dead);
    }

    insertAt(0, entry, scratch);
}

void
Group::removeSegmentById(Crb::SegId id)
{
    for (Level &level : levels_) {
        for (size_t i = 0; i < level.segs.size(); i++) {
            if (level.segs[i].id == id) {
                countErase(level.segs[i]);
                level.segs.erase(level.segs.begin() + i);
                return;
            }
        }
    }
}

std::optional<GroupLookup>
Group::lookup(uint8_t off, const SegEntry **top_hit) const
{
    if (top_hit)
        *top_hit = nullptr;
    for (size_t li = 0; li < levels_.size(); li++) {
        const int idx = findCovering(levels_[li].segs, off);
        if (idx < 0)
            continue;
        const SegEntry &e = levels_[li].segs[idx];
        if (!hasLpa(e, off))
            continue;
        GroupLookup res;
        res.ppa = e.seg.predict(off);
        res.approximate = e.seg.approximate();
        res.levels_visited = static_cast<uint32_t>(li + 1);
        if (top_hit && li == 0)
            *top_hit = &e;
        return res;
    }
    return std::nullopt;
}

void
Group::subtractFromLevel(size_t level_idx, const SegEntry &entry,
                         std::optional<GroupMask> &entry_bits)
{
    std::vector<SegEntry> &segs = levels_[level_idx].segs;
    // The victim window, as in mergeVictims().
    const bool entry_approx = entry.seg.approximate();
    for (size_t i = firstEndingAtOrAfter(segs, entry.seg.slpa());
         i < segs.size() && segs[i].seg.slpa() <= entry.seg.endOff();) {
        const SegEntry &victim = segs[i];

        // Two approximate segments never share a member (the CRB has
        // one owner per offset), so nothing is stolen and the victim's
        // run stays non-empty. If the run still holds both range ends,
        // the trim to the run's bounds is a no-op as well.
        if (entry_approx && victim.seg.approximate() &&
            crb_.contains(victim.id, victim.seg.slpa()) &&
            crb_.contains(victim.id, victim.seg.endOff())) {
            i++;
            continue;
        }

        if (!entry_bits)
            entry_bits = segmentMask(entry);
        if (subtractFromVictim(segs, i, *entry_bits))
            i++;
    }
}

void
Group::compact(MergeScratch &scratch)
{
    // Phase 1: subtract every newer segment's members from every
    // older segment below it (the paper's seg_update-into-lower-level
    // cascade). Fully superseded old segments die here; partly
    // superseded ones are trimmed. Placement is untouched, so newer
    // segments stay above the stale interior members of accurate
    // victims they shadow.
    // The entry's members do not change while the levels below it are
    // processed, so its mask is built at most once, on first need.
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        for (size_t i = 0; i < levels_[li].segs.size(); i++) {
            const SegEntry entry = levels_[li].segs[i];
            std::optional<GroupMask> entry_bits;
            for (size_t lj = li + 1; lj < levels_.size(); lj++)
                subtractFromLevel(lj, entry, entry_bits);
        }
    }

    // Phase 2: sink segments downward wherever no range conflict
    // remains; interleaved member-disjoint segments stay on their
    // levels (they cannot share a sorted run). The merge only touches
    // the level below, so the entry can be sunk before its upper-level
    // copy is erased.
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        Level &upper = levels_[li];
        for (size_t i = 0; i < upper.segs.size();) {
            const SegEntry entry = upper.segs[i];
            if (tryInsertAt(li + 1, entry, scratch)) {
                countErase(upper.segs[i]);
                upper.segs.erase(upper.segs.begin() + i);
            } else {
                i++;
            }
        }
    }
    dropEmptyLevels();
}

void
Group::dropEmptyLevels()
{
    levels_.erase(std::remove_if(levels_.begin(), levels_.end(),
                                 [](const Level &l) {
                                     return l.segs.empty();
                                 }),
                  levels_.end());
}

void
Group::restoreRaw(size_t level, const Segment &seg, const GroupMask &run)
{
    while (levels_.size() <= level)
        levels_.emplace_back();
    SegEntry entry;
    entry.seg = seg;
    if (seg.approximate()) {
        entry.id = crb_.unusedId();
        crb_.restoreRun(entry.id, run);
    }
    insertSorted(levels_[level], entry);
}

void
Group::checkInvariants() const
{
    size_t segs = 0, approx = 0;
    for (const Level &level : levels_) {
        for (size_t i = 0; i < level.segs.size(); i++) {
            const SegEntry &e = level.segs[i];
            segs++;
            approx += e.seg.approximate() ? 1 : 0;
            LEAFTL_ASSERT(e.seg.endOff() >= e.seg.slpa(),
                          "segment range inverted");
            if (i > 0) {
                const SegEntry &prev = level.segs[i - 1];
                LEAFTL_ASSERT(prev.seg.endOff() < e.seg.slpa(),
                              "level segments overlap or unsorted");
            }
            if (e.seg.approximate()) {
                const GroupMask &run = crb_.run(e.id);
                LEAFTL_ASSERT(!run.none(), "approx segment without CRB run");
                LEAFTL_ASSERT(run.first() >= e.seg.slpa() &&
                                  run.last() <= e.seg.endOff(),
                              "CRB run outside segment range");
            }
        }
    }
    LEAFTL_ASSERT(segs == num_segs_, "segment counter out of sync");
    LEAFTL_ASSERT(approx == num_approx_, "approximate counter out of sync");
    crb_.checkAccounting();
}

} // namespace leaftl
