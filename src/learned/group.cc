#include "learned/group.hh"

#include <algorithm>

namespace leaftl
{

namespace
{

/**
 * Make room for one more element, growing a full vector by a quarter
 * instead of doubling it: a group's vectors keep their largest size
 * for life, and across thousands of groups the doubling slack shows
 * in the host's peak memory.
 */
template <typename T>
void
reserveOneMore(std::vector<T> &v)
{
    if (v.size() == v.capacity())
        v.reserve(v.size() + v.size() / 4 + 4);
}

} // namespace

inline size_t
Group::findCovering(size_t li, uint8_t off) const
{
    // The last segment starting at or before off. Halving with a
    // conditional select instead of a three-way branch: the lookup's
    // search costs no mispredicted branches.
    const SegEntry *base = segs_.data() + levels_[li].begin;
    for (size_t n = levelEnd(li) - levels_[li].begin; n > 1;) {
        const size_t half = n / 2;
        base = base[half].seg.slpa() <= off ? base + half : base;
        n -= half;
    }
    return static_cast<size_t>(base - segs_.data());
}

size_t
Group::firstEndingAtOrAfter(size_t li, uint8_t off) const
{
    const auto first = segs_.begin() + levels_[li].begin;
    const auto it = std::lower_bound(
        first, segs_.begin() + static_cast<long>(levelEnd(li)), off,
        [](const SegEntry &e, uint8_t o) { return e.seg.endOff() < o; });
    return static_cast<size_t>(it - segs_.begin());
}

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
Group::addLevel(size_t at)
{
    Level level;
    level.begin = static_cast<uint32_t>(
        at < levels_.size() ? levels_[at].begin : segs_.size());
    reserveOneMore(levels_);
    levels_.insert(levels_.begin() + static_cast<long>(at), level);
}

void
Group::insertSorted(size_t li, const SegEntry &entry, const GroupMask &bits)
{
    reserveOneMore(segs_);
    const auto it = std::lower_bound(
        segs_.begin() + levels_[li].begin,
        segs_.begin() + static_cast<long>(levelEnd(li)), entry,
        [](const SegEntry &a, const SegEntry &b) {
            return a.seg.slpa() < b.seg.slpa();
        });
    segs_.insert(it, entry);
    for (size_t lj = li + 1; lj < levels_.size(); lj++)
        levels_[lj].begin++;
    Level &level = levels_[li];
    level.members |= bits;
    level.loose += isLoose(entry) ? 1 : 0;
    countInsert(entry);
}

void
Group::eraseSegment(size_t li, size_t i)
{
    countErase(segs_[i]);
    segs_.erase(segs_.begin() + static_cast<long>(i));
    for (size_t lj = li + 1; lj < levels_.size(); lj++)
        levels_[lj].begin--;
}

void
Group::eraseAt(size_t li, size_t i, const GroupMask &bits)
{
    Level &level = levels_[li];
    level.members.subtract(bits);
    level.loose -= isLoose(segs_[i]) ? 1 : 0;
    eraseSegment(li, i);
}

void
Group::mergeVictims(size_t level_idx, const SegEntry &entry,
                    const GroupMask &entry_bits, bool detach_conflicts,
                    MergeScratch &scratch)
{
    scratch.conflicts.clear();

    // Algorithm 2 over the window of victims whose ranges intersect
    // the entry: ends ascend with starts in a level, so the window
    // opens at the first end >= S and closes at the first start > S+L.
    const auto in_window = [&](size_t j) {
        return j < levelEnd(level_idx) &&
               segs_[j].seg.slpa() <= entry.seg.endOff();
    };
    for (size_t i = firstEndingAtOrAfter(level_idx, entry.seg.slpa());
         in_window(i);) {
        GroupMask kept;
        if (!subtractFromVictim(level_idx, i, entry_bits, kept))
            continue;
        const SegEntry &victim = segs_[i];
        if (entry.seg.overlaps(victim.seg)) {
            // Range still interleaves: the victim cannot share a sorted
            // run with the entry (Algorithm 1 lines 13-16).
            scratch.conflicts.push_back(victim);
            if (detach_conflicts) {
                eraseAt(level_idx, i, kept);
                continue;
            }
        }
        i++;
    }
}

bool
Group::subtractFromVictim(size_t li, size_t i, const GroupMask &entry_bits,
                          GroupMask &kept)
{
    SegEntry &victim = segs_[i];
    Level &level = levels_[li];

    // Subtract the new segment's members from the victim. For
    // approximate victims the CRB insert already stole the overwritten
    // offsets, so the subtraction is mostly a no-op there; accurate
    // victims are trimmed here.
    const GroupMask before = segmentMask(victim);
    kept = before;
    kept.subtract(entry_bits);
    // Trimmed or dropped, the victim stops being loose: a trimmed run
    // is exactly what is kept, and the range is cut to its bounds.
    level.loose -= isLoose(victim) ? 1 : 0;

    if (kept.none()) {
        // Victim fully superseded: remove it (Algorithm 1 l.11-12).
        level.members.subtract(before);
        if (victim.seg.approximate())
            crb_.removeRun(victim.id);
        eraseSegment(li, i);
        return false;
    }

    // Trim the victim's range; K and I are never touched.
    const uint8_t lo = kept.first(), hi = kept.last();
    victim.seg.trim(lo, hi);
    if (victim.seg.approximate()) {
        const GroupMask stolen = before & entry_bits;
        if (!stolen.none())
            crb_.removeOffsets(victim.id, stolen);
    } else {
        // An accurate victim keeps its stride grid, clipped to the
        // trimmed range: members between lo and hi the entry took are
        // still the victim's (the entry above shadows them).
        kept = before & GroupMask::range(lo, hi);
    }
    GroupMask gone = before;
    gone.subtract(kept);
    level.members.subtract(gone);
    return true;
}

void
Group::pushVictimDown(size_t from_level, const SegEntry &victim)
{
    const size_t below = from_level + 1;
    const GroupMask bits = segmentMask(victim);
    if (below >= levels_.size()) {
        addLevel(levels_.size());
        insertSorted(below, victim, bits);
        return;
    }
    // If the next level has no range conflict with the victim, it can
    // join that sorted run; otherwise it gets a dedicated level to
    // avoid recursive pops (and to preserve recency ordering). Ends
    // ascend, so the first segment ending at or after the victim's
    // start is the only candidate that decides whether any overlaps.
    const size_t at = firstEndingAtOrAfter(below, victim.seg.slpa());
    const bool conflict = at < levelEnd(below) &&
                          segs_[at].seg.slpa() <= victim.seg.endOff();
    if (conflict)
        addLevel(below);
    insertSorted(below, victim, bits);
}

void
Group::insertAt(size_t level_idx, const SegEntry &entry,
                MergeScratch &scratch)
{
    while (levels_.size() <= level_idx)
        addLevel(levels_.size());

    const GroupMask entry_bits = segmentMask(entry);
    mergeVictims(level_idx, entry, entry_bits, /*detach_conflicts=*/true,
                 scratch);
    // Pop detached victims below. Order within the new level is
    // restored by sorted insertion. pushVictimDown never merges, so
    // scratch.conflicts is stable across the loop.
    for (const SegEntry &victim : scratch.conflicts)
        pushVictimDown(level_idx, victim);

    insertSorted(level_idx, entry, entry_bits);
}

void
Group::sinkSegment(size_t li, size_t i, const GroupMask &bits)
{
    // Level li + 1's slice starts right after li's, so moving the
    // segment to its sorted place there only rotates the segments in
    // between, and only level li + 1's begin moves.
    const SegEntry &entry = segs_[i];
    const size_t below = li + 1;
    const auto to = std::lower_bound(
        segs_.begin() + levels_[below].begin,
        segs_.begin() + static_cast<long>(levelEnd(below)), entry,
        [](const SegEntry &a, const SegEntry &b) {
            return a.seg.slpa() < b.seg.slpa();
        });
    const uint32_t loose = isLoose(entry) ? 1 : 0;
    levels_[li].members.subtract(bits);
    levels_[li].loose -= loose;
    levels_[below].members |= bits;
    levels_[below].loose += loose;
    // A one-place rotation, spelt out: std::rotate swaps element by
    // element here, while the move below is one memmove.
    const SegEntry moved = entry;
    const auto at = segs_.begin() + static_cast<long>(i);
    std::move(at + 1, to, at);
    *(to - 1) = moved;
    levels_[below].begin--;
}

void
Group::detachStolen(const std::vector<uint8_t> &offs, MergeScratch &scratch)
{
    scratch.steals.clear();
    GroupMask stolen;
    for (uint8_t off : offs) {
        if (crb_.owner(off) != Crb::kNoSeg)
            stolen.set(off);
    }
    // Each owner lives in one level, whose members hold its whole run;
    // a stolen offset a level holds belongs to that level's covering
    // segment, which is the owner or an accurate segment.
    for (size_t li = 0; li < levels_.size() && !stolen.none(); li++) {
        Level &level = levels_[li];
        GroupMask hit = level.members & stolen;
        while (!hit.none()) {
            const uint8_t off = hit.first();
            const Crb::SegId old = crb_.owner(off);
            const size_t at = findCovering(li, off);
            if (segs_[at].id != old) {
                hit.clear(off);
                continue;
            }
            const GroupMask &run = crb_.run(old);
            hit.subtract(run);
            stolen.subtract(run);
            level.members.subtract(run);
            level.loose -= isLoose(segs_[at]) ? 1 : 0;
            scratch.steals.push_back({old, static_cast<uint32_t>(li), off});
        }
    }
    LEAFTL_ASSERT(stolen.none(), "CRB owner missing from its group");
}

void
Group::reattachStolen(MergeScratch &scratch)
{
    for (const MergeScratch::Steal &s : scratch.steals) {
        // The owner's range still covers the recorded offset (only its
        // run shrank), so the search finds it after earlier erases.
        const size_t at = findCovering(s.level, s.off);
        const GroupMask &run = crb_.run(s.id);
        if (run.none()) {
            // Fully superseded approximate segment: drop it in place.
            eraseSegment(s.level, at);
            continue;
        }
        Level &level = levels_[s.level];
        level.members |= run;
        level.loose += isLoose(segs_[at]) ? 1 : 0;
    }
}

void
Group::update(const FittedSegment &fs, MergeScratch &scratch)
{
    SegEntry entry;
    entry.seg = fs.seg;

    if (fs.seg.approximate()) {
        entry.id = crb_.unusedId();
        // Deduplication shrinks older runs wherever they live: take
        // their summaries out first, put what is left back after.
        detachStolen(fs.offs, scratch);
        crb_.insertRun(entry.id, fs.offs);
        reattachStolen(scratch);
    }

    insertAt(0, entry, scratch);
}

std::optional<GroupLookup>
Group::lookup(uint8_t off, const SegEntry **top_hit) const
{
    if (top_hit)
        *top_hit = nullptr;
    for (size_t li = 0; li < levels_.size(); li++) {
        // A level's members are exactly the offsets its segments hold,
        // so the first level holding off is where has_lpa would hit.
        if (!levels_[li].members.test(off))
            continue;
        const SegEntry &e = segs_[findCovering(li, off)];
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
                         const GroupMask &entry_bits)
{
    // What the entry takes from this level. A victim's members are the
    // level's members inside its range, and trimming one victim leaves
    // the others' bits alone, so this stays exact across the walk.
    const GroupMask shared = levels_[level_idx].members & entry_bits;
    // The victim window, as in mergeVictims().
    for (size_t i = firstEndingAtOrAfter(level_idx, entry.seg.slpa());
         i < levelEnd(level_idx) &&
         segs_[i].seg.slpa() <= entry.seg.endOff();) {
        const SegEntry &victim = segs_[i];

        // Nothing taken and the range ends on members: the subtraction
        // keeps every member and the trim to their bounds is a no-op
        // (the whole-level skip's argument, per victim).
        if (!isLoose(victim) &&
            (shared & GroupMask::range(victim.seg.slpa(),
                                       victim.seg.endOff()))
                .none()) {
            i++;
            continue;
        }

        GroupMask kept;
        if (subtractFromVictim(level_idx, i, entry_bits, kept))
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
    // victims they shadow. Erases below level li never shift li's
    // slice, and a lower level without loose segments whose members
    // miss the entry's is left alone (exact; see the file comment).
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        for (size_t i = levels_[li].begin; i < levelEnd(li); i++) {
            const SegEntry entry = segs_[i];
            const GroupMask entry_bits = segmentMask(entry);
            for (size_t lj = li + 1; lj < levels_.size(); lj++) {
                const Level &lower = levels_[lj];
                if (lower.loose == 0 && (lower.members & entry_bits).none())
                    continue;
                subtractFromLevel(lj, entry, entry_bits);
            }
        }
    }

    // Phase 2: sink segments downward wherever no range conflict
    // remains; interleaved member-disjoint segments stay on their
    // levels (they cannot share a sorted run). The merge only touches
    // the level below, so the entry's slot in its own level is stable
    // until it sinks.
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        for (size_t i = levels_[li].begin; i < levelEnd(li);) {
            const SegEntry entry = segs_[i];
            const GroupMask entry_bits = segmentMask(entry);
            mergeVictims(li + 1, entry, entry_bits,
                         /*detach_conflicts=*/false, scratch);
            if (scratch.conflicts.empty())
                sinkSegment(li, i, entry_bits); // segs_[i] is the next one
            else
                i++;
        }
    }
    dropEmptyLevels();
}

void
Group::dropEmptyLevels()
{
    // An empty level's slice is empty, so the kept levels' begins stay.
    size_t kept = 0;
    for (size_t li = 0; li < levels_.size(); li++) {
        if (levelEnd(li) > levels_[li].begin)
            levels_[kept++] = levels_[li];
    }
    levels_.resize(kept);
}

void
Group::restoreRaw(size_t level, const Segment &seg, const GroupMask &run)
{
    while (levels_.size() <= level)
        addLevel(levels_.size());
    SegEntry entry;
    entry.seg = seg;
    if (seg.approximate()) {
        entry.id = crb_.unusedId();
        crb_.restoreRun(entry.id, run);
    }
    insertSorted(level, entry, segmentMask(entry));
}

void
Group::checkInvariants() const
{
    LEAFTL_ASSERT(segs_.size() == num_segs_, "segment counter out of sync");
    size_t approx = 0;
    for (size_t li = 0; li < levels_.size(); li++) {
        const Level &level = levels_[li];
        LEAFTL_ASSERT(li == 0 ? level.begin == 0
                              : level.begin >= levels_[li - 1].begin,
                      "level slices out of order");
        LEAFTL_ASSERT(level.begin <= segs_.size(), "level slice past end");
        GroupMask members;
        uint32_t loose = 0;
        for (size_t i = level.begin; i < levelEnd(li); i++) {
            const SegEntry &e = segs_[i];
            approx += e.seg.approximate() ? 1 : 0;
            LEAFTL_ASSERT(e.seg.endOff() >= e.seg.slpa(),
                          "segment range inverted");
            if (i > level.begin) {
                const SegEntry &prev = segs_[i - 1];
                LEAFTL_ASSERT(prev.seg.endOff() < e.seg.slpa(),
                              "level segments overlap or unsorted");
            }
            if (e.seg.approximate()) {
                const GroupMask &run = crb_.run(e.id);
                LEAFTL_ASSERT(!run.none(), "approx segment without CRB run");
                LEAFTL_ASSERT(run.first() >= e.seg.slpa() &&
                                  run.last() <= e.seg.endOff(),
                              "CRB run outside segment range");
            } else {
                // The premise of compaction's whole-level skip.
                LEAFTL_ASSERT((e.seg.endOff() - e.seg.slpa()) %
                                      e.seg.stride() ==
                                  0,
                              "accurate segment ends off its stride grid");
            }
            members |= segmentMask(e);
            loose += isLoose(e) ? 1 : 0;
        }
        LEAFTL_ASSERT(members == level.members,
                      "level member summary out of sync");
        LEAFTL_ASSERT(loose == level.loose, "level loose count out of sync");
    }
    LEAFTL_ASSERT(approx == num_approx_, "approximate counter out of sync");
    crb_.checkAccounting();
}

} // namespace leaftl
