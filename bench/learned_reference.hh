/**
 * @file
 * Reference implementation of the per-group learned mapping table as
 * it existed before the word-parallel merge, kept verbatim so the
 * equivalence tests (tests/test_group_equiv.cc) and the merge section
 * of bench/perf_translation can pin the mask-based Group and Crb
 * against the old observable behavior and measure the speedup
 * honestly.
 *
 *   - RefCrb:   runs as sorted heap byte vectors, deduplicated and
 *               trimmed by std::remove.
 *   - RefGroup: Algorithm 2 over per-victim dynamic Bitmaps rebuilt
 *               bit by bit over the union range, with a full scan of
 *               the level for overlapping victims.
 *
 * Not used by the simulator itself (and deliberately outside
 * src/learned/, which the lint rules and the "no Bitmap in the learned
 * layer" design keep to the mask implementation).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "learned/group.hh"
#include "learned/plr.hh"
#include "learned/segment.hh"
#include "util/bitmap.hh"
#include "util/common.hh"

namespace leaftl
{

/** The old vector-backed conflict resolution buffer, verbatim. */
class RefCrb
{
  public:
    using SegId = uint32_t;
    static constexpr SegId kNoSeg = 0xFFFFFFFFu;

    RefCrb() { std::fill(std::begin(owner_), std::end(owner_), kNoSeg); }

    void
    insertRun(SegId id, const std::vector<uint8_t> &offs,
              std::vector<SegId> &emptied)
    {
        LEAFTL_ASSERT(!offs.empty(), "CRB run must be non-empty");
        LEAFTL_ASSERT(findRun(id) == runs_.end(), "CRB id reused");

        for (size_t i = 1; i < offs.size(); i++)
            LEAFTL_ASSERT(offs[i] > offs[i - 1], "CRB run must be sorted");

        // Deduplicate: steal ownership from older runs.
        for (uint8_t off : offs) {
            const SegId old = owner_[off];
            if (old == kNoSeg || old == id)
                continue;
            auto it = findRun(old);
            LEAFTL_ASSERT(it != runs_.end(), "CRB owner index out of sync");
            auto &vec = it->second;
            vec.erase(std::remove(vec.begin(), vec.end(), off), vec.end());
            stored_offs_--; // Offsets are unique per run: exactly one gone.
            if (vec.empty()) {
                runs_.erase(it);
                emptied.push_back(old);
            }
        }

        runs_.insert(
            std::lower_bound(runs_.begin(), runs_.end(), id, runIdLess),
            Run{id, offs});
        stored_offs_ += offs.size();
        for (uint8_t off : offs)
            owner_[off] = id;
    }

    bool contains(SegId id, uint8_t off) const { return owner_[off] == id; }

    SegId owner(uint8_t off) const { return owner_[off]; }

    bool
    removeOffsets(SegId id, const std::vector<uint8_t> &offs)
    {
        auto it = findRun(id);
        if (it == runs_.end())
            return true;
        auto &vec = it->second;
        for (uint8_t off : offs) {
            if (owner_[off] != id)
                continue;
            vec.erase(std::remove(vec.begin(), vec.end(), off), vec.end());
            stored_offs_--;
            owner_[off] = kNoSeg;
        }
        if (vec.empty()) {
            runs_.erase(it);
            return true;
        }
        return false;
    }

    void
    removeRun(SegId id)
    {
        auto it = findRun(id);
        if (it == runs_.end())
            return;
        for (uint8_t off : it->second) {
            if (owner_[off] == id)
                owner_[off] = kNoSeg;
        }
        stored_offs_ -= it->second.size();
        runs_.erase(it);
    }

    const std::vector<uint8_t> &
    run(SegId id) const
    {
        static const std::vector<uint8_t> kEmptyRun;
        auto it = findRun(id);
        return it == runs_.end() ? kEmptyRun : it->second;
    }

    size_t numRuns() const { return runs_.size(); }
    size_t sizeBytes() const { return stored_offs_ + runs_.size(); }

  private:
    using Run = std::pair<SegId, std::vector<uint8_t>>;

    static bool
    runIdLess(const Run &run, SegId id)
    {
        return run.first < id;
    }

    std::vector<Run>::iterator
    findRun(SegId id)
    {
        auto it = std::lower_bound(runs_.begin(), runs_.end(), id, runIdLess);
        if (it != runs_.end() && it->first == id)
            return it;
        return runs_.end();
    }

    std::vector<Run>::const_iterator
    findRun(SegId id) const
    {
        auto it = std::lower_bound(runs_.begin(), runs_.end(), id, runIdLess);
        if (it != runs_.end() && it->first == id)
            return it;
        return runs_.end();
    }

    std::vector<Run> runs_;
    SegId owner_[kGroupSpan];
    size_t stored_offs_ = 0;
};

/** A segment plus its RefCrb identity (valid only when approximate). */
struct RefSegEntry
{
    Segment seg;
    RefCrb::SegId id = RefCrb::kNoSeg;
};

/** The old merge scratch: bitmaps rebuilt per victim. */
struct RefMergeScratch
{
    Bitmap bm_new;
    Bitmap bm_old;
    std::vector<uint8_t> stolen;
    std::vector<RefSegEntry> conflicts;
    std::vector<RefCrb::SegId> emptied;
};

/** The old bitmap-and-full-scan Group, verbatim. */
class RefGroup
{
  public:
    void
    update(const FittedSegment &fs, RefMergeScratch &scratch)
    {
        RefSegEntry entry;
        entry.seg = fs.seg;

        if (fs.seg.approximate()) {
            entry.id = next_id_++;
            scratch.emptied.clear();
            crb_.insertRun(entry.id, fs.offs, scratch.emptied);
            for (RefCrb::SegId dead : scratch.emptied)
                removeSegmentById(dead);
        }

        insertAt(0, entry, scratch);
    }

    std::optional<GroupLookup>
    lookup(uint8_t off) const
    {
        for (size_t li = 0; li < levels_.size(); li++) {
            const int idx = findCovering(levels_[li].segs, off);
            if (idx < 0)
                continue;
            const RefSegEntry &e = levels_[li].segs[idx];
            if (!hasLpa(e, off))
                continue;
            GroupLookup res;
            res.ppa = e.seg.predict(off);
            res.approximate = e.seg.approximate();
            res.levels_visited = static_cast<uint32_t>(li + 1);
            return res;
        }
        return std::nullopt;
    }

    bool
    hasLpa(const RefSegEntry &e, uint8_t off) const
    {
        if (!e.seg.covers(off))
            return false;
        if (e.seg.approximate())
            return crb_.contains(e.id, off);
        return e.seg.hasLpaAccurate(off);
    }

    void
    compact(RefMergeScratch &scratch)
    {
        for (size_t li = 0; li + 1 < levels_.size(); li++) {
            for (size_t i = 0; i < levels_[li].segs.size(); i++) {
                const RefSegEntry entry = levels_[li].segs[i];
                for (size_t lj = li + 1; lj < levels_.size(); lj++)
                    mergeVictims(lj, entry, /*detach_conflicts=*/false,
                                 scratch);
            }
        }

        for (size_t li = 0; li + 1 < levels_.size(); li++) {
            Level &upper = levels_[li];
            for (size_t i = 0; i < upper.segs.size();) {
                const RefSegEntry entry = upper.segs[i];
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

    size_t numLevels() const { return levels_.size(); }
    size_t numSegments() const { return num_segs_; }
    size_t numApproximate() const { return num_approx_; }

    size_t
    memoryBytes() const
    {
        return num_segs_ * Segment::kEncodedBytes + crb_.sizeBytes();
    }

    const RefCrb &crb() const { return crb_; }

    template <typename Fn>
    void
    forEachSegment(Fn &&fn) const
    {
        for (size_t li = 0; li < levels_.size(); li++) {
            for (const RefSegEntry &e : levels_[li].segs)
                fn(e, li);
        }
    }

  private:
    struct Level
    {
        std::vector<RefSegEntry> segs;
    };

    static int
    findCovering(const std::vector<RefSegEntry> &segs, uint8_t off)
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

    void
    segmentBits(const RefSegEntry &e, uint8_t start, uint8_t end,
                Bitmap &bm) const
    {
        bm.resize(static_cast<uint32_t>(end - start) + 1);
        if (e.seg.approximate()) {
            for (uint8_t off : crb_.run(e.id)) {
                if (off >= start && off <= end)
                    bm.set(off - start);
            }
        } else {
            const uint32_t d = e.seg.singlePoint() ? 1 : e.seg.stride();
            for (uint32_t off = e.seg.slpa(); off <= e.seg.endOff();
                 off += d) {
                if (off >= start && off <= end)
                    bm.set(off - start);
                if (e.seg.singlePoint())
                    break;
            }
        }
    }

    void
    insertSorted(Level &level, const RefSegEntry &entry)
    {
        auto it = std::lower_bound(
            level.segs.begin(), level.segs.end(), entry,
            [](const RefSegEntry &a, const RefSegEntry &b) {
                return a.seg.slpa() < b.seg.slpa();
            });
        level.segs.insert(it, entry);
        countInsert(entry);
    }

    void
    mergeVictims(size_t level_idx, const RefSegEntry &entry,
                 bool detach_conflicts, RefMergeScratch &scratch)
    {
        Level &level = levels_[level_idx];
        scratch.conflicts.clear();

        size_t i = 0;
        while (i < level.segs.size()) {
            RefSegEntry &victim = level.segs[i];
            if (!entry.seg.overlaps(victim.seg)) {
                i++;
                continue;
            }

            const uint8_t start =
                std::min(entry.seg.slpa(), victim.seg.slpa());
            const uint8_t end =
                std::max(entry.seg.endOff(), victim.seg.endOff());
            segmentBits(entry, start, end, scratch.bm_new);
            segmentBits(victim, start, end, scratch.bm_old);
            Bitmap &bm_new = scratch.bm_new;
            Bitmap &bm_old = scratch.bm_old;

            scratch.stolen.clear();
            for (uint32_t b = 0; b < bm_old.size(); b++) {
                if (bm_old.test(b) && bm_new.test(b))
                    scratch.stolen.push_back(
                        static_cast<uint8_t>(start + b));
            }
            bm_old.subtract(bm_new);

            if (bm_old.none()) {
                if (victim.seg.approximate())
                    crb_.removeRun(victim.id);
                countErase(victim);
                level.segs.erase(level.segs.begin() + i);
                continue;
            }

            const uint8_t first =
                static_cast<uint8_t>(start + bm_old.firstSet());
            const uint8_t last =
                static_cast<uint8_t>(start + bm_old.lastSet());
            victim.seg.trim(first, last);
            if (victim.seg.approximate() && !scratch.stolen.empty())
                crb_.removeOffsets(victim.id, scratch.stolen);

            if (entry.seg.overlaps(victim.seg)) {
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

    void
    pushVictimDown(size_t from_level, const RefSegEntry &victim)
    {
        const size_t below = from_level + 1;
        if (below >= levels_.size()) {
            levels_.emplace_back();
            insertSorted(levels_.back(), victim);
            return;
        }
        bool conflict = false;
        for (const RefSegEntry &e : levels_[below].segs) {
            if (e.seg.overlaps(victim.seg)) {
                conflict = true;
                break;
            }
        }
        if (conflict) {
            levels_.insert(levels_.begin() + below, Level{});
            insertSorted(levels_[below], victim);
        } else {
            insertSorted(levels_[below], victim);
        }
    }

    void
    insertAt(size_t level_idx, const RefSegEntry &entry,
             RefMergeScratch &scratch)
    {
        while (levels_.size() <= level_idx)
            levels_.emplace_back();

        mergeVictims(level_idx, entry, /*detach_conflicts=*/true, scratch);
        for (const RefSegEntry &victim : scratch.conflicts)
            pushVictimDown(level_idx, victim);

        insertSorted(levels_[level_idx], entry);
    }

    bool
    tryInsertAt(size_t level_idx, const RefSegEntry &entry,
                RefMergeScratch &scratch)
    {
        mergeVictims(level_idx, entry, /*detach_conflicts=*/false, scratch);
        if (!scratch.conflicts.empty())
            return false;
        insertSorted(levels_[level_idx], entry);
        return true;
    }

    void
    removeSegmentById(RefCrb::SegId id)
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

    void
    dropEmptyLevels()
    {
        levels_.erase(std::remove_if(levels_.begin(), levels_.end(),
                                     [](const Level &l) {
                                         return l.segs.empty();
                                     }),
                      levels_.end());
    }

    void
    countInsert(const RefSegEntry &e)
    {
        num_segs_++;
        if (e.seg.approximate())
            num_approx_++;
    }

    void
    countErase(const RefSegEntry &e)
    {
        num_segs_--;
        if (e.seg.approximate())
            num_approx_--;
    }

    std::vector<Level> levels_;
    RefCrb crb_;
    RefCrb::SegId next_id_ = 1;
    uint32_t num_segs_ = 0;
    uint32_t num_approx_ = 0;
};

/**
 * Canonical per-group dump in the serialize() wire layout (level, S,
 * L, K, I, then the CRB run of approximate segments), for Group and
 * RefGroup alike: equal dumps mean equal serialized blobs.
 */
inline void
appendRun(std::vector<uint8_t> &out, const GroupMask &run)
{
    out.push_back(static_cast<uint8_t>(run.count()));
    out.push_back(static_cast<uint8_t>(run.count() >> 8));
    run.forEach([&](uint8_t off) { out.push_back(off); });
}

inline void
appendRun(std::vector<uint8_t> &out, const std::vector<uint8_t> &run)
{
    out.push_back(static_cast<uint8_t>(run.size()));
    out.push_back(static_cast<uint8_t>(run.size() >> 8));
    out.insert(out.end(), run.begin(), run.end());
}

template <typename G>
std::vector<uint8_t>
canonicalGroupDump(const G &group)
{
    std::vector<uint8_t> out;
    group.forEachSegment([&](const auto &e, size_t level) {
        const auto put = [&](uint64_t v, int bytes) {
            for (int b = 0; b < bytes; b++)
                out.push_back(static_cast<uint8_t>(v >> (8 * b)));
        };
        put(level, 2);
        put(e.seg.slpa(), 1);
        put(e.seg.length(), 1);
        put(e.seg.kbits(), 2);
        put(static_cast<uint32_t>(e.seg.intercept()), 4);
        if (e.seg.approximate())
            appendRun(out, group.crb().run(e.id));
    });
    return out;
}

} // namespace leaftl
