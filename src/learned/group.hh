/**
 * @file
 * Per-group log-structured mapping table (§3.4, §3.7, Algorithms 1&2).
 *
 * Each 256-LPA group owns a stack of levels. Level 0 holds the most
 * recently learned segments; lower levels hold older ones. Within a
 * level, segments are sorted by S and their [S, S+L] ranges never
 * overlap, so a level is searched with one binary search; across
 * levels, ranges may overlap and the topmost hit wins (newest mapping).
 *
 * Layout: all of a group's segments live in one level-major vector,
 * level 0 first, each level a sorted slice of it. A level itself is
 * only a summary of its slice:
 *   - begin: where the slice starts (it ends where the next level's
 *     begins);
 *   - members: the union of its segments' member masks. The union is
 *     exact -- a level's ranges are disjoint, so no two of its
 *     segments share a member and removing one segment's mask
 *     removes exactly its bits;
 *   - loose: how many of its approximate segments have a CRB run that
 *     lacks S or S+L (a newer run's deduplication stole an end).
 * Both summaries are kept exact by every mutation: insert, erase, the
 * merge's trims, pushes and sinks, recovery, and CRB deduplication
 * (which shrinks older runs wherever they live).
 *
 * Lookup tests one bit per level and binary-searches only the first
 * level whose members hold the offset; by exactness that is the level
 * a walk with has_lpa at every level would stop at, so the number of
 * levels visited is unchanged.
 *
 * Inserting a new segment merges it against overlapping victims
 * (Algorithm 2): both sides' members are 256-bit GroupMasks (stride
 * arithmetic for accurate segments, the CRB run for approximate ones),
 * the new segment's members are subtracted word-wise, and the victims
 * are trimmed, dropped when empty, or popped to the next level when
 * their range still interleaves with the new segment (with a
 * dedicated level created when the next level also conflicts,
 * avoiding recursion). Because a level's ranges are sorted and
 * disjoint, their ends ascend too, so the victims of a range form one
 * window found by binary search.
 *
 * Compaction (seg_compact) sinks segments into lower levels when no
 * range conflict remains, reclaiming dead segments and empty levels.
 * Interleaved-but-member-disjoint segments legitimately stay on
 * separate levels (they cannot share a sorted run). Its first phase
 * subtracts every segment from the victims on every level below, and
 * most of those pairs provably change nothing. A whole lower level is
 * skipped when it holds no loose segment and its members are disjoint
 * from the entry's. The skip is exact: nothing is stolen, so every
 * victim survives and is only trimmed to the bounds of its own
 * members, which are its range ends -- an accurate segment's ends lie
 * on its stride grid (fitting sets S+L - S = (n-1)d and trims cut to
 * grid points), and a non-loose approximate run holds S and S+L.
 * Inside a level that cannot be skipped, the same argument skips each
 * non-loose victim whose range holds none of the members the entry
 * shares with the level (by exactness, the level's members inside a
 * victim's range are that victim's members). Two approximate segments
 * never share a member -- the CRB has one owner per offset -- so under
 * an approximate entry only loose approximate victims are touched.
 *
 * Hot-path design: the merge machinery works out of a caller-provided
 * MergeScratch (vectors reused across learns, so the steady-state
 * learn path performs no heap allocation), segment / approximate
 * counts are maintained incrementally (numSegments(), numApproximate()
 * and memoryBytes() are O(1) reads), and segment visitation is a
 * template so reporting loops pay no std::function indirection.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "learned/crb.hh"
#include "learned/group_mask.hh"
#include "learned/plr.hh"
#include "learned/segment.hh"
#include "util/common.hh"

namespace leaftl
{

/** Result of a group lookup. */
struct GroupLookup
{
    Ppa ppa;                 ///< Predicted PPA (exact if !approximate).
    bool approximate;        ///< True when served by an approximate segment.
    uint32_t levels_visited; ///< Levels searched, including the hit.
};

/** A segment plus its CRB identity (valid only when approximate). */
struct SegEntry
{
    Segment seg;
    Crb::SegId id = Crb::kNoSeg;
};

/**
 * Reusable scratch state for the segment-merge procedure: one arena
 * per table (or per call site) keeps the learn path allocation-free
 * in steady state -- both vectors are cleared, never shrunk, between
 * merges. Member sets are fixed-size GroupMasks on the stack and need
 * no arena.
 */
struct MergeScratch
{
    /** An older approximate segment a new CRB run steals from. */
    struct Steal
    {
        Crb::SegId id;  ///< The older segment's CRB id.
        uint32_t level; ///< Its level.
        uint8_t off;    ///< One offset it held (locates it in the level).
    };

    std::vector<SegEntry> conflicts;  ///< Range-conflicting survivors.
    std::vector<Steal> steals;        ///< Owners a new run steals from.
};

/** Log-structured mapping table for one 256-LPA group. */
class Group
{
  public:
    Group() = default;

    /**
     * Insert a freshly learned segment (Algorithm 1, seg_update at the
     * topmost level). Registers approximate members in the CRB, merges
     * overlapping victims, and keeps level 0 sorted.
     */
    void update(const FittedSegment &fs, MergeScratch &scratch);

    /** Convenience overload with a throwaway scratch (tests). */
    void
    update(const FittedSegment &fs)
    {
        MergeScratch scratch;
        update(fs, scratch);
    }

    /**
     * Translate a group offset; nullopt when the LPA was never learned.
     * On a hit served by level 0, @a top_hit (when non-null) receives
     * the serving entry -- the table's last-hit lookup cache keys on
     * it. The pointer aims into the group's flat segment array, which
     * any mutation of the group may shift or reallocate, so it is
     * valid only until the next mutation.
     */
    std::optional<GroupLookup>
    lookup(uint8_t off, const SegEntry **top_hit = nullptr) const;

    /**
     * Full membership test: range + stride grid for accurate segments,
     * range + CRB ownership for approximate ones (Algorithm 2,
     * has_lpa). Public so the table's lookup cache can revalidate a
     * remembered level-0 entry without a level scan.
     */
    bool hasLpa(const SegEntry &e, uint8_t off) const;

    /**
     * Every member of @a e as a mask: the stride grid over [S, S+L]
     * for accurate segments, the CRB run for approximate ones. Agrees
     * with hasLpa() on all 256 offsets.
     */
    GroupMask segmentMask(const SegEntry &e) const;

    /** Compact levels (Algorithm 1, seg_compact). */
    void compact(MergeScratch &scratch);

    /** Convenience overload with a throwaway scratch (tests). */
    void
    compact()
    {
        MergeScratch scratch;
        compact(scratch);
    }

    size_t numLevels() const { return levels_.size(); }
    size_t numSegments() const { return num_segs_; }
    size_t numApproximate() const { return num_approx_; }

    /** Mapping memory: 8 bytes per segment plus the CRB bytes (O(1)). */
    size_t
    memoryBytes() const
    {
        return num_segs_ * Segment::kEncodedBytes + crb_.sizeBytes();
    }

    const Crb &crb() const { return crb_; }

    /** Visit every live segment (topmost level first): fn(entry, level). */
    template <typename Fn>
    void
    forEachSegment(Fn &&fn) const
    {
        for (size_t li = 0; li < levels_.size(); li++) {
            for (size_t i = levels_[li].begin; i < levelEnd(li); i++)
                fn(segs_[i], li);
        }
    }

    /** Validate internal invariants; aborts on violation (tests). */
    void checkInvariants() const;

    /**
     * Recovery path: re-attach a deserialized segment at a given level
     * without merging (the serialized state already satisfies the
     * invariants). @a run holds the CRB offsets for approximate
     * segments (ignored otherwise).
     */
    void restoreRaw(size_t level, const Segment &seg, const GroupMask &run);

  private:
    /** A level: the summary of its slice of segs_. */
    struct Level
    {
        GroupMask members;  ///< Exact union of its segments' masks.
        uint32_t begin = 0; ///< Index of its first segment in segs_.
        uint32_t loose = 0; ///< Approximate segments missing S or S+L.
    };

    /** One past the last segs_ index of level @a li. */
    size_t
    levelEnd(size_t li) const
    {
        return li + 1 < levels_.size() ? levels_[li + 1].begin
                                       : segs_.size();
    }

    /**
     * True for an approximate segment whose CRB run lacks its first or
     * last range offset: trimming it changes its range even when
     * nothing is subtracted from it.
     */
    bool
    isLoose(const SegEntry &e) const
    {
        return e.seg.approximate() &&
               !(crb_.contains(e.id, e.seg.slpa()) &&
                 crb_.contains(e.id, e.seg.endOff()));
    }

    /**
     * segs_ index of the level-@a li segment covering @a off. One must
     * exist: every caller knows the level's members hold @a off, or
     * that a segment there covers it.
     */
    size_t findCovering(size_t li, uint8_t off) const;

    /**
     * segs_ index of the first level-@a li segment whose range ends at
     * or after @a off: the start of the window of segments a range
     * beginning at @a off can overlap (a level's ends ascend with its
     * starts).
     */
    size_t firstEndingAtOrAfter(size_t li, uint8_t off) const;

    /**
     * Merge @a entry against overlapping victims of @a level_idx and
     * then insert it there, popping conflicting victims down (runtime
     * behavior of Algorithm 1).
     */
    void insertAt(size_t level_idx, const SegEntry &entry,
                  MergeScratch &scratch);

    /**
     * Compaction phase 2: move the level-@a li segment at segs_[i]
     * (members @a bits) to its sorted place in level li + 1.
     */
    void sinkSegment(size_t li, size_t i, const GroupMask &bits);

    /**
     * Shared merge step: apply Algorithm 2 to every victim of
     * @a entry (whose members are @a entry_bits) in @a level_idx. Dead
     * victims are removed. Surviving range-conflicting victims are
     * collected into scratch.conflicts (removed from the level when
     * @a detach_conflicts is set).
     */
    void mergeVictims(size_t level_idx, const SegEntry &entry,
                      const GroupMask &entry_bits, bool detach_conflicts,
                      MergeScratch &scratch);

    /**
     * Algorithm 2 on the level-@a li victim at segs_[i]: subtract
     * @a entry_bits from its members, then drop it when nothing is
     * left or trim its range (and CRB run) to what is, keeping the
     * level's summary exact. @a kept receives the survivor's members.
     * @return false when the victim was dropped (segs_[i] is now the
     *         next segment).
     */
    bool subtractFromVictim(size_t li, size_t i, const GroupMask &entry_bits,
                            GroupMask &kept);

    /**
     * Compaction phase 1 against one lower level: Algorithm 2's
     * subtraction of @a entry (members @a entry_bits) from each victim
     * of @a level_idx, with dead victims removed and survivors trimmed
     * -- mergeVictims() without the conflict collection phase 1
     * discards. Victims the subtraction provably leaves unchanged
     * (nothing shared, not loose) are skipped.
     */
    void subtractFromLevel(size_t level_idx, const SegEntry &entry,
                           const GroupMask &entry_bits);

    /** Pop a victim below @a from_level (Algorithm 1 lines 13-16). */
    void pushVictimDown(size_t from_level, const SegEntry &victim);

    /**
     * Before @a offs joins the CRB as a new run: detach the summary of
     * every older run owning one of them, recording each owner in
     * scratch.steals for reattachStolen().
     */
    void detachStolen(const std::vector<uint8_t> &offs,
                      MergeScratch &scratch);

    /**
     * After the CRB insert: re-add each recorded owner's (smaller)
     * summary, or erase the segment when deduplication emptied its run.
     */
    void reattachStolen(MergeScratch &scratch);

    /** Insert an empty level at index @a at. */
    void addLevel(size_t at);

    /** Insert @a entry with members @a bits into level @a li, sorted. */
    void insertSorted(size_t li, const SegEntry &entry, const GroupMask &bits);

    /** Remove segs_[i], whose members are @a bits, from level @a li. */
    void eraseAt(size_t li, size_t i, const GroupMask &bits);

    /** Remove segs_[i] from level @a li, leaving the summary alone. */
    void eraseSegment(size_t li, size_t i);

    void dropEmptyLevels();

    /** Incremental segment-count bookkeeping (every mutation site). */
    void
    countInsert(const SegEntry &e)
    {
        num_segs_++;
        if (e.seg.approximate())
            num_approx_++;
    }

    void
    countErase(const SegEntry &e)
    {
        num_segs_--;
        if (e.seg.approximate())
            num_approx_--;
    }

    std::vector<SegEntry> segs_; ///< Every level's segments, level-major.
    std::vector<Level> levels_;  ///< [0] is the topmost (newest).
    Crb crb_;
    uint32_t num_segs_ = 0;   ///< Live segments across all levels.
    uint32_t num_approx_ = 0; ///< Live approximate segments.
};

} // namespace leaftl
