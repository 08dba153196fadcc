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
 * most of those pairs provably change nothing: an approximate victim
 * under an approximate entry is skipped outright when its CRB run
 * still holds both ends of its range. The skip is exact -- the CRB
 * has one owner per offset, so two approximate segments share no
 * member and nothing is stolen; the run stays non-empty, so the
 * victim survives; and a run holding S and S+L trims the range to
 * itself. A victim whose end offset was stolen by a newer run's CRB
 * deduplication is loose and still goes through the trim.
 *
 * Hot-path design: the merge machinery works out of a caller-provided
 * MergeScratch (victim vectors reused across learns, so the
 * steady-state learn path performs no heap allocation), segment /
 * approximate counts are maintained incrementally (numSegments(),
 * numApproximate() and memoryBytes() are O(1) reads), and segment
 * visitation is a template so reporting loops pay no std::function
 * indirection.
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
    std::vector<SegEntry> conflicts;  ///< Range-conflicting survivors.
    std::vector<Crb::SegId> emptied;  ///< Runs emptied by CRB dedup.
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
     * it; the pointer is valid until the next mutation of this group.
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
            for (const SegEntry &e : levels_[li].segs)
                fn(e, li);
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
    struct Level
    {
        std::vector<SegEntry> segs; ///< Sorted by S, non-overlapping.
    };

    /**
     * Merge @a entry against overlapping victims of @a level_idx and
     * then insert it there, popping conflicting victims down (runtime
     * behavior of Algorithm 1).
     */
    void insertAt(size_t level_idx, const SegEntry &entry,
                  MergeScratch &scratch);

    /**
     * Compaction variant: merge victims, but only move @a entry into
     * the level when no range conflict survives.
     * @return true when the entry was inserted.
     */
    bool tryInsertAt(size_t level_idx, const SegEntry &entry,
                     MergeScratch &scratch);

    /**
     * Shared merge step: apply Algorithm 2 to every victim of
     * @a entry in @a level_idx. Dead victims are removed. Surviving
     * range-conflicting victims are collected into scratch.conflicts
     * (removed from the level when @a detach_conflicts is set).
     */
    void mergeVictims(size_t level_idx, const SegEntry &entry,
                      bool detach_conflicts, MergeScratch &scratch);

    /**
     * Algorithm 2 on the victim at @a segs[i]: subtract
     * @a entry_bits from its members, then drop it when nothing is
     * left or trim its range (and CRB run) to what is.
     * @return false when the victim was dropped (segs[i] is now the
     *         next segment).
     */
    bool subtractFromVictim(std::vector<SegEntry> &segs, size_t i,
                            const GroupMask &entry_bits);

    /**
     * Compaction phase 1 against one lower level: Algorithm 2's
     * subtraction of @a entry from each victim of @a level_idx, with
     * dead victims removed and survivors trimmed -- mergeVictims()
     * without the conflict collection phase 1 discards. Victims the
     * subtraction provably leaves unchanged are skipped without
     * building a mask; @a entry_bits caches the entry's mask across
     * levels (built on the first victim that needs it).
     */
    void subtractFromLevel(size_t level_idx, const SegEntry &entry,
                           std::optional<GroupMask> &entry_bits);

    /** Pop a victim below @a from_level (Algorithm 1 lines 13-16). */
    void pushVictimDown(size_t from_level, const SegEntry &victim);

    /** Remove a (dead) segment wherever it lives. */
    void removeSegmentById(Crb::SegId id);

    void insertSorted(Level &level, const SegEntry &entry);
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

    std::vector<Level> levels_; ///< [0] is the topmost (newest).
    Crb crb_;
    uint32_t num_segs_ = 0;   ///< Live segments across all levels.
    uint32_t num_approx_ = 0; ///< Live approximate segments.
};

} // namespace leaftl
