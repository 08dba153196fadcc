/**
 * @file
 * Conflict Resolution Buffer (CRB, §3.4, Fig. 9).
 *
 * Approximate segments are learned from irregular LPA patterns, so
 * their member LPAs cannot be recomputed from (S, L, K, I). Each group
 * keeps one CRB that stores, per approximate segment, the exact set
 * of member offsets. The paper lays the CRB out as a nearly-sorted
 * byte array with null separators and identifies a run by its first
 * LPA; this implementation keys runs by a per-group segment id instead
 * (which removes the fragile "bump the old segment's S when starting
 * LPAs collide" dance while preserving the exact same semantics).
 *
 * In memory each run is a 256-bit GroupMask: a run's offsets are
 * sorted and unique, so ascending mask order is the paper's run order,
 * deduplication and trimming are bit clears, and the merge reads a
 * victim's members without rebuilding them. A segment id is the index
 * of its run's slot, so every run access is one vector index; ids of
 * emptied or removed runs go on a free list and unusedId() hands them
 * out again, which bounds the slots by the most runs ever live at
 * once. Nothing outside the CRB observes ids (serialization and the
 * canonical dumps emit runs in segment order), so recycling them
 * changes no output. Memory is still charged the way the paper lays
 * the CRB out -- one byte per stored offset plus one separator byte
 * per run -- and serialization emits those bytes.
 *
 * Invariants mirror the paper's:
 *   - offsets inside one run are sorted and unique;
 *   - an offset appears in at most one run group-wide (newest owner
 *     wins; stale owners are pruned on insert);
 *   - empty runs disappear together with their segment.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "learned/group_mask.hh"
#include "util/common.hh"

namespace leaftl
{

/** Per-group conflict resolution buffer for approximate segments. */
class Crb
{
  public:
    using SegId = uint32_t;
    static constexpr SegId kNoSeg = 0xFFFFFFFFu;

    Crb();

    /**
     * Register the member offsets of a new approximate segment.
     * Offsets already owned by other runs are deduplicated (the new
     * segment takes ownership). Runs emptied by deduplication are
     * erased and their ids freed, in the order they lose their last
     * offset; the caller, which looked up the owners of @a offs
     * beforehand, drops the corresponding dead segments.
     *
     * @param id New segment id (must be unused; see unusedId()).
     * @param offs Sorted unique member offsets.
     */
    void insertRun(SegId id, const std::vector<uint8_t> &offs);

    /**
     * An id no live run holds: the most recently freed one, else a
     * fresh slot. Stays the same until a run is inserted or freed.
     */
    SegId
    unusedId() const
    {
        return free_.empty() ? static_cast<SegId>(slots_.size())
                             : free_.back();
    }

    /** Membership test: does segment @a id own offset @a off? */
    bool contains(SegId id, uint8_t off) const;

    /** Owner of @a off, or kNoSeg. */
    SegId owner(uint8_t off) const { return owner_[off]; }

    /**
     * Remove specific offsets from segment @a id's run (merge
     * trimming); offsets the run does not own are ignored.
     * @return true if the run became empty (and was erased).
     */
    bool removeOffsets(SegId id, const GroupMask &offs);

    /** Drop a whole run (segment removed) and free its id. */
    void removeRun(SegId id);

    /**
     * Recovery path: re-attach a run without deduplication (the
     * serialized state is already deduplicated).
     */
    void restoreRun(SegId id, const GroupMask &offs);

    /** Current member offsets of a run (empty if unknown or freed). */
    const GroupMask &
    run(SegId id) const
    {
        return id < slots_.size() ? slots_[id] : kEmptyRun;
    }

    /** First (smallest) member offset of a run; 0 if unknown. */
    uint8_t head(SegId id) const;

    /** Number of live runs. */
    size_t numRuns() const { return live_runs_; }

    /**
     * Memory footprint in bytes using the paper's accounting: one byte
     * per offset plus a one-byte separator per run. Maintained
     * incrementally, so this is an O(1) read on the learn hot path
     * and in every reporter tick.
     */
    size_t sizeBytes() const { return stored_offs_ + live_runs_; }

    /**
     * Verify the incremental accounting against a full walk: the run
     * masks' popcounts sum to the stored-offset count, the owner index
     * names exactly the runs' members, the live count matches, and the
     * free list holds only empty slots (tests).
     */
    void checkAccounting() const;

  private:
    static const GroupMask kEmptyRun;

    /** Take @a id for a new run: grow the slots or unlist a freed id. */
    void claim(SegId id);

    /** Empty @a id's slot and put the id on the free list. */
    void release(SegId id);

    /**
     * Run of segment id i at slots_[i]; empty slots are unused ids.
     * Live runs are never empty, so an empty mask marks a free slot.
     */
    std::vector<GroupMask> slots_;
    /** Freed ids, reused last-in first-out by unusedId(). */
    std::vector<SegId> free_;
    /** Non-empty slots (incremental numRuns/sizeBytes). */
    size_t live_runs_ = 0;
    /** Reverse index: offset -> owning approximate segment. */
    SegId owner_[kGroupSpan];
    /** Total offsets across all runs (incremental sizeBytes). */
    size_t stored_offs_ = 0;
};

} // namespace leaftl
