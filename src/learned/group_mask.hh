/**
 * @file
 * Fixed 256-bit offset set for one learned-index group.
 *
 * A group spans exactly kGroupSpan = 256 LPAs (§3.4), so every member
 * set the merge (Algorithm 2) and the CRB handle fits in four 64-bit
 * words. Set algebra is word-wise, iteration walks set bits with
 * countr_zero, and an accurate segment's stride grid is built from a
 * periodic per-stride word pattern instead of one bit per LPA.
 */

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>

#include "util/common.hh"

namespace leaftl
{

/** A set of group offsets [0, 255], stored as four 64-bit words. */
class GroupMask
{
  public:
    static constexpr uint32_t kWords = 4;
    static_assert(kWords * 64 == kGroupSpan, "a group is 256 offsets");

    GroupMask() = default;

    /** Set holding exactly @a offs (tests, literals). */
    GroupMask(std::initializer_list<uint8_t> offs)
    {
        for (uint8_t off : offs)
            set(off);
    }

    /** Every offset in [lo, hi] (inclusive; lo <= hi). */
    static GroupMask
    range(uint8_t lo, uint8_t hi)
    {
        GroupMask m;
        for (uint32_t w = 0; w < kWords; w++)
            m.w_[w] = wordRange(w, lo, hi);
        return m;
    }

    /**
     * The stride grid {lo, lo + d, lo + 2d, ...} clipped to [lo, hi]:
     * an accurate segment's members. Strides below 64 shift a
     * periodic one-word pattern into phase per word; wider strides
     * hold at most four members and are stepped.
     */
    static GroupMask
    strided(uint8_t lo, uint8_t hi, uint32_t d)
    {
        if (d <= 1)
            return range(lo, hi);
        GroupMask m;
        if (d >= 64) {
            for (uint32_t off = lo; off <= hi; off += d)
                m.set(static_cast<uint8_t>(off));
            return m;
        }
        const uint64_t pattern = kStridePatterns[d];
        for (uint32_t w = lo / 64; w <= hi / 64u; w++) {
            // First offset >= 64w on the grid, as a bit index in word w.
            const uint32_t base = 64 * w;
            const uint32_t phase =
                base <= lo ? lo - base : (d - (base - lo) % d) % d;
            m.w_[w] = (pattern << phase) & wordRange(w, lo, hi);
        }
        return m;
    }

    void set(uint8_t off) { w_[off >> 6] |= bit(off); }
    void clear(uint8_t off) { w_[off >> 6] &= ~bit(off); }
    bool test(uint8_t off) const { return (w_[off >> 6] & bit(off)) != 0; }

    bool
    none() const
    {
        return (w_[0] | w_[1] | w_[2] | w_[3]) == 0;
    }

    uint32_t
    count() const
    {
        uint32_t n = 0;
        for (uint64_t word : w_)
            n += static_cast<uint32_t>(std::popcount(word));
        return n;
    }

    /** Smallest member; the set must be non-empty. */
    uint8_t
    first() const
    {
        for (uint32_t w = 0; w < kWords; w++) {
            if (w_[w])
                return static_cast<uint8_t>(64 * w + std::countr_zero(w_[w]));
        }
        LEAFTL_ASSERT(false, "first() of an empty GroupMask");
        return 0;
    }

    /** Largest member; the set must be non-empty. */
    uint8_t
    last() const
    {
        for (uint32_t w = kWords; w-- > 0;) {
            if (w_[w])
                return static_cast<uint8_t>(64 * w + 63 -
                                            std::countl_zero(w_[w]));
        }
        LEAFTL_ASSERT(false, "last() of an empty GroupMask");
        return 0;
    }

    /** Visit every member in ascending order: fn(uint8_t off). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (uint32_t w = 0; w < kWords; w++) {
            for (uint64_t word = w_[w]; word; word &= word - 1)
                fn(static_cast<uint8_t>(64 * w + std::countr_zero(word)));
        }
    }

    GroupMask
    operator&(const GroupMask &o) const
    {
        GroupMask m;
        for (uint32_t w = 0; w < kWords; w++)
            m.w_[w] = w_[w] & o.w_[w];
        return m;
    }

    bool operator==(const GroupMask &o) const = default;

    /** In-place union. */
    GroupMask &
    operator|=(const GroupMask &o)
    {
        for (uint32_t w = 0; w < kWords; w++)
            w_[w] |= o.w_[w];
        return *this;
    }

    /** In-place this &= ~other (Algorithm 2's subtraction). */
    void
    subtract(const GroupMask &o)
    {
        for (uint32_t w = 0; w < kWords; w++)
            w_[w] &= ~o.w_[w];
    }

  private:
    static constexpr uint64_t bit(uint8_t off) { return 1ull << (off & 63); }

    /** Bits of word @a w that fall inside [lo, hi]. */
    static constexpr uint64_t
    wordRange(uint32_t w, uint8_t lo, uint8_t hi)
    {
        const uint32_t base = 64 * w;
        if (hi < base || lo > base + 63)
            return 0;
        const uint32_t from = lo > base ? lo - base : 0;
        const uint32_t to = hi < base + 63 ? hi - base : 63;
        const uint64_t upto = to == 63 ? ~0ull : (1ull << (to + 1)) - 1;
        return upto & ~((1ull << from) - 1);
    }

    /** kStridePatterns[d]: bits 0, d, 2d, ... of one word (d < 64). */
    static constexpr std::array<uint64_t, 64> kStridePatterns = [] {
        std::array<uint64_t, 64> p{};
        for (uint32_t d = 1; d < 64; d++) {
            for (uint32_t b = 0; b < 64; b += d)
                p[d] |= 1ull << b;
        }
        return p;
    }();

    uint64_t w_[kWords] = {};
};

} // namespace leaftl
