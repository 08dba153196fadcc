/**
 * @file
 * Compact dynamic bitmap backing the page validity table (PVT). The
 * learned merge (Algorithm 2) runs on fixed 256-bit GroupMasks
 * instead; only its verbatim pre-mask reference
 * (bench/learned_reference.hh) still rebuilds segments into Bitmaps.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace leaftl
{

/** Fixed-size bitmap with popcount and first/last-set queries. */
class Bitmap
{
  public:
    Bitmap() = default;
    explicit Bitmap(uint32_t num_bits);

    void resize(uint32_t num_bits);

    void set(uint32_t i);
    void clear(uint32_t i);
    bool test(uint32_t i) const;

    uint32_t size() const { return num_bits_; }
    uint32_t popcount() const;

    /** Index of the first set bit, or size() if none. */
    uint32_t firstSet() const;
    /** Index of the last set bit, or size() if none. */
    uint32_t lastSet() const;
    bool none() const { return popcount() == 0; }

    /** In-place this &= ~other (subtract overlap, Algorithm 2 line 19). */
    void subtract(const Bitmap &other);

  private:
    uint32_t num_bits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace leaftl
