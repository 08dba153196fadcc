#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/common.hh"

namespace leaftl
{

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    sum_ += x;
    count_++;
}

SampleSet::SampleSet(size_t cap)
    : cap_(cap ? cap : 1), rng_state_(0x9E3779B97F4A7C15ull)
{
}

void
SampleSet::add(double x)
{
    count_++;
    sum_ += x;
    max_ = count_ == 1 ? x : std::max(max_, x);
    if (samples_.size() < cap_) {
        samples_.push_back(x);
        sorted_ = false;
        return;
    }
    // Algorithm R: keep each of the count_ samples with equal
    // probability. splitmix64 keeps replacement deterministic.
    uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const uint64_t j = z % count_;
    if (j < cap_) {
        samples_[j] = x;
        sorted_ = false;
    }
}

double
SampleSet::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = (p / 100.0) * (samples_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - lo;
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

CountHistogram::CountHistogram(uint32_t max_value)
    : buckets_(static_cast<size_t>(max_value) + 1, 0)
{
    LEAFTL_ASSERT(max_value > 0, "invalid count histogram bound");
}

uint64_t
CountHistogram::valueAt(uint64_t k) const
{
    uint64_t cum = 0;
    for (size_t v = 0; v < buckets_.size(); v++) {
        cum += buckets_[v];
        if (cum > k)
            return v;
    }
    return buckets_.size() - 1;
}

double
CountHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    const double rank = (p / 100.0) * static_cast<double>(total_ - 1);
    const uint64_t lo = static_cast<uint64_t>(rank);
    const uint64_t hi = std::min<uint64_t>(lo + 1, total_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(valueAt(lo)) * (1.0 - frac) +
           static_cast<double>(valueAt(hi)) * frac;
}

LatencyHistogram::LatencyHistogram(double min_value, double growth,
                                   int num_buckets)
    : min_value_(min_value),
      log_growth_(std::log(growth)),
      buckets_(num_buckets, 0)
{
    LEAFTL_ASSERT(min_value > 0 && growth > 1.0 && num_buckets > 1,
                  "invalid histogram parameters");
}

double
LatencyHistogram::bucketLow(int i) const
{
    return min_value_ * std::exp(log_growth_ * i);
}

void
LatencyHistogram::add(double x)
{
    total_++;
    sum_ += x;
    max_ = std::max(max_, x);
    int idx = 0;
    if (x > min_value_)
        idx = static_cast<int>(std::log(x / min_value_) / log_growth_) + 1;
    idx = std::clamp(idx, 0, static_cast<int>(buckets_.size()) - 1);
    buckets_[idx]++;
}

double
LatencyHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    const double target = (p / 100.0) * total_;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets_.size(); i++) {
        cum += buckets_[i];
        if (cum >= target)
            return bucketLow(static_cast<int>(i));
    }
    return max_;
}

std::vector<std::pair<double, double>>
LatencyHistogram::cdf() const
{
    std::vector<std::pair<double, double>> out;
    if (total_ == 0)
        return out;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets_.size(); i++) {
        if (buckets_[i] == 0)
            continue;
        cum += buckets_[i];
        out.emplace_back(bucketLow(static_cast<int>(i)),
                         static_cast<double>(cum) / total_);
    }
    return out;
}

} // namespace leaftl
