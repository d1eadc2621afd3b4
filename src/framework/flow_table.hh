/**
 * @file
 * Open-addressing flow table with cost accounting.
 *
 * Most of the Table 1 NFs keep per-flow state; this hash table is
 * their shared substrate. It performs real linear-probing lookups
 * and reports its probe counts and byte footprint so the cost model
 * sees realistic memory behaviour (the footprint growing with flow
 * count is exactly the LLC effect §5.2 relies on).
 */

#ifndef TOMUR_FRAMEWORK_FLOW_TABLE_HH
#define TOMUR_FRAMEWORK_FLOW_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "framework/element.hh"
#include "net/headers.hh"

namespace tomur::framework {

/**
 * Linear-probing hash table keyed by FiveTuple.
 *
 * @tparam V per-flow value type (trivially copyable state structs)
 */
template <typename V>
class FlowTable
{
  public:
    /** @param name region name reported to the cost model */
    explicit FlowTable(std::string name, std::size_t initial_buckets = 64)
        : region_{std::move(name), 0.0, 1.0}
    {
        buckets_.resize(roundUpPow2(initial_buckets));
        region_.bytes = bytes();
    }

    /**
     * Find or insert an entry, recording probe costs.
     * @param inserted set true when a new entry was created
     * @return reference to the entry's value
     */
    V &
    findOrInsert(const net::FiveTuple &key, CostContext &ctx,
                 bool *inserted = nullptr)
    {
        maybeGrow();
        std::size_t probes = 0;
        std::size_t idx = probe(key, probes);
        bool is_new = !buckets_[idx].used;
        if (is_new) {
            buckets_[idx].used = true;
            buckets_[idx].key = key;
            buckets_[idx].value = V{};
            ++size_;
        }
        if (inserted)
            *inserted = is_new;
        // One read per probe plus one write when inserting/updating.
        ctx.addInstructions(cost::hashFlow +
                            cost::tableProbe * double(probes));
        ctx.addMemAccess(region(), double(probes), is_new ? 1.0 : 0.0);
        return buckets_[idx].value;
    }

    /** Lookup without insertion; nullptr when absent. */
    V *
    find(const net::FiveTuple &key, CostContext &ctx)
    {
        std::size_t probes = 0;
        std::size_t idx = probe(key, probes);
        ctx.addInstructions(cost::hashFlow +
                            cost::tableProbe * double(probes));
        ctx.addMemAccess(region(), double(probes), 0.0);
        return buckets_[idx].used ? &buckets_[idx].value : nullptr;
    }

    /** Number of live entries. */
    std::size_t size() const { return size_; }

    /** Current byte footprint (buckets incl. key + metadata). */
    double
    bytes() const
    {
        return static_cast<double>(buckets_.size() * sizeof(Bucket));
    }

    /** Memory region descriptor for cost accounting (kept current
     *  on every resize, so per-access accounting copies nothing). */
    const MemRegion &region() const { return region_; }

    /** Drop all entries and shrink back to the initial footprint. */
    void
    clear()
    {
        buckets_.assign(64, Bucket{});
        size_ = 0;
        region_.bytes = bytes();
    }

    /** Iterate live entries (test/diagnostic use). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &b : buckets_)
            if (b.used)
                fn(b.key, b.value);
    }

  private:
    struct Bucket
    {
        bool used = false;
        net::FiveTuple key;
        V value{};
    };

    static std::size_t
    roundUpPow2(std::size_t v)
    {
        std::size_t p = 1;
        while (p < v)
            p <<= 1;
        return p;
    }

    std::size_t
    probe(const net::FiveTuple &key, std::size_t &probes) const
    {
        std::size_t mask = buckets_.size() - 1;
        std::size_t idx = key.hash() & mask;
        probes = 1;
        while (buckets_[idx].used && !(buckets_[idx].key == key)) {
            idx = (idx + 1) & mask;
            ++probes;
            if (probes > buckets_.size())
                panic("FlowTable: table full");
        }
        return idx;
    }

    void
    maybeGrow()
    {
        if (size_ * 4 < buckets_.size() * 3) // load factor 0.75
            return;
        std::vector<Bucket> old = std::move(buckets_);
        buckets_.assign(old.size() * 2, Bucket{});
        size_ = 0;
        for (const auto &b : old) {
            if (!b.used)
                continue;
            std::size_t probes = 0;
            std::size_t idx = probe(b.key, probes);
            buckets_[idx] = b;
            ++size_;
        }
        region_.bytes = bytes();
    }

    MemRegion region_;
    std::vector<Bucket> buckets_;
    std::size_t size_ = 0;
};

} // namespace tomur::framework

#endif // TOMUR_FRAMEWORK_FLOW_TABLE_HH
