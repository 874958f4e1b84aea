/**
 * @file
 * The telemetry metrics registry: named counters, gauges, and
 * fixed-bucket histograms with O(1) hot-path updates and
 * deterministic (name-sorted) iteration order.
 *
 * Instruments are registered once by name (registration is O(log n);
 * keep the returned reference for the hot path, where every update is
 * O(1) in the number of instruments) and live as long as the
 * registry. Metric names are stable keys for downstream dashboards
 * and must match `[a-z0-9_.]+`; dots form the conventional hierarchy
 * (`kernel.context_switches`, `overhead.refit_cycles`).
 *
 * Thread safety (worlds may run on separate threads in the parallel
 * sweeps of ROADMAP item 3): the registry may be shared by several.
 * Counter and Gauge updates are relaxed atomics (tallies, not
 * synchronization); Histogram updates and all registration/iteration
 * take annotated util::Mutex locks, so a Clang -Wthread-safety build
 * proves the guarded state is only touched under its lock.
 */

#ifndef PCON_TELEMETRY_REGISTRY_H
#define PCON_TELEMETRY_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"

namespace pcon {
namespace telemetry {

/** What kind of instrument a registry entry is. */
enum class InstrumentKind {
    Counter,
    Gauge,
    Histogram,
};

/** Human-readable kind name ("counter", "gauge", "histogram"). */
const char *instrumentKindName(InstrumentKind kind);

/**
 * A monotonically increasing event count. Safe to add() from any
 * shard concurrently: one relaxed util::Atomic, so concurrent writers
 * never lose an update and value() never tears (see
 * docs/PERFORMANCE.md). Every world writes its own counters from one
 * thread, so the cell is uncontended in practice. value() includes
 * every add() that happens-before the read and may include any subset
 * of concurrent add()s; successive reads from one reader are
 * non-decreasing.
 */
class Counter
{
  public:
    /** Add `n` events (hot path; O(1), lock-free). */
    void add(std::uint64_t n = 1) { value_.fetchAdd(n); }

    /** Current cumulative count. */
    std::uint64_t value() const { return value_.load(); }

  private:
    util::Atomic<std::uint64_t> value_{0};
};

/** A point-in-time value that can move both ways. Safe to set()/add()
 * from any shard concurrently (relaxed atomic). */
class Gauge
{
  public:
    /** Replace the value (hot path; O(1), lock-free). */
    void set(double v) { value_.store(v); }

    /** Adjust the value by a (possibly negative) delta. */
    void add(double delta) { value_.fetchAdd(delta); }

    /** Current value. */
    double value() const { return value_.load(); }

  private:
    util::Atomic<double> value_{0.0};
};

/**
 * A fixed-bucket histogram. Bucket upper bounds are set at
 * registration and never change; observations above the last bound
 * land in an implicit overflow bucket. Updates cost one binary search
 * over the (small, fixed) bound set — constant for a given
 * configuration.
 *
 * observe() mutates several fields together (bucket, count, sum,
 * min/max), so unlike Counter/Gauge it serializes on an internal
 * mutex rather than going atomic field-by-field.
 */
class Histogram
{
  public:
    /**
     * @param upper_bounds Inclusive bucket upper bounds, strictly
     *        ascending, at least one. Bucket i counts observations v
     *        with bounds[i-1] < v <= bounds[i].
     */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Record one observation. */
    void observe(double v);

    /** Number of observations. */
    std::uint64_t count() const;

    /** Sum of all observations. */
    double sum() const;

    /** Mean observation (0 before any observation). */
    double mean() const;

    /** Smallest observation (0 before any observation). */
    double min() const;

    /** Largest observation (0 before any observation). */
    double max() const;

    /**
     * Estimated q-quantile (q in [0, 1]): linear interpolation within
     * the bucket containing the target rank, clamped to the observed
     * min/max. 0 before any observation.
     */
    double quantile(double q) const;

    /** The registered bucket upper bounds (immutable after ctor). */
    const std::vector<double> &upperBounds() const { return bounds_; }

    /**
     * Per-bucket counts; one extra trailing overflow bucket. The
     * reference stays valid for the histogram's lifetime, but reading
     * it concurrently with observe() is a race — exports run when the
     * shards are quiescent.
     */
    const std::vector<std::uint64_t> &bucketCounts() const;

  private:
    double quantileLocked(double q) const PCON_REQUIRES(mu_);

    /** Immutable after construction; needs no guard. */
    // pcon-lint: shard-local(set in the ctor, read-only afterwards)
    std::vector<double> bounds_;

    mutable util::Mutex mu_;
    std::vector<std::uint64_t> counts_ PCON_GUARDED_BY(mu_);
    std::uint64_t count_ PCON_GUARDED_BY(mu_) = 0;
    double sum_ PCON_GUARDED_BY(mu_) = 0;
    double min_ PCON_GUARDED_BY(mu_) = 0;
    double max_ PCON_GUARDED_BY(mu_) = 0;
};

/**
 * Owns all instruments. References returned by counter()/gauge()/
 * histogram() stay valid for the registry's lifetime. Re-registering
 * an existing name with the same kind (and, for histograms, the same
 * bounds) returns the existing instrument; a kind or bound mismatch
 * is a caller error (util::fatal).
 */
class Registry
{
  public:
    /** One registry entry, for iteration/export. */
    struct Entry
    {
        std::string name;
        InstrumentKind kind = InstrumentKind::Counter;
        const Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const Histogram *histogram = nullptr;
    };

    /** Register (or look up) a counter. */
    Counter &counter(const std::string &name);

    /** Register (or look up) a gauge. */
    Gauge &gauge(const std::string &name);

    /** Register (or look up) a histogram with these bucket bounds. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> upper_bounds);

    /** True when an instrument of any kind is registered. */
    bool has(const std::string &name) const;

    /** Kind of a registered instrument; fatal on unknown name. */
    InstrumentKind kindOf(const std::string &name) const;

    /** All entries in deterministic, name-sorted order. */
    std::vector<Entry> entries() const;

    /** Number of registered instruments. */
    std::size_t size() const;

    /** True when `name` matches the metric grammar [a-z0-9_.]+. */
    static bool validName(const std::string &name);

    /**
     * Register a collector: a callback run by collect() (and thus by
     * each Sampler snapshot) to refresh pull-style instruments from
     * the objects they observe.
     */
    void addCollector(std::function<void()> fn);

    /**
     * Run all collectors in registration order. The callbacks run
     * outside the registry lock (they update instruments through
     * their own thread-safe surfaces, and may even register new
     * ones), so collect() cannot self-deadlock.
     */
    void collect();

  private:
    struct Instrument
    {
        InstrumentKind kind;
        Counter counter;
        Gauge gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument &findOrCreate(const std::string &name,
                             InstrumentKind kind) PCON_REQUIRES(mu_);

    mutable util::Mutex mu_;
    /** std::map: deterministic order and stable node addresses. */
    std::map<std::string, Instrument> instruments_ PCON_GUARDED_BY(mu_);
    std::vector<std::function<void()>> collectors_ PCON_GUARDED_BY(mu_);
};

} // namespace telemetry
} // namespace pcon

#endif // PCON_TELEMETRY_REGISTRY_H
