/**
 * @file
 * Annotated synchronization primitives: the only place in src/ that
 * may name a raw `std::mutex`, `std::shared_mutex`, `std::atomic`, or
 * `std::thread` (enforced by the pcon-lint `concurrency-primitives`
 * rule). Everything here is a zero-cost wrapper that carries Clang's
 * thread-safety attributes, so a Clang build with `-Wthread-safety`
 * (enabled as -Werror for Clang in the top-level CMakeLists) proves
 * at compile time that every access to a `PCON_GUARDED_BY` member
 * happens under its lock. GCC compiles the same code with the
 * attributes expanded to nothing.
 *
 * This layer exists because worlds may run on separate threads in
 * the parallel sweeps of ROADMAP item 3: components that may be
 * reached from more than one thread — the telemetry registry, the
 * logging singletons, the span collector, the fault-injector tallies,
 * the event-queue insertion surface — take their locks through these
 * wrappers and annotate the state they guard, making thread-safety
 * checkable at compile time. See docs/STATIC_ANALYSIS.md
 * ("Concurrency readiness") and DESIGN.md ("Shard-safety contract").
 */

#ifndef PCON_UTIL_SYNC_H
#define PCON_UTIL_SYNC_H

#include <atomic>
#include <mutex>
#include <shared_mutex>

// --- Clang thread-safety attribute macros ---------------------------
//
// Modeled on Clang's reference mutex.h (and abseil's
// thread_annotations.h): each macro expands to the matching
// __attribute__ under Clang and to nothing elsewhere.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PCON_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PCON_THREAD_ANNOTATION
#define PCON_THREAD_ANNOTATION(x)
#endif

/** Marks a type as a lockable capability (e.g. "mutex"). */
#define PCON_CAPABILITY(x) PCON_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define PCON_SCOPED_CAPABILITY PCON_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while holding the given lock. */
#define PCON_GUARDED_BY(x) PCON_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose pointee is protected by the given lock. */
#define PCON_PT_GUARDED_BY(x) PCON_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function acquires the capability exclusively and does not release it. */
#define PCON_ACQUIRE(...) \
    PCON_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function acquires the capability shared and does not release it. */
#define PCON_ACQUIRE_SHARED(...) \
    PCON_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/** Function releases the (exclusive or scoped) capability. */
#define PCON_RELEASE(...) \
    PCON_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function releases the shared capability. */
#define PCON_RELEASE_SHARED(...) \
    PCON_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/** Caller must hold the capability exclusively. */
#define PCON_REQUIRES(...) \
    PCON_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must hold the capability at least shared. */
#define PCON_REQUIRES_SHARED(...) \
    PCON_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Caller must NOT hold the capability (non-reentrant entry point). */
#define PCON_EXCLUDES(...) \
    PCON_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define PCON_RETURN_CAPABILITY(x) \
    PCON_THREAD_ANNOTATION(lock_returned(x))

/** Opt a function out of the analysis (justify in a comment). */
#define PCON_NO_THREAD_SAFETY_ANALYSIS \
    PCON_THREAD_ANNOTATION(no_thread_safety_analysis)

// --- Shard-ownership tag macros -------------------------------------
//
// Read by the pcon-lint shard-isolation analysis (cpp_model.py), not
// by the compiler: each expands to nothing and sits between the
// class keyword and the name, classifying the type for the
// shard-escape rule. The comment form `// pcon-lint: shard-owned`
// (on the class head or the line above) is equivalent; the bulk of
// the tree is classified in tools/pcon_lint/ownership.toml instead.
// A tag that contradicts the manifest is itself a lint finding.

/** Lives inside exactly one simulated machine's shard. */
#define PCON_SHARD_OWNED

/** Crosses shards through a synchronized, sanctioned surface. */
#define PCON_CROSS_SHARD

/** Harness/observability state outside the simulated world. */
#define PCON_HOST_GLOBAL

/** Passive copyable data with no shard affinity. */
#define PCON_VALUE_TYPE

namespace pcon {
namespace util {

/**
 * An annotated exclusive mutex. Prefer LockGuard over manual
 * lock()/unlock() pairs; the manual form exists for the rare
 * split-scope acquire.
 */
class PCON_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() PCON_ACQUIRE() { m_.lock(); }
    void unlock() PCON_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/**
 * An annotated test-and-set spinlock for very short, almost always
 * uncontended critical sections on hot paths (the event queue's
 * per-operation lock). An uncontended acquire/release pair is a
 * single exchange plus a store — several times cheaper than the
 * futex round trip of std::mutex — and the acquire/release atomics
 * are fully visible to TSan. Do NOT use it around anything that can
 * block or take more than a few hundred nanoseconds: waiters burn
 * CPU instead of sleeping.
 */
class PCON_CAPABILITY("mutex") SpinLock
{
  public:
    SpinLock() = default;
    SpinLock(const SpinLock &) = delete;
    SpinLock &operator=(const SpinLock &) = delete;

    void
    lock() PCON_ACQUIRE()
    {
        while (locked_.exchange(true, std::memory_order_acquire)) {
            // Spin on a plain load so contending cores fight over a
            // shared cache line only when it might be free.
            while (locked_.load(std::memory_order_relaxed)) {
            }
        }
    }

    void
    unlock() PCON_RELEASE()
    {
        locked_.store(false, std::memory_order_release);
    }

  private:
    std::atomic<bool> locked_{false};
};

/** RAII lock over a util::SpinLock. */
class PCON_SCOPED_CAPABILITY SpinGuard
{
  public:
    explicit SpinGuard(SpinLock &m) PCON_ACQUIRE(m) : m_(m)
    {
        m_.lock();
    }
    ~SpinGuard() PCON_RELEASE() { m_.unlock(); }

    SpinGuard(const SpinGuard &) = delete;
    SpinGuard &operator=(const SpinGuard &) = delete;

  private:
    SpinLock &m_;
};

/**
 * An annotated reader/writer mutex for read-mostly shared state
 * (lockShared for concurrent readers, lock for exclusive writers).
 */
class PCON_CAPABILITY("shared_mutex") SharedMutex
{
  public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex &) = delete;
    SharedMutex &operator=(const SharedMutex &) = delete;

    void lock() PCON_ACQUIRE() { m_.lock(); }
    void unlock() PCON_RELEASE() { m_.unlock(); }
    void lockShared() PCON_ACQUIRE_SHARED() { m_.lock_shared(); }
    void unlockShared() PCON_RELEASE_SHARED() { m_.unlock_shared(); }

  private:
    std::shared_mutex m_;
};

/** RAII exclusive lock over a util::Mutex. */
class PCON_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &m) PCON_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~LockGuard() PCON_RELEASE() { m_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &m_;
};

/** RAII exclusive lock over a util::SharedMutex. */
class PCON_SCOPED_CAPABILITY WriteLockGuard
{
  public:
    explicit WriteLockGuard(SharedMutex &m) PCON_ACQUIRE(m) : m_(m)
    {
        m_.lock();
    }
    ~WriteLockGuard() PCON_RELEASE() { m_.unlock(); }

    WriteLockGuard(const WriteLockGuard &) = delete;
    WriteLockGuard &operator=(const WriteLockGuard &) = delete;

  private:
    SharedMutex &m_;
};

/** RAII shared (reader) lock over a util::SharedMutex. */
class PCON_SCOPED_CAPABILITY ReadLockGuard
{
  public:
    explicit ReadLockGuard(SharedMutex &m) PCON_ACQUIRE_SHARED(m)
        : m_(m)
    {
        m_.lockShared();
    }
    ~ReadLockGuard() PCON_RELEASE() { m_.unlockShared(); }

    ReadLockGuard(const ReadLockGuard &) = delete;
    ReadLockGuard &operator=(const ReadLockGuard &) = delete;

  private:
    SharedMutex &m_;
};

/**
 * A lock-free cell for single-word tallies that several shards bump
 * concurrently (telemetry counters, gauges). Loads and stores use
 * relaxed ordering: the cells carry statistics, not synchronization —
 * anything needing happens-before takes a Mutex instead.
 *
 * Copy construction/assignment read-then-write the value and are NOT
 * atomic as a whole; they exist so instrument structs stay movable at
 * registration time, before the cell is shared.
 */
template <typename T>
class Atomic
{
  public:
    constexpr Atomic() noexcept : v_(T{}) {}
    constexpr Atomic(T v) noexcept : v_(v) {}
    Atomic(const Atomic &other) noexcept : v_(other.load()) {}

    Atomic &
    operator=(const Atomic &other) noexcept
    {
        store(other.load());
        return *this;
    }

    T load() const noexcept { return v_.load(std::memory_order_relaxed); }
    void store(T v) noexcept { v_.store(v, std::memory_order_relaxed); }

    /** Add a delta; supported for integral and floating T (C++20). */
    T
    fetchAdd(T delta) noexcept
    {
        return v_.fetch_add(delta, std::memory_order_relaxed);
    }

  private:
    std::atomic<T> v_;
};

} // namespace util
} // namespace pcon

#endif // PCON_UTIL_SYNC_H
