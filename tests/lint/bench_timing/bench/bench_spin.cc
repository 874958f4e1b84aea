// A benchmark driver timing itself instead of going through the
// pcon_bench harness: each raw clock read must be reported by
// wall-clock, whose scope covers bench/.
#include <chrono>
#include <cstdint>
#include <ctime>

namespace pcon::bench {

double spinSeconds()
{
    auto t0 = std::chrono::steady_clock::now();
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    std::uint64_t c = __rdtsc();
    double runtime = simulated_time(c);
    return runtime + static_cast<double>(ts.tv_sec) +
           static_cast<double>(t0.time_since_epoch().count());
}

}  // namespace pcon::bench
