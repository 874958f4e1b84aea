// The harness's own clock: sanctioned by a justified allow marker,
// not by a file exemption, so it must scan quiet under --strict.
#include <chrono>

namespace pcon::bench {

double nowSeconds()
{
    // pcon-lint: allow(wall-clock) the harness is the one timer
    auto now = std::chrono::steady_clock::now();
    return static_cast<double>(now.time_since_epoch().count());
}

}  // namespace pcon::bench
