// Iterating an unordered container with observable writes in the
// body: hash order reaches the journal. Must be reported.
#include <unordered_map>

namespace pcon::core {

std::unordered_map<int, long> gEnergyById;

void flushAll(Journal &journal)
{
    for (const auto &entry : gEnergyById) {
        journal.record(entry.first, entry.second);
    }
}

// Aggregation only, yet still reported: the rule is body-blind.
long totalEnergy()
{
    long sum = 0;
    for (const auto &entry : gEnergyById)
        sum += entry.second;
    return sum;
}

}  // namespace pcon::core
