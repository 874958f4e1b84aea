/**
 * @file
 * Measurement-alignment micro-benchmarks (BENCH_alignment.json): the
 * cross-correlation delay scans behind the Section 3.4 alignment
 * story, over the 1024-sample window the online recalibrator uses.
 * Covers the dense scan, the gap-tolerant sparse scan (10% dropped
 * samples), and the mixed-period resampled scan that matches a 1 s
 * Wattsup series against 1 ms model estimates. The refit that the
 * aligned samples feed is timed too: one non-negative least-squares
 * solve at the recalibrator's steady-state shape on SandyBridge.
 */

#include <vector>

#include "core/alignment.h"
#include "core/recalibration.h"
#include "hw/config.h"
#include "linalg/least_squares.h"
#include "pcon_bench.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "workloads/microbench.h"

namespace {

using namespace pcon;

} // namespace

int
main()
{
    bench::Suite suite("alignment");

    sim::Rng rng(78);
    std::vector<double> measurement;
    std::vector<double> model;
    std::vector<bool> valid;
    for (int i = 0; i < 1024; ++i) {
        measurement.push_back(rng.uniform(20.0, 60.0));
        model.push_back(rng.uniform(20.0, 60.0));
        valid.push_back(i % 10 != 3);
    }

    suite.add("alignment.dense_scan_1024x64", 200,
              [&](std::uint64_t iters) {
                  long best = 0;
                  for (std::uint64_t i = 0; i < iters; ++i) {
                      core::AlignmentScan scan = core::scanAlignment(
                          measurement, model, sim::msec(1), 0, 64,
                          true);
                      best += scan.bestDelaySamples;
                  }
                  volatile long sink = best;
                  (void)sink;
              });

    suite.add("alignment.sparse_scan_1024x64", 200,
              [&](std::uint64_t iters) {
                  long best = 0;
                  for (std::uint64_t i = 0; i < iters; ++i) {
                      core::AlignmentScan scan =
                          core::scanAlignmentSparse(
                              measurement, valid, model,
                              sim::msec(1), 0, 64, true);
                      best += scan.bestDelaySamples;
                  }
                  volatile long sink = best;
                  (void)sink;
              });

    {
        // 64 coarse 1 s samples against 64000 fine 1 ms estimates,
        // delays scanned over one coarse period.
        sim::Rng fine_rng(79);
        std::vector<double> coarse;
        std::vector<double> fine;
        for (int i = 0; i < 64; ++i)
            coarse.push_back(fine_rng.uniform(20.0, 60.0));
        for (int i = 0; i < 64000; ++i)
            fine.push_back(fine_rng.uniform(20.0, 60.0));
        suite.add("alignment.resampled_scan_64x1000", 5,
                  [&](std::uint64_t iters) {
                      long best = 0;
                      for (std::uint64_t i = 0; i < iters; ++i) {
                          core::AlignmentScan scan =
                              core::scanAlignmentResampled(
                                  coarse, sim::sec(1), sim::sec(1),
                                  fine, sim::msec(1), sim::msec(1),
                                  0, sim::sec(1));
                          best += scan.bestDelaySamples;
                      }
                      volatile long sink = best;
                      (void)sink;
                  });
    }

    {
        // One OnlineRecalibrator::refitNow solve at the SandyBridge
        // Approach 3 steady state: the offline calibration rows, then
        // a full ring of aligned online rows (jittered copies of the
        // offline ones), one column per metric the model uses.
        core::Calibrator calibrator =
            wl::calibrateMachine(hw::sandyBridgeConfig());
        core::LinearPowerModel model =
            calibrator.fit(core::ModelKind::WithChipShare);
        std::vector<core::CalibrationSample> offline =
            wl::toActiveSamples(calibrator, model.idleW());
        std::vector<core::Metric> cols;
        for (std::size_t i = 0; i < core::NumMetrics; ++i)
            if (model.usesMetric(static_cast<core::Metric>(i)))
                cols.push_back(static_cast<core::Metric>(i));
        std::size_t rows = offline.size() +
            core::RecalibratorConfig{}.maxOnlineSamples;
        linalg::Matrix design(rows, cols.size());
        linalg::Vector target(rows);
        sim::Rng refit_rng(80);
        for (std::size_t r = 0; r < rows; ++r) {
            const core::CalibrationSample &s = offline[r % offline.size()];
            bool online = r >= offline.size();
            double jitter = online ? refit_rng.uniform(0.8, 1.2) : 1.0;
            for (std::size_t c = 0; c < cols.size(); ++c)
                design(r, c) = s.metrics.get(cols[c]) * jitter;
            target[r] = s.measuredFullW * jitter +
                (online ? refit_rng.normal(0.0, 0.5) : 0.0);
        }
        suite.add("recalibration.refit_nnls_steady_state", 200,
                  [&design, &target](std::uint64_t iters) {
                      double sum = 0.0;
                      for (std::uint64_t i = 0; i < iters; ++i)
                          sum += linalg::solveNonNegativeLeastSquares(
                                     design, target)
                                     .rmse;
                      volatile double sink = sum;
                      (void)sink;
                  });
        suite.aux("rows", static_cast<double>(rows));
        suite.aux("cols", static_cast<double>(cols.size()));
    }

    suite.writeJson();
    return 0;
}
