/**
 * @file
 * Differential test of the least-squares kernel. The oracle below is
 * the row-major Householder QR, back substitution, ridge fallback and
 * clamped NNLS as first written, kept verbatim; the production kernel
 * runs the same floating-point operations in the same order on a
 * column-major working copy, so every coefficient and RMSE must match
 * bit for bit over seeded designs shaped like the online refit's:
 * offline rows plus sqrt(w)-scaled online rows, rank-deficient
 * designs that take the ridge fallback, and designs whose
 * unconstrained fit has negative coefficients for NNLS to clamp.
 */

#include <bit>
#include <cmath>
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/least_squares.h"
#include "sim/rng.h"
#include "util/logging.h"

namespace pcon::linalg {
namespace {

namespace oracle {

using util::fatalIf;
using util::panicIf;

// The oracle's own entry points are called qualified below: unqualified
// calls would also find the production overloads by argument lookup.
LsqResult solveLeastSquares(const Matrix &a, const Vector &b);
LsqResult solveRidge(const Matrix &a, const Vector &b, double lambda);


/**
 * In-place Householder QR of A (rows >= cols assumed after checks),
 * applying the same transformations to b. On return the upper
 * triangle of A holds R. Returns false when a diagonal of R is
 * (near-)zero, i.e. the design is rank deficient.
 */
bool
householderQr(Matrix &a, Vector &b)
{
    std::size_t m = a.rows();
    std::size_t n = a.cols();
    for (std::size_t k = 0; k < n; ++k) {
        // Norm of column k below (and including) the diagonal.
        double col_norm = 0.0;
        for (std::size_t i = k; i < m; ++i)
            col_norm += a(i, k) * a(i, k);
        col_norm = std::sqrt(col_norm);
        if (col_norm < 1e-12)
            return false;

        double alpha = a(k, k) > 0 ? -col_norm : col_norm;
        // Householder vector v = x - alpha*e1, stored locally.
        std::vector<double> v(m - k);
        v[0] = a(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i)
            v[i - k] = a(i, k);
        double v_norm2 = 0.0;
        for (double x : v)
            v_norm2 += x * x;
        if (v_norm2 < 1e-24)
            return false;

        // Apply H = I - 2 v v^T / (v^T v) to A[k:, k:] and b[k:].
        for (std::size_t j = k; j < n; ++j) {
            double proj = 0.0;
            for (std::size_t i = k; i < m; ++i)
                proj += v[i - k] * a(i, j);
            proj = 2.0 * proj / v_norm2;
            for (std::size_t i = k; i < m; ++i)
                a(i, j) -= proj * v[i - k];
        }
        double proj = 0.0;
        for (std::size_t i = k; i < m; ++i)
            proj += v[i - k] * b[i];
        proj = 2.0 * proj / v_norm2;
        for (std::size_t i = k; i < m; ++i)
            b[i] -= proj * v[i - k];
    }
    return true;
}

/** Back-substitute R x = c where R is the upper triangle of a. */
bool
backSubstitute(const Matrix &a, const Vector &c, Vector &x)
{
    std::size_t n = a.cols();
    x.assign(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        double diag = a(ri, ri);
        if (std::abs(diag) < 1e-12)
            return false;
        double acc = c[ri];
        for (std::size_t j = ri + 1; j < n; ++j)
            acc -= a(ri, j) * x[j];
        x[ri] = acc / diag;
    }
    return true;
}

double
computeRmse(const Matrix &a, const Vector &b, const Vector &x)
{
    if (a.rows() == 0)
        return 0.0;
    Vector pred = a * x;
    double sse = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        double r = pred[i] - b[i];
        sse += r * r;
    }
    return std::sqrt(sse / static_cast<double>(b.size()));
}

/** Cholesky solve of the SPD system m x = rhs; false if not SPD. */
bool
choleskySolve(Matrix m, Vector rhs, Vector &x)
{
    std::size_t n = m.rows();
    panicIf(m.cols() != n || rhs.size() != n, "choleskySolve shape");
    // Decompose m = L L^T in place (lower triangle).
    for (std::size_t j = 0; j < n; ++j) {
        double d = m(j, j);
        for (std::size_t k = 0; k < j; ++k)
            d -= m(j, k) * m(j, k);
        if (d <= 0.0)
            return false;
        m(j, j) = std::sqrt(d);
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = m(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= m(i, k) * m(j, k);
            m(i, j) = s / m(j, j);
        }
    }
    // Forward solve L y = rhs.
    Vector y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double s = rhs[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= m(i, k) * y[k];
        y[i] = s / m(i, i);
    }
    // Back solve L^T x = y.
    x.assign(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= m(k, ii) * x[k];
        x[ii] = s / m(ii, ii);
    }
    return true;
}

LsqResult
solveLeastSquares(const Matrix &a, const Vector &b)
{
    fatalIf(a.rows() != b.size(),
            "least squares: ", a.rows(), " rows vs ", b.size(),
            " targets");
    fatalIf(a.rows() < a.cols(),
            "least squares: underdetermined system (", a.rows(),
            " samples, ", a.cols(), " features)");
    fatalIf(a.cols() == 0, "least squares: empty design matrix");

    Matrix qr = a;
    Vector qtb = b;
    LsqResult result;
    if (householderQr(qr, qtb) &&
        backSubstitute(qr, qtb, result.coefficients)) {
        result.rmse = computeRmse(a, b, result.coefficients);
        return result;
    }

    // Rank-deficient design: fall back to a mild ridge penalty scaled
    // to the average squared feature magnitude.
    double scale = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            scale += a(r, c) * a(r, c);
    scale /= static_cast<double>(std::max<std::size_t>(1, a.rows()));
    double lambda = std::max(1e-9, 1e-6 * scale);
    result = oracle::solveRidge(a, b, lambda);
    result.rankDeficient = true;
    return result;
}

LsqResult
solveWeightedLeastSquares(const Matrix &a, const Vector &b,
                          const Vector &weights)
{
    fatalIf(weights.size() != a.rows(),
            "weighted least squares: weight count mismatch");
    Matrix wa(a.rows(), a.cols());
    Vector wb(b.size());
    for (std::size_t r = 0; r < a.rows(); ++r) {
        fatalIf(weights[r] < 0.0, "negative sample weight");
        double s = std::sqrt(weights[r]);
        for (std::size_t c = 0; c < a.cols(); ++c)
            wa(r, c) = a(r, c) * s;
        wb[r] = b[r] * s;
    }
    LsqResult result = oracle::solveLeastSquares(wa, wb);
    // Report RMSE on the unweighted problem for interpretability.
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

LsqResult
solveNonNegativeLeastSquares(const Matrix &a, const Vector &b)
{
    // Start from the unconstrained solution; repeatedly clamp negative
    // coefficients to zero and refit the remaining free columns.
    LsqResult result = oracle::solveLeastSquares(a, b);
    std::vector<bool> frozen(a.cols(), false);
    for (std::size_t iter = 0; iter < a.cols(); ++iter) {
        bool any_negative = false;
        for (std::size_t c = 0; c < a.cols(); ++c) {
            if (!frozen[c] && result.coefficients[c] < 0.0) {
                frozen[c] = true;
                any_negative = true;
            }
        }
        if (!any_negative)
            break;

        std::vector<std::size_t> free_cols;
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (!frozen[c])
                free_cols.push_back(c);
        Vector coeffs(a.cols(), 0.0);
        if (!free_cols.empty()) {
            Matrix sub(a.rows(), free_cols.size());
            for (std::size_t r = 0; r < a.rows(); ++r)
                for (std::size_t j = 0; j < free_cols.size(); ++j)
                    sub(r, j) = a(r, free_cols[j]);
            LsqResult sub_fit = oracle::solveLeastSquares(sub, b);
            for (std::size_t j = 0; j < free_cols.size(); ++j)
                coeffs[free_cols[j]] = sub_fit.coefficients[j];
            result.rankDeficient |= sub_fit.rankDeficient;
        }
        result.coefficients = coeffs;
    }
    for (double &c : result.coefficients)
        c = std::max(0.0, c);
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

LsqResult
solveRidge(const Matrix &a, const Vector &b, double lambda)
{
    fatalIf(lambda <= 0.0, "ridge lambda must be positive");
    fatalIf(a.rows() != b.size(), "ridge: shape mismatch");
    Matrix at = a.transposed();
    Matrix ata = at * a;
    for (std::size_t i = 0; i < ata.rows(); ++i)
        ata(i, i) += lambda;
    Vector atb = at * b;
    LsqResult result;
    if (!choleskySolve(ata, atb, result.coefficients))
        util::panic("ridge normal equations not SPD despite penalty");
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

} // namespace oracle

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectSameBits(const LsqResult &got, const LsqResult &want,
               const std::string &what)
{
    ASSERT_EQ(got.coefficients.size(), want.coefficients.size())
        << what;
    for (std::size_t i = 0; i < want.coefficients.size(); ++i) {
        EXPECT_EQ(bits(got.coefficients[i]), bits(want.coefficients[i]))
            << what << " coefficient " << i << ": "
            << got.coefficients[i] << " vs " << want.coefficients[i];
    }
    EXPECT_EQ(bits(got.rmse), bits(want.rmse))
        << what << " rmse: " << got.rmse << " vs " << want.rmse;
    EXPECT_EQ(got.rankDeficient, want.rankDeficient) << what;
}

enum class Shape
{
    Regular,       ///< full rank, non-negative truth
    RankDeficient, ///< one all-zero column: the ridge fallback
    Clamped,       ///< even-indexed true coefficients negative
};

struct Design
{
    Matrix a;
    Vector b;
};

/**
 * A refit-shaped design: metric-like non-negative columns of mixed
 * magnitude, an `offline` block at weight 1, then the online block
 * scaled by sqrt(offline / online) when it is the smaller group, as
 * OnlineRecalibrator::refitNow balances them.
 */
Design
makeDesign(std::size_t n, std::size_t m, Shape shape, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<double> truth(n);
    std::vector<double> magnitude(n);
    for (std::size_t c = 0; c < n; ++c) {
        truth[c] = rng.uniform(0.5, 20.0);
        if (shape == Shape::Clamped && c % 2 == 0)
            truth[c] = -rng.uniform(2.0, 5.0);
        magnitude[c] = std::pow(10.0, rng.uniform(-2.0, 2.0));
    }
    std::size_t zero_col = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    std::size_t offline = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<std::int64_t>(m) - 1));
    std::size_t online = m - offline;
    double online_scale = online < offline
        ? std::sqrt(static_cast<double>(offline) /
                    static_cast<double>(online))
        : 1.0;

    Design d{Matrix(m, n), Vector(m)};
    for (std::size_t r = 0; r < m; ++r) {
        double scale = r < offline ? 1.0 : online_scale;
        double y = rng.normal(0.0, 0.05);
        for (std::size_t c = 0; c < n; ++c) {
            double x = magnitude[c] * rng.uniform(0.0, 1.0);
            if (shape == Shape::RankDeficient && c == zero_col)
                x = 0.0;
            y += truth[c] * x;
            d.a(r, c) = x * scale;
        }
        d.b[r] = y * scale;
    }
    return d;
}

/** Every solver, both kernels, over n = 1..8 and m = n+1..4203. */
void
diffAllSolvers(Shape shape, std::uint64_t seed_base)
{
    std::size_t clamped = 0;
    std::size_t fallbacks = 0;
    for (std::size_t n = 1; n <= 8; ++n) {
        for (std::size_t m : {n + 1, n + 7, std::size_t{64},
                              std::size_t{517}, std::size_t{4203}}) {
            std::uint64_t seed = seed_base + 1000 * n + m;
            Design d = makeDesign(n, m, shape, seed);
            std::string what = "n=" + std::to_string(n) +
                " m=" + std::to_string(m) +
                " seed=" + std::to_string(seed);

            LsqResult want = oracle::solveLeastSquares(d.a, d.b);
            expectSameBits(solveLeastSquares(d.a, d.b), want,
                           what + " lsq");
            for (double c : want.coefficients)
                if (c < 0.0) {
                    ++clamped;
                    break;
                }
            if (want.rankDeficient)
                ++fallbacks;

            expectSameBits(solveNonNegativeLeastSquares(d.a, d.b),
                           oracle::solveNonNegativeLeastSquares(d.a,
                                                                d.b),
                           what + " nnls");

            sim::Rng wrng(seed ^ 0x5eed);
            Vector w(m);
            for (double &x : w)
                x = wrng.chance(0.1) ? 0.0 : wrng.uniform(0.0, 3.0);
            expectSameBits(
                solveWeightedLeastSquares(d.a, d.b, w),
                oracle::solveWeightedLeastSquares(d.a, d.b, w),
                what + " weighted");

            expectSameBits(solveRidge(d.a, d.b, 0.25),
                           oracle::solveRidge(d.a, d.b, 0.25),
                           what + " ridge");
        }
    }
    if (shape == Shape::Clamped) {
        EXPECT_EQ(clamped, 8u * 5u) << "every design must need a clamp";
    } else if (shape == Shape::RankDeficient) {
        EXPECT_EQ(fallbacks, 8u * 5u)
            << "every design must take the ridge fallback";
    } else {
        EXPECT_EQ(fallbacks, 0u);
    }
}

TEST(LeastSquaresDiff, FullRankDesignsMatchRowMajorOracleBitForBit)
{
    diffAllSolvers(Shape::Regular, 1);
}

TEST(LeastSquaresDiff, RidgeFallbackMatchesRowMajorOracleBitForBit)
{
    diffAllSolvers(Shape::RankDeficient, 2);
}

TEST(LeastSquaresDiff, NnlsClampsMatchRowMajorOracleBitForBit)
{
    diffAllSolvers(Shape::Clamped, 3);
}

} // namespace
} // namespace pcon::linalg
