#include "least_squares.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace pcon {
namespace linalg {

using util::fatalIf;
using util::panicIf;

namespace {

/**
 * Reusable buffers of one solve. `qr` is the column-major working
 * copy of the design (column j at [j * rows, (j + 1) * rows)), so the
 * QR's column sweeps are unit-stride; `qtb` is Q^T b; `v` holds the
 * current Householder vector.
 */
struct QrWorkspace
{
    std::vector<double> qr;
    Vector qtb;
    Vector v;
};

/** x[0, len) -= (2 v.x / v_norm2) v, summing v.x in index order. */
void
reflect(double *x, const double *v, std::size_t len, double v_norm2)
{
    double proj = 0.0;
    for (std::size_t i = 0; i < len; ++i)
        proj += v[i] * x[i];
    proj = 2.0 * proj / v_norm2;
    for (std::size_t i = 0; i < len; ++i)
        x[i] -= proj * v[i];
}

/**
 * In-place Householder QR of the m x n column-major ws.qr (m >= n),
 * applying the same transformations to ws.qtb. On return the upper
 * triangle holds R. Returns false when a diagonal of R is
 * (near-)zero, i.e. the design is rank deficient. Every reduction
 * runs over the rows in increasing order, so the result does not
 * depend on the storage layout.
 */
bool
householderQr(QrWorkspace &ws, std::size_t m, std::size_t n)
{
    ws.v.resize(m);
    double *v = ws.v.data();
    for (std::size_t k = 0; k < n; ++k) {
        const double *col = ws.qr.data() + k * m;
        // Norm of column k below (and including) the diagonal.
        double col_norm = 0.0;
        for (std::size_t i = k; i < m; ++i)
            col_norm += col[i] * col[i];
        col_norm = std::sqrt(col_norm);
        if (col_norm < 1e-12)
            return false;

        double alpha = col[k] > 0 ? -col_norm : col_norm;
        // Householder vector v = x - alpha*e1.
        std::size_t len = m - k;
        v[0] = col[k] - alpha;
        for (std::size_t i = 1; i < len; ++i)
            v[i] = col[k + i];
        double v_norm2 = 0.0;
        for (std::size_t i = 0; i < len; ++i)
            v_norm2 += v[i] * v[i];
        if (v_norm2 < 1e-24)
            return false;

        // Apply H = I - 2 v v^T / (v^T v) to A[k:, k:] and b[k:].
        for (std::size_t j = k; j < n; ++j)
            reflect(ws.qr.data() + j * m + k, v, len, v_norm2);
        reflect(ws.qtb.data() + k, v, len, v_norm2);
    }
    return true;
}

/** Back-substitute R x = Q^T b, R the upper triangle of ws.qr. */
bool
backSubstitute(const QrWorkspace &ws, std::size_t m, std::size_t n,
               Vector &x)
{
    x.assign(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        double diag = ws.qr[ri * m + ri];
        if (std::abs(diag) < 1e-12)
            return false;
        double acc = ws.qtb[ri];
        for (std::size_t j = ri + 1; j < n; ++j)
            acc -= ws.qr[j * m + ri] * x[j];
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

void
checkDesign(const Matrix &a, const Vector &b)
{
    fatalIf(a.rows() != b.size(),
            "least squares: ", a.rows(), " rows vs ", b.size(),
            " targets");
    fatalIf(a.rows() < a.cols(),
            "least squares: underdetermined system (", a.rows(),
            " samples, ", a.cols(), " features)");
    fatalIf(a.cols() == 0, "least squares: empty design matrix");
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

/** Coefficients of min ||A x - b||^2 + lambda ||x||^2. */
Vector
ridgeCoefficients(const Matrix &a, const Vector &b, double lambda)
{
    Matrix at = a.transposed();
    Matrix ata = at * a;
    for (std::size_t i = 0; i < ata.rows(); ++i)
        ata(i, i) += lambda;
    Vector atb = at * b;
    Vector x;
    if (!choleskySolve(ata, atb, x))
        util::panic("ridge normal equations not SPD despite penalty");
    return x;
}

/**
 * Least-squares coefficients over the columns `cols` of a, without
 * the RMSE: Householder QR on a column-major copy of those columns,
 * or, when they are rank deficient, a mild ridge penalty scaled to
 * their average squared feature magnitude (and rank_deficient set).
 */
Vector
fitColumns(const Matrix &a, const std::vector<std::size_t> &cols,
           const Vector &b, QrWorkspace &ws, bool &rank_deficient)
{
    std::size_t m = a.rows();
    std::size_t n = cols.size();
    ws.qr.resize(m * n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < m; ++i)
            ws.qr[j * m + i] = a(i, cols[j]);
    ws.qtb.assign(b.begin(), b.end());
    Vector x;
    if (householderQr(ws, m, n) && backSubstitute(ws, m, n, x))
        return x;

    rank_deficient = true;
    Matrix sub(m, n);
    double scale = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            sub(r, c) = a(r, cols[c]);
            scale += sub(r, c) * sub(r, c);
        }
    }
    scale /= static_cast<double>(std::max<std::size_t>(1, m));
    double lambda = std::max(1e-9, 1e-6 * scale);
    return ridgeCoefficients(sub, b, lambda);
}

std::vector<std::size_t>
allColumns(const Matrix &a)
{
    std::vector<std::size_t> cols(a.cols());
    std::iota(cols.begin(), cols.end(), std::size_t{0});
    return cols;
}

} // namespace

LsqResult
solveLeastSquares(const Matrix &a, const Vector &b)
{
    checkDesign(a, b);
    QrWorkspace ws;
    LsqResult result;
    result.coefficients =
        fitColumns(a, allColumns(a), b, ws, result.rankDeficient);
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

LsqResult
solveWeightedLeastSquares(const Matrix &a, const Vector &b,
                          const Vector &weights)
{
    checkDesign(a, b);
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
    QrWorkspace ws;
    LsqResult result;
    result.coefficients =
        fitColumns(wa, allColumns(wa), wb, ws, result.rankDeficient);
    // Report RMSE on the unweighted problem for interpretability.
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

LsqResult
solveNonNegativeLeastSquares(const Matrix &a, const Vector &b)
{
    // Start from the unconstrained solution; repeatedly clamp negative
    // coefficients to zero and refit the remaining free columns. Only
    // the final clamped fit's RMSE is computed.
    checkDesign(a, b);
    QrWorkspace ws;
    std::vector<std::size_t> free_cols = allColumns(a);
    LsqResult result;
    result.coefficients =
        fitColumns(a, free_cols, b, ws, result.rankDeficient);
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

        free_cols.clear();
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (!frozen[c])
                free_cols.push_back(c);
        Vector coeffs(a.cols(), 0.0);
        if (!free_cols.empty()) {
            Vector sub =
                fitColumns(a, free_cols, b, ws, result.rankDeficient);
            for (std::size_t j = 0; j < free_cols.size(); ++j)
                coeffs[free_cols[j]] = sub[j];
        }
        result.coefficients = std::move(coeffs);
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
    LsqResult result;
    result.coefficients = ridgeCoefficients(a, b, lambda);
    result.rmse = computeRmse(a, b, result.coefficients);
    return result;
}

} // namespace linalg
} // namespace pcon
