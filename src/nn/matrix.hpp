// Dense row-major matrix of doubles — the minimal linear-algebra substrate
// for the multilayer feed-forward network. Deliberately small: the networks
// in this study have tens of units, so clarity beats BLAS.
//
// The one product is a sum of scaled rows, y = W^T x (dense, or given by x's
// nonzero entries): y[c] = sum over rows r of x[r] * W[r][c]. The network
// stores each layer input-major, so its forward pass is this product, and it
// keeps an out x in copy of a layer to run its backward product the same
// way. The kernel holds eight outputs' partial sums in registers across the
// whole row loop; each sum starts at +0 and takes its terms in row order, one
// multiply and one add each, so blocking changes no result bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace adiv {

namespace detail {
/// The loop behind axpy(). GCC's -O2 vectorizer takes it only as written:
/// `__restrict` on parameters (it ignores restrict-qualified locals), so no
/// run-time overlap check is needed, and an even main trip count, because
/// that cost model allows no scalar epilogue; an odd last element is done
/// on its own.
inline void axpy_n(double alpha, const double* __restrict x, double* __restrict y,
                   std::size_t n) noexcept {
    const std::size_t even = n & ~std::size_t{1};
    for (std::size_t i = 0; i < even; ++i) y[i] += alpha * x[i];
    if (even != n) y[even] += alpha * x[even];
}
}  // namespace detail

/// y += alpha * x, element by element; x and y must not overlap and x must
/// hold at least y.size() elements. Each element is one multiply and one
/// add of its own, so vectorizing the loop changes no result bit.
inline void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept {
    detail::axpy_n(alpha, x.data(), y.data(), y.size());
}

class Matrix {
public:
    Matrix() = default;
    /// Throws InvalidArgument for a zero dimension or a shape whose element
    /// count does not fit a vector.
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] double& at(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
        return {&data_[r * cols_], cols_};
    }
    [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
        return {&data_[r * cols_], cols_};
    }

    [[nodiscard]] std::span<double> flat() noexcept { return data_; }
    [[nodiscard]] std::span<const double> flat() const noexcept { return data_; }

    void fill(double value) noexcept {
        for (double& v : data_) v = value;
    }

    /// y = W^T x (y sized cols()): y[c] sums x[r] * W[r][c] in row order,
    /// from +0. A zero x[r] adds a +-0 term, which changes no such sum while
    /// the weights are finite. Requires x.size() == rows().
    void multiply_transposed(std::span<const double> x, std::span<double> y) const;

    /// y = W^T x for an x given by its nonzero entries, values[k] at row
    /// indices[k]: y[c] sums values[k] * W[indices[k]][c] in k order, from
    /// +0. Requires one value per index; every index must be below rows()
    /// (unchecked, as for row()).
    void multiply_transposed(std::span<const std::size_t> indices,
                             std::span<const double> values,
                             std::span<double> y) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace adiv
