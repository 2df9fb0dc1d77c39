#include "nn/matrix.hpp"

#include "util/error.hpp"

namespace adiv {

namespace {

/// Output columns one pass of sum_scaled_rows keeps in registers.
constexpr std::size_t kSumBlock = 8;

/// y[j] = sum over t < terms of coeffs[t] * row_of(t)[j], for j < width.
/// Each sum starts at +0 and adds its terms in t order, one multiply and one
/// add each, so the result is the plain loop's bit for bit. kSumBlock sums
/// stay in locals across the term loop (GCC -O2 keeps them in SSE registers
/// once the block loops are unrolled), so y is written once per element
/// instead of once per term; the last width % kSumBlock columns take one
/// sum at a time.
template <typename RowOf>
void sum_scaled_rows(std::size_t terms, const double* __restrict coeffs, RowOf row_of,
                     double* __restrict y, std::size_t width) noexcept {
    std::size_t j = 0;
    for (; j + kSumBlock <= width; j += kSumBlock) {
        double acc[kSumBlock] = {};
        for (std::size_t t = 0; t < terms; ++t) {
            const double c = coeffs[t];
            const double* row = row_of(t) + j;
#pragma GCC unroll kSumBlock
            for (std::size_t b = 0; b < kSumBlock; ++b) acc[b] += c * row[b];
        }
#pragma GCC unroll kSumBlock
        for (std::size_t b = 0; b < kSumBlock; ++b) y[j + b] = acc[b];
    }
    for (; j < width; ++j) {
        double acc = 0.0;
        for (std::size_t t = 0; t < terms; ++t) acc += coeffs[t] * row_of(t)[j];
        y[j] = acc;
    }
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols) {
    require(rows > 0 && cols > 0, "matrix dimensions must be positive");
    // A product that wraps would allocate a small buffer behind a large
    // shape, and at() would then write past its end.
    require(cols <= data_.max_size() / rows,
            "matrix element count overflows");
    data_.assign(rows * cols, fill);
}

void Matrix::multiply_transposed(std::span<const double> x,
                                 std::span<double> y) const {
    require(x.size() == rows_ && y.size() == cols_,
            "matrix transposed-multiply shape mismatch");
    const double* data = data_.data();
    const std::size_t cols = cols_;
    sum_scaled_rows(
        rows_, x.data(), [=](std::size_t r) { return data + r * cols; }, y.data(),
        cols);
}

void Matrix::multiply_transposed(std::span<const std::size_t> indices,
                                 std::span<const double> values,
                                 std::span<double> y) const {
    require(values.size() == indices.size() && y.size() == cols_,
            "matrix transposed-multiply shape mismatch");
    const double* data = data_.data();
    const std::size_t* rows = indices.data();
    const std::size_t cols = cols_;
    sum_scaled_rows(
        indices.size(), values.data(),
        [=](std::size_t t) { return data + rows[t] * cols; }, y.data(), cols);
}

}  // namespace adiv
