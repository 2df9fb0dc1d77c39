#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace adiv {
namespace {

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
}

TEST(Matrix, ConstructsWithFill) {
    const Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
}

TEST(Matrix, ZeroDimensionsThrow) {
    EXPECT_THROW(Matrix(0, 3), InvalidArgument);
    EXPECT_THROW(Matrix(3, 0), InvalidArgument);
}

TEST(Matrix, AtReadsAndWrites) {
    Matrix m(2, 2);
    m.at(0, 1) = 7.0;
    EXPECT_DOUBLE_EQ(m.at(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
}

TEST(Matrix, RowSpansShareStorage) {
    Matrix m(2, 3);
    m.row(1)[2] = 9.0;
    EXPECT_DOUBLE_EQ(m.at(1, 2), 9.0);
}

TEST(Matrix, MultiplyTransposedComputesVecMat) {
    Matrix m(2, 3);
    for (std::size_t c = 0; c < 3; ++c) {
        m.at(0, c) = static_cast<double>(c + 1);
        m.at(1, c) = static_cast<double>(c + 4);
    }
    // [1 2] * [1 2 3; 4 5 6] = [9 12 15]
    const std::vector<double> x{1.0, 2.0};
    std::vector<double> y(3);
    m.multiply_transposed(x, y);
    EXPECT_DOUBLE_EQ(y[0], 9.0);
    EXPECT_DOUBLE_EQ(y[1], 12.0);
    EXPECT_DOUBLE_EQ(y[2], 15.0);
}

TEST(Matrix, MultiplyTransposedZeroInputsChangeNoBit) {
    // A zero input adds +-0 terms, which leave every sum (started at +0)
    // unchanged while the weights are finite, so the product equals the one
    // without that row bit for bit, and an all-zero input gives +0, not -0.
    Matrix m(3, 2);
    m.at(0, 0) = 0.1;
    m.at(0, 1) = -0.3;
    m.at(1, 0) = -7.0;
    m.at(1, 1) = 5.0;
    m.at(2, 0) = 0.7;
    m.at(2, 1) = -0.2;
    Matrix without(2, 2);
    without.row(0)[0] = 0.1;
    without.row(0)[1] = -0.3;
    without.row(1)[0] = 0.7;
    without.row(1)[1] = -0.2;
    std::vector<double> y{7.0, 7.0};  // overwritten, not accumulated into
    std::vector<double> expected(2);
    m.multiply_transposed(std::vector<double>{2.0, 0.0, -1.0}, y);
    without.multiply_transposed(std::vector<double>{2.0, -1.0}, expected);
    EXPECT_EQ(bits(y), bits(expected));
    m.multiply_transposed(std::vector<double>{0.0, -0.0, 0.0}, y);
    EXPECT_EQ(bits(y), bits({0.0, 0.0}));
}

TEST(Matrix, MultiplyTransposedMatchesAPlainLoopAtEveryBlockRemainder) {
    // The kernel blocks eight output columns at a time; every width from 1
    // to 19 (two blocks and a remainder of 3) must give the plain loop's
    // sums bit for bit, dense and sparse.
    for (std::size_t cols = 1; cols <= 19; ++cols) {
        constexpr std::size_t kRows = 13;
        Matrix m(kRows, cols);
        std::vector<double> x(kRows);
        for (std::size_t r = 0; r < kRows; ++r) {
            x[r] = std::sin(3.0 + static_cast<double>(r));
            for (std::size_t c = 0; c < cols; ++c)
                m.at(r, c) = std::cos(static_cast<double>(r * cols + c));
        }
        std::vector<double> dense(cols), expected(cols);
        for (std::size_t c = 0; c < cols; ++c) {
            double sum = 0.0;
            for (std::size_t r = 0; r < kRows; ++r) sum += x[r] * m.at(r, c);
            expected[c] = sum;
        }
        m.multiply_transposed(x, dense);
        EXPECT_EQ(bits(dense), bits(expected)) << cols << " columns";

        const std::vector<std::size_t> indices{1, 4, 5, 11};
        std::vector<double> values;
        for (std::size_t r : indices) values.push_back(x[r]);
        std::vector<double> sparse(cols), sparse_expected(cols);
        for (std::size_t c = 0; c < cols; ++c) {
            double sum = 0.0;
            for (std::size_t k = 0; k < indices.size(); ++k)
                sum += values[k] * m.at(indices[k], c);
            sparse_expected[c] = sum;
        }
        m.multiply_transposed(indices, values, sparse);
        EXPECT_EQ(bits(sparse), bits(sparse_expected)) << cols << " columns";
    }
}

TEST(Matrix, MultiplyTransposedShapeMismatchThrows) {
    const Matrix m(2, 3);
    std::vector<double> x(3), y(3), two(2);
    EXPECT_THROW(m.multiply_transposed(x, y), InvalidArgument);
    EXPECT_THROW(m.multiply_transposed(two, two), InvalidArgument);
    const std::vector<std::size_t> indices{0, 1};
    EXPECT_THROW(m.multiply_transposed(indices, std::vector<double>{1.0}, y),
                 InvalidArgument);
    EXPECT_THROW(m.multiply_transposed(indices, two, two), InvalidArgument);
}

TEST(Axpy, AddsScaledVectorIncludingAnOddTail) {
    for (const std::size_t n : {0u, 1u, 2u, 5u, 16u}) {
        std::vector<double> x(n), y(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = 0.5 + static_cast<double>(i);
            y[i] = static_cast<double>(i * i);
        }
        axpy(-2.0, x, y);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_DOUBLE_EQ(y[i], static_cast<double>(i * i) - 2.0 * x[i])
                << n << " " << i;
    }
}

TEST(Matrix, FillOverwrites) {
    Matrix m(2, 2, 5.0);
    m.fill(0.0);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

}  // namespace
}  // namespace adiv
