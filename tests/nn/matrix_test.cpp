#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/error.hpp"

namespace adiv {
namespace {

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

TEST(Matrix, MultiplyComputesMatVec) {
    Matrix m(2, 3);
    // [1 2 3; 4 5 6] * [1 1 1]^T = [6 15]^T
    for (std::size_t c = 0; c < 3; ++c) {
        m.at(0, c) = static_cast<double>(c + 1);
        m.at(1, c) = static_cast<double>(c + 4);
    }
    const std::vector<double> x{1.0, 1.0, 1.0};
    std::vector<double> y(2);
    m.multiply(x, y);
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
    const Matrix m(2, 3);
    std::vector<double> x(2), y(2);
    EXPECT_THROW(m.multiply(x, y), InvalidArgument);
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

TEST(Matrix, MultiplyTransposedSkipsZeroInputs) {
    Matrix m(3, 2, 1.0);
    m.at(1, 0) = std::numeric_limits<double>::infinity();  // 0 * inf would be NaN
    const std::vector<double> x{2.0, 0.0, -1.0};
    std::vector<double> y{7.0, 7.0};  // overwritten, not accumulated into
    m.multiply_transposed(x, y);
    EXPECT_DOUBLE_EQ(y[0], 1.0);
    EXPECT_DOUBLE_EQ(y[1], 1.0);
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
