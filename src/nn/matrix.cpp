#include "nn/matrix.hpp"

#include "util/error.hpp"

namespace adiv {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols) {
    require(rows > 0 && cols > 0, "matrix dimensions must be positive");
    // A product that wraps would allocate a small buffer behind a large
    // shape, and at() would then write past its end.
    require(cols <= data_.max_size() / rows,
            "matrix element count overflows");
    data_.assign(rows * cols, fill);
}

void Matrix::multiply(std::span<const double> x, std::span<double> y) const {
    require(x.size() == cols_ && y.size() == rows_, "matrix multiply shape mismatch");
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* w = &data_[r * cols_];
        for (std::size_t c = 0; c < cols_; ++c) acc += w[c] * x[c];
        y[r] = acc;
    }
}

void Matrix::multiply_transposed(std::span<const double> x,
                                 std::span<double> y) const {
    require(x.size() == rows_ && y.size() == cols_,
            "matrix transposed-multiply shape mismatch");
    for (double& v : y) v = 0.0;
    for (std::size_t r = 0; r < rows_; ++r)
        if (x[r] != 0.0) axpy(x[r], row(r), y);
}

}  // namespace adiv
