// One-hot encoding of symbol contexts for the neural-network detector.
#pragma once

#include <vector>

#include "seq/types.hpp"

namespace adiv {

/// Encodes a context of K symbols over an alphabet of size N as a K*N vector
/// of 0/1 values: position k*N + context[k] is 1. Requires every symbol to be
/// inside the alphabet.
std::vector<double> one_hot_context(SymbolView context, std::size_t alphabet_size);

/// The positions of one_hot_context(context, alphabet_size)'s ones,
/// ascending: k*N + context[k] for each k.
std::vector<std::size_t> one_hot_indices(SymbolView context, std::size_t alphabet_size);

/// Input-vector size for contexts of the given length.
inline std::size_t one_hot_size(std::size_t context_length,
                                std::size_t alphabet_size) noexcept {
    return context_length * alphabet_size;
}

}  // namespace adiv
