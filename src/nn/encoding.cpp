#include "nn/encoding.hpp"

#include "util/error.hpp"

namespace adiv {

std::vector<double> one_hot_context(SymbolView context, std::size_t alphabet_size) {
    std::vector<double> out(context.size() * alphabet_size, 0.0);
    for (const std::size_t index : one_hot_indices(context, alphabet_size))
        out[index] = 1.0;
    return out;
}

std::vector<std::size_t> one_hot_indices(SymbolView context, std::size_t alphabet_size) {
    std::vector<std::size_t> out(context.size());
    for (std::size_t k = 0; k < context.size(); ++k) {
        require(context[k] < alphabet_size, "context symbol outside alphabet");
        out[k] = k * alphabet_size + context[k];
    }
    return out;
}

}  // namespace adiv
