#include "seq/alphabet.hpp"

#include "util/error.hpp"

namespace adiv {

Alphabet::Alphabet(std::size_t size) {
    require(size > 0, "alphabet size must be positive");
    names_.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
        std::string name = "s" + std::to_string(i);
        ids_.emplace(name, static_cast<Symbol>(i));
        names_.push_back(std::move(name));
    }
}

Alphabet::Alphabet(const std::vector<std::string>& names) {
    require(!names.empty(), "alphabet requires at least one symbol name");
    names_.reserve(names.size());
    for (const auto& name : names) {
        require(!name.empty(), "alphabet symbol names must be non-empty");
        const auto [it, inserted] =
            ids_.emplace(name, static_cast<Symbol>(names_.size()));
        if (!inserted) throw InvalidArgument("duplicate alphabet symbol name: " + name);
        (void)it;
        names_.push_back(name);
    }
}

const std::string& Alphabet::name(Symbol s) const {
    if (!valid(s))
        throw InvalidArgument("symbol id " + std::to_string(s) +
                              " outside alphabet of size " + std::to_string(size()));
    return names_[s];
}

Symbol Alphabet::id(std::string_view name) const {
    const auto it = ids_.find(std::string(name));
    if (it == ids_.end())
        throw InvalidArgument("unknown alphabet symbol: " + std::string(name));
    return it->second;
}

bool Alphabet::valid(SymbolView seq) const noexcept {
    for (Symbol s : seq)
        if (!valid(s)) return false;
    return true;
}

std::string Alphabet::format(SymbolView seq) const {
    std::string out;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        if (i != 0) out.push_back(' ');
        out += name(seq[i]);
    }
    return out;
}

}  // namespace adiv
