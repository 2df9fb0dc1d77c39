#include "detect/rule_detector.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

namespace {

/// A training example: one distinct context with its continuation counts.
struct Example {
    Sequence context;
    std::vector<std::uint64_t> next_counts;
    std::uint64_t total = 0;
};

struct ClassStats {
    Symbol best = 0;
    std::uint64_t best_count = 0;
    std::uint64_t total = 0;

    [[nodiscard]] double laplace_precision(std::size_t alphabet) const noexcept {
        return (static_cast<double>(best_count) + 1.0) /
               (static_cast<double>(total) + static_cast<double>(alphabet));
    }
    [[nodiscard]] double raw_precision() const noexcept {
        return total == 0 ? 0.0
                          : static_cast<double>(best_count) /
                                static_cast<double>(total);
    }
};

ClassStats class_stats(const std::vector<const Example*>& covered,
                       std::size_t alphabet) {
    std::vector<std::uint64_t> counts(alphabet, 0);
    for (const Example* e : covered)
        for (std::size_t y = 0; y < alphabet; ++y) counts[y] += e->next_counts[y];
    ClassStats s;
    for (std::size_t y = 0; y < alphabet; ++y) {
        s.total += counts[y];
        if (counts[y] > s.best_count) {
            s.best_count = counts[y];
            s.best = static_cast<Symbol>(y);
        }
    }
    return s;
}

SequenceRule grow_rule(const std::vector<const Example*>& examples,
                       std::size_t context_length, std::size_t alphabet,
                       const RuleDetectorConfig& config) {
    SequenceRule rule;
    std::vector<const Example*> covered = examples;
    std::vector<bool> position_used(context_length, false);

    while (rule.conditions.size() < config.max_conditions) {
        const ClassStats current = class_stats(covered, alphabet);
        if (current.laplace_precision(alphabet) >= config.target_precision) break;

        // Best specialization: the (position, value) test that maximizes the
        // Laplace precision of the covered subset's majority class.
        double best_precision = current.laplace_precision(alphabet);
        std::uint64_t best_support = 0;
        std::optional<RuleCondition> best_condition;
        std::vector<const Example*> best_subset;
        for (std::size_t pos = 0; pos < context_length; ++pos) {
            if (position_used[pos]) continue;
            for (Symbol val = 0; val < alphabet; ++val) {
                std::vector<const Example*> subset;
                for (const Example* e : covered)
                    if (e->context[pos] == val) subset.push_back(e);
                if (subset.empty()) continue;
                const ClassStats s = class_stats(subset, alphabet);
                const double precision = s.laplace_precision(alphabet);
                if (precision > best_precision + 1e-15 ||
                    (precision > best_precision - 1e-15 &&
                     s.total > best_support)) {
                    best_precision = precision;
                    best_support = s.total;
                    best_condition = RuleCondition{pos, val};
                    best_subset = std::move(subset);
                }
            }
        }
        if (!best_condition) break;  // no test improves the rule
        position_used[best_condition->position] = true;
        rule.conditions.push_back(*best_condition);
        covered = std::move(best_subset);
    }

    const ClassStats final_stats = class_stats(covered, alphabet);
    rule.prediction = final_stats.best;
    rule.confidence = final_stats.raw_precision();
    rule.support = final_stats.total;
    return rule;
}

}  // namespace

RuleDetector::RuleDetector(std::size_t window_length, RuleDetectorConfig config)
    : window_length_(window_length), config_(config) {
    require(window_length >= 2,
            "rule detector window length must be at least 2 (one context "
            "symbol plus the predicted symbol)");
    require(config_.target_precision > 0.0 && config_.target_precision <= 1.0,
            "target precision must be in (0,1]");
    require(config_.max_conditions >= 1, "rules need at least one condition slot");
    require(config_.max_rules >= 1, "need room for at least one rule");
    require(config_.probability_floor >= 0.0 && config_.probability_floor < 1.0,
            "probability floor must be in [0,1)");
    quantizer_.probability_floor = config_.probability_floor;
}

void RuleDetector::train(const EventStream& training) {
    alphabet_size_ = training.alphabet_size();
    const std::size_t context_length = window_length_ - 1;
    const ConditionalModel model(training, context_length);

    std::vector<Example> examples;
    std::vector<ContextDistribution> distributions = model.distributions();
    for (ContextDistribution& d : distributions) {
        Example e;
        e.context = std::move(d.context);
        e.next_counts = std::move(d.next_counts);
        e.total = d.total;
        examples.push_back(std::move(e));
    }

    std::vector<const Example*> remaining;
    remaining.reserve(examples.size());
    for (const Example& e : examples) remaining.push_back(&e);

    std::vector<SequenceRule> rules;
    while (!remaining.empty() && rules.size() + 1 < config_.max_rules) {
        SequenceRule rule =
            grow_rule(remaining, context_length, alphabet_size_, config_);
        if (rule.conditions.empty()) break;  // would duplicate the default rule
        std::vector<const Example*> uncovered;
        for (const Example* e : remaining)
            if (!rule.matches(e->context)) uncovered.push_back(e);
        ADIV_ASSERT(uncovered.size() < remaining.size());
        remaining = std::move(uncovered);
        rules.push_back(std::move(rule));
    }

    // Default rule: majority over whatever the list does not cover (or over
    // everything when the list covers all training contexts).
    std::vector<const Example*> default_basis = remaining;
    if (default_basis.empty())
        for (const Example& e : examples) default_basis.push_back(&e);
    const ClassStats s = class_stats(default_basis, alphabet_size_);
    SequenceRule default_rule;
    default_rule.prediction = s.best;
    default_rule.confidence = s.raw_precision();
    default_rule.support = s.total;
    rules.push_back(std::move(default_rule));

    rules_.emplace(std::move(rules));
}

const std::vector<SequenceRule>& RuleDetector::rules() const {
    require(rules_.has_value(), "rule detector is not trained");
    return *rules_;
}

const SequenceRule& RuleDetector::rule_for(SymbolView context) const {
    require(rules_.has_value(), "rule detector is not trained");
    require(context.size() == window_length_ - 1, "context length mismatch");
    for (const SequenceRule& rule : *rules_)
        if (rule.matches(context)) return rule;
    ADIV_UNREACHABLE("default rule must match every context");
}

std::vector<double> RuleDetector::score(const EventStream& test) const {
    require(rules_.has_value(), "rule detector must be trained before scoring");
    require(test.alphabet_size() == alphabet_size_,
            "test alphabet does not match training alphabet");
    const std::size_t context_length = window_length_ - 1;
    std::vector<double> responses;
    responses.reserve(test.window_count(window_length_));
    for_each_window(test, window_length_, [&](std::size_t, SymbolView w) {
        const SequenceRule& rule = rule_for(w.subspan(0, context_length));
        const Symbol next = w[context_length];
        if (next == rule.prediction) {
            responses.push_back(0.0);
        } else {
            // The rule's confidence bounds the observed symbol's probability
            // at 1 - confidence; quantize that bound like the other
            // probabilistic detectors.
            responses.push_back(
                quantizer_.response_for_probability(1.0 - rule.confidence));
        }
    });
    return responses;
}


void RuleDetector::save_model(std::ostream& out) const {
    require(rules_.has_value(), "cannot save an untrained rule model");
    out << window_length_ << ' ' << alphabet_size_ << ' ';
    write_double(out, config_.target_precision);
    out << ' ' << config_.max_conditions << ' ' << config_.max_rules << ' ';
    write_double(out, config_.probability_floor);
    out << ' ' << rules_->size() << '\n';
    for (const SequenceRule& rule : *rules_) {
        out << rule.conditions.size() << ' ';
        for (const RuleCondition& c : rule.conditions)
            out << c.position << ' ' << c.value << ' ';
        out << rule.prediction << ' ';
        write_double(out, rule.confidence);
        out << ' ' << rule.support << '\n';
    }
}

RuleDetector RuleDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    RuleDetectorConfig config;
    config.target_precision = read_double(in, "target precision");
    config.max_conditions = read_size(in, "max conditions");
    config.max_rules = read_size(in, "max rules");
    config.probability_floor = read_double(in, "probability floor");
    const std::size_t rule_count = read_size(in, "rule count");
    require_data(rule_count >= 1, "rule list must contain the default rule");
    RuleDetector detector(window, config);
    detector.alphabet_size_ = alphabet;

    std::vector<SequenceRule> rules;
    for (std::size_t i = 0; i < rule_count; ++i) {
        SequenceRule& rule = rules.emplace_back();
        const std::size_t conditions = read_size(in, "condition count");
        for (std::size_t k = 0; k < conditions; ++k) {
            RuleCondition& c = rule.conditions.emplace_back();
            c.position = read_size(in, "condition position");
            require_data(c.position < window - 1, "condition position outside context");
            c.value = read_symbol(in, alphabet, "condition value");
        }
        rule.prediction = read_symbol(in, alphabet, "rule prediction");
        rule.confidence = read_double(in, "rule confidence");
        rule.support = read_u64(in, "rule support");
    }
    require_data(rules.back().conditions.empty(),
                 "rule list must end with the unconditional default rule");
    detector.rules_.emplace(std::move(rules));
    return detector;
}

std::size_t RuleDetector::alphabet_size() const {
    require(rules_.has_value(), "rule detector is not trained");
    return alphabet_size_;
}

}  // namespace adiv
