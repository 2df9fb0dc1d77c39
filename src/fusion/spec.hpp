// Ensemble specs: the OPEN-target grammar that binds one serve session to
// N models fused by a rule.
//
// A spec is a single whitespace-free token (so it rides the existing wire
// protocol's OPEN target unchanged):
//
//     [model=]<member>+<member>[+<member>...][;key=value...]
//
// Members are ordinary catalog targets (registered model names). Options:
//
//     fuse=union|intersect|vote|ds   fusion rule          (default union)
//     fa=<float>    target ensemble false-alarm rate for vote  (0.01)
//     k=<int>       votes needed to alarm; 0 = all members     (0)
//     decay=<float> histogram decay per calibration epoch      (0.999)
//     every=<int>   fused windows between recalibrations       (64)
//     w=<float>     Dempster-Shafer per-member discount        (0.9)
//     dst=<float>   Dempster-Shafer belief-of-anomaly alarm threshold (0.95)
//
// parse_ensemble_spec throws InvalidArgument on malformed input (empty or
// duplicate members, unknown rule names, unknown keys, out-of-range values)
// so the server can answer ERR without opening anything. canonical() renders
// a normalized token (member order preserved, rule-relevant options only)
// that re-parses to an equal spec — the OPENED frame echoes it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace adiv::fusion {

enum class FusionKind { Union, Intersect, Vote, DempsterShafer };

/// Wire token for a fusion kind: "union", "intersect", "vote", "ds".
[[nodiscard]] const char* fusion_kind_name(FusionKind kind) noexcept;

/// Inverse of fusion_kind_name. Throws InvalidArgument for unknown tokens.
[[nodiscard]] FusionKind parse_fusion_kind(const std::string& token);

struct EnsembleSpec {
    /// Catalog targets, in fusion order; >= 2, no duplicates.
    std::vector<std::string> members;
    FusionKind fuse = FusionKind::Union;
    /// Vote: target probability that a fused window false-alarms.
    double target_fa = 0.01;
    /// Vote: members that must exceed their thresholds; 0 = all members.
    std::size_t votes_needed = 0;
    /// Vote: multiplier applied to every histogram bin each epoch.
    double decay = 0.999;
    /// Vote: fused windows per calibration epoch.
    std::size_t calibrate_every = 64;
    /// Dempster-Shafer: mass a member commits to {A, N}; 1-w goes to Theta.
    double ds_discount = 0.9;
    /// Dempster-Shafer: fused belief(Anomalous) at or above this alarms.
    double ds_threshold = 0.95;

    bool operator==(const EnsembleSpec&) const = default;
};

/// True when an OPEN target is an ensemble spec rather than a plain model
/// name: it contains '+' or ';', or starts with "model=". Plain targets never
/// reach the spec parser, so single-model OPEN semantics are untouched.
[[nodiscard]] bool is_ensemble_spec(const std::string& target) noexcept;

/// Parses a spec token. Throws InvalidArgument on malformed input.
[[nodiscard]] EnsembleSpec parse_ensemble_spec(const std::string& token);

/// Normalized single-token rendering; parse(canonical(s)) == s.
[[nodiscard]] std::string canonical(const EnsembleSpec& spec);

}  // namespace adiv::fusion
