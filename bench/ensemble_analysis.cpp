// Sections 7-8: what combining diverse detectors buys.
//
// Regenerates the coverage algebra behind the paper's ensemble discussion:
//   * the four performance maps' coverage sets and their pairwise relations
//     (Stide c Markov; Stide u L&B = Stide; NN ~ Markov);
//   * false-alarm suppression: Markov as the primary detector with Stide as
//     the suppressor (AND), measured on held-out normal data;
//   * hit retention: the suppressed ensemble still detects the MFS wherever
//     Stide covers (DW >= AS);
//   * fused suppression: stide/6 + markov/6, each trained on its own small
//     sample, replayed through fusion::EnsembleScorer under every fusion
//     rule. The last line is the verdict `suppression demonstrated: yes|no`
//     (DESIGN section 10).
#include <cstdio>
#include <iostream>
#include <memory>
#include <utility>

#include "common.hpp"
#include "core/diversity.hpp"
#include "core/ensemble.hpp"
#include "core/false_alarm.hpp"
#include "detect/registry.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "util/table.hpp"

namespace {

using namespace adiv;

/// Counts from one EnsembleScorer replay of one stream.
struct FusedCounts {
    std::size_t frames = 0;
    std::size_t alarms = 0;
    std::size_t suppressed = 0;
    std::vector<std::size_t> member_alarms;
};

FusedCounts replay_fused(
    const fusion::EnsembleSpec& spec,
    const std::vector<std::shared_ptr<const SequenceDetector>>& members,
    const Sequence& events) {
    fusion::EnsembleScorer scorer(spec, members);
    std::vector<double> scores;
    scorer.push_batch(events.data(), events.size(), scores);
    FusedCounts counts{scorer.windows_scored(), scorer.alarms(),
                       scorer.suppressed_alarms(), {}};
    for (std::size_t m = 0; m < members.size(); ++m)
        counts.member_alarms.push_back(scorer.member_alarms(m));
    return counts;
}

double rate(std::size_t hits, std::size_t frames) {
    return frames == 0 ? 0.0
                       : static_cast<double>(hits) / static_cast<double>(frames);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace adiv;
    auto ctx = bench::context_from_args(
        argv[0], "Ensemble analysis: combining diverse detectors", argc, argv);
    if (!ctx) return 0;

    // One four-detector plan: all 56 (detector, DW) training columns feed
    // the same worker pool under --jobs.
    ExperimentPlan plan(*ctx->suite);
    for (DetectorKind kind : paper_detectors()) plan.add_detector(kind);
    PlanRun run = bench::run_quiet(*ctx, plan);
    const std::vector<PerformanceMap>& maps = run.maps;

    bench::banner("Coverage sets (capable cells per detector)");
    TextTable coverage;
    coverage.header({"detector", "capable", "weak", "blind", "of"});
    for (const auto& map : maps)
        coverage.add(map.detector_name(), map.count(DetectionOutcome::Capable),
                     map.count(DetectionOutcome::Weak),
                     map.count(DetectionOutcome::Blind), map.cell_count());
    std::cout << coverage.render();

    bench::banner("Pairwise diversity");
    std::vector<const PerformanceMap*> map_ptrs;
    for (const auto& m : maps) map_ptrs.push_back(&m);
    TextTable pairs;
    pairs.header({"A", "B", "|A|", "|B|", "overlap", "union", "B adds to A",
                  "jaccard", "subset"});
    for (const PairwiseDiversity& d : analyze_all_pairs(map_ptrs)) {
        std::string subset = d.a_subset_of_b && d.b_subset_of_a ? "A = B"
                             : d.a_subset_of_b                  ? "A c B"
                             : d.b_subset_of_a                  ? "B c A"
                                                                : "-";
        pairs.add(d.detector_a, d.detector_b, d.coverage_a, d.coverage_b,
                  d.overlap, d.union_size, d.gain_b_adds_to_a, fixed(d.jaccard, 3),
                  subset);
    }
    std::cout << pairs.render();
    for (const PairwiseDiversity& d : analyze_all_pairs(map_ptrs))
        std::printf("  %s\n", describe_pair(d).c_str());

    bench::banner("Combined coverage charts");
    const CoverageSet stide = CoverageSet::capable_cells(maps[2]);
    const CoverageSet markov = CoverageSet::capable_cells(maps[1]);
    const CoverageSet lb = CoverageSet::capable_cells(maps[0]);
    std::cout << render_coverage(stide.unite(lb),
                                 "stide u lane-brodley (no gain over stide)",
                                 ctx->suite->anomaly_sizes(),
                                 ctx->suite->window_lengths())
              << '\n';
    std::cout << render_coverage(stide.unite(markov),
                                 "stide u markov (= markov: stide is a subset)",
                                 ctx->suite->anomaly_sizes(),
                                 ctx->suite->window_lengths())
              << '\n';

    bench::banner("False-alarm suppression: Markov primary, Stide suppressor");
    const EventStream heldout = ctx->corpus->generate_heldout(200'000, 31337);
    std::printf("(held-out normal data: %zu elements)\n\n", heldout.size());
    TextTable fa;
    fa.header({"DW", "markov alarms", "stide alarms", "AND alarms", "markov FA",
               "AND FA", "suppressed"});
    for (std::size_t dw : ctx->suite->window_lengths()) {
        auto m = make_detector(DetectorKind::Markov, dw);
        auto s = make_detector(DetectorKind::Stide, dw);
        m->train(ctx->corpus->training());
        s->train(ctx->corpus->training());
        const CombinedAlarmResult c = measure_combined_alarms(*m, *s, heldout);
        const double fa_m =
            static_cast<double>(c.alarms_a) / static_cast<double>(c.windows);
        const double fa_and =
            static_cast<double>(c.alarms_and) / static_cast<double>(c.windows);
        const double suppressed =
            c.alarms_a == 0 ? 0.0
                            : 1.0 - static_cast<double>(c.alarms_and) /
                                        static_cast<double>(c.alarms_a);
        fa.add(dw, c.alarms_a, c.alarms_b, c.alarms_and, percent(fa_m, 3),
               percent(fa_and, 3), percent(suppressed, 1));
    }
    std::cout << fa.render();

    bench::banner("Hit retention of the suppressed ensemble (AND) on MFS streams");
    TextTable hits;
    std::vector<std::string> header{"AS\\DW"};
    for (std::size_t dw : ctx->suite->window_lengths())
        header.push_back(std::to_string(dw));
    hits.header(header);
    // Train once per DW, then score all anomaly sizes for that window.
    std::map<std::pair<std::size_t, std::size_t>, std::string> glyphs;
    for (std::size_t dw : ctx->suite->window_lengths()) {
        auto m = make_detector(DetectorKind::Markov, dw);
        auto s = make_detector(DetectorKind::Stide, dw);
        m->train(ctx->corpus->training());
        s->train(ctx->corpus->training());
        for (std::size_t as : ctx->suite->anomaly_sizes()) {
            const auto& entry = ctx->suite->entry(as, dw);
            const bool hit_m = hits_anomaly(*m, entry.stream);
            const bool hit_s = hits_anomaly(*s, entry.stream);
            glyphs[{as, dw}] = hit_m && hit_s ? "*" : hit_m ? "m" : ".";
        }
    }
    for (std::size_t as : ctx->suite->anomaly_sizes()) {
        std::vector<std::string> row{std::to_string(as)};
        for (std::size_t dw : ctx->suite->window_lengths())
            row.push_back(glyphs.at({as, dw}));
        hits.add_row(std::move(row));
    }
    std::cout << hits.render();
    std::printf("\n  * = ensemble hit (both alarm)   m = markov only (suppressed "
                "by stide)   . = no hit\n");
    std::printf("  The ensemble keeps every hit in Stide's coverage (DW >= AS) "
                "and trades the rest\n  for the false-alarm suppression above "
                "-- the paper's recommended division of labour.\n");

    bench::banner("Fused suppression: stide/6 + markov/6 through EnsembleScorer");
    // Each member trains on its own 4000-event sample of the corpus process,
    // so each misses different rare n-grams and their false-alarm sets only
    // partly overlap: the diversity a fusion rule can exploit. The probe
    // walks the cycle backward. Every s -> s-1 transition has probability
    // zero under the generating matrix, so every member flags every probe
    // window, and fused false alarms are compared at matched coverage.
    std::vector<std::shared_ptr<const SequenceDetector>> members;
    for (const auto& [kind, seed] : {std::pair{DetectorKind::Stide, 11},
                                     std::pair{DetectorKind::Markov, 22}}) {
        CorpusSpec sample;
        sample.training_length = 4000;
        sample.seed = seed;
        auto detector = make_detector(kind, 6);
        detector->train(TrainingCorpus::generate(sample).training());
        members.push_back(std::move(detector));
    }
    const std::size_t alphabet = ctx->spec.alphabet_size;
    Sequence probe(20'000);
    for (std::size_t i = 0; i < probe.size(); ++i)
        probe[i] = static_cast<Symbol>((alphabet - i % alphabet) % alphabet);

    fusion::EnsembleSpec spec;
    spec.members = {"stide/6", "markov/6"};
    bool demonstrated = false;
    TextTable fused;
    fused.header({"rule", "false alarms", "suppressed", "probe coverage",
                  "stide FA", "markov FA", "member coverage", "verdict"});
    for (const fusion::FusionKind kind :
         {fusion::FusionKind::Union, fusion::FusionKind::Intersect,
          fusion::FusionKind::Vote, fusion::FusionKind::DempsterShafer}) {
        spec.fuse = kind;
        const FusedCounts normal = replay_fused(spec, members, heldout.events());
        const FusedCounts foreign = replay_fused(spec, members, probe);
        // The best member is the one with the fewest false alarms.
        std::size_t best = 0;
        for (std::size_t m = 1; m < members.size(); ++m)
            if (normal.member_alarms[m] < normal.member_alarms[best]) best = m;
        const double probe_coverage = rate(foreign.alarms, foreign.frames);
        const bool beats =
            normal.alarms < normal.member_alarms[best] &&
            probe_coverage >= rate(foreign.member_alarms[best], foreign.frames);
        demonstrated |= beats;
        fused.add(fusion::fusion_kind_name(kind),
                  std::to_string(normal.alarms) + " / " +
                      std::to_string(normal.frames),
                  normal.suppressed, fixed(probe_coverage, 3),
                  normal.member_alarms[0], normal.member_alarms[1],
                  fixed(rate(foreign.member_alarms[0], foreign.frames), 3) +
                      " / " +
                      fixed(rate(foreign.member_alarms[1], foreign.frames), 3),
                  beats ? "beats best member" : "-");
    }
    std::cout << fused.render();
    std::printf("\nsuppression demonstrated: %s\n", demonstrated ? "yes" : "no");
    return 0;
}
