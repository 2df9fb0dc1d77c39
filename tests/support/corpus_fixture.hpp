// Shared, lazily built experiment fixtures for the test suite.
//
// Building a corpus and an evaluation suite is the expensive part of most
// integration tests; these accessors build each exactly once per test binary
// run. The "small" variants use a 200k-element corpus and a reduced grid so
// the whole suite stays fast; the paper-scale corpus (1M elements) is
// available for the few tests that assert corpus-level properties.
#pragma once

#include "anomaly/suite.hpp"
#include "datagen/corpus.hpp"

namespace adiv::test {

/// 200k-element corpus, default spec otherwise. Built once.
const TrainingCorpus& small_corpus();

/// Suite over small_corpus(): AS 2..9, DW 2..10, background 1024. Built once.
const EvaluationSuite& small_suite();

/// The paper-scale corpus: 1,000,000 elements. Built once, on first use.
const TrainingCorpus& paper_corpus();

/// `stream` with each event replaced, with probability `share`, by a
/// uniform draw over its alphabet: the novel windows served traffic holds.
EventStream with_uniform_events(const EventStream& stream, double share,
                                std::uint64_t seed);

/// `length` events over `alphabet` symbols that mostly step to the next
/// symbol and sometimes skip 1 to 3 ahead: few distinct windows over a wide
/// alphabet.
EventStream stepping_stream(std::size_t alphabet, std::size_t length,
                            std::uint64_t seed);

}  // namespace adiv::test
