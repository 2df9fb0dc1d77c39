// Umbrella header: the full public API of the adiv library.
//
// adiv reproduces "The Effects of Algorithmic Diversity on Anomaly Detector
// Performance" (Tan & Maxion, DSN 2005): four diverse sequence-based anomaly
// detectors, the synthetic corpus and minimal-foreign-sequence machinery they
// are evaluated on, and the diversity/coverage analysis built on top.
#pragma once

// Observability: metrics, trace spans, run manifests, live telemetry,
// hot-path profiling (wait sites, stage stamps, flight recorder)
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/profile.hpp"
#include "obs/sketch.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "obs/traceview.hpp"

// Utility substrate
#include "util/cli.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/text_serial.hpp"

// Sequence substrate
#include "seq/alphabet.hpp"
#include "seq/conditional_model.hpp"
#include "seq/ngram.hpp"
#include "seq/ngram_map.hpp"
#include "seq/ngram_table.hpp"
#include "seq/stats.hpp"
#include "seq/stream.hpp"
#include "seq/types.hpp"

// Data generation
#include "datagen/corpus.hpp"
#include "datagen/markov_chain.hpp"
#include "datagen/trace_model.hpp"

// Anomaly synthesis and injection
#include "anomaly/foreign.hpp"
#include "anomaly/injection.hpp"
#include "anomaly/mfs_builder.hpp"
#include "anomaly/rare_anomaly.hpp"
#include "anomaly/subsequence_oracle.hpp"
#include "anomaly/suite.hpp"

// Neural-network substrate
#include "nn/encoding.hpp"
#include "nn/hmm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

// Detectors
#include "detect/detector.hpp"
#include "detect/hmm_detector.hpp"
#include "detect/instrumented.hpp"
#include "detect/lane_brodley.hpp"
#include "detect/lfc.hpp"
#include "detect/lookahead_pairs.hpp"
#include "detect/markov.hpp"
#include "detect/nn_detector.hpp"
#include "detect/registry.hpp"
#include "detect/rule_detector.hpp"
#include "detect/stide.hpp"
#include "detect/tstide.hpp"

// Persistence
#include "io/model_io.hpp"
#include "io/stream_io.hpp"

// Core evaluation
#include "core/alarms.hpp"
#include "core/capability.hpp"
#include "core/diversity.hpp"
#include "core/ensemble.hpp"
#include "core/experiment.hpp"
#include "core/false_alarm.hpp"
#include "core/online.hpp"
#include "core/perf_map.hpp"
#include "core/response.hpp"

// Experiment engine: plan / scheduler / render
#include "engine/plan.hpp"
#include "engine/render.hpp"
#include "engine/scheduler.hpp"

// Fusion: online ensemble scoring with principled fused thresholds
#include "fusion/ensemble_scorer.hpp"
#include "fusion/rules.hpp"
#include "fusion/spec.hpp"

// Online detection server: wire protocol, transports, sessions, server
#include "serve/client.hpp"
#include "serve/http_metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/transport.hpp"
