// End-to-end check of the acceptance criterion for the observability layer:
// running `adiv_score --metrics - --trace trace.jsonl` emits the run
// manifest as the first trace line, a span pair per scored window batch
// parenting the detector's score spans, and a final metrics dump carrying
// online.events_consumed, the push-latency percentiles, and the alarm-rate
// gauge.
//
// The tool binaries are located via ADIV_TRAIN_TOOL / ADIV_SCORE_TOOL /
// ADIV_TRACEVIEW_TOOL compile definitions (set from tests/CMakeLists.txt when
// the tools are part of the build); without them the tests skip.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/stream_io.hpp"
#include "support/corpus_fixture.hpp"
#include "support/temp_dir.hpp"

namespace adiv {
namespace {

#if defined(ADIV_TRAIN_TOOL) && defined(ADIV_SCORE_TOOL) && defined(ADIV_TRACEVIEW_TOOL)

std::string quoted(const std::string& path) { return "'" + path + "'"; }

int run_command(const std::string& command) {
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/// The 16-hex value of a span line's top-level id field ("" when absent).
std::string id_field(const std::string& line, const std::string& key) {
    const std::string prefix = "\"" + key + "\":\"";
    const std::size_t at = line.find(prefix);
    return at == std::string::npos ? "" : line.substr(at + prefix.size(), 16);
}

class ObservabilityCli : public ::testing::Test {
protected:
    // Train once for the whole fixture: write a training stream from the
    // shared corpus, fit a stide model with the real tool.
    static void SetUpTestSuite() {
        // Per-process: every case runs SetUpTestSuite in its own process,
        // and concurrent cases must not rebuild each other's model files.
        dir_ = new std::string(test::temp_dir());
        save_stream_file(test::small_corpus().generate_heldout(20'000, 11),
                         *dir_ + "train.stream");
        save_stream_file(test::small_corpus().generate_heldout(6'000, 13),
                         *dir_ + "test.stream");
        const std::string train_log = *dir_ + "train_stdout.txt";
        const int rc = run_command(
            std::string(ADIV_TRAIN_TOOL) + " --detector stide --window 6" +
            " --input " + quoted(*dir_ + "train.stream") +
            " --out " + quoted(*dir_ + "model.adiv") +
            " --trace " + quoted(*dir_ + "train_trace.jsonl") +
            " --metrics - > " + quoted(train_log));
        ASSERT_EQ(rc, 0) << read_file(train_log);
    }

    static void TearDownTestSuite() {
        delete dir_;
        dir_ = nullptr;
    }

    static std::string* dir_;
};

std::string* ObservabilityCli::dir_ = nullptr;

TEST_F(ObservabilityCli, TrainEmitsManifestSpanAndMetrics) {
    const auto trace = read_lines(*dir_ + "train_trace.jsonl");
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.front().find("{\"type\":\"manifest\""), 0u);
    EXPECT_NE(trace.front().find("\"tool\":\"adiv_train\""), std::string::npos);
    EXPECT_NE(trace.front().find("\"detector\":\"stide\""), std::string::npos);

    const std::string joined = read_file(*dir_ + "train_trace.jsonl");
    EXPECT_NE(joined.find("\"name\":\"detect.train\""), std::string::npos);
    EXPECT_NE(joined.find("\"type\":\"span_end\""), std::string::npos);

    const std::string stdout_text = read_file(*dir_ + "train_stdout.txt");
    EXPECT_NE(stdout_text.find("detect.train_calls"), std::string::npos);
    EXPECT_NE(stdout_text.find("detect.train_events"), std::string::npos);
    EXPECT_NE(stdout_text.find("\"counters\""), std::string::npos)
        << "--metrics - should dump machine JSON to stdout";
}

TEST_F(ObservabilityCli, ScoreEmitsManifestNestedSpansAndMetrics) {
    const std::string trace_path = *dir_ + "score_trace.jsonl";
    const std::string log_path = *dir_ + "score_stdout.txt";
    const int rc = run_command(
        std::string(ADIV_SCORE_TOOL) + " --model " + quoted(*dir_ + "model.adiv") +
        " --input " + quoted(*dir_ + "test.stream") + " --batch 1000" +
        " --jobs 1" +  // pin the serial online-scorer path the spans describe
        " --trace " + quoted(trace_path) + " --metrics - > " + quoted(log_path));
    ASSERT_TRUE(rc == 0 || rc == 2) << read_file(log_path);  // 2 = alarms fired

    const auto trace = read_lines(trace_path);
    ASSERT_FALSE(trace.empty());
    // Manifest first.
    EXPECT_EQ(trace.front().find("{\"type\":\"manifest\""), 0u);
    EXPECT_NE(trace.front().find("\"tool\":\"adiv_score\""), std::string::npos);
    EXPECT_NE(trace.front().find("\"detector\":\"stide\""), std::string::npos);
    EXPECT_NE(trace.front().find("\"min_window\":6"), std::string::npos);

    // 6000 events in batches of 1000 -> 6 score.batch root spans, each
    // parenting the detect.score spans opened inside it.
    const std::string joined = read_file(trace_path);
    const std::string batch_begin = "\"type\":\"span_begin\",\"name\":\"score.batch\"";
    const std::string score_begin = "\"type\":\"span_begin\",\"name\":\"detect.score\"";
    std::set<std::string> batch_spans;
    std::size_t scores = 0;
    for (const std::string& line : trace) {
        if (line.find(batch_begin) != std::string::npos) {
            EXPECT_EQ(id_field(line, "parent"), "0000000000000000") << line;
            batch_spans.insert(id_field(line, "span"));
        } else if (line.find(score_begin) != std::string::npos) {
            ++scores;
            EXPECT_EQ(batch_spans.count(id_field(line, "parent")), 1u)
                << "detect.score not parented by a score.batch: " << line;
        }
    }
    EXPECT_EQ(batch_spans.size(), 6u);
    EXPECT_GE(scores, 6u);
    EXPECT_EQ(count_occurrences(joined, "\"name\":\"score.batch\""),
              count_occurrences(joined, "\"type\":\"span_begin\",\"name\":\"score.batch\"") * 2)
        << "every batch span must close";
    EXPECT_NE(joined.find("\"windows_scored\""), std::string::npos);

    // Final metrics dump: human table and machine JSON on stdout.
    const std::string stdout_text = read_file(log_path);
    EXPECT_NE(stdout_text.find("-- metrics --"), std::string::npos);
    EXPECT_NE(stdout_text.find("online.events_consumed"), std::string::npos);
    EXPECT_NE(stdout_text.find("6000"), std::string::npos);
    EXPECT_NE(stdout_text.find("online.alarm_rate"), std::string::npos);
    EXPECT_NE(stdout_text.find("p50"), std::string::npos);
    EXPECT_NE(stdout_text.find("p99"), std::string::npos);
    EXPECT_NE(stdout_text.find("\"online.events_consumed\":6000"), std::string::npos);
}

TEST_F(ObservabilityCli, MetricsFileReceivesJsonDump) {
    const std::string metrics_path = *dir_ + "metrics.json";
    const std::string log_path = *dir_ + "score_file_stdout.txt";
    const int rc = run_command(
        std::string(ADIV_SCORE_TOOL) + " --model " + quoted(*dir_ + "model.adiv") +
        " --input " + quoted(*dir_ + "test.stream") + " --jobs 1" +
        " --metrics " + quoted(metrics_path) + " > " + quoted(log_path));
    ASSERT_TRUE(rc == 0 || rc == 2) << read_file(log_path);
    const std::string json = read_file(metrics_path);
    EXPECT_EQ(json.find("{\"counters\":"), 0u);
    EXPECT_NE(json.find("\"online.events_consumed\":6000"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(json.find("\"online.alarm_rate\":"), std::string::npos);
    EXPECT_NE(json.find("\"sketches\":{"), std::string::npos);
    EXPECT_NE(json.find("\"p95\":"), std::string::npos);
}

TEST_F(ObservabilityCli, WithoutFlagsNoTraceOrMetricsAppear) {
    const std::string log_path = *dir_ + "score_plain_stdout.txt";
    const int rc = run_command(
        std::string(ADIV_SCORE_TOOL) + " --model " + quoted(*dir_ + "model.adiv") +
        " --input " + quoted(*dir_ + "test.stream") + " > " + quoted(log_path));
    ASSERT_TRUE(rc == 0 || rc == 2) << read_file(log_path);
    const std::string stdout_text = read_file(log_path);
    EXPECT_EQ(stdout_text.find("-- metrics --"), std::string::npos);
    EXPECT_EQ(stdout_text.find("span_begin"), std::string::npos);
}

TEST_F(ObservabilityCli, ParallelScoringMatchesSerialCsv) {
    const std::string serial_path = *dir_ + "csv_serial.txt";
    const std::string parallel_path = *dir_ + "csv_parallel.txt";
    const std::string base = std::string(ADIV_SCORE_TOOL) + " --model " +
                             quoted(*dir_ + "model.adiv") + " --input " +
                             quoted(*dir_ + "test.stream") + " --csv";
    ASSERT_EQ(run_command(base + " --jobs 1 > " + quoted(serial_path)), 0);
    ASSERT_EQ(run_command(base + " --jobs 4 > " + quoted(parallel_path)), 0);
    const std::string serial = read_file(serial_path);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, read_file(parallel_path))
        << "chunked parallel scoring must splice to the exact serial responses";
}

TEST_F(ObservabilityCli, StdinHeaderIsReadAsItGrows) {
    // A trace header on stdin that names far more symbols than it carries:
    // the names are read until the input runs out, so the declared alphabet
    // is never allocated and the run ends in the reader's DataError.
    for (const std::string declared : {"2305843009213693952", "1099511627776"}) {
        SCOPED_TRACE(declared);
        const std::string err_path = *dir_ + "stdin_header_stderr.txt";
        const int rc = run_command(
            "printf 'adiv-trace 1 " + declared + " 3\\na b c\\n' | " +
            std::string(ADIV_SCORE_TOOL) + " --model " +
            quoted(*dir_ + "model.adiv") + " --input - > /dev/null 2> " +
            quoted(err_path));
        EXPECT_EQ(rc, 1);
        EXPECT_EQ(read_file(err_path),
                  "adiv_score: input truncated while reading alphabet name\n");
    }
}

TEST_F(ObservabilityCli, StdinSymbolIdIsCheckedBeforeNarrowing) {
    // 2^32 would narrow to symbol 0 and score as the window 0 1 2 3; it is
    // an id outside the model's alphabet, first token or not.
    for (const std::string input : {"4294967296 1 2 3", "1 2 4294967296 3"}) {
        SCOPED_TRACE(input);
        const std::string err_path = *dir_ + "stdin_symbol_stderr.txt";
        const int rc = run_command("printf '" + input + "\\n' | " +
                                   std::string(ADIV_SCORE_TOOL) + " --model " +
                                   quoted(*dir_ + "model.adiv") +
                                   " --input - > /dev/null 2> " + quoted(err_path));
        EXPECT_EQ(rc, 1);
        EXPECT_EQ(read_file(err_path), "adiv_score: symbol id outside alphabet\n");
    }
}

TEST(TraceviewCli, CountsOnlyTheLinesItsInputHas) {
    // One span_end line with a malformed number, with and without its final
    // newline: one line read, one skipped, whichever way the file ends.
    const std::string line =
        R"({"type":"span_end","name":"x","t":-,"dur_s":1,"trace":"00000000000000aa",)"
        R"("span":"0000000000000001","parent":"0000000000000000"})";
    const std::string dir = test::temp_dir();
    for (const bool newline : {true, false}) {
        const std::string trace =
            dir + (newline ? "one_line.jsonl" : "one_line_bare.jsonl");
        {
            std::ofstream out(trace);
            out << line << (newline ? "\n" : "");
        }
        const std::string table = dir + "one_line_table.txt";
        const std::string json = dir + "one_line_json.txt";
        const std::string tool = std::string(ADIV_TRACEVIEW_TOOL) + " " + quoted(trace);
        ASSERT_EQ(run_command(tool + " > " + quoted(table)), 0);
        ASSERT_EQ(run_command(tool + " --json > " + quoted(json)), 0);
        EXPECT_NE(read_file(table).find("(1 of 1 lines skipped as malformed)"),
                  std::string::npos)
            << read_file(table);
        EXPECT_NE(read_file(json).find("\"lines\":1,\"skipped\":1"), std::string::npos)
            << read_file(json);
    }
}

#else  // tool paths not provided by the build

TEST(ObservabilityCli, DISABLED_ToolsNotBuilt) {
    GTEST_SKIP() << "adiv_train/adiv_score/adiv_traceview were not part of this build";
}

#endif

}  // namespace
}  // namespace adiv
