#!/bin/sh
# Tier-1 gate plus optional sanitizer passes.
#
#   tools/ci_check.sh                   # configure, build, ctest (build/);
#                                       # every case runs up to 3 times
#                                       # (--repeat until-fail:3) so a flaky
#                                       # test fails the gate
#   tools/ci_check.sh --sanitize        # also build + run tests under
#                                       # ASan/UBSan (build-san/, slower)
#   tools/ci_check.sh --sanitize thread # also build under TSan (build-tsan/)
#                                       # and run the whole suite there
#   tools/ci_check.sh --sanitize all    # both sanitizer passes
#   tools/ci_check.sh --serve-smoke     # also: train a model, start the
#                                       # adiv_serve daemon on an ephemeral
#                                       # port, drive it with adiv_loadgen
#                                       # (verified), SIGTERM-drain it
#   tools/ci_check.sh --obs-smoke       # also: run a small instrumented map
#                                       # experiment (--trace + a --metrics
#                                       # dump; its -- csv -- block must
#                                       # equal a --jobs 1 run's, and so
#                                       # must a small neural-net map's at
#                                       # --jobs 2), analyze
#                                       # the trace with adiv_traceview (one
#                                       # tree: the plan parents its workers'
#                                       # spans, and the setup spans plus the
#                                       # plan are the run's roots), scrape a
#                                       # live daemon's HTTP GET /metrics
#                                       # twice mid-load (exposition
#                                       # validated, counters monotone), then
#                                       # churn 2,100 scrapes and 5,100
#                                       # protocol connections: daemon
#                                       # threads and VmRSS must stay flat
#   tools/ci_check.sh --profile-smoke   # also: a --profile daemon driven
#                                       # with --dump and SIGUSR1
#                                       # flight-recorder dumps; its drain-
#                                       # time --metrics dump must hold six
#                                       # equal, non-zero serve.stage.*
#                                       # counts and serve.shard.table
#                                       # acquires; then the compile-time
#                                       # gate: a -DADIV_PROFILE=OFF build in
#                                       # build-noprof/ running tier-1
#   tools/ci_check.sh --shard-smoke     # also: start adiv_serve --jobs 4
#                                       # (4 table shards) --profile, drive
#                                       # a verified loadgen
#                                       # run over TCP, scrape /metrics for
#                                       # the serve.shard.* instruments, and
#                                       # require serve.shard.table acquires
#                                       # in the drain-time --metrics dump
#   tools/ci_check.sh --ensemble-smoke  # also: train the paper's four
#                                       # detectors, start a sharded daemon
#                                       # serving all four, OPEN a two-member
#                                       # and a four-member vote ensemble
#                                       # over TCP (verified against the local
#                                       # serial replay), scrape /metrics for
#                                       # the fusion.* instruments, and run
#                                       # bench/ensemble_analysis, which must
#                                       # print "suppression demonstrated: yes"
#   tools/ci_check.sh --trace-smoke     # also: request tracing end to end —
#                                       # a --trace daemon driven by a --trace
#                                       # loadgen (verified), the printed
#                                       # per-session trace id fed to
#                                       # adiv_traceview --request across both
#                                       # span files (client verb spans must
#                                       # parent the daemon's handling spans),
#                                       # exemplar trace ids asserted in the
#                                       # /metrics exposition, and adiv_top
#                                       # --once rendered against the live
#                                       # daemon
#   tools/ci_check.sh --bench-smoke     # also: the repository benchmark
#                                       # (python3 perfbench/run.py) for 3 s
#                                       # on each workload; every run must
#                                       # end "correct": true (served replies
#                                       # and map cells byte-exact against
#                                       # serial replay) with 0 failed
#                                       # operations. No timing gate.
#   tools/ci_check.sh --lint            # also: adiv_lint self-scan with every
#                                       # rule enabled (must be clean), a
#                                       # --json schema_version check, and,
#                                       # when clang-tidy is on PATH,
#                                       # clang-tidy over src/
#
# All ci_check builds configure with -DADIV_WERROR=ON: warnings that are
# tolerable interactively are failures at the gate.
#
# Exits non-zero on the first failure. Run from the repository root.
set -eu

jobs=$(nproc 2>/dev/null || echo 2)
asan=0
tsan=0
serve_smoke=0
obs_smoke=0
profile_smoke=0
shard_smoke=0
ensemble_smoke=0
trace_smoke=0
bench_smoke=0
lint=0
expect_mode=0
for arg in "$@"; do
    if [ "$expect_mode" -eq 1 ]; then
        expect_mode=0
        case "$arg" in
            address|address,undefined) asan=1; continue ;;
            thread) tsan=1; continue ;;
            all) asan=1; tsan=1; continue ;;
            *) echo "unknown sanitizer '$arg'" >&2
               echo "usage: tools/ci_check.sh [--sanitize [address|thread|all]]" >&2
               exit 2 ;;
        esac
    fi
    case "$arg" in
        --sanitize) expect_mode=1 ;;
        --sanitize=thread) tsan=1 ;;
        --sanitize=address|--sanitize=address,undefined) asan=1 ;;
        --sanitize=all) asan=1; tsan=1 ;;
        --serve-smoke) serve_smoke=1 ;;
        --obs-smoke) obs_smoke=1 ;;
        --profile-smoke) profile_smoke=1 ;;
        --shard-smoke) shard_smoke=1 ;;
        --ensemble-smoke) ensemble_smoke=1 ;;
        --trace-smoke) trace_smoke=1 ;;
        --bench-smoke) bench_smoke=1 ;;
        --lint) lint=1 ;;
        *) echo "usage: tools/ci_check.sh [--sanitize [address|thread|all]] [--serve-smoke] [--obs-smoke] [--profile-smoke] [--shard-smoke] [--ensemble-smoke] [--trace-smoke] [--bench-smoke] [--lint]" >&2
           exit 2 ;;
    esac
done
# Bare `--sanitize` keeps its historical meaning: address,undefined.
if [ "$expect_mode" -eq 1 ]; then asan=1; fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . -DADIV_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs" --repeat until-fail:3)

if [ "$lint" -eq 1 ]; then
    echo "== lint: adiv_lint self-scan (all rules) =="
    ./build/tools/adiv_lint .
    ./build/tools/adiv_lint --json . | grep -q '"schema_version":2' || {
        echo "lint: --json output carries no schema_version:2" >&2
        exit 1
    }
    if command -v clang-tidy >/dev/null 2>&1; then
        echo "== lint: clang-tidy over src/ =="
        find src -name '*.cpp' -print | xargs clang-tidy -p build --quiet
    else
        echo "== lint: clang-tidy not on PATH, step skipped =="
    fi
fi

if [ "$asan" -eq 1 ]; then
    echo "== sanitizer pass: address,undefined =="
    cmake -B build-san -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DADIV_SANITIZE=address,undefined -DADIV_WERROR=ON \
        -DADIV_BUILD_BENCH=OFF -DADIV_BUILD_EXAMPLES=OFF
    cmake --build build-san -j "$jobs"
    (cd build-san && ctest --output-on-failure -j "$jobs")
fi

if [ "$tsan" -eq 1 ]; then
    echo "== sanitizer pass: thread (whole suite) =="
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DADIV_SANITIZE=thread -DADIV_WERROR=ON \
        -DADIV_BUILD_BENCH=OFF -DADIV_BUILD_EXAMPLES=OFF
    cmake --build build-tsan -j "$jobs"
    # Every case, not a hand-kept list: this pass is the repository's data
    # race and lock-order check (TSan reports both, and a lock-order
    # inversion fails the case even when no deadlock happens), so a suite
    # renamed or added anywhere stays covered. About 2.5 minutes on 4 cores.
    (cd build-tsan && ctest --output-on-failure -j "$jobs")
fi

if [ "$serve_smoke" -eq 1 ]; then
    echo "== serve smoke: daemon + loadgen over TCP =="
    smoke_dir=$(mktemp -d)
    serve_pid=""
    trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    # A model of the generated paper corpus: loadgen's streams then score
    # below 1.0 on most windows, so --verify compares informative scores (a
    # demo-trace model flags every window, and all-1.0 replies would verify
    # even if reordered or misrouted).
    ./build/tools/adiv_train --detector stide --window 6 \
        --training-length 20000 --seed 11 --out "$smoke_dir/model.adiv"
    ./build/tools/adiv_serve --model "$smoke_dir/model.adiv" --port 0 --jobs 2 \
        > "$smoke_dir/serve.log" 2>&1 &
    serve_pid=$!
    port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        [ -n "$port" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$smoke_dir/serve.log" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$port" ] || { echo "serve smoke: daemon never reported a port" >&2; exit 1; }
    # A session error or a score mismatch exits non-zero, which set -e turns
    # into a failure; the summary line shows that --verify ran.
    ./build/tools/adiv_loadgen --port "$port" --model "$smoke_dir/model.adiv" \
        --sessions 8 --events 20000 --verify > "$smoke_dir/loadgen.log"
    grep -q '(verified bit-identical)' "$smoke_dir/loadgen.log" || {
        echo "serve smoke: loadgen did not verify" >&2; exit 1; }
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "serve smoke: daemon exited non-zero" >&2; exit 1; }
    grep -q 'drained' "$smoke_dir/serve.log" || {
        echo "serve smoke: daemon did not drain cleanly" >&2; exit 1; }
    rm -rf "$smoke_dir"
    trap - EXIT
fi

if [ "$obs_smoke" -eq 1 ]; then
    echo "== obs smoke: instrumented map run + traceview + live scrape =="
    smoke_dir=$(mktemp -d)
    serve_pid=""
    trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT

    echo "-- obs smoke: small map experiment with a trace and a metrics dump --"
    ./build/bench/fig5_stide_map --training-length 20000 --background 512 \
        --max-anomaly 3 --max-window 4 --jobs 2 \
        --metrics "$smoke_dir/metrics.json" \
        --trace "$smoke_dir/trace.jsonl" > "$smoke_dir/map.log"
    [ -s "$smoke_dir/metrics.json" ] || {
        echo "obs smoke: no final metrics dump" >&2; exit 1; }
    head -1 "$smoke_dir/trace.jsonl" | grep -q '"type":"manifest"' || {
        echo "obs smoke: trace does not start with a manifest" >&2; exit 1; }
    # Maps do not depend on the jobs value: the same map at --jobs 1 must
    # print the same -- csv -- block. The neural net's map is checked too,
    # because both the column run order and its trainer's kernel are
    # parallel-sensitive code.
    ./build/bench/fig5_stide_map --training-length 20000 --background 512 \
        --max-anomaly 3 --max-window 4 --jobs 1 > "$smoke_dir/map_j1.log"
    ./build/bench/fig6_nn_map --training-length 20000 --background 512 \
        --max-anomaly 3 --max-window 4 --jobs 1 > "$smoke_dir/nn_j1.log"
    ./build/bench/fig6_nn_map --training-length 20000 --background 512 \
        --max-anomaly 3 --max-window 4 --jobs 2 > "$smoke_dir/nn_j2.log"
    for map in map nn; do
        for j in 1 2; do
            log="$smoke_dir/${map}_j$j.log"
            [ "$map$j" = map2 ] && log="$smoke_dir/map.log"
            sed -n '/^-- csv --$/,/^# plan:/p' "$log" | grep -v '^# plan:' \
                > "$smoke_dir/${map}_csv_j$j.txt"
        done
    done
    grep -q '^stide,' "$smoke_dir/map_csv_j1.txt" || {
        echo "obs smoke: the --jobs 1 map printed no csv rows" >&2; exit 1; }
    grep -q '^neural-net,' "$smoke_dir/nn_csv_j1.txt" || {
        echo "obs smoke: the --jobs 1 neural-net map printed no csv rows" >&2; exit 1; }
    cmp -s "$smoke_dir/map_csv_j1.txt" "$smoke_dir/map_csv_j2.txt" || {
        echo "obs smoke: --jobs 1 and --jobs 2 printed different maps" >&2; exit 1; }
    cmp -s "$smoke_dir/nn_csv_j1.txt" "$smoke_dir/nn_csv_j2.txt" || {
        echo "obs smoke: --jobs 1 and --jobs 2 printed different neural-net maps" >&2; exit 1; }

    echo "-- obs smoke: adiv_traceview over the run's trace --"
    ./build/tools/adiv_traceview "$smoke_dir/trace.jsonl" > "$smoke_dir/traceview.txt"
    grep -q 'critical path:' "$smoke_dir/traceview.txt" || {
        echo "obs smoke: traceview found no critical path" >&2; exit 1; }
    ./build/tools/adiv_traceview --json "$smoke_dir/trace.jsonl" \
        > "$smoke_dir/traceview.json"
    grep -q '"skipped":0' "$smoke_dir/traceview.json" || {
        echo "obs smoke: traceview skipped lines of its own trace" >&2; exit 1; }
    # One tree: the plan parents its workers' spans, and the run's roots are
    # the setup spans plus the plan.
    python3 - "$smoke_dir/traceview.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
spans = {row["name"]: row for row in doc["spans"]}
plan = spans["engine.plan"]
roots = sum(spans[n]["total_s"] for n in ("datagen.corpus", "experiment.suite", "engine.plan"))
if not plan["self_s"] < plan["total_s"]:
    sys.exit("obs smoke: engine.plan has no child spans")
if abs(doc["runs"][0]["root_total_s"] - roots) > 1e-6:
    sys.exit("obs smoke: the run's roots are not datagen.corpus, experiment.suite, engine.plan")
PY

    echo "-- obs smoke: daemon scrape (HTTP GET /metrics during load) --"
    ./build/tools/adiv_train --demo-trace "$smoke_dir/demo.trace"
    ./build/tools/adiv_train --detector stide --window 6 \
        --input "$smoke_dir/demo.trace" --out "$smoke_dir/model.adiv"
    ./build/tools/adiv_serve --model "$smoke_dir/model.adiv" --port 0 --jobs 2 \
        --metrics-port 0 > "$smoke_dir/serve.log" 2>&1 &
    serve_pid=$!
    port=""
    http_port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        http_port=$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        [ -n "$port" ] && [ -n "$http_port" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$smoke_dir/serve.log" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$port" ] && [ -n "$http_port" ] || {
        echo "obs smoke: daemon never reported its ports" >&2; exit 1; }
    # --scrape-http pulls GET /metrics twice while sessions are actively
    # scoring: both expositions must parse and every counter must be
    # monotone between them.
    ./build/tools/adiv_loadgen --port "$port" --model "$smoke_dir/model.adiv" \
        --sessions 4 --events 20000 --scrape-http "$http_port" \
        > "$smoke_dir/loadgen.log"
    grep -q 'valid OpenMetrics' "$smoke_dir/loadgen.log" || {
        echo "obs smoke: loadgen scrape did not validate" >&2; exit 1; }

    echo "-- obs smoke: scrape churn keeps daemon threads and memory flat --"
    # 100 scrapes settle the daemon; 2,000 more must add no thread and at
    # most 2 MB of resident memory. A thread kept per scrape fails this.
    python3 - "$http_port" "$serve_pid" <<'PY'
import http.client
import sys

port, pid = int(sys.argv[1]), sys.argv[2]


def scrape(count):
    for _ in range(count):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        response.read()
        conn.close()
        if response.status != 200:
            sys.exit(f"obs smoke: GET /metrics answered {response.status}")


def status_kb(field):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    sys.exit(f"obs smoke: no {field} in /proc/{pid}/status")


scrape(100)
threads, rss = status_kb("Threads"), status_kb("VmRSS")
scrape(2000)
threads_after, rss_after = status_kb("Threads"), status_kb("VmRSS")
print(f"scrape churn: Threads {threads} -> {threads_after}, "
      f"VmRSS {rss} -> {rss_after} kB")
if threads_after != threads or rss_after - rss > 2048:
    sys.exit("obs smoke: scrapes left threads or memory behind")
PY

    echo "-- obs smoke: connection churn keeps daemon threads and memory flat --"
    # 100 protocol connections settle the daemon; 5,000 more, each OPEN
    # default, read OPENED, close, must add no thread and at most 2 MB of
    # resident memory. A connection kept after its client left fails this.
    python3 - "$port" "$serve_pid" <<'PY'
import socket
import sys
import time

port, pid = int(sys.argv[1]), sys.argv[2]
OPEN = b"OPEN default"
FRAME = str(len(OPEN)).encode() + b" " + OPEN


def read_frame(sock):
    data = b""
    while b" " not in data:
        chunk = sock.recv(4096)
        if not chunk:
            sys.exit("obs smoke: daemon closed the connection before OPENED")
        data += chunk
    size, _, payload = data.partition(b" ")
    while len(payload) < int(size):
        chunk = sock.recv(4096)
        if not chunk:
            sys.exit("obs smoke: daemon closed the connection mid-frame")
        payload += chunk
    return payload


def churn(count):
    for _ in range(count):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(FRAME)
            reply = read_frame(sock)
            if not reply.startswith(b"OPENED "):
                sys.exit(f"obs smoke: OPEN default answered {reply[:60]!r}")


def status_kb(field):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    sys.exit(f"obs smoke: no {field} in /proc/{pid}/status")


def settled(field):
    # A reader ends just after its client closes; let the last one finish.
    time.sleep(0.5)
    return status_kb(field)


churn(100)
threads, rss = settled("Threads"), status_kb("VmRSS")
churn(5000)
threads_after, rss_after = settled("Threads"), status_kb("VmRSS")
print(f"connection churn: Threads {threads} -> {threads_after}, "
      f"VmRSS {rss} -> {rss_after} kB")
if threads_after != threads or rss_after - rss > 2048:
    sys.exit("obs smoke: connections left threads or memory behind")
PY
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "obs smoke: daemon exited non-zero" >&2; exit 1; }
    serve_pid=""
    rm -rf "$smoke_dir"
    trap - EXIT
fi

if [ "$profile_smoke" -eq 1 ]; then
    echo "== profile smoke: the daemon's profile in its metrics registry =="
    smoke_dir=$(mktemp -d)
    serve_pid=""
    trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    ./build/tools/adiv_train --demo-trace "$smoke_dir/demo.trace"
    ./build/tools/adiv_train --detector stide --window 6 \
        --input "$smoke_dir/demo.trace" --out "$smoke_dir/model.adiv"

    echo "-- profile smoke: profiled daemon, drain-time metrics, DUMP verb + SIGUSR1 --"
    # The daemon writes its registry, the whole profile, to --metrics when
    # it drains. --dump exercises the DUMP verb against every session's
    # flight ring.
    ./build/tools/adiv_serve --model "$smoke_dir/model.adiv" --port 0 --jobs 2 \
        --profile --metrics "$smoke_dir/metrics.json" \
        --dump-on-signal > "$smoke_dir/serve.log" 2>&1 &
    serve_pid=$!
    port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        [ -n "$port" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$smoke_dir/serve.log" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$port" ] || { echo "profile smoke: daemon never reported a port" >&2; exit 1; }
    ./build/tools/adiv_loadgen --port "$port" --model "$smoke_dir/model.adiv" \
        --sessions 2 --events 20000 --dump > "$smoke_dir/loadgen.log" &
    loadgen_pid=$!
    # Fire the flight-recorder dump while sessions are still live so the
    # rings have content; the daemon prints it between accept polls.
    sleep 1
    kill -USR1 "$serve_pid"
    wait "$loadgen_pid" || { cat "$smoke_dir/loadgen.log" >&2
        echo "profile smoke: loadgen --dump failed" >&2; exit 1; }
    grep -q 'client latency PUSH' "$smoke_dir/loadgen.log" || {
        echo "profile smoke: no client-side PUSH latency summary" >&2; exit 1; }
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "profile smoke: daemon exited non-zero" >&2; exit 1; }
    serve_pid=""
    grep -q 'flight recorder dump' "$smoke_dir/serve.log" || {
        echo "profile smoke: SIGUSR1 produced no flight recorder dump" >&2
        exit 1
    }
    # Every request stamps all six stage sketches, and the sessions' table
    # lookups pass through the serve.shard.table wait site.
    python3 - "$smoke_dir/metrics.json" <<'PY'
import json
import sys

metrics = json.load(open(sys.argv[1]))
stages = ["recv_wait", "recv_read", "parse", "score", "reply", "total"]
counts = {s: metrics["sketches"].get(f"serve.stage.{s}_us", {}).get("count", 0)
          for s in stages}
print(f"profile smoke: stage counts {counts}")
if len(set(counts.values())) != 1 or counts["total"] == 0:
    sys.exit("profile smoke: the six serve.stage.* sketches differ or are empty")
if metrics["counters"].get("serve.shard.table.acquires", 0) == 0:
    sys.exit("profile smoke: no serve.shard.table acquires in the metrics dump")
PY
    rm -rf "$smoke_dir"
    trap - EXIT

    # The zero-overhead contract's compile-time half: with ADIV_PROFILE=OFF
    # every stamp is an empty type and every profiled branch dead code; the
    # tree must still build warning-free and pass tier-1.
    echo "-- profile smoke: -DADIV_PROFILE=OFF build + tier-1 (build-noprof/) --"
    cmake -B build-noprof -S . -DADIV_PROFILE=OFF -DADIV_WERROR=ON
    cmake --build build-noprof -j "$jobs"
    (cd build-noprof && ctest --output-on-failure -j "$jobs")
fi

if [ "$shard_smoke" -eq 1 ]; then
    echo "== shard smoke: sharded daemon + verified loadgen + shard wait sites =="
    smoke_dir=$(mktemp -d)
    serve_pid=""
    trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    # Paper-corpus model, as in the serve smoke, so --verify is informative.
    ./build/tools/adiv_train --detector stide --window 6 \
        --training-length 20000 --seed 11 --out "$smoke_dir/model.adiv"
    # 4 session-table shards: the profiled build stamps the
    # serve.shard.table wait site, which the drain-time --metrics dump holds.
    ./build/tools/adiv_serve --model "$smoke_dir/model.adiv" --port 0 \
        --jobs 4 --metrics-port 0 --profile \
        --metrics "$smoke_dir/metrics.json" \
        > "$smoke_dir/serve.log" 2>&1 &
    serve_pid=$!
    port=""
    http_port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        http_port=$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        [ -n "$port" ] && [ -n "$http_port" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$smoke_dir/serve.log" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$port" ] && [ -n "$http_port" ] || {
        echo "shard smoke: daemon never reported its ports" >&2; exit 1; }
    grep -q 'shards=4' "$smoke_dir/serve.log" || {
        echo "shard smoke: daemon did not report shards=4" >&2; exit 1; }
    ./build/tools/adiv_loadgen --port "$port" --model "$smoke_dir/model.adiv" \
        --sessions 8 --events 20000 --verify > "$smoke_dir/loadgen.log"
    grep -q '(verified bit-identical)' "$smoke_dir/loadgen.log" || {
        echo "shard smoke: loadgen did not verify against the sharded daemon" >&2
        exit 1
    }
    # The live exposition must carry the shard instruments (dotted names
    # render with underscores in OpenMetrics).
    curl -sf "http://127.0.0.1:$http_port/metrics" > "$smoke_dir/metrics.txt" || {
        echo "shard smoke: GET /metrics failed" >&2; exit 1; }
    grep -q 'serve_shard_' "$smoke_dir/metrics.txt" || {
        echo "shard smoke: /metrics exposes no serve.shard.* instruments" >&2
        exit 1
    }
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "shard smoke: daemon exited non-zero" >&2; exit 1; }
    serve_pid=""
    grep -q 'drained' "$smoke_dir/serve.log" || {
        echo "shard smoke: daemon did not drain cleanly" >&2; exit 1; }
    python3 - "$smoke_dir/metrics.json" <<'PY'
import json
import sys

counters = json.load(open(sys.argv[1]))["counters"]
acquires = counters.get("serve.shard.table.acquires", 0)
print(f"shard smoke: serve.shard.table.acquires = {acquires}")
if acquires == 0:
    sys.exit("shard smoke: no serve.shard.table acquires in the metrics dump")
PY
    rm -rf "$smoke_dir"
    trap - EXIT
fi

if [ "$ensemble_smoke" -eq 1 ]; then
    echo "== ensemble smoke: sharded daemon + ensemble sessions + fusion metrics =="
    smoke_dir=$(mktemp -d)
    serve_pid=""
    trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    # Two members trained on different samples of the same generated paper
    # corpus: each misses different rare n-grams, so their false-alarm sets
    # only partially overlap — the diversity the fusion rules exploit.
    ./build/tools/adiv_train --detector stide --window 6 \
        --training-length 4000 --seed 11 --out "$smoke_dir/stide.adiv"
    ./build/tools/adiv_train --detector markov --window 6 \
        --training-length 4000 --seed 22 --out "$smoke_dir/markov.adiv"
    # The other two paper detectors, so the daemon loads every model file
    # format the served vote ensemble needs (the neural net's includes its
    # training contexts).
    ./build/tools/adiv_train --detector lane-brodley --window 6 \
        --training-length 4000 --seed 33 --out "$smoke_dir/lane_brodley.adiv"
    ./build/tools/adiv_train --detector neural-net --window 6 \
        --training-length 4000 --seed 44 --out "$smoke_dir/neural_net.adiv"
    models="$smoke_dir/stide.adiv,$smoke_dir/markov.adiv"
    models="$models,$smoke_dir/lane_brodley.adiv,$smoke_dir/neural_net.adiv"

    echo "-- ensemble smoke: verified ensemble sessions over TCP --"
    ./build/tools/adiv_serve --model "$models" \
        --port 0 --jobs 4 --metrics-port 0 \
        > "$smoke_dir/serve.log" 2>&1 &
    serve_pid=$!
    port=""
    http_port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        http_port=$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        [ -n "$port" ] && [ -n "$http_port" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$smoke_dir/serve.log" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$port" ] && [ -n "$http_port" ] || {
        echo "ensemble smoke: daemon never reported its ports" >&2; exit 1; }
    for target in 'stide/6+markov/6;fuse=ds' \
        'stide/6+markov/6+lane-brodley/6+neural-net/6;fuse=vote'; do
        ./build/tools/adiv_loadgen --port "$port" --model "$models" \
            --target "$target" \
            --sessions 8 --events 20000 --verify > "$smoke_dir/loadgen.log"
        grep -q '(verified bit-identical)' "$smoke_dir/loadgen.log" || {
            echo "ensemble smoke: served $target scores did not verify" >&2
            exit 1
        }
    done
    # The live exposition must carry the fusion instruments (dotted names
    # render with underscores in OpenMetrics).
    curl -sf "http://127.0.0.1:$http_port/metrics" > "$smoke_dir/metrics.txt" || {
        echo "ensemble smoke: GET /metrics failed" >&2; exit 1; }
    grep -q 'fusion_sessions_opened' "$smoke_dir/metrics.txt" || {
        echo "ensemble smoke: /metrics exposes no fusion.* instruments" >&2
        exit 1
    }
    grep -q 'fusion_threshold_m' "$smoke_dir/metrics.txt" || {
        echo "ensemble smoke: /metrics exposes no fusion.threshold.* gauges" >&2
        exit 1
    }
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "ensemble smoke: daemon exited non-zero" >&2; exit 1; }
    serve_pid=""
    grep -q 'drained' "$smoke_dir/serve.log" || {
        echo "ensemble smoke: daemon did not drain cleanly" >&2; exit 1; }

    echo "-- ensemble smoke: offline fused-vs-member replay (ensemble_analysis) --"
    # The same two members (stide/6 on a 4000-event sample with seed 11,
    # markov/6 on one with seed 22) replayed through EnsembleScorer under
    # every rule: some rule must false-alarm less than the best member at
    # matched probe coverage.
    ./build/bench/ensemble_analysis --training-length 20000 --background 512 \
        --max-anomaly 3 --max-window 4 --jobs 2 > "$smoke_dir/analysis.log"
    grep -q '^suppression demonstrated: yes$' "$smoke_dir/analysis.log" || {
        echo "ensemble smoke: no fused rule beat its best member" >&2
        exit 1
    }
    rm -rf "$smoke_dir"
    trap - EXIT
fi

if [ "$trace_smoke" -eq 1 ]; then
    echo "== trace smoke: traced requests end to end + adiv_top =="
    smoke_dir=$(mktemp -d)
    serve_pid=""
    trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    # Paper-corpus model, as in the serve smoke, so --verify is informative.
    ./build/tools/adiv_train --detector stide --window 6 \
        --training-length 20000 --seed 11 --out "$smoke_dir/model.adiv"
    # --trace streams the daemon's handling spans; --profile turns on the
    # serve.stage.* sketches, which keep the traced requests' ids as p99
    # exemplars — the ids /metrics and adiv_top surface.
    ./build/tools/adiv_serve --model "$smoke_dir/model.adiv" --port 0 \
        --jobs 2 --metrics-port 0 --profile \
        --trace "$smoke_dir/daemon_trace.jsonl" \
        > "$smoke_dir/serve.log" 2>&1 &
    serve_pid=$!
    port=""
    http_port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        http_port=$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$smoke_dir/serve.log")
        [ -n "$port" ] && [ -n "$http_port" ] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$smoke_dir/serve.log" >&2; exit 1; }
        sleep 0.2
    done
    [ -n "$port" ] && [ -n "$http_port" ] || {
        echo "trace smoke: daemon never reported its ports" >&2; exit 1; }
    # Traced, verified load: every session prints its deterministic trace id
    # up front and streams its client verb spans to client_trace.jsonl.
    ./build/tools/adiv_loadgen --port "$port" --model "$smoke_dir/model.adiv" \
        --sessions 2 --events 8000 --verify \
        --trace "$smoke_dir/client_trace.jsonl" > "$smoke_dir/loadgen.log"
    trace_id=$(sed -n 's/^session 0 trace=\([0-9a-f]*\)$/\1/p' \
        "$smoke_dir/loadgen.log")
    [ -n "$trace_id" ] || {
        echo "trace smoke: loadgen printed no session trace id" >&2; exit 1; }

    echo "-- trace smoke: adiv_top --once over the live daemon --"
    ./build/tools/adiv_top --port "$http_port" --once > "$smoke_dir/top.txt"
    grep -q 'throughput=' "$smoke_dir/top.txt" || {
        echo "trace smoke: adiv_top rendered no headline line" >&2; exit 1; }
    grep -q 'adiv_serve_events_pushed' "$smoke_dir/top.txt" || {
        echo "trace smoke: adiv_top shows no serve counters" >&2; exit 1; }
    grep -q 'adiv_serve_stage_total_us' "$smoke_dir/top.txt" || {
        echo "trace smoke: adiv_top shows no stage latency summaries" >&2
        exit 1
    }
    # Every PUSH was traced, so the stage sketches must expose p99 exemplars
    # naming real trace ids.
    curl -sf "http://127.0.0.1:$http_port/metrics" > "$smoke_dir/metrics.txt" || {
        echo "trace smoke: GET /metrics failed" >&2; exit 1; }
    grep -q 'trace_id="' "$smoke_dir/metrics.txt" || {
        echo "trace smoke: /metrics carries no exemplar trace ids" >&2; exit 1; }
    kill -TERM "$serve_pid"
    wait "$serve_pid" || { echo "trace smoke: daemon exited non-zero" >&2; exit 1; }
    serve_pid=""

    echo "-- trace smoke: adiv_traceview --request across both span files --"
    ./build/tools/adiv_traceview --request "$trace_id" \
        "$smoke_dir/client_trace.jsonl" "$smoke_dir/daemon_trace.jsonl" \
        > "$smoke_dir/request.txt"
    # One causal tree: the client's wire spans and the daemon's handling
    # spans all stitched under the printed trace id.
    for span in serve.client_open serve.client_push serve.open_handle \
                serve.shard_handle serve.score_push; do
        grep -q "$span" "$smoke_dir/request.txt" || {
            echo "trace smoke: request view is missing $span" >&2; exit 1; }
    done
    rm -rf "$smoke_dir"
    trap - EXIT
fi

if [ "$bench_smoke" -eq 1 ]; then
    echo "== bench smoke: perfbench correctness on every workload =="
    for workload in maps serve_small serve_fused; do
        result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 3 | tail -n 1)
        echo "$workload: $result" | cut -c 1-160
        printf '%s\n' "$result" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
' || {
            echo "bench smoke: $workload was not correct or failed operations" >&2
            exit 1
        }
    done
fi

echo "== ci_check: OK =="
