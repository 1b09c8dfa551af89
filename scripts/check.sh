#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite.
#
#   scripts/check.sh               # plain RelWithDebInfo build + ctest
#   scripts/check.sh --sanitize    # additionally an ASan+UBSan build + ctest
#   scripts/check.sh --tsan        # additionally a ThreadSanitizer build + ctest
#   scripts/check.sh --serve-smoke # additionally run the modelc -> score
#                                  # artifact pipeline end-to-end and check
#                                  # that modelc's exported table and
#                                  # artifact are byte-identical across
#                                  # RAINSHINE_THREADS
#   scripts/check.sh --net-smoke   # additionally check that malformed
#                                  # command lines, bench variables and
#                                  # example arguments are usage errors and
#                                  # that every tool's --help lists its
#                                  # flags, boot rainshine_serve on an
#                                  # ephemeral port, score over a real
#                                  # socket, scrape /metrics, SIGTERM-drain,
#                                  # and check the interrupted-run metrics
#                                  # sidecars
#   scripts/check.sh --stream-smoke# additionally boot rainshine_streamd,
#                                  # observe >= 1 rolling retrain + hot swap,
#                                  # scrape /series and /models, SIGTERM-drain,
#                                  # and validate the store snapshot + sidecar
#   scripts/check.sh --scale-smoke # additionally stream a ~100k-server fleet
#                                  # through simulate_streamed and assert
#                                  # nonzero tickets under the peak-RSS bound
#                                  # (RAINSHINE_RSS_BOUND_MB, default 32)
#   scripts/check.sh --predict-smoke # additionally fit + evaluate the
#                                  # early-warning study on a tiny fleet
#                                  # (asserts it beats the naive baseline),
#                                  # validate BENCH_predict.json, and check
#                                  # one rainshine_whatif sweep and one
#                                  # full_report are byte-identical across
#                                  # RAINSHINE_THREADS
#
# Flags combine (e.g. `--sanitize --tsan` runs all three suites). Extra
# arguments after the flags are forwarded to ctest (e.g. -R Ingest).
set -euo pipefail

cd "$(dirname "$0")/.."

sanitize=0
tsan=0
serve_smoke=0
net_smoke=0
stream_smoke=0
scale_smoke=0
predict_smoke=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --sanitize) sanitize=1 ;;
    --tsan) tsan=1 ;;
    --serve-smoke) serve_smoke=1 ;;
    --net-smoke) net_smoke=1 ;;
    --stream-smoke) stream_smoke=1 ;;
    --scale-smoke) scale_smoke=1 ;;
    --predict-smoke) predict_smoke=1 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "${ctest_args[@]}"
}

ctest_args=("$@")

# The parallel layer resolves RAINSHINE_THREADS first, hardware second
# (src/util/include/rainshine/util/parallel.hpp).
echo "== threads: ${RAINSHINE_THREADS:-$(nproc)} (RAINSHINE_THREADS=${RAINSHINE_THREADS:-unset}, nproc=$(nproc)) =="

echo "== tier-1: build + ctest =="
run_suite build

if [[ "$sanitize" == 1 ]]; then
  echo "== sanitizers: ASan+UBSan build + ctest =="
  run_suite build-asan -DRAINSHINE_SANITIZE=ON
fi

if [[ "$tsan" == 1 ]]; then
  echo "== sanitizers: TSan build + ctest =="
  run_suite build-tsan -DRAINSHINE_TSAN=ON
fi

if [[ "$serve_smoke" == 1 ]]; then
  echo "== serve smoke: modelc -> score pipeline =="
  workdir="$(mktemp -d)"
  trap 'rm -rf "${workdir:-}" "${netdir:-}"' EXIT
  ./build/tools/rainshine_modelc --demo --days 60 --trees 8 \
    --output "$workdir/demo.rsf" --export-csv "$workdir/rows.csv" \
    --metrics "$workdir/fit_metrics.json"
  ./build/tools/rainshine_score --model "$workdir/demo.rsf" \
    --input "$workdir/rows.csv" --output "$workdir/scored.csv" --stats \
    --metrics "$workdir/score_metrics.json"
  rows=$(($(wc -l < "$workdir/rows.csv") - 1))
  scored=$(($(wc -l < "$workdir/scored.csv") - 1))
  if [[ "$rows" != "$scored" ]]; then
    echo "serve smoke FAILED: scored $scored rows, expected $rows" >&2
    exit 1
  fi
  echo "serve smoke: scored $scored/$rows rows"

  # Scoring is bit-identical at any pool width: the same rows scored on one
  # thread and on four must produce byte-identical output end-to-end.
  RAINSHINE_THREADS=1 ./build/tools/rainshine_score --model "$workdir/demo.rsf" \
    --input "$workdir/rows.csv" --output "$workdir/scored_t1.csv"
  RAINSHINE_THREADS=4 ./build/tools/rainshine_score --model "$workdir/demo.rsf" \
    --input "$workdir/rows.csv" --output "$workdir/scored_t4.csv"
  if ! cmp -s "$workdir/scored_t1.csv" "$workdir/scored_t4.csv"; then
    echo "serve smoke FAILED: 1-thread and 4-thread scores disagree" >&2
    diff "$workdir/scored_t1.csv" "$workdir/scored_t4.csv" | head >&2
    exit 1
  fi
  echo "serve smoke: 1-thread and 4-thread outputs byte-identical"

  # So are the fit's inputs and output: the exported rack-day table and the
  # artifact grown from it.
  for threads in 1 4; do
    RAINSHINE_THREADS=$threads ./build/tools/rainshine_modelc --demo --days 60 \
      --trees 8 --output "$workdir/demo_t$threads.rsf" \
      --export-csv "$workdir/rows_t$threads.csv" >/dev/null
  done
  if ! cmp -s "$workdir/rows_t1.csv" "$workdir/rows_t4.csv" ||
     ! cmp -s "$workdir/demo_t1.rsf" "$workdir/demo_t4.rsf"; then
    echo "serve smoke FAILED: modelc's table or artifact differs across" \
      "RAINSHINE_THREADS" >&2
    exit 1
  fi
  echo "serve smoke: modelc table and artifact byte-identical at 1 and 4 threads"

  echo "== metrics smoke: sidecars parse and carry the expected series =="
  # modelc --demo fits straight from the simulated log (no ingest pass).
  ./build/tools/rainshine_metrics --check "$workdir/fit_metrics.json" \
    --require simdc.tickets_generated,cart.trees_grown,cart.split_search_us
  ./build/tools/rainshine_metrics --check "$workdir/score_metrics.json" \
    --require serve.requests_completed,serve.rows_scored,serve.latency_us
  ./build/tools/rainshine_metrics --demo --days 30 --format json \
    --output "$workdir/demo_metrics.json" --trace "$workdir/spans.csv"
  ./build/tools/rainshine_metrics --check "$workdir/demo_metrics.json" \
    --require simdc.tickets_generated,ingest.rows_ingested,cart.trees_grown,serve.rows_scored
  if [[ "$(head -1 "$workdir/spans.csv")" != "name,thread,depth,start_us,duration_us" ]]; then
    echo "metrics smoke FAILED: unexpected span CSV header" >&2
    exit 1
  fi
  # The benches' atexit sidecar (no per-bench flag plumbing).
  RAINSHINE_DAYS=60 RAINSHINE_STRIDE=6 RAINSHINE_METRICS="$workdir/bench_metrics.json" \
    ./build/bench/bench_table2_ticket_mix >/dev/null
  ./build/tools/rainshine_metrics --check "$workdir/bench_metrics.json" \
    --require simdc.tickets_generated,simdc.simulate_us
  echo "metrics smoke: 4 sidecars validated, $(($(wc -l < "$workdir/spans.csv") - 1)) spans traced"
fi

if [[ "$net_smoke" == 1 ]]; then
  echo "== net smoke: serve over a real socket, drain on SIGTERM =="
  netdir="$(mktemp -d)"
  trap 'rm -rf "${workdir:-}" "${netdir:-}"' EXIT
  ./build/tools/rainshine_modelc --demo --days 60 --trees 8 \
    --output "$netdir/demo.rsf" --export-csv "$netdir/rows.csv" >/dev/null

  # A malformed command line is a usage error: exit 2 with the offending
  # flag named on stderr — not a wrapped number, a value read up to the
  # first bad character, an internal precondition failure, or a run on the
  # default. The same holds for a bench's environment variable and an
  # example's argument. The timeout turns a binary that starts working
  # instead into a failure. Each line: the flag, variable or argument
  # stderr must name, then the command (variables first, as for env).
  printf 'x\n1\n' > "$netdir/body.csv"
  binaries="$PWD/build/tools:$PWD/build/bench:$PWD/build/examples"
  while read -r flag cmd; do
    status=0
    # shellcheck disable=SC2086  # $cmd is a command and its arguments
    PATH="$binaries:$PATH" timeout 10 env $cmd </dev/null >/dev/null \
      2> "$netdir/usage.err" || status=$?
    if [[ "$status" != 2 ]] || ! grep -qF -- ": $flag: " "$netdir/usage.err"; then
      echo "net smoke FAILED: $cmd exited $status, expected 2 naming $flag" >&2
      head -1 "$netdir/usage.err" >&2
      exit 1
    fi
  done <<CASES
--port rainshine_serve --model $netdir/demo.rsf --port 65537
--workers rainshine_serve --model $netdir/demo.rsf --workers x
--port rainshine_streamd --port 65537
--workers rainshine_streamd --workers x
--port rainshine_loadgen --once --port 65537
--cp rainshine_modelc --demo --output $netdir/m.rsf --cp abc
--trees rainshine_modelc --demo --output $netdir/m.rsf --trees -1
--sample-fraction rainshine_modelc --demo --output $netdir/m.rsf --sample-fraction x
--days rainshine_whatif --days 40x
--fleet rainshine_whatif --fleet bogus
--sort rainshine_whatif --sort bogus
--days rainshine_metrics --demo --days 1e3
--days rainshine_streamd --days abc
--rps rainshine_loadgen --port 1 --body-file $netdir/body.csv --rps abc
RAINSHINE_DAYS RAINSHINE_DAYS=40x bench_table2_ticket_mix
RAINSHINE_DAYS RAINSHINE_DAYS=abc bench_table2_ticket_mix
days full_report 40x $netdir/report.md
CASES

  # --help exits 0 and its stdout lists every flag the tool's source
  # declares (each quoted "--flag" literal).
  for tool in modelc score serve streamd whatif metrics loadgen; do
    if ! ./build/tools/rainshine_$tool --help > "$netdir/help.out"; then
      echo "net smoke FAILED: rainshine_$tool --help did not exit 0" >&2
      exit 1
    fi
    for flag in $(grep -o '"--[a-z-]*"' "tools/rainshine_$tool.cpp" | tr -d '"'); do
      if ! grep -qE -- "^  $flag( |$)" "$netdir/help.out"; then
        echo "net smoke FAILED: rainshine_$tool --help does not list $flag" >&2
        exit 1
      fi
    done
  done
  echo "net smoke: malformed command lines, variables and arguments exit 2," \
    "--help lists every flag"

  ./build/tools/rainshine_serve --model "$netdir/demo.rsf" --port 0 \
    --metrics "$netdir/serve_metrics.json" > "$netdir/serve.out" \
    2> "$netdir/serve.err" &
  serve_pid=$!
  # The tool prints "listening on HOST:PORT" once bound.
  port=""
  for _ in $(seq 1 50); do
    port="$(sed -n 's/^listening on [^:]*:\([0-9]*\).*$/\1/p' "$netdir/serve.out")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "net smoke FAILED: server never reported its port" >&2
    cat "$netdir/serve.err" >&2
    exit 1
  fi

  ./build/tools/rainshine_loadgen --once --port "$port" --target /healthz \
    >/dev/null
  ./build/tools/rainshine_loadgen --once --port "$port" --target /score \
    --body-file "$netdir/rows.csv" > "$netdir/scored.csv"
  rows=$(($(wc -l < "$netdir/rows.csv") - 1))
  scored=$(($(wc -l < "$netdir/scored.csv") - 1))
  if [[ "$rows" != "$scored" ]]; then
    echo "net smoke FAILED: scored $scored rows over the wire, expected $rows" >&2
    exit 1
  fi
  ./build/tools/rainshine_loadgen --once --port "$port" \
    --target '/metrics?format=json' > "$netdir/scrape.json"

  # Graceful drain: SIGTERM must finish admitted work, flush the metrics
  # sidecar, and exit 0.
  kill -TERM "$serve_pid"
  if ! wait "$serve_pid"; then
    echo "net smoke FAILED: server did not exit 0 on SIGTERM" >&2
    cat "$netdir/serve.err" >&2
    exit 1
  fi
  ./build/tools/rainshine_metrics --check "$netdir/serve_metrics.json" \
    --require net.requests_total,net.connections_accepted,serve.requests_completed
  ./build/tools/rainshine_metrics --check "$netdir/scrape.json" \
    --require net.requests_total,serve.requests_completed
  echo "net smoke: scored $scored/$rows rows over 127.0.0.1:$port, drained clean"

  echo "== net smoke: interrupted batch run still writes its sidecar =="
  # Pile up enough rows that the scoring run outlives the SIGINT we send it.
  tail -n +2 "$netdir/rows.csv" > "$netdir/row_body.csv"
  { head -1 "$netdir/rows.csv"
    for _ in $(seq 1 6); do cat "$netdir/row_body.csv"; done
  } > "$netdir/big_rows.csv"
  ./build/tools/rainshine_score --model "$netdir/demo.rsf" \
    --input "$netdir/big_rows.csv" --output "$netdir/big_scored.csv" \
    --metrics "$netdir/int_metrics.json" >/dev/null 2>&1 &
  score_pid=$!
  sleep 0.1
  kill -INT "$score_pid" 2>/dev/null || true
  wait "$score_pid" || true  # 130 if interrupted, 0 if it won the race
  # Either way the sidecar must exist and parse: the interrupt handler (or
  # the normal exit path) flushed it.
  ./build/tools/rainshine_metrics --check "$netdir/int_metrics.json" \
    --require serve.rows_scored
  echo "net smoke: interrupted run's sidecar parsed"
fi

if [[ "$stream_smoke" == 1 ]]; then
  echo "== stream smoke: streamd end-to-end (source -> store -> retrain -> serve) =="
  streamdir="$(mktemp -d)"
  trap 'rm -rf "${workdir:-}" "${netdir:-}" "${streamdir:-}"' EXIT

  # 45 streamed days at a 15-day cadence: three rolling retrains, the first
  # of which boots the HTTP front-end; the rest hot-swap it live.
  ./build/tools/rainshine_streamd --days 45 --retrain-days 15 \
    --window-days 30 --min-history 15 --trees 8 --port 0 \
    --snapshot "$streamdir/store.rss" \
    --metrics "$streamdir/stream_metrics.json" > "$streamdir/streamd.out" \
    2> "$streamdir/streamd.err" &
  streamd_pid=$!
  port=""
  for _ in $(seq 1 300); do
    port="$(sed -n 's/^listening on [^:]*:\([0-9]*\).*$/\1/p' "$streamdir/streamd.out")"
    [[ -n "$port" ]] && break
    sleep 0.2
  done
  if [[ -z "$port" ]]; then
    echo "stream smoke FAILED: streamd never published a model / bound a port" >&2
    cat "$streamdir/streamd.err" >&2
    exit 1
  fi

  # Let the stream finish so every retrain lands, then look for the swaps.
  for _ in $(seq 1 300); do
    grep -q 'streamed .* day' "$streamdir/streamd.err" && break
    sleep 0.2
  done
  swaps="$(grep -c '^day [0-9]*: published' "$streamdir/streamd.err" || true)"
  if [[ "$swaps" -lt 3 ]]; then
    echo "stream smoke FAILED: expected >= 3 retrain publishes, saw $swaps" >&2
    cat "$streamdir/streamd.err" >&2
    exit 1
  fi

  # The registry's swap generation must reflect every publish, and the ring
  # store must serve per-rack telemetry series over the wire.
  ./build/tools/rainshine_loadgen --once --port "$port" --target /models \
    > "$streamdir/models.json"
  if ! grep -q '"swap_generation":3' "$streamdir/models.json"; then
    echo "stream smoke FAILED: /models does not report swap generation 3" >&2
    cat "$streamdir/models.json" >&2
    exit 1
  fi
  ./build/tools/rainshine_loadgen --once --port "$port" --target /series \
    > "$streamdir/series.json"
  if ! grep -q '"name":"env.temp_f.R0"' "$streamdir/series.json"; then
    echo "stream smoke FAILED: /series catalogue is missing rack telemetry" >&2
    exit 1
  fi
  ./build/tools/rainshine_loadgen --once --port "$port" \
    --target '/series?series=env.temp_f.R0&tier=1&max_points=8' \
    > "$streamdir/series_read.json"
  if ! grep -q '"count":24' "$streamdir/series_read.json"; then
    echo "stream smoke FAILED: daily tier did not aggregate 24 hourly samples" >&2
    cat "$streamdir/series_read.json" >&2
    exit 1
  fi

  # Clean SIGTERM drain: exit 0, snapshot written, metrics sidecar parses.
  kill -TERM "$streamd_pid"
  if ! wait "$streamd_pid"; then
    echo "stream smoke FAILED: streamd did not exit 0 on SIGTERM" >&2
    cat "$streamdir/streamd.err" >&2
    exit 1
  fi
  if [[ ! -s "$streamdir/store.rss" ]]; then
    echo "stream smoke FAILED: no store snapshot written" >&2
    exit 1
  fi
  ./build/tools/rainshine_metrics --check "$streamdir/stream_metrics.json" \
    --require stream.tickets_emitted,stream.retrains,serve.model_swaps,net.requests_total
  echo "stream smoke: $swaps retrains hot-swapped, /series scraped, drained clean"
fi

if [[ "$scale_smoke" == 1 ]]; then
  echo "== scale smoke: 100k-server streamed sweep under the RSS bound =="
  # The binary asserts both halves itself (nonzero tickets, VmHWM under
  # RAINSHINE_RSS_BOUND_MB) and exits nonzero on violation. The default
  # 32 MiB bound is one a design holding the fleet's full-window tickets
  # resident could not meet (see bench/bench_simdc_scale.cpp).
  ./build/bench/bench_simdc_scale --smoke
fi

if [[ "$predict_smoke" == 1 ]]; then
  echo "== predict smoke: early-warning study + whatif determinism =="
  predictdir="$(mktemp -d)"
  trap 'rm -rf "${workdir:-}" "${netdir:-}" "${streamdir:-}" "${predictdir:-}"' EXIT

  # The bench asserts the acceptance bar itself under --smoke: the risk
  # forest must beat the trailing-count baseline on precision at the 5%
  # alert budget AND on median lead-time, else it exits nonzero.
  ./build/bench/bench_predict --smoke > "$predictdir/BENCH_predict.json"
  ./build/tools/rainshine_metrics --check "$predictdir/BENCH_predict.json" \
    --require model_precision_at_budget,baseline_precision_at_budget,model_median_lead_days,baseline_median_lead_days,model_lead_deciles_days
  echo "predict smoke: bench beat the baseline, BENCH_predict.json validated"

  # One whatif sweep (predictor included) must be byte-identical across
  # thread counts, stderr predictor summary included.
  whatif_flags=(--days 160 --trees 8 --warmup 50 --stride 7
                --offsets -2,0,4 --slas 0.95,1.0 --sort tco)
  RAINSHINE_THREADS=1 ./build/tools/rainshine_whatif "${whatif_flags[@]}" \
    > "$predictdir/whatif_t1.out" 2> "$predictdir/whatif_t1.err"
  RAINSHINE_THREADS=2 ./build/tools/rainshine_whatif "${whatif_flags[@]}" \
    > "$predictdir/whatif_t2.out" 2> "$predictdir/whatif_t2.err"
  if ! cmp -s "$predictdir/whatif_t1.out" "$predictdir/whatif_t2.out" ||
     ! cmp -s "$predictdir/whatif_t1.err" "$predictdir/whatif_t2.err"; then
    echo "predict smoke FAILED: whatif output differs across RAINSHINE_THREADS" >&2
    diff "$predictdir/whatif_t1.out" "$predictdir/whatif_t2.out" | head >&2
    exit 1
  fi
  if ! grep -q '^\* ' "$predictdir/whatif_t1.out"; then
    echo "predict smoke FAILED: whatif table has no best-policy marker" >&2
    cat "$predictdir/whatif_t1.out" >&2
    exit 1
  fi
  echo "predict smoke: whatif sweep byte-identical across thread counts"

  # full_report's early-warning section runs the same pipeline: the whole
  # report must be byte-identical across thread counts, and the section
  # must rank the model against the baseline.
  for threads in 1 2; do
    RAINSHINE_THREADS=$threads ./build/examples/full_report 240 \
      "$predictdir/report_t$threads.md" >/dev/null
  done
  if ! cmp -s "$predictdir/report_t1.md" "$predictdir/report_t2.md"; then
    echo "predict smoke FAILED: full_report differs across RAINSHINE_THREADS" >&2
    diff "$predictdir/report_t1.md" "$predictdir/report_t2.md" | head >&2
    exit 1
  fi
  warning="$(sed -n '/^## 30-day early warning/,/^## /p' "$predictdir/report_t1.md")"
  if ! grep -q '^| model | ' <<< "$warning" ||
     ! grep -q '^| baseline | ' <<< "$warning"; then
    echo "predict smoke FAILED: full_report lacks the early-warning model" \
      "and baseline rows" >&2
    echo "$warning" >&2
    exit 1
  fi
  echo "predict smoke: full_report byte-identical across thread counts," \
    "early warning ranked against the baseline"
fi

echo "OK"
