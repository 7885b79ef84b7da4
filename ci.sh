#!/usr/bin/env bash
# Tier-1 CI gate: build, test, format and lint the whole workspace.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

# Static analysis runs before the (slower) test suite: a hot-path panic
# site or codec-invariant break should fail CI in seconds, not minutes.
echo "==> anor-lint --deny"
./target/release/anor-lint --deny

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A broken or ambiguous intra-doc link is how a deleted item lingers in
# the docs after its callers are gone.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test --workspace"
cargo test --workspace -q

# The lint crate's own test suite (fixtures, property tests, repo
# self-check) must stay quick enough to run on every edit-compile loop.
# Binaries are already built by the workspace test step, so this times
# test execution, not compilation.
echo "==> lint test timing budget (<5 s)"
LINT_T0="$(date +%s%N)"
cargo test -p anor-lint -q >/dev/null
LINT_ELAPSED_MS=$(( ($(date +%s%N) - LINT_T0) / 1000000 ))
echo "    anor-lint tests ran in ${LINT_ELAPSED_MS} ms"
[ "$LINT_ELAPSED_MS" -lt 5000 ] \
    || { echo "lint timing budget: anor-lint tests took ${LINT_ELAPSED_MS} ms (budget 5000 ms)"; exit 1; }

# Advisory UB pass over the unsafe-adjacent parsing hot spots: the wire
# codec and the lint lexer. Miri (or cargo-careful as a fallback) is not
# part of the pinned toolchain everywhere, so absence is a skip and
# findings are reported without failing the gate.
echo "==> miri/careful advisory (codec + lexer unit tests)"
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="${MIRIFLAGS:-}" cargo miri test -p anor-cluster codec -q \
        && cargo miri test -p anor-lint lexer -q \
        || echo "    ADVISORY: miri reported findings (not failing the gate)"
elif cargo careful --version >/dev/null 2>&1; then
    cargo careful test -p anor-cluster codec -q \
        && cargo careful test -p anor-lint lexer -q \
        || echo "    ADVISORY: cargo-careful reported findings (not failing the gate)"
else
    echo "    skipped: neither cargo-miri nor cargo-careful is installed"
fi

echo "==> cargo fmt --check"
cargo fmt --check

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> perf smoke: perfsuite --quick"
PERF_JSON="$SMOKE_DIR/bench.json"
PERF_OUT="$(./target/release/perfsuite --quick --runs 1 --out "$PERF_JSON")"
grep -q '"bench"' "$PERF_JSON" && grep -q '"median_s"' "$PERF_JSON" \
    || { echo "perf smoke: $PERF_JSON is missing bench results"; cat "$PERF_JSON"; exit 1; }
# Advisory regression table: perfsuite compares the quick run against the
# newest checked-in BENCH_PR<N>.json and prints one PERF REGRESSION line
# per bench whose median is >10% over baseline. Wall-clock on shared
# runners is noisy (quick scenarios are also smaller than the baseline's
# full runs), so the table is a warning surface, never a gate — this step
# always exits 0.
PERF_REGRESSIONS="$(echo "$PERF_OUT" | grep '^PERF REGRESSION' || true)"
if [ -n "$PERF_REGRESSIONS" ]; then
    echo "    WARN: perf smoke flagged >10% median regressions (advisory only):"
    echo "$PERF_REGRESSIONS" | sed 's/^/    /'
else
    echo "    no >10% median regressions vs checked-in baseline"
fi

# Every figure binary repeats its output exactly, so results/ is a set of
# goldens: a change that moves any of them changed behaviour. Regenerate a
# file (./target/release/<bin> > results/<bin>.txt) only for an intended
# behaviour change, in a commit of its own.
echo "==> results goldens: rerun the figure binaries and diff results/"
for BIN in fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 ablation sec72_short_jobs \
    qos_justification; do
    env -u ANOR_QUICK "./target/release/$BIN" > "$SMOKE_DIR/$BIN.txt"
    diff -u "results/$BIN.txt" "$SMOKE_DIR/$BIN.txt" > "$SMOKE_DIR/$BIN.diff" \
        || { echo "results goldens: $BIN output differs from results/$BIN.txt"; \
             head -40 "$SMOKE_DIR/$BIN.diff"; exit 1; }
done

# The figure goldens run the simulator under uniform capping only, so
# results/anorsim.txt pins anorsim's stdout under each capping policy
# (even-slowdown+qos reads the per-job at-risk projection) plus a heavily
# varied, near-saturated run. Each run's output follows a `$ anorsim <args>`
# line; regenerate the file with this loop, in a commit of its own.
echo "==> anorsim goldens: rerun the policy runs and diff results/anorsim.txt"
for ARGS in \
    "--nodes 4000 --variation-pct 10 --seed 3 --policy uniform" \
    "--nodes 4000 --variation-pct 10 --seed 3 --policy even-power" \
    "--nodes 4000 --variation-pct 10 --seed 3 --policy even-slowdown" \
    "--nodes 4000 --variation-pct 10 --seed 3 --policy even-slowdown+qos" \
    "--nodes 1000 --variation-pct 30 --seed 7 --utilization 0.95 --policy uniform"; do
    echo "\$ anorsim $ARGS"
    # shellcheck disable=SC2086 # ARGS is split into words on purpose
    ./target/release/anorsim $ARGS 2>/dev/null
done > "$SMOKE_DIR/anorsim.txt"
diff -u results/anorsim.txt "$SMOKE_DIR/anorsim.txt" > "$SMOKE_DIR/anorsim.diff" \
    || { echo "anorsim goldens: output differs from results/anorsim.txt"; \
         head -40 "$SMOKE_DIR/anorsim.diff"; exit 1; }

# Every binary parses with anor_types::Args and refuses an option it does
# not read, before its run starts: a misspelt or removed option must fail
# the command, not run it on defaults.
echo "==> options smoke: each figure binary, perfsuite and anorsim refuse --no-such-option"
for BIN in fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 ablation sec72_short_jobs \
    qos_justification perfsuite anorsim; do
    if timeout 5 "./target/release/$BIN" --no-such-option > /dev/null 2> "$SMOKE_DIR/options.err"; then
        echo "options smoke: $BIN accepted --no-such-option"; exit 1
    fi
    grep -q -- "--no-such-option" "$SMOKE_DIR/options.err" \
        || { echo "options smoke: $BIN did not name the option within 5 s"; \
             cat "$SMOKE_DIR/options.err"; exit 1; }
done

# Traced under injected faults, so the failure paths trace too: every
# postmortem kind the link faults raise must be dumped, and the trace
# plus all of its postmortems must parse.
echo "==> trace smoke: fig6 --faults drop@17,corrupt@42 --trace + anor-trace"
TRACE_DIR="$SMOKE_DIR/trace"
mkdir "$TRACE_DIR"
ANOR_QUICK=1 ./target/release/fig6 --faults drop@17,corrupt@42 --trace "$TRACE_DIR" >/dev/null
REPORT="$(./target/release/anor-trace "$TRACE_DIR")"
echo "$REPORT" | grep -E "complete chains: [1-9][0-9]*" >/dev/null \
    || { echo "trace smoke: no complete decision->actuation->observation chain"; \
         echo "$REPORT"; exit 1; }
echo "$REPORT" | grep -E "event\(s\), 0 malformed event\(s\)$" >/dev/null \
    || { echo "trace smoke: malformed trace events"; echo "$REPORT"; exit 1; }
for KIND in budgeter-protocol-error budgeter-malformed-frame endpoint-disconnect \
    budgeter-disconnect; do
    compgen -G "$TRACE_DIR/postmortem-*-$KIND.jsonl" >/dev/null \
        || { echo "trace smoke: no $KIND postmortem"; ls "$TRACE_DIR"; exit 1; }
done

echo "==> chaos smoke: fig6 --faults drop@17,corrupt@42 --record"
CHAOS_OUT="$SMOKE_DIR/chaos.txt"
REC_DIR="$SMOKE_DIR/rec"
ANOR_QUICK=1 ./target/release/fig6 --faults drop@17,corrupt@42 --record "$REC_DIR" \
    > "$CHAOS_OUT" \
    || { echo "chaos smoke: fig6 failed under fault injection"; cat "$CHAOS_OUT"; exit 1; }
grep -E "chaos: reconnects=[1-9][0-9]*" "$CHAOS_OUT" >/dev/null \
    || { echo "chaos smoke: no reconnect recovered from the injected faults"; \
         grep "chaos:" "$CHAOS_OUT" || true; exit 1; }

echo "==> replay smoke: anor-replay --verify on the recorded chaos run"
REC_COUNT=0
for REC in "$REC_DIR"/*.rec; do
    [ -e "$REC" ] || break
    REPLAY_OUT="$(./target/release/anor-replay --rec "$REC" --verify)" \
        || { echo "replay smoke: verify failed for $REC"; echo "$REPLAY_OUT"; exit 1; }
    echo "$REPLAY_OUT" | grep -q "zero invariant violations" \
        || { echo "replay smoke: invariant violations replaying $REC"; \
             echo "$REPLAY_OUT"; exit 1; }
    REC_COUNT=$((REC_COUNT + 1))
done
[ "$REC_COUNT" -gt 0 ] \
    || { echo "replay smoke: fig6 --record produced no recordings"; exit 1; }
echo "    verified $REC_COUNT recording(s) byte-identical"

# The connection-plane gate: a reconnect storm with seeded chaos against
# the sharded reactor must register every endpoint, survive the storm,
# and close with a clean invariant audit (anor-load exits non-zero on
# any stalled stage, lost session, or auditor violation).
echo "==> load smoke: anor-load --endpoints 256 --storms 3 --faults drop@17,corrupt@42"
LOAD_OUT="$SMOKE_DIR/load.txt"
./target/release/anor-load --endpoints 256 --storms 3 --faults drop@17,corrupt@42 \
    > "$LOAD_OUT" \
    || { echo "load smoke: anor-load failed"; cat "$LOAD_OUT"; exit 1; }
grep -q "invariant violations: 0" "$LOAD_OUT" \
    || { echo "load smoke: auditor flagged violations"; cat "$LOAD_OUT"; exit 1; }
sed 's/^/    /' "$LOAD_OUT"

echo "==> ops smoke: anord --status-addr + anor-top --fetch"
OPS_OUT="$SMOKE_DIR/anord.txt"
./target/release/anord --listen 127.0.0.1:0 --status-addr 127.0.0.1:0 \
    --budget 400 --duration-secs 20 > "$OPS_OUT" &
ANORD_PID=$!
STATUS_ADDR=""
for _ in $(seq 1 100); do
    STATUS_ADDR="$(sed -n 's/^anord status on //p' "$OPS_OUT")"
    [ -n "$STATUS_ADDR" ] && break
    kill -0 "$ANORD_PID" 2>/dev/null \
        || { echo "ops smoke: anord exited early"; cat "$OPS_OUT"; exit 1; }
    sleep 0.1
done
[ -n "$STATUS_ADDR" ] \
    || { echo "ops smoke: anord never announced its status endpoint"; cat "$OPS_OUT"; exit 1; }
HEALTH="$(./target/release/anor-top --addr "$STATUS_ADDR" --fetch /health)" \
    || { echo "ops smoke: GET /health failed"; kill "$ANORD_PID"; exit 1; }
[ "$HEALTH" = "ok" ] \
    || { echo "ops smoke: /health said '$HEALTH', expected 'ok'"; kill "$ANORD_PID"; exit 1; }
./target/release/anor-top --addr "$STATUS_ADDR" --fetch /metrics | grep -q '# TYPE' \
    || { echo "ops smoke: /metrics served no Prometheus type lines"; kill "$ANORD_PID"; exit 1; }
./target/release/anor-top --addr "$STATUS_ADDR" --fetch /status | grep -q '"pumps"' \
    || { echo "ops smoke: /status served no snapshot"; kill "$ANORD_PID"; exit 1; }
kill "$ANORD_PID" 2>/dev/null || true
wait "$ANORD_PID" 2>/dev/null || true

echo "CI OK"
