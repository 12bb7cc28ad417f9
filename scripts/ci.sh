#!/bin/sh
# Continuous-integration entry point: full build, the whole test
# suite (unit, property and cram tests — the repo's tier-1 gate),
# then the live-update benchmark in smoke mode, i.e. at a small
# ruleset scale with few repetitions so the whole script stays in CI
# territory. Override MFSA_SCALE / MFSA_REPS to stress harder.
set -e
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== runtime / paper boundary =="
# The paper's baselines and experiments (lib/paper, mfsa_paper) sit
# above the runtime: no other library under lib/ may depend on them.
leaks=$(grep -l 'mfsa_paper\|mfsa\.paper' lib/*/dune | grep -v '^lib/paper/dune$' || true)
if [ -n "$leaks" ]; then
  echo "ci: runtime libraries depend on mfsa_paper: $leaks" >&2
  exit 1
fi

echo "== dune runtest =="
dune runtest

echo "== kernel agreement (pinned QCheck seeds) =="
# The iMFAnt step kernel's property tests — every engine, session
# chunking and chunked SFA pass against the activation oracle — again
# under three fixed seeds (qcheck-alcotest reads QCHECK_SEED), so a
# divergence one seed finds reproduces here.
for seed in 1 2 3; do
  for t in test_hotloop test_hybrid test_sfa; do
    echo "-- $t, QCHECK_SEED=$seed"
    QCHECK_SEED=$seed dune exec --display quiet "test/$t.exe" -- --compact
  done
done

echo "== live-update bench (smoke) =="
MFSA_SCALE="${MFSA_SCALE:-0.1}" MFSA_REPS="${MFSA_REPS:-2}" \
  dune exec bench/main.exe -- live-update

echo "== engine-compare (smoke) =="
out=$(MFSA_SCALE="${MFSA_SCALE:-0.1}" MFSA_STREAM_KB="${MFSA_STREAM_KB:-32}" \
  MFSA_REPS="${MFSA_REPS:-2}" dune exec bench/main.exe -- engine-compare)
printf '%s\n' "$out"
# Every registry engine must report exactly iMFAnt's matches on every
# dataset; rows that disagree are marked DIVERGED by the experiment.
if printf '%s' "$out" | grep -q DIVERGED; then
  echo "ci: an engine's match counts diverged from iMFAnt" >&2
  exit 1
fi
# ... and every registered engine (the `-e help` listing minus the
# wrapper grammars) must have a row on each of the six datasets, so an
# engine that drops out of the comparison cannot pass the gate above
# unchecked.
engines=$(dune exec --display quiet bin/mfsa_match.exe -- -e help \
  | awk '$1 !~ /[{:]/ { print $1 }')
n_engines=$(printf '%s\n' "$engines" | grep -c .)
for ds in BRO DS9 PEN PRO RG1 TCP; do
  for e in $engines; do
    if ! printf '%s\n' "$out" | grep -Eq "^$ds +$e +"; then
      echo "ci: engine-compare has no $e row on $ds" >&2
      exit 1
    fi
  done
done
rows=$(printf '%s\n' "$out" | grep -Ec ' (ok|DIVERGED)$')
if [ "$rows" -ne $((6 * n_engines)) ]; then
  echo "ci: engine-compare printed $rows rows, expected 6 x $n_engines" >&2
  exit 1
fi

echo "== planner + eviction ablation (planner gate) =="
# The auto meta-engine must report exactly iMFAnt's matches on every
# dataset (rows disagreeing are marked DIVERGED and the bench exits
# non-zero), and the churn ablation must show the cache-collapse fix:
# on DS9 — the ruleset whose configuration working set overflows the
# default cache — clock eviction cycles single rows (evictions, never
# a whole-table flush) and stays at least as fast as the cache-less
# iMFAnt floor.
out=$(MFSA_SCALE="${MFSA_SCALE:-0.1}" MFSA_STREAM_KB="${MFSA_STREAM_KB:-32}" \
  MFSA_REPS="${MFSA_REPS:-2}" dune exec bench/main.exe -- planner)
printf '%s\n' "$out"
if printf '%s' "$out" | grep -q DIVERGED; then
  echo "ci: the auto planner diverged from a concrete engine" >&2
  exit 1
fi
ds9=$(printf '%s\n' "$out" | grep '^churn DS9:')
ds9_ev=$(printf '%s' "$ds9" | sed -n 's/.*(evictions \([0-9]*\),.*/\1/p')
ds9_fl=$(printf '%s' "$ds9" | sed -n 's/.*flushes \([0-9]*\)).*/\1/p')
ds9_vs=$(printf '%s' "$ds9" | sed -n 's/.* \([0-9.]*\)x over imfant.*/\1/p')
if [ -z "$ds9_ev" ] || [ "$ds9_ev" -lt 1 ] || [ "$ds9_fl" != 0 ]; then
  echo "ci: DS9 churn run did not evict incrementally" \
       "(evictions=$ds9_ev flushes=$ds9_fl)" >&2
  exit 1
fi
if ! awk "BEGIN { exit !($ds9_vs >= 1.0) }"; then
  echo "ci: DS9 hybrid with eviction fell below iMFAnt (${ds9_vs}x)" >&2
  exit 1
fi
test -s BENCH_planner.json
echo "planner gate OK (DS9: evictions $ds9_ev, flushes $ds9_fl, ${ds9_vs}x over imfant)"

echo "== sfa intra-input parallelism (sfa gate) =="
# The SFA wrapper chunks one input across domains and joins the chunk
# boundaries; both the real parallel path and the span-measured
# sequential replay must reproduce iMFAnt's events exactly (the bench
# marks any mismatch DIVERGED and exits non-zero). On the
# literal-heavy datasets the 2-domain critical-path (span) speedup
# must not regress below the sequential floor.
out=$(MFSA_SCALE="${MFSA_SCALE:-0.1}" MFSA_STREAM_KB="${MFSA_STREAM_KB:-32}" \
  MFSA_REPS="${MFSA_REPS:-2}" dune exec bench/main.exe -- sfa)
printf '%s\n' "$out"
if printf '%s' "$out" | grep -q DIVERGED; then
  echo "ci: the sfa chunk/join path diverged from sequential execution" >&2
  exit 1
fi
test -s BENCH_sfa.json
for ds in BRO PEN RG1; do
  sp=$(sed -n 's/.*"dataset": "'"$ds"'".*"domains": 2,.*"span_speedup": \([0-9.]*\).*/\1/p' BENCH_sfa.json)
  if [ -z "$sp" ] || ! awk "BEGIN { exit !($sp >= 1.0) }"; then
    echo "ci: sfa 2-domain span speedup on $ds fell below 1.0 (${sp:-missing})" >&2
    exit 1
  fi
done
echo "sfa gate OK (zero divergence, 2-domain span speedup >= 1 on BRO/PEN/RG1)"

echo "== serve (smoke) =="
# A 2-domain Serve pool over the BRO ruleset must reproduce direct
# sequential execution byte-for-byte; the bench exits non-zero and
# prints DIVERGED on any mismatch.
out=$(dune exec bench/main.exe -- serve-check)
printf '%s\n' "$out"
if printf '%s' "$out" | grep -q DIVERGED; then
  echo "ci: sharded serving diverged from sequential execution" >&2
  exit 1
fi

echo "== serve fault injection (smoke) =="
# The same gate under a seeded deterministic fault schedule: the
# faulty{..}:imfant wrapper injects transient faults, delays and a
# replica-poisoning fault, and the service's retry + supervision
# budget must absorb all of it — byte-identical results (AGREE, zero
# divergences) with the recovery paths demonstrably exercised
# (non-zero retry and replica-restart counters in the summary line).
out=$(dune exec bench/main.exe -- serve-check \
  -e 'faulty{seed=7,fail_every=3,delay_every=5,delay_ms=1,poison_every=5}:imfant')
printf '%s\n' "$out"
if printf '%s' "$out" | grep -q DIVERGED; then
  echo "ci: fault-injected serving diverged from the clean baseline" >&2
  exit 1
fi
retries=$(printf '%s' "$out" | sed -n 's/.*retries \([0-9]*\),.*/\1/p')
restarts=$(printf '%s' "$out" | sed -n 's/.*restarts \([0-9]*\),.*/\1/p')
if [ -z "$retries" ] || [ "$retries" -lt 1 ]; then
  echo "ci: fault injection never exercised a retry (retries=$retries)" >&2
  exit 1
fi
if [ -z "$restarts" ] || [ "$restarts" -lt 1 ]; then
  echo "ci: fault injection never respawned a replica (restarts=$restarts)" >&2
  exit 1
fi

echo "== bench JSON artefacts =="
MFSA_SCALE="${MFSA_SCALE:-0.1}" MFSA_STREAM_KB="${MFSA_STREAM_KB:-32}" \
  MFSA_REPS="${MFSA_REPS:-2}" dune exec bench/main.exe -- json
test -s BENCH_engines.json
test -s BENCH_serve.json
test -s BENCH_obs.json
# The observability artefact must be a JSON array of metric samples.
head -1 BENCH_obs.json | grep -qx '\[' || {
  echo "ci: BENCH_obs.json is not a metrics array" >&2; exit 1; }
grep -q '"name": "mfsa_serve_inputs_total"' BENCH_obs.json || {
  echo "ci: BENCH_obs.json is missing serve series" >&2; exit 1; }

echo "== metrics exposition (observability gate) =="
# The Prometheus scrape body must be well-formed: every sample line
# names a series whose base name carries a # TYPE declaration, no
# series (name + label set) appears twice, and histogram suffixes
# only hang off declared histograms. awk keeps this dependency-free.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf 'hello world\nhello there\nhe(l|n)p\n' > "$tmp/rules.txt"
printf 'say hello there or hello world and ask for henp or help' > "$tmp/stream.bin"
dune exec bin/mfsa_match.exe -- \
  --rules "$tmp/rules.txt" "$tmp/stream.bin" --metrics > "$tmp/metrics.prom"
test -s "$tmp/metrics.prom"
check_prom() {
awk '
  /^# TYPE / {
    if ($3 in type) { print "ci: duplicate TYPE for " $3; bad = 1 }
    type[$3] = $4; next
  }
  /^# HELP / { next }
  /^#/ { print "ci: unknown comment line: " $0; bad = 1; next }
  NF != 2 { print "ci: malformed sample line: " $0; bad = 1; next }
  {
    series = $1
    base = series; sub(/\{.*/, "", base)
    if (seen[series]++) { print "ci: duplicate series " series; bad = 1 }
    if (base in type) next
    hist = base
    if (sub(/_(bucket|sum|count)$/, "", hist) && type[hist] == "histogram")
      next
    print "ci: sample without TYPE declaration: " series; bad = 1
  }
  END {
    if (NR == 0) { print "ci: empty metrics exposition"; bad = 1 }
    exit bad
  }' "$1"
}
check_prom "$tmp/metrics.prom"
# Compile spans, Serve counters (the fault-tolerance ones included)
# and engine stats must all be present.
for series in mfsa_compile_stage_seconds_count mfsa_serve_batches_total \
              mfsa_serve_timeouts_total mfsa_serve_retries_total \
              mfsa_serve_rejected_total mfsa_serve_replica_restarts_total \
              mfsa_engine_runs_total mfsa_engine_class_count \
              mfsa_engine_prefilter_skipped_bytes_total; do
  grep -q "^$series" "$tmp/metrics.prom" || {
    echo "ci: metrics exposition is missing $series" >&2; exit 1; }
done
# A second scrape through the auto meta-engine (which plans the hybrid
# here — the demo ruleset is literal-covered): the planner gauges and
# the eviction/adaptive-capacity cache series must all expose, and the
# body must stay well-formed.
dune exec bin/mfsa_match.exe -- --engine auto \
  --rules "$tmp/rules.txt" "$tmp/stream.bin" --metrics > "$tmp/metrics_auto.prom"
test -s "$tmp/metrics_auto.prom"
check_prom "$tmp/metrics_auto.prom"
for series in mfsa_engine_planner_choice mfsa_engine_planner_literal_share \
              mfsa_engine_planner_activation_density \
              mfsa_engine_planner_prefilter \
              mfsa_engine_cache_evictions_total mfsa_engine_cache_capacity \
              mfsa_engine_cache_grows_total \
              mfsa_engine_demotions_total; do
  grep -q "^$series" "$tmp/metrics_auto.prom" || {
    echo "ci: auto-engine exposition is missing $series" >&2; exit 1; }
done
# The 55-byte demo stream never closes the planner's 16 KiB monitor
# window, so a second auto scrape runs 256 KiB of generated TCP
# traffic: the planned hybrid's cache churns and the monitor demotes
# it to an iMFAnt scan.
# The body must stay well-formed, show the demotion and the active
# engine, and the match total must equal iMFAnt's.
dune exec bin/mfsa_dataset.exe -- TCP -r "$tmp/tcp.txt" -s "$tmp/tcp.bin" \
  --stream-kb 256 > /dev/null
dune exec bin/mfsa_match.exe -- --engine auto \
  --rules "$tmp/tcp.txt" "$tmp/tcp.bin" --metrics > "$tmp/metrics_demote.prom"
check_prom "$tmp/metrics_demote.prom"
awk '/^mfsa_engine_demotions_total/ { n += $2 } END { exit !(n >= 1) }' \
  "$tmp/metrics_demote.prom" || {
  echo "ci: auto did not demote on the TCP stream" >&2; exit 1; }
# The batch call is judged between 16 KiB slices, so the cold hybrid
# demotes after the first one instead of churning through the input.
awk '/^mfsa_engine_cache_interned_total/ { n += $2 } END { exit !(n <= 32768) }' \
  "$tmp/metrics_demote.prom" || {
  echo "ci: auto interned over 32768 configurations before demoting on TCP" >&2; exit 1; }
grep -q '^mfsa_engine_planner_choice{active="imfant"' "$tmp/metrics_demote.prom" || {
  echo "ci: the demoted auto engine does not report imfant active" >&2; exit 1; }
for e in auto imfant; do
  dune exec bin/mfsa_match.exe -- --engine "$e" \
    --rules "$tmp/tcp.txt" "$tmp/tcp.bin" | grep '^total:' | sed 's/ in .*//' \
    > "$tmp/total_$e.txt"
done
diff "$tmp/total_auto.txt" "$tmp/total_imfant.txt" || {
  echo "ci: the demoted auto engine diverged from imfant on TCP" >&2; exit 1; }
# auto never determinises eagerly: a one-rule ruleset whose DFA is
# exponential must plan iMFAnt and answer at once, not exhaust memory.
printf '.*a.{20}\n' > "$tmp/blowup.txt"
printf 'a' > "$tmp/blowup.bin"
timeout 10 _build/default/bin/mfsa_match.exe -e auto \
  --rules "$tmp/blowup.txt" "$tmp/blowup.bin" > /dev/null || {
  echo "ci: auto did not answer .*a.{20} within 10 s" >&2; exit 1; }
# A third scrape through the sfa{..} wrapper (threshold 1 forces the
# chunked path even on the demo stream): the split/join series must
# all expose and the body must stay well-formed.
dune exec bin/mfsa_match.exe -- --engine 'sfa{domains=2,threshold=1}:imfant' \
  --rules "$tmp/rules.txt" "$tmp/stream.bin" --metrics > "$tmp/metrics_sfa.prom"
test -s "$tmp/metrics_sfa.prom"
check_prom "$tmp/metrics_sfa.prom"
for series in mfsa_sfa_runs_total mfsa_sfa_seq_runs_total \
              mfsa_sfa_chunks_total mfsa_sfa_fixup_bytes_total \
              mfsa_sfa_carry_dead_total mfsa_sfa_carry_live_total \
              mfsa_sfa_prefilter_skipped_bytes_total mfsa_sfa_domains \
              mfsa_sfa_threshold_bytes; do
  grep -q "^$series" "$tmp/metrics_sfa.prom" || {
    echo "ci: sfa exposition is missing $series" >&2; exit 1; }
done
# The JSON exporter must agree with the Prometheus one on sample count.
dune exec bin/mfsa_match.exe -- \
  --rules "$tmp/rules.txt" "$tmp/stream.bin" --metrics json > "$tmp/metrics.json"
prom_n=$(grep -cv '^#' "$tmp/metrics.prom" || true)
json_n=$(grep -c '"name"' "$tmp/metrics.json" || true)
json_hist_rows=$(grep '"name"' "$tmp/metrics.json" | grep -c '"buckets"' || true)
# Each Prometheus histogram series expands to bounds+1 bucket lines
# plus _sum and _count; recompute the flat-line count from the JSON.
json_flat=$((json_n - json_hist_rows))
hist_lines=$(grep -c '_bucket{' "$tmp/metrics.prom" || true)
expected=$((json_flat + hist_lines + 2 * json_hist_rows))
if [ "$prom_n" -ne "$expected" ]; then
  echo "ci: exporters disagree (prom $prom_n lines vs json-derived $expected)" >&2
  exit 1
fi
echo "metrics exposition OK ($prom_n sample lines, $json_n series)"

echo "== artifact persistence (persist gate) =="
# Compile → save → reload per dataset: every registered engine's
# match counts from the reloaded tables must equal the ones from the
# fresh compile (the experiment marks mismatches DIVERGED and exits
# non-zero), and reloading must never be slower than recompiling.
out=$(MFSA_SCALE="${MFSA_SCALE:-0.1}" MFSA_STREAM_KB="${MFSA_STREAM_KB:-32}" \
  dune exec bench/main.exe -- persist)
printf '%s\n' "$out"
if printf '%s' "$out" | grep -q DIVERGED; then
  echo "ci: a reloaded artifact's match counts diverged from the compile" >&2
  exit 1
fi
test -s BENCH_persist.json
awk -F'"load_speedup": ' '
  /"load_speedup"/ {
    split($2, a, ","); if (a[1] + 0 < 1.0) {
      print "ci: artifact load slower than compile (speedup " a[1] ")"; bad = 1
    }
    rows++
  }
  END { if (rows == 0) { print "ci: BENCH_persist.json has no rows"; bad = 1 }
        exit bad }' BENCH_persist.json
# Fresh-process reload: an artifact written by one process must give a
# separately started matcher byte-identical per-rule counts, under
# every engine `-e help` lists and the fault-injection wrapper.
match=_build/default/bin/mfsa_match.exe
_build/default/bin/mfsa_compile.exe --emit "$tmp/ci.mfsa" "$tmp/rules.txt"
engines=$("$match" -e help | awk '$1 !~ /[{]/ { print $1 }')
if [ -z "$engines" ]; then
  echo "ci: mfsa-match -e help listed no engines" >&2
  exit 1
fi
for eng in $engines 'faulty{seed=1}:imfant'; do
  "$match" -e "$eng" --rules "$tmp/rules.txt" "$tmp/stream.bin" | grep '^rule' > "$tmp/counts.compile"
  "$match" -e "$eng" --load "$tmp/ci.mfsa" "$tmp/stream.bin" | grep '^rule' > "$tmp/counts.reload"
  if ! cmp -s "$tmp/counts.compile" "$tmp/counts.reload"; then
    echo "ci: fresh-process artifact reload changed per-rule counts ($eng)" >&2
    diff "$tmp/counts.compile" "$tmp/counts.reload" >&2 || true
    exit 1
  fi
done
echo "persist gate OK (reload = compile, load_speedup >= 1 on all rows)"

echo "== served soak (daemon + loadgen, fault-injected) =="
# The networked daemon under sustained open-loop load with a seeded
# fault schedule: for MFSA_SOAK_S seconds, four clients drive SUBMIT
# batches at a fixed arrival rate against a faulty{..}:imfant daemon
# whose retry + supervision budget must absorb every injected fault —
# zero result divergence from the clean sequential baseline, at least
# one retry and one replica restart actually observed (otherwise the
# schedule never bit), and a clean exit 0 on SIGTERM afterwards.
# Binaries are invoked from _build directly: dune already built them
# above, and a backgrounded `dune exec` would contend for the build
# lock with the loadgen invocation.
served=_build/default/bin/mfsa_served_cli.exe
bench=_build/default/bench/main.exe
faulty='faulty{seed=7,fail_every=97,poison_every=211}:imfant'
_build/default/bin/mfsa_dataset.exe BRO --scale 0.2 -r "$tmp/soak_rules.txt"
"$served" run --rules "$tmp/soak_rules.txt" -e "$faulty" \
  --retries 6 --backoff 0.0002 --domains 2 \
  --port 0 --port-file "$tmp/soak_port" -q 2> "$tmp/soak_daemon.err" &
soak_pid=$!
for _ in $(seq 1 100); do [ -s "$tmp/soak_port" ] && break; sleep 0.1; done
if ! [ -s "$tmp/soak_port" ]; then
  echo "ci: soak daemon never wrote its port file" >&2
  cat "$tmp/soak_daemon.err" >&2
  kill "$soak_pid" 2>/dev/null || true
  exit 1
fi
out=$("$bench" loadgen --rules "$tmp/soak_rules.txt" \
  --port-file "$tmp/soak_port" --rate "${MFSA_SOAK_RATE:-150}" \
  --duration "${MFSA_SOAK_S:-30}" --clients 4 --expect -e "$faulty") || {
  printf '%s\n' "$out"
  echo "ci: soak loadgen failed (divergence or transport errors)" >&2
  kill "$soak_pid" 2>/dev/null || true
  exit 1
}
printf '%s\n' "$out"
printf '%s' "$out" | grep -q '^divergences 0,' || {
  echo "ci: soak run diverged from the sequential baseline" >&2
  kill "$soak_pid" 2>/dev/null || true
  exit 1
}
soak_retries=$(printf '%s' "$out" | sed -n 's/^server: retries \([0-9]*\),.*/\1/p')
soak_restarts=$(printf '%s' "$out" | sed -n 's/^server: retries [0-9]*, restarts \([0-9]*\)$/\1/p')
if [ -z "$soak_retries" ] || [ "$soak_retries" -lt 1 ]; then
  echo "ci: soak fault injection never exercised a retry (retries=$soak_retries)" >&2
  kill "$soak_pid" 2>/dev/null || true
  exit 1
fi
if [ -z "$soak_restarts" ] || [ "$soak_restarts" -lt 1 ]; then
  echo "ci: soak fault injection never respawned a replica (restarts=$soak_restarts)" >&2
  kill "$soak_pid" 2>/dev/null || true
  exit 1
fi
test -s BENCH_served.json
kill -TERM "$soak_pid"
soak_status=0
wait "$soak_pid" || soak_status=$?
if [ "$soak_status" -ne 0 ]; then
  echo "ci: soak daemon did not drain cleanly on SIGTERM (exit $soak_status)" >&2
  cat "$tmp/soak_daemon.err" >&2
  exit 1
fi
echo "served soak OK (retries $soak_retries, restarts $soak_restarts, clean SIGTERM drain)"
