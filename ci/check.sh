#!/usr/bin/env sh
# CI gate, structured as named, individually-timed stages so gate
# regressions are attributable to a subsystem at a glance:
#
#   build   tier-1 release build + the release binaries later stages use
#   test    tier-1 tests, the full workspace suites, the release-mode
#           fmt64 differential sweep, miri (if installed)
#   lint    fmt/clippy/doc hygiene, panic-free server sources, the lint
#           and check corpora
#   store   recovery corpus, thread-count determinism, .cubec-vs-XML
#           byte equality, pack/unpack round-trip, the speedup gate
#   serve   /eval byte-equality with the CLI, caches, pre-flight,
#           hostile uploads, drain
#   chaos   fault-injected serving, fsck, the serve_chaos harness
#   kernel  fused-kernel unit suite and the fused-vs-unfused
#           differential gate (CLI and server)
#
# `CI_STAGES="lint kernel" ci/check.sh` runs a subset (comma or space
# separated). Stages are independent: whichever subset is selected,
# shared prerequisites (release binaries, the generated corpus) are
# built on first use. A per-stage timing summary is printed at the end.
#
# The build and test stages are the tier-1 gate from ROADMAP.md,
# verbatim — a red run there must mean a red tier-1. Benches are
# compiled (clippy --all-targets) but never *run* here, so adding
# benches cannot slow this gate; run them explicitly with
# `make bench-batch` / `make bench-fused` / `ci/bench_gate.sh`.
set -eu

cd "$(dirname "$0")/.."

STAGES="$(printf '%s' "${CI_STAGES:-build test lint store serve chaos kernel}" | tr ',' ' ')"

work="$(mktemp -d)"
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT

det="$work/det"

# -- shared prerequisites (built on first use) -------------------------------

## The `cube` CLI and the corpus generator, release profile.
need_bins() {
    if [ ! -f "$work/.bins" ]; then
        cargo build --release -q -p cube-cli
        cargo build --release -q -p cube-bench --bins
        : >"$work/.bins"
    fi
}

## The 153,600-value determinism corpus (6 runs), packed to .cubec as
## well so mixed-format gates can pick either side.
need_corpus() {
    if [ ! -f "$work/.corpus" ]; then
        need_bins
        ./target/release/gen_corpus "$det/corpus" 6 >/dev/null
        for f in "$det"/corpus/*.cube; do
            ./target/release/cube pack "$f" "${f%.cube}.cubec" >/dev/null
        done
        : >"$work/.corpus"
    fi
}

## Scrapes `listening on HOST:PORT` from the server log in $1 into $addr.
serve_addr() {
    addr=""
    tries=0
    while [ -z "$addr" ]; do
        addr="$(sed -n 's/^listening on //p' "$1")"
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "cube serve did not report its address:" >&2
            cat "$1" >&2
            exit 1
        fi
        [ -n "$addr" ] || sleep 0.1
    done
}

## Ingests run0.cube run1.cube run2.cubec run3.cubec into the server at
## $addr; leaves the ids in $ids.
ingest_corpus() {
    ids=""
    for f in run0.cube run1.cube run2.cubec run3.cubec; do
        reply="$(curl -sS -H 'Expect:' -X PUT \
            --data-binary @"$det/corpus/$f" "http://$addr/experiments")"
        id="$(printf '%s' "$reply" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')"
        if [ -z "$id" ]; then
            echo "ingest of $f returned no id: $reply" >&2
            exit 1
        fi
        ids="$ids $id"
    done
}

# -- build -------------------------------------------------------------------

stage_build() {
    echo "== tier-1: cargo build --release"
    cargo build --release
    echo "== build: release binaries for the gate stages"
    need_bins
}

# -- test --------------------------------------------------------------------

stage_test() {
    echo "== tier-1: cargo test -q"
    cargo test -q

    echo "== workspace tests"
    # The tier-1 step above already ran the umbrella crate (the root
    # package); exclude it here so its integration suites don't run twice.
    cargo test --workspace --exclude cube-suite -q

    echo "== fmt64 sweep: 20M values byte-identical to std's {} (release)"
    cargo test --release -q -p cube-xml --lib fmt64::tests::sweep -- --ignored

    echo "== miri gate: pool facade, server cache, fused kernels, CRC-32 engine, fmt64 (when available)"
    if cargo miri --version >/dev/null 2>&1; then
        make miri
    else
        echo "skipped: the miri component is not installed on this toolchain"
    fi
}

# -- lint --------------------------------------------------------------------

stage_lint() {
    need_bins

    echo "== hygiene: fmt, clippy -D warnings, doc -D warnings"
    make fmt-check clippy doc

    echo "== hygiene: server request paths are panic-free (ci/lint_source.sh)"
    ./ci/lint_source.sh

    echo "== lint gate: valid fixtures pass --deny warnings"
    ./target/release/cube lint --deny warnings tests/fixtures/valid/*.cube

    echo "== lint gate: derived experiments pass --deny warnings (closure)"
    ./target/release/cube diff tests/fixtures/valid/full.cube \
        tests/fixtures/valid/minimal.cube -o "$work/derived.cube"
    ./target/release/cube lint --deny warnings "$work/derived.cube"

    echo "== lint gate: malformed corpus reports its documented codes"
    for cube in tests/fixtures/malformed/*.cube; do
        expect="${cube%.cube}.expect"
        if out="$(./target/release/cube lint --deny warnings "$cube")"; then
            echo "lint accepted malformed file $cube" >&2
            exit 1
        fi
        for code in $(cat "$expect"); do
            case "$out" in
            *"$code"*) ;;
            *)
                echo "lint output for $cube is missing code $code:" >&2
                echo "$out" >&2
                exit 1
                ;;
            esac
        done
    done

    echo "== lint gate: damaged stores named after a rule report it"
    for cubec in tests/fixtures/corrupt/[ew][0-9][0-9][0-9]_*.cubec; do
        expect="${cubec%.cubec}.expect"
        if out="$(./target/release/cube lint "$cubec")"; then
            echo "lint accepted damaged store $cubec" >&2
            exit 1
        fi
        for code in $(cat "$expect"); do
            case "$out" in
            *"$code"*) ;;
            *)
                echo "lint output for $cubec is missing code $code:" >&2
                echo "$out" >&2
                exit 1
                ;;
            esac
        done
    done

    echo "== check gate: warning-free expressions pass --deny warnings"
    # Mixed .cube/.cubec operands from the generated corpus share one
    # shape, so reductions over them are statically clean; the .cubec
    # side exercises the metadata-only open path.
    need_corpus
    ./target/release/cube check "mean(run0,run1,run2)" \
        "$det/corpus/run0.cube" "$det/corpus/run1.cube" "$det/corpus/run2.cubec" \
        --deny warnings >/dev/null
    ./target/release/cube check "diff(mean(run0,run1),mean(run2,run3))" \
        "$det/corpus/run0.cubec" "$det/corpus/run1.cubec" \
        "$det/corpus/run2.cubec" "$det/corpus/run3.cubec" \
        --deny warnings >/dev/null

    echo "== check gate: golden fixtures report their documented codes"
    for expr_file in tests/fixtures/check/a*.expr; do
        # a001-unresolved.expr documents code A001, and so on.
        code="$(basename "$expr_file" | cut -c1-4 | tr 'a' 'A')"
        set +e
        out="$(./target/release/cube check "$(cat "$expr_file")" \
            tests/fixtures/valid/full.cube tests/fixtures/valid/minimal.cube \
            tests/fixtures/check/operands/twin.cube \
            tests/fixtures/check/operands/disjoint.cube \
            --format json)"
        set -e
        case "$out" in
        *"\"$code\""*) ;;
        *)
            echo "cube check output for $expr_file is missing code $code:" >&2
            echo "$out" >&2
            exit 1
            ;;
        esac
    done
}

# -- store -------------------------------------------------------------------

stage_store() {
    need_corpus

    echo "== recovery gate: corrupt corpus salvages to its documented prefixes"
    for cube in tests/fixtures/corrupt/*.cube tests/fixtures/corrupt/*.cubec; do
        expect="${cube%.*}.expect"
        out_file="$work/$(basename "$cube")"
        rm -f "$out_file"
        set +e
        ./target/release/cube repair "$cube" "$out_file"
        status=$?
        set -e
        # A fixture named after a rule (e201_*) is unrecoverable; its
        # .expect lists lint codes (checked in the lint stage).
        case "$(basename "$cube")" in
        [ew][0-9][0-9][0-9]_*) snapshot="" ;;
        *) snapshot="$expect" ;;
        esac
        if [ -n "$snapshot" ] && [ -f "$snapshot" ]; then
            # Partial recovery: documented exit code 1 and a byte-exact
            # prefix snapshot.
            if [ "$status" -ne 1 ]; then
                echo "cube repair $cube exited $status, expected 1" >&2
                exit 1
            fi
            if ! cmp -s "$out_file" "$expect"; then
                echo "repaired output for $cube diverges from $expect" >&2
                exit 1
            fi
            # The repaired prefix must be strictly readable and lint-clean.
            ./target/release/cube lint --deny warnings "$out_file" >/dev/null
        else
            # Unrecoverable: documented exit code 2 and no output written.
            if [ "$status" -ne 2 ]; then
                echo "cube repair $cube exited $status, expected 2" >&2
                exit 1
            fi
            if [ -e "$out_file" ]; then
                echo "cube repair $cube wrote output despite failing" >&2
                exit 1
            fi
        fi
    done

    echo "== recovery gate: intact files repair with exit 0"
    ./target/release/cube repair tests/fixtures/valid/full.cube "$work/intact.cube"

    echo "== recovery gate: salvage is unchanged under a busy worker pool"
    # The salvage path shares the pool with everything else; repairs must
    # produce the same prefixes whether the pool has 1 worker or 8.
    CUBE_THREADS=8 cargo test -q --test recovery_corpus

    echo "== determinism gate: derived files are thread-count-independent"
    # Evaluate the three pipeline operations over the 153,600-value
    # corpus at 1, 2, and 8 threads, and require byte-identical
    # outputs. This is the end-to-end check behind the facade's
    # "results never depend on the pool size" contract.
    for t in 1 2 8; do
        ./target/release/cube --threads "$t" stats "$det/mean.t$t.cube" \
            "$det"/corpus/*.cube --op mean >/dev/null
        ./target/release/cube --threads "$t" diff \
            "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
            -o "$det/diff.t$t.cube" >/dev/null
        ./target/release/cube --threads "$t" merge \
            "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
            -o "$det/merge.t$t.cube" >/dev/null
    done
    for op in mean diff merge; do
        for t in 2 8; do
            if ! cmp "$det/$op.t1.cube" "$det/$op.t$t.cube"; then
                echo "cube $op output differs between --threads 1 and --threads $t" >&2
                exit 1
            fi
        done
    done

    echo "== store gate: .cubec backend matches the XML path byte-for-byte"
    # Re-run the reductions over the columnar backend at every tracked
    # thread count, and require the outputs to be byte-identical to the
    # XML-path outputs produced above. (cold-open latency is tracked
    # separately: ci/bench_gate.sh holds the store/cold_open/* metrics
    # to the committed baseline.)
    for t in 1 2 8; do
        ./target/release/cube --threads "$t" stats "$det/mean.store.t$t.cube" \
            "$det"/corpus/*.cubec --op mean >/dev/null
        if ! cmp "$det/mean.t1.cube" "$det/mean.store.t$t.cube"; then
            echo "cube stats over .cubec differs from the XML path at --threads $t" >&2
            exit 1
        fi
        ./target/release/cube --threads "$t" diff \
            "$det/corpus/run0.cubec" "$det/corpus/run1.cubec" \
            -o "$det/diff.store.t$t.cube" >/dev/null
        if ! cmp "$det/diff.t1.cube" "$det/diff.store.t$t.cube"; then
            echo "cube diff over .cubec differs from the XML path at --threads $t" >&2
            exit 1
        fi
    done

    echo "== store gate: pack/unpack round-trip is byte-exact"
    ./target/release/cube unpack "$det/corpus/run0.cubec" "$det/run0.back.cube" >/dev/null
    if ! cmp "$det/corpus/run0.cube" "$det/run0.back.cube"; then
        echo "unpack(pack(x)) diverged from x" >&2
        exit 1
    fi

    echo "== speedup gate: stats --op mean, 4 threads vs 1"
    # Wall-clock acceptance check; only meaningful with real cores to
    # spread over, so skip (with a note) on smaller machines.
    if [ "$(nproc)" -ge 4 ]; then
        best_ns() {
            best=""
            for _ in 1 2 3; do
                start=$(date +%s%N)
                ./target/release/cube --threads "$1" stats "$det/speed.cube" \
                    "$det"/corpus/*.cube --op mean >/dev/null
                end=$(date +%s%N)
                ns=$((end - start))
                if [ -z "$best" ] || [ "$ns" -lt "$best" ]; then best=$ns; fi
            done
            echo "$best"
        }
        best_ns 1 >/dev/null # warm the page cache
        t1=$(best_ns 1)
        t4=$(best_ns 4)
        echo "stats --op mean: ${t1} ns at 1 thread, ${t4} ns at 4 threads"
        if ! awk "BEGIN{exit !($t1 >= 2.0 * $t4)}"; then
            echo "speedup gate failed: expected >=2x at 4 threads" >&2
            exit 1
        fi
    else
        echo "skipped: $(nproc) core(s) < 4 (needs real parallelism to measure)"
    fi
}

# -- serve -------------------------------------------------------------------

stage_serve() {
    need_corpus

    echo "== serve gate: /eval bytes match the CLI at every thread count"
    # Boot the analysis server on an ephemeral port over a fresh repository,
    # ingest the determinism corpus through the HTTP API (both formats),
    # and require every /eval response — cache miss and cache hit — to be
    # byte-identical to what `cube stats` writes from the same objects at
    # --threads 1, 2, and 8. Then SIGTERM must drain and exit 0.
    sdir="$work/serve"
    mkdir -p "$sdir"
    ./target/release/cube serve --repo "$sdir/repo" --port 0 --workers 2 \
        >"$sdir/serve.log" 2>&1 &
    serve_pid=$!
    serve_addr "$sdir/serve.log"
    ingest_corpus
    # shellcheck disable=SC2086
    set -- $ids
    objects=""
    for id in "$@"; do
        objects="$objects $sdir/repo/objects/$(printf '%s' "$id" | cut -c1-2)/$id.cubec"
    done
    mean_expr="mean($1,$2,$3,$4)"
    diff_expr="diff(mean($1,$2),mean($3,$4))"

    round=0
    for t in 1 2 8; do
        # shellcheck disable=SC2086
        ./target/release/cube --threads "$t" stats "$sdir/cli.mean.t$t.cube" \
            $objects --op mean >/dev/null
        # shellcheck disable=SC2086
        ./target/release/cube --threads "$t" stats "$sdir/cli.diff.t$t.cube" \
            $objects --minus 2 >/dev/null
        for kind in mean diff; do
            case "$kind" in
            mean) expr="$mean_expr" ;;
            *) expr="$diff_expr" ;;
            esac
            curl -sS -H 'Expect:' -X POST --data "$expr" \
                -D "$sdir/hdr.$kind.t$t" -o "$sdir/srv.$kind.t$t.cube" \
                "http://$addr/eval"
            if ! cmp -s "$sdir/cli.$kind.t$t.cube" "$sdir/srv.$kind.t$t.cube"; then
                echo "/eval '$expr' differs from the CLI at --threads $t" >&2
                exit 1
            fi
            if [ "$round" -eq 0 ]; then
                want=miss
            else
                want=hit
            fi
            if ! grep -qi "x-cache: $want" "$sdir/hdr.$kind.t$t"; then
                echo "/eval '$expr' round $round expected X-Cache: $want" >&2
                cat "$sdir/hdr.$kind.t$t" >&2
                exit 1
            fi
        done
        round=$((round + 1))
    done

    echo "== serve gate: /eval pre-flight rejects invalid expressions"
    # A missing operand id must come back as the checker's stable A001
    # code with a structured diagnostics array — and must not grow the
    # result cache (nothing is evaluated, nothing is inserted).
    cache_entries() {
        curl -sS "http://$addr/stats" \
            | sed -n 's/.*"result_cache":{[^}]*"entries":\([0-9]*\).*/\1/p'
    }
    entries_before="$(cache_entries)"
    status="$(curl -sS -o "$sdir/preflight.json" -w '%{http_code}' -H 'Expect:' \
        -X POST --data 'mean(00000000deadbeef)' "http://$addr/eval")"
    if [ "$status" != "404" ]; then
        echo "/eval with a missing id answered $status, expected 404:" >&2
        cat "$sdir/preflight.json" >&2
        exit 1
    fi
    grep -q '"code":"A001"' "$sdir/preflight.json"
    grep -q '"diagnostics":\[' "$sdir/preflight.json"
    entries_after="$(cache_entries)"
    if [ "$entries_before" != "$entries_after" ]; then
        echo "pre-flight rejection changed the result cache" \
            "($entries_before -> $entries_after entries)" >&2
        exit 1
    fi
    # /check exposes the same analysis: a statically-zero diff reports
    # A008 and the zero() rewrite without evaluating anything.
    curl -sS -H 'Expect:' -X POST --data "diff($1,$1)" \
        "http://$addr/check" >"$sdir/check.json"
    grep -q '"A008"' "$sdir/check.json"
    grep -q '"rewritten":"zero()"' "$sdir/check.json"
    # The fused cost block rides along in /check (and `cube check`).
    curl -sS -H 'Expect:' -X POST --data "$mean_expr" \
        "http://$addr/check" >"$sdir/check.fused.json"
    grep -q '"fused":{"instrs":' "$sdir/check.fused.json"

    echo "== serve gate: hostile uploads are refused and the server stays up"
    # PUT every file of the damaged and malformed corpora. Two kinds are
    # valid experiments the server must accept: the repaired snapshots
    # of the recovery corpus and the warning-only lint fixtures.
    # Everything else must draw a 4xx, never a 5xx or an abort, and
    # /healthz must answer after every upload.
    for f in tests/fixtures/corrupt/* tests/fixtures/malformed/*; do
        case "$f" in
        tests/fixtures/malformed/w[0-9][0-9][0-9]_*.cube) want=2 ;;
        tests/fixtures/corrupt/[ew][0-9][0-9][0-9]_*) want=4 ;;
        tests/fixtures/corrupt/*.expect) want=2 ;;
        *) want=4 ;;
        esac
        status="$(curl -sS -H 'Expect:' -X PUT --data-binary @"$f" \
            -o "$sdir/hostile.json" -w '%{http_code}' "http://$addr/experiments" || true)"
        case "$status" in
        "$want"??) ;;
        *)
            echo "upload of $f answered '$status', expected ${want}xx:" >&2
            cat "$sdir/hostile.json" >&2
            exit 1
            ;;
        esac
        health="$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr/healthz" || true)"
        if [ "$health" != "200" ]; then
            echo "/healthz answered '$health' after uploading $f" >&2
            exit 1
        fi
    done

    kill -TERM "$serve_pid"
    set +e
    wait "$serve_pid"
    serve_status=$?
    set -e
    serve_pid=""
    if [ "$serve_status" -ne 0 ]; then
        echo "cube serve exited $serve_status after SIGTERM:" >&2
        cat "$sdir/serve.log" >&2
        exit 1
    fi
    grep -q "shutdown complete" "$sdir/serve.log"
}

# -- chaos -------------------------------------------------------------------

stage_chaos() {
    need_corpus

    echo "== chaos gate: /eval under a fixed fault schedule stays sound"
    # Boot a fault-free reference server with all caches off (so every
    # request drives real disk reads), record the canonical /eval bytes,
    # then re-boot the same repository under a fixed CUBE_FAULTS seed and
    # require: every status within the fault model (200/206/503/504),
    # every 200 byte-identical to the reference, and a clean SIGTERM
    # drain while faults are still firing. The driver is single-threaded,
    # so the seeded schedule makes this gate exactly reproducible.
    cdir="$work/chaos"
    mkdir -p "$cdir"
    ./target/release/cube serve --repo "$cdir/repo" --port 0 --workers 2 \
        --cache-results 0 --cache-plans 0 --cache-handles 0 \
        >"$cdir/ref.log" 2>&1 &
    serve_pid=$!
    serve_addr "$cdir/ref.log"
    ingest_corpus
    # shellcheck disable=SC2086
    set -- $ids
    chaos_mean="mean($1,$2,$3,$4)"
    chaos_diff="diff(mean($1,$2),mean($3,$4))"
    for kind in mean diff; do
        case "$kind" in
        mean) expr="$chaos_mean" ;;
        *) expr="$chaos_diff" ;;
        esac
        status="$(curl -sS -H 'Expect:' -X POST --data "$expr" \
            -o "$cdir/ref.$kind.cube" -w '%{http_code}' "http://$addr/eval")"
        if [ "$status" != "200" ]; then
            echo "fault-free reference /eval '$expr' answered $status" >&2
            exit 1
        fi
    done
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    serve_pid=""

    CUBE_FAULTS='seed=20260808,read_error=0.15,torn_read=0.08,checksum_flip=0.08,latency=2@0.25' \
        ./target/release/cube serve --repo "$cdir/repo" --port 0 --workers 2 \
        --cache-results 0 --cache-plans 0 --cache-handles 0 \
        --retries 3 --backoff-ms 1 --breaker 4 \
        >"$cdir/chaos.log" 2>&1 &
    serve_pid=$!
    serve_addr "$cdir/chaos.log"
    successes=0
    round=0
    while [ "$round" -lt 6 ]; do
        for kind in mean diff; do
            case "$kind" in
            mean) expr="$chaos_mean" ;;
            *) expr="$chaos_diff" ;;
            esac
            # Odd rounds opt into degraded mode; 200s must still be
            # byte-identical either way.
            if [ $((round % 2)) -eq 1 ]; then
                path="/eval?keep_going=1"
            else
                path="/eval"
            fi
            status="$(curl -sS -H 'Expect:' -X POST --data "$expr" \
                -o "$cdir/got.$kind" -w '%{http_code}' "http://$addr$path")"
            case "$status" in
            200)
                if ! cmp -s "$cdir/ref.$kind.cube" "$cdir/got.$kind"; then
                    echo "faulted 200 for '$expr' diverged from the fault-free run" >&2
                    exit 1
                fi
                successes=$((successes + 1))
                ;;
            206)
                grep -q '"status":"degraded"' "$cdir/got.$kind"
                grep -q '"omitted_operands":\[{' "$cdir/got.$kind"
                ;;
            503 | 504)
                grep -q '"code":"' "$cdir/got.$kind"
                ;;
            *)
                echo "status $status outside the fault model for '$expr':" >&2
                cat "$cdir/got.$kind" >&2
                exit 1
                ;;
            esac
        done
        round=$((round + 1))
    done
    if [ "$successes" -eq 0 ]; then
        echo "no /eval ever succeeded under the CI fault seed" >&2
        exit 1
    fi
    curl -sS "http://$addr/healthz" | grep -q '"ok":true'
    curl -sS "http://$addr/stats" | grep -q '"faults":{'
    kill -TERM "$serve_pid"
    set +e
    wait "$serve_pid"
    chaos_status=$?
    set -e
    serve_pid=""
    if [ "$chaos_status" -ne 0 ]; then
        echo "cube serve exited $chaos_status after SIGTERM under faults:" >&2
        cat "$cdir/chaos.log" >&2
        exit 1
    fi
    grep -q "shutdown complete" "$cdir/chaos.log"

    echo "== chaos gate: fsck passes over the served repository"
    # In-memory fault injection never touches the disk: the repository
    # the chaos server just hammered must still verify clean.
    ./target/release/cube fsck "$cdir/repo" >/dev/null

    echo "== chaos gate: serve_chaos harness"
    cargo test -q --test serve_chaos
}

# -- kernel ------------------------------------------------------------------

stage_kernel() {
    need_corpus

    echo "== kernel gate: fused-kernel unit suite (bitwise vs the scalar oracle)"
    cargo test -q -p cube-algebra --test kernel_props

    echo "== kernel gate: --fusion on|off outputs are byte-identical (threads 1/2/8)"
    # The fused single-pass kernels must reproduce the unfused tree
    # walker bit for bit over the 153K-value corpus, for every surfaced
    # operation, at every tracked thread count — over both the XML and
    # the columnar backend. This is the determinism contract from
    # docs/KERNELS.md, enforced end-to-end.
    kdir="$work/kernel"
    mkdir -p "$kdir"
    for t in 1 2 8; do
        for fus in on off; do
            ./target/release/cube --threads "$t" --fusion "$fus" \
                stats "$kdir/mean.$fus.t$t.cube" \
                "$det"/corpus/*.cube --op mean >/dev/null
            ./target/release/cube --threads "$t" --fusion "$fus" \
                stats "$kdir/stddev.$fus.t$t.cube" \
                "$det"/corpus/*.cube --op stddev >/dev/null
            ./target/release/cube --threads "$t" --fusion "$fus" \
                stats "$kdir/minus.$fus.t$t.cube" \
                "$det"/corpus/*.cube --minus 3 >/dev/null
            ./target/release/cube --threads "$t" --fusion "$fus" diff \
                "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
                -o "$kdir/diff.$fus.t$t.cube" >/dev/null
            ./target/release/cube --threads "$t" --fusion "$fus" merge \
                "$det/corpus/run0.cube" "$det/corpus/run1.cube" \
                -o "$kdir/merge.$fus.t$t.cube" >/dev/null
        done
        for op in mean stddev minus diff merge; do
            if ! cmp "$kdir/$op.on.t$t.cube" "$kdir/$op.off.t$t.cube"; then
                echo "cube $op differs between --fusion on and off at --threads $t" >&2
                exit 1
            fi
            if ! cmp "$kdir/$op.on.t1.cube" "$kdir/$op.on.t$t.cube"; then
                echo "fused cube $op differs between --threads 1 and --threads $t" >&2
                exit 1
            fi
        done
    done
    # Columnar operands stream page-granular blocks through the fused
    # loop; the bytes still must not move.
    ./target/release/cube --threads 2 --fusion on stats "$kdir/store.on.cube" \
        "$det"/corpus/*.cubec --minus 3 >/dev/null
    ./target/release/cube --threads 2 --fusion off stats "$kdir/store.off.cube" \
        "$det"/corpus/*.cubec --minus 3 >/dev/null
    if ! cmp "$kdir/store.on.cube" "$kdir/store.off.cube"; then
        echo "cube stats over .cubec differs between --fusion on and off" >&2
        exit 1
    fi

    echo "== kernel gate: /eval X-Cache behavior is unchanged by fusion"
    # A fused server (the default) must answer miss-then-hit with bytes
    # equal to the *unfused* CLI; a CUBE_FUSION=off server must answer
    # the same bytes with the same miss-then-hit sequence. Fusion being
    # invisible in the bytes is what keeps the result caches sound.
    for mode in on off; do
        mdir="$kdir/serve.$mode"
        mkdir -p "$mdir"
        CUBE_FUSION="$mode" ./target/release/cube serve --repo "$mdir/repo" \
            --port 0 --workers 2 >"$mdir/serve.log" 2>&1 &
        serve_pid=$!
        serve_addr "$mdir/serve.log"
        curl -sS "http://$addr/stats" >"$mdir/stats.json"
        if [ "$mode" = on ]; then
            grep -q '"fusion":true' "$mdir/stats.json"
        else
            grep -q '"fusion":false' "$mdir/stats.json"
        fi
        ingest_corpus
        # shellcheck disable=SC2086
        set -- $ids
        expr="diff(mean($1,$2),mean($3,$4))"
        for round in 0 1; do
            curl -sS -H 'Expect:' -X POST --data "$expr" \
                -D "$mdir/hdr.$round" -o "$mdir/srv.$round.cube" \
                "http://$addr/eval"
            if [ "$round" -eq 0 ]; then want=miss; else want=hit; fi
            if ! grep -qi "x-cache: $want" "$mdir/hdr.$round"; then
                echo "/eval (fusion $mode) round $round expected X-Cache: $want" >&2
                cat "$mdir/hdr.$round" >&2
                exit 1
            fi
        done
        if ! cmp -s "$mdir/srv.0.cube" "$mdir/srv.1.cube"; then
            echo "/eval (fusion $mode) miss and hit bytes differ" >&2
            exit 1
        fi
        objects=""
        for id in "$@"; do
            objects="$objects $mdir/repo/objects/$(printf '%s' "$id" | cut -c1-2)/$id.cubec"
        done
        # shellcheck disable=SC2086
        ./target/release/cube --fusion off stats "$mdir/cli.unfused.cube" \
            $objects --minus 2 >/dev/null
        if ! cmp -s "$mdir/cli.unfused.cube" "$mdir/srv.0.cube"; then
            echo "/eval (fusion $mode) bytes differ from the unfused CLI" >&2
            exit 1
        fi
        kill -TERM "$serve_pid"
        wait "$serve_pid"
        serve_pid=""
    done
}

# -- driver ------------------------------------------------------------------

timing="$work/timing"
: >"$timing"
total=0
for s in $STAGES; do
    case "$s" in
    build | test | lint | store | serve | chaos | kernel) ;;
    *)
        echo "ci/check.sh: unknown stage '$s'" \
            "(expected: build test lint store serve chaos kernel)" >&2
        exit 2
        ;;
    esac
    echo "==== stage: $s"
    stage_start=$(date +%s)
    "stage_$s"
    stage_dur=$(($(date +%s) - stage_start))
    total=$((total + stage_dur))
    printf '%-8s %5ss\n' "$s" "$stage_dur" >>"$timing"
done

echo "== stage timing summary"
cat "$timing"
printf '%-8s %5ss\n' total "$total"
echo "== ci/check.sh: all green ($STAGES)"
