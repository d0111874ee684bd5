#!/usr/bin/env sh
# test_cli.sh — script-level checks for the CLI exit-code contract.
#
# Pins the behavior documented in cmd/iolint and cmd/iodiscover:
#   - clean sources exit 0;
#   - error-severity verifier diagnostics (TR001, mutated loop bound) make
#     both iolint -verify and iodiscover -loop-reduction exit 1;
#   - warning-severity diagnostics go to stderr only and never flip the
#     exit code;
#   - path switching resolves sprintf-built constant paths (no TR003) and
#     the switched kernel opens its file under /dev/shm, exit 0.
set -eu

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "test_cli: FAIL: $1" >&2
    exit 1
}

# A clean program: I/O behind a stable loop bound, nothing for the
# verifier to refuse.
cat > "$tmp/ok.c" <<'EOF'
int main() {
    FILE *fp = fopen("/scratch/ok.bin", "w");
    for (int i = 0; i < 8; i++) {
        fwrite(&i, 4, 1, fp);
    }
    fclose(fp);
    return 0;
}
EOF

# TR001 trigger: the loop bound mutates inside the loop body, so loop
# reduction would rewrite a moving bound — an error-severity refusal.
cat > "$tmp/tr001.c" <<'EOF'
int main() {
    int n = 8;
    FILE *fp = fopen("/scratch/bad.bin", "w");
    for (int i = 0; i < n; i++) {
        fwrite(&i, 4, 1, fp);
        n = n + 1;
    }
    fclose(fp);
    return 0;
}
EOF

# TR003 (warning): the path comes out of an unknown helper, so path
# switching cannot rewrite it — a warning, not an error.
cat > "$tmp/tr003.c" <<'EOF'
int main() {
    char name[64];
    build_name(name);
    FILE *fp = fopen(name, "w");
    fwrite(&name, 4, 1, fp);
    fclose(fp);
    return 0;
}
EOF

# Computed path built from sprintf of constants: TR003 must NOT fire and
# path switching must substitute a /dev/shm literal.
cat > "$tmp/sprintf_path.c" <<'EOF'
int main() {
    const char* outdir = "/scratch/run7";
    char fname[256];
    sprintf(fname, "%s/%s", outdir, "dump.bin");
    FILE *fp = fopen(fname, "w");
    for (int i = 0; i < 4; i++) {
        fwrite(&i, 4, 1, fp);
    }
    fclose(fp);
    return 0;
}
EOF

echo "== clean source exits 0 =="
go run ./cmd/iolint -verify "$tmp/ok.c" > /dev/null ||
    fail "iolint -verify on clean source exited nonzero"
go run ./cmd/iodiscover -loop-reduction 0.5 "$tmp/ok.c" > /dev/null ||
    fail "iodiscover on clean source exited nonzero"

echo "== TR001 makes iolint -verify exit 1 =="
if go run ./cmd/iolint -verify "$tmp/tr001.c" > "$tmp/lint.out" 2> "$tmp/lint.err"; then
    fail "iolint -verify did not exit nonzero on a mutated loop bound"
fi
grep -q "TR001" "$tmp/lint.out" ||
    fail "error-severity TR001 finding missing from iolint stdout"

echo "== TR001 makes iodiscover -loop-reduction exit 1 =="
if go run ./cmd/iodiscover -loop-reduction 0.5 "$tmp/tr001.c" > /dev/null 2> "$tmp/disc.err"; then
    fail "iodiscover did not exit nonzero when loop reduction was refused"
fi
grep -q "TR001" "$tmp/disc.err" ||
    fail "TR001 diagnostic missing from iodiscover stderr"

echo "== warnings stay on stderr and exit 0 =="
go run ./cmd/iolint -verify "$tmp/tr003.c" > "$tmp/warn.out" 2> "$tmp/warn.err" ||
    fail "warning-only iolint -verify run exited nonzero"
grep -q "TR003" "$tmp/warn.err" ||
    fail "TR003 warning missing from iolint stderr"
if grep -q "TR003" "$tmp/warn.out"; then
    fail "warning-severity TR003 leaked to iolint stdout"
fi

echo "== TR007 (unbounded I/O loop) makes plain iodiscover exit 1 =="
# The bound-analysis checks run on every verification pass, so a
# diverging I/O loop fails discovery even with no transform requested.
cat > "$tmp/tr007.c" <<'EOF'
int main() {
    int i;
    char buf[16];
    FILE *fp = fopen("/scratch/div.bin", "w");
    for (i = 0; i < 8; i--) {
        fwrite(buf, 4, 1, fp);
    }
    fclose(fp);
    return 0;
}
EOF
if go run ./cmd/iodiscover "$tmp/tr007.c" > /dev/null 2> "$tmp/tr007.err"; then
    fail "iodiscover did not exit nonzero on a statically unbounded I/O loop"
fi
grep -q "TR007" "$tmp/tr007.err" ||
    fail "TR007 diagnostic missing from iodiscover stderr"
if go run ./cmd/iolint -verify "$tmp/tr007.c" > "$tmp/tr007.out" 2>/dev/null; then
    fail "iolint -verify did not exit nonzero on a statically unbounded I/O loop"
fi
grep -q "TR007" "$tmp/tr007.out" ||
    fail "error-severity TR007 finding missing from iolint stdout"

echo "== -sig mode prints the symbolic signature =="
go run ./cmd/iolint -sig "$tmp/ok.c" > "$tmp/sig.out" ||
    fail "iolint -sig exited nonzero on a clean source"
grep -q "bytes written:" "$tmp/sig.out" ||
    fail "iolint -sig output missing the bytes-written line"
go run ./cmd/iodiscover -sig "$tmp/ok.c" > "$tmp/dsig.out" 2>/dev/null ||
    fail "iodiscover -sig exited nonzero on a clean source"
grep -q "hash:" "$tmp/dsig.out" ||
    fail "iodiscover -sig output missing the signature hash"

echo "== path switch resolves sprintf-of-constants =="
go run ./cmd/iodiscover -path-switch "$tmp/sprintf_path.c" > "$tmp/kernel.c" 2> "$tmp/switch.err" ||
    fail "iodiscover -path-switch exited nonzero on a resolvable computed path"
grep -q "/dev/shm/scratch/run7" "$tmp/kernel.c" ||
    fail "switched /dev/shm literal missing from the kernel"
if grep -q "TR003" "$tmp/switch.err"; then
    fail "TR003 raised for a constant-propagatable path"
fi

echo "== tunio tunes at default flags on the batch engine =="
# -parallel 0 (the default) is one worker on the batch engine: the run
# must be scored by trace replay and print its result.
go build -o "$tmp/tunio" ./cmd/tunio
"$tmp/tunio" -workload macsio -nodes 1 -ppn 8 -pipeline hstuner -pop 4 -iters 3 -reps 1 \
    > "$tmp/tune.out" 2> "$tmp/tune.err" ||
    fail "tunio at default flags exited nonzero: $(cat "$tmp/tune.err")"
grep -q "trace replay" "$tmp/tune.out" ||
    fail "tunio did not report a trace-replay-scored run: $(cat "$tmp/tune.out")"

echo "== tuniod serves a tuning job over HTTP =="
# Tuning-as-a-service smoke: boot tuniod on an ephemeral port, submit a
# tiny macsio job, and poll until it reaches a terminal state with a
# result payload.
go build -o "$tmp/tuniod" ./cmd/tuniod
"$tmp/tuniod" -addr 127.0.0.1:0 2> "$tmp/tuniod.log" &
tuniod_pid=$!
# dash keeps `set -e` live inside EXIT traps: a kill of an already-dead
# daemon must not abort the trap (skipping cleanup) or turn a clean run
# into exit 1. The trap waits for the daemon to exit before removing its
# directory: a daemon still shutting down may write into it.
trap 'kill "$tuniod_pid" 2>/dev/null || :; wait "$tuniod_pid" 2>/dev/null || :; rm -rf "$tmp"' EXIT

for _ in $(seq 1 100); do
    grep -q "listening on" "$tmp/tuniod.log" && break
    sleep 0.1
done
grep -q "listening on" "$tmp/tuniod.log" ||
    fail "tuniod did not announce its listening address"
base="$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$tmp/tuniod.log")"

code="$(curl -s -o "$tmp/job.json" -w '%{http_code}' "$base/v1/jobs" \
    -H 'X-Tunio-Tenant: smoke' \
    -d '{"workload":"macsio","nodes":2,"procs_per_node":8,"pop_size":8,"max_iterations":6,"reps":1,"seed":3,"parallelism":2}')"
[ "$code" = "202" ] || fail "job submit returned HTTP $code, want 202"
grep -q '"id": "job-1"' "$tmp/job.json" || fail "submit response missing the job id"

state=running
for _ in $(seq 1 300); do
    curl -s "$base/v1/jobs/job-1" > "$tmp/status.json"
    if grep -q '"state": "done"' "$tmp/status.json"; then
        state=done
        break
    fi
    if grep -Eq '"state": "(failed|canceled)"' "$tmp/status.json"; then
        fail "job ended abnormally: $(cat "$tmp/status.json")"
    fi
    sleep 0.1
done
[ "$state" = "done" ] || fail "job did not reach a terminal state in time"
grep -q '"best_perf_mbs"' "$tmp/status.json" ||
    fail "terminal status missing the result payload"
curl -s "$base/v1/stats" | grep -q '"sessions_done": 1' ||
    fail "tuniod stats did not count the finished session"

echo "== tuniod rejects a negative rep count with 400 =="
code="$(curl -s -o "$tmp/neg.json" -w '%{http_code}' "$base/v1/jobs" \
    -d '{"workload":"macsio","nodes":2,"procs_per_node":8,"reps":-1}')"
[ "$code" = "400" ] || fail "reps -1 returned HTTP $code, want 400"
grep -q "Reps" "$tmp/neg.json" || fail "400 body does not name the rejected field"
curl -s "$base/v1/stats" | grep -q '"sessions_started": 1' ||
    fail "a rejected job started a session"

echo "== tuniod streams an online drift session over SSE =="
# Online smoke: the machine degrades at t=25, so the session must stream
# window events, announce at least one retune, and land a drift payload.
code="$(curl -s -o "$tmp/job_online.json" -w '%{http_code}' "$base/v1/jobs" \
    -H 'X-Tunio-Tenant: smoke' \
    -d '{"workload":"flash","nodes":2,"procs_per_node":8,"reps":1,"seed":5,"parallelism":2,
         "drift":{"seed":9,"regimes":[{"start":25,"ost_load":0.5,"nic_load":0.3,"contention":3}]},
         "online":{"windows":8,"window_gap_s":10,"neighbors":4,"rounds":2,"init_rounds":3,"prune":true}}')"
[ "$code" = "202" ] || fail "online job submit returned HTTP $code, want 202"
grep -q '"id": "job-2"' "$tmp/job_online.json" || fail "online submit response missing the job id"

# The SSE stream stays open until the session finishes, so a plain curl
# terminates on its own once the done event is written.
curl -s -N "$base/v1/jobs/job-2/events" > "$tmp/online.sse" ||
    fail "online SSE stream did not terminate cleanly"
[ "$(grep -c '^event: window' "$tmp/online.sse")" = "8" ] ||
    fail "online stream did not carry one window event per window"
grep -q '^event: retune' "$tmp/online.sse" ||
    fail "online stream carried no retune event through the regime change"
grep -q '^event: done' "$tmp/online.sse" ||
    fail "online stream did not end with a done event"
curl -s "$base/v1/jobs/job-2" > "$tmp/online_status.json"
grep -q '"retunes"' "$tmp/online_status.json" ||
    fail "online terminal status missing the drift payload"
kill "$tuniod_pid" 2>/dev/null || true

echo "== tuniotrain trains, resumes, and feeds tuniod =="
# Staged-pipeline smoke at tiny scale: train up to the sweep stage, then
# resume a full run — the sweep artifact must be reused, the remaining
# stages trained — and finally serve the resulting agent with tuniod.
go build -o "$tmp/tuniotrain" ./cmd/tuniotrain
train_flags="-nodes 1 -procs-per-node 8 -extra-random 2 -picker-epochs 2 -stopper-epochs 2 -horizon 8"
"$tmp/tuniotrain" -artifacts "$tmp/art" -store "$tmp/kernels.json" \
    -until sweep $train_flags 2> "$tmp/train1.log" ||
    fail "tuniotrain -until sweep exited nonzero: $(cat "$tmp/train1.log")"
grep -q "sweep: trained" "$tmp/train1.log" ||
    fail "first tuniotrain run did not train the sweep stage"
[ -f "$tmp/kernels.json" ] ||
    fail "tuniotrain did not save the kernel store"

"$tmp/tuniotrain" -artifacts "$tmp/art" -store "$tmp/kernels.json" \
    -resume $train_flags 2> "$tmp/train2.log" ||
    fail "resumed tuniotrain run exited nonzero: $(cat "$tmp/train2.log")"
grep -q "sweep: reused artifact" "$tmp/train2.log" ||
    fail "resumed run re-ran the sweep instead of reusing its artifact"
grep -q "stopper: trained" "$tmp/train2.log" ||
    fail "resumed run did not train the remaining stages"
[ -f "$tmp/art/agent.json" ] ||
    fail "resumed run did not write agent.json"

"$tmp/tuniod" -addr 127.0.0.1:0 -artifacts "$tmp/art" -store "$tmp/kernels.json" \
    2> "$tmp/tuniod2.log" &
tuniod2_pid=$!
trap 'kill "$tuniod_pid" "$tuniod2_pid" 2>/dev/null || :; wait "$tuniod_pid" "$tuniod2_pid" 2>/dev/null || :; rm -rf "$tmp"' EXIT

for _ in $(seq 1 100); do
    grep -q "listening on" "$tmp/tuniod2.log" && break
    sleep 0.1
done
grep -q "listening on" "$tmp/tuniod2.log" ||
    fail "artifact-serving tuniod did not announce its listening address"
grep -q "kernel store: loaded" "$tmp/tuniod2.log" ||
    fail "tuniod did not load the kernel store saved by tuniotrain"
base2="$(sed -n 's#.*listening on \(http://[^ ]*\).*#\1#p' "$tmp/tuniod2.log")"

code="$(curl -s -o "$tmp/job2.json" -w '%{http_code}' "$base2/v1/jobs" \
    -H 'X-Tunio-Tenant: smoke' \
    -d '{"workload":"macsio","nodes":2,"procs_per_node":8,"pop_size":8,"max_iterations":6,"reps":1,"seed":3,"parallelism":2,"pipeline":"tunio"}')"
[ "$code" = "202" ] || fail "pipeline=tunio submit returned HTTP $code, want 202"

state2=running
for _ in $(seq 1 300); do
    curl -s "$base2/v1/jobs/job-1" > "$tmp/status2.json"
    if grep -q '"state": "done"' "$tmp/status2.json"; then
        state2=done
        break
    fi
    if grep -Eq '"state": "(failed|canceled)"' "$tmp/status2.json"; then
        fail "pipeline=tunio job ended abnormally: $(cat "$tmp/status2.json")"
    fi
    sleep 0.1
done
[ "$state2" = "done" ] || fail "pipeline=tunio job did not finish in time"
grep -q '"best_perf_mbs"' "$tmp/status2.json" ||
    fail "pipeline=tunio terminal status missing the result payload"
kill "$tuniod2_pid" 2>/dev/null || true

echo "test_cli: all checks passed"
