#!/bin/sh
# check.sh — the repository's pre-commit gate: gofmt (every Go file of both
# modules must be formatted), vet (the root module and the
# nested benchmark/ module, which `./...` does not reach), build, dnnlint (the
# determinism/parallelism contract linter; LINTING.md is the canonical
# catalogue of its analyzers and this script's self-tests follow its
# order), the full test suite (including Example tests) and the benchmark
# module's own (so an internal/ API change that breaks the benchmark fails
# here, not at the gate that runs it), race-detector
# passes over the parallel substrate (the BLAS band kernels and implicit-GEMM
# convolution driver with its differential tests, the lowered layer and its
# coarse-engine sweep, the worker pool, the span tracer, the instrumented
# net loop, the coarse engine and the serving layer), twenty race passes
# over the serving batcher's tests, a 5-second FuzzGemm
# smoke (random shapes/transposes/strides through both kernels, gemmRef as
# oracle) and a 5-second FuzzConv smoke (random convolution geometries
# through the gathered and the packed lowering on both kernels, the naive
# lowering as oracle), a 5-second FuzzLRN smoke (random channel counts,
# windows, plane sizes, splits and constants through LRN's block kernels,
# the position-at-a-time loops as oracle), a 5-second FuzzCodec smoke
# (arbitrary float32 bits through every gradient wire format: exact
# WireLen, documented error bounds, non-finite in stays non-finite out),
# a 5-second FuzzReadFrame smoke (arbitrary bytes through the TCP frame
# reader: no panic, an over-limit length or a short body is an error,
# every encoded frame decodes to its tag and bits),
# the reduction determinism sweep
# (the element-parallel ordered merge must stay bit-identical to the serial
# ordered merge at every worker count), one pass each of the A-red
# ablation benchmark (ordered vs tree merge), of the LRN and ReLU layer
# benchmarks at CIFAR-10-full's norm1/relu1 shapes and of the TCP frame
# round trip (one LeNet-sized frame), plus a dedicated race pass over
# the spin-then-park barrier, a tracing smoke run (layerprof -trace) that
# must produce valid Chrome trace-event JSON, the engine grid (dnnbench
# -figure engines: sequential, coarse and fine on the direct and on the
# lowered convolution must print one loss per convolution kernel — the
# only end-to-end run of the fine engine on a lowered net), the
# direct-conv training pin (dnnbench -figure conv: 6 iterations at 1, 2
# and 3 workers, bitwise deterministic, loss and deviations pinned — the
# only end-to-end training of the direct loop nest), the
# one-definition pin
# (dnntrain -zoo lenet|cifar10-full must write the snapshot bytes that
# -model configs/lenet.prototxt|cifar10_full.prototxt writes), the
# robustness drills (ROBUSTNESS.md): the
# fault-injection suite, a seeded corrupt-checkpoint recovery smoke and a
# guard NaN-poison smoke, a serving smoke (SERVING.md): dnnserve on a
# random port answering a dnnload probe and draining cleanly on SIGTERM,
# once for -zoo lenet and once for a dnntrain -model configs/lenet.prototxt
# snapshot served and dnneval'd with no -shape/-classes/-scores,
# and a distributed smoke (DISTRIBUTED.md): a coordinator + 2 workers
# over loopback TCP whose final snapshot must be bit-identical to the
# single-process run, a compressed-wire smoke (f16 and int8 each
# deterministic and distinct from f32, f32 and int8 CRCs pinned),
# plus a supervised smoke that crashes 1 of 3 ranks
# mid-run and requires the survivors' final snapshot to be bit-identical
# to a clean 2-rank resume from the fence checkpoint, and a rank-failure
# smoke: one rank failing set-up must end the run with its error inside
# a timeout, not hang its peers. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt (root module, benchmark module) =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "FAIL: gofmt -l lists unformatted files (run gofmt -w on them):" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet (root module, benchmark module) =="
go vet ./...
go vet -C benchmark ./...

echo "== go build =="
go build ./...

echo "== dnnlint (determinism & parallelism contracts) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/dnnlint" ./cmd/dnnlint
"$tmpdir/dnnlint" ./...

# Self-test: the gate is worthless if the linter silently stops seeing
# violations, so prove each invariant still fires on a known-bad fixture.
# One probe per analyzer, in the catalogue order of LINTING.md §1–9
# (parbody, orderedreduce, blobalias, hotalloc, tracenil, transerr,
# gorolife, phasespan, chanmisuse); parbody and hotalloc get second
# probes for their interprocedural v2 extensions (interproc, hotcall),
# and hotalloc a third for the serving path (servehot) and a fourth for
# the blas kernel package — the conv driver and the panel packers
# (blashot). The probes
# reuse the dnnlint binary built above — one `go build`, many runs.
echo "== dnnlint self-test (each seeded violation must be flagged) =="
lint_probe() { # lint_probe <analyzer> <fixture-pkg>
	if "$tmpdir/dnnlint" -only "$1" -src internal/lint/analyzers/testdata/src \
		"./internal/lint/analyzers/testdata/src/$2" >/dev/null 2>&1; then
		echo "FAIL: dnnlint exited 0 on the seeded $2 fixture (analyzer $1)" >&2
		exit 1
	fi
}
lint_probe parbody parbody
lint_probe parbody interproc
lint_probe orderedreduce orderedreduce
lint_probe blobalias blobalias
lint_probe hotalloc hotalloc
lint_probe hotalloc hotcall
lint_probe hotalloc servehot
lint_probe hotalloc blashot
lint_probe tracenil tracenil
lint_probe transerr transerr
lint_probe gorolife gorolife
lint_probe phasespan phasespan
lint_probe chanmisuse chanmisuse
echo "seeded violations detected, as required"

echo "== go test =="
go test ./...

echo "== go test -C benchmark (the nested module builds against internal/ and its oracles hold) =="
go test -C benchmark ./...

echo "== go test -run Example (doc examples) =="
go test -run Example ./...

echo "== go test -race (blas, layers, par, trace, net, core, guard, faultinject, serve, transport incl. Close-delivers-every-frame, dist, cluster) =="
go test -race -count=1 ./internal/blas ./internal/layers ./internal/par ./internal/trace ./internal/net ./internal/core \
	./internal/guard ./internal/faultinject ./internal/serve ./internal/transport ./internal/dist ./internal/cluster
go test -race -count=1 -run 'TestLoweredLeNetCoarseSweep' ./internal/zoo

echo "== batcher stress under race (20 passes: the select between an idle replica and the next arrival) =="
go test -race -count 20 -run 'Flush|Idle|Busy|Close|Routing|Golden' ./internal/serve

echo "== FuzzGemm smoke (5 s: both kernels vs gemmRef, band invariance, C padding) =="
go test -run '^$' -fuzz '^FuzzGemm$' -fuzztime 5s ./internal/blas

echo "== FuzzConv smoke (5 s: gathered and packed lowering, both kernels, vs the naive lowering bit for bit) =="
go test -run '^$' -fuzz '^FuzzConv$' -fuzztime 5s ./internal/blas

echo "== FuzzLRN smoke (5 s: LRN's block kernels vs the position-at-a-time loops bit for bit) =="
go test -run '^$' -fuzz '^FuzzLRN$' -fuzztime 5s ./internal/layers

echo "== FuzzCodec smoke (5 s: every gradient wire format on arbitrary float32 bits: WireLen, error bounds, non-finite kept) =="
go test -run '^$' -fuzz '^FuzzCodec$' -fuzztime 5s ./internal/transport

echo "== FuzzReadFrame smoke (5 s: the TCP frame reader never panics, rejects over-limit lengths and short bodies, decodes every encoded frame bit for bit) =="
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 5s ./internal/transport

echo "== FuzzParse smoke (5 s: prototxt Parse never panics, and what it accepts renders to text that parses back to the same rendering) =="
# A short minimize budget: the configs/*.prototxt seeds are kilobytes, and
# minimizing each new input from them would otherwise take the whole 5 s.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s -fuzzminimizetime 1s ./internal/prototxt

echo "== reduction determinism sweep (OrderedSlices bit-identical across P) =="
go test -count=1 -run 'TestOrderedSlicesBitIdenticalToOrdered|TestOrderedSlicesMergeBitIdenticalAcrossWorkers' \
	./internal/par ./internal/core

echo "== reduction ablation (A-red): ordered vs tree merge, one pass so the bench cannot rot =="
go test -run '^$' -bench BenchmarkOrderedReduce -benchtime 1x ./internal/core

echo "== layer benchmarks (LRN at norm1, ReLU at relu1), one pass so they cannot rot =="
go test -run '^$' -bench 'BenchmarkLRN|BenchmarkReLU' -benchtime 1x ./internal/layers

echo "== TCP frame benchmark (one LeNet-sized frame out and back over loopback), one pass so it cannot rot =="
go test -run '^$' -bench BenchmarkTCPFrame -benchtime 1x ./internal/transport

echo "== barrier stress under race (spin-then-park fork/join) =="
go test -race -count=1 -run 'TestBarrier|TestOrderedSlices|TestPanic|TestRegion' ./internal/par

echo "== fault-injection suite (deterministic drills + e2e crash recovery) =="
go test -count=1 ./internal/faultinject ./internal/snapshot

echo "== trace smoke: layerprof -trace | tracecheck =="
go build -o "$tmpdir/layerprof" ./cmd/layerprof
go build -o "$tmpdir/tracecheck" ./cmd/tracecheck
"$tmpdir/layerprof" -zoo lenet -workers 2 -iters 2 -batch 4 -samples 8 -trace "$tmpdir/out.json" >/dev/null
"$tmpdir/tracecheck" "$tmpdir/out.json"

echo "== engine grid: {sequential, coarse/2, fine/2} x {direct, lowered} conv, one loss per kernel =="
# The grid updates no weights and every engine's forward pass is
# bit-identical to sequential on either kernel, so the three rows of one
# kernel must print the same loss; a fine band of the lowered products that
# computed anything else would split its group.
go build -o "$tmpdir/dnnbench" ./cmd/dnnbench
"$tmpdir/dnnbench" -figure engines -iters 1 -warmup 1 -batch 8 -samples 16 -threads 2 >"$tmpdir/engines.txt"
for kernel in direct lowered; do
	awk -v k="/$kernel-conv" 'substr($1, length($1) - length(k) + 1) == k { print $NF }' \
		"$tmpdir/engines.txt" >"$tmpdir/losses.txt"
	rows="$(wc -l <"$tmpdir/losses.txt")"
	losses="$(sort -u "$tmpdir/losses.txt" | wc -l)"
	[ "$rows" -eq 3 ] && [ "$losses" -eq 1 ] ||
		{ echo "FAIL: want 3 $kernel-conv rows printing one loss, got $rows rows and $losses losses" >&2; cat "$tmpdir/engines.txt" >&2; exit 1; }
	echo "$kernel-conv: sequential, coarse/2 and fine/2 print one loss ($(head -n 1 "$tmpdir/losses.txt"))"
done

echo "== direct-conv training: dnnbench -figure conv, coarse/2 and coarse/3 deterministic, numbers pinned =="
# The engine grid runs forward only, and dnntrain and dnncluster train
# lowered nets: this is the one end-to-end training run of the direct loop
# nest's backward. Both worker rows must be bitwise deterministic, and the
# printed loss and deviations are pinned like the CRCs below (linux/amd64).
"$tmpdir/dnnbench" -figure conv -conv-iters 6 -threads 1,2,3 -batch 8 -samples 16 >"$tmpdir/conv.txt"
for want in "sequential final loss: 1.548091" \
	" 2 workers: max relative loss deviation 1.06e-07, bitwise deterministic: true" \
	" 3 workers: max relative loss deviation 7.70e-08, bitwise deterministic: true"; do
	grep -qxF "$want" "$tmpdir/conv.txt" ||
		{ echo "FAIL: -figure conv did not print \"$want\"" >&2; cat "$tmpdir/conv.txt" >&2; exit 1; }
done
echo "direct-conv training deterministic at 2 and 3 workers, numbers match their pins"

echo "== one definition per model: -zoo NAME writes the bytes -model configs/FILE writes =="
go build -o "$tmpdir/dnntrain" ./cmd/dnntrain
zoo_pin() { # zoo_pin <zoo name> <configs file>
	"$tmpdir/dnntrain" -zoo "$1" -workers 1 -iters 4 -samples 16 -batch 8 -snapshot "$tmpdir/zoo.cgdnn" >/dev/null
	"$tmpdir/dnntrain" -model "configs/$2" -workers 1 -iters 4 -samples 16 -batch 8 -snapshot "$tmpdir/file.cgdnn" >/dev/null
	zoo_crc="$(cksum <"$tmpdir/zoo.cgdnn")"
	file_crc="$(cksum <"$tmpdir/file.cgdnn")"
	[ "$zoo_crc" = "$file_crc" ] ||
		{ echo "FAIL: -zoo $1 snapshot CRC ($zoo_crc) != -model configs/$2 CRC ($file_crc)" >&2; exit 1; }
	echo "-zoo $1 == -model configs/$2 (cksum $zoo_crc)"
}
zoo_pin lenet lenet.prototxt
zoo_pin cifar10-full cifar10_full.prototxt

echo "== recovery smoke: corrupt newest checkpoint, resume must fall back =="
"$tmpdir/dnntrain" -zoo lenet -iters 20 -snapshot-every 10 -snapshot-dir "$tmpdir/ck" \
	-samples 8 -batch 8 -display 10 -workers 2 >/dev/null
out="$("$tmpdir/dnntrain" -zoo lenet -resume "$tmpdir/ck" -inject-corrupt-resume -inject-seed 7 \
	-iters 10 -samples 8 -batch 8 -display 10 -workers 2)"
echo "$out" | grep -q "falling back" || { echo "FAIL: corrupt checkpoint not skipped" >&2; exit 1; }
echo "$out" | grep -q "resumed from .*ckpt-00000010" || { echo "FAIL: did not resume from the surviving checkpoint" >&2; exit 1; }
echo "fell back past the corrupted checkpoint, as required"

echo "== guard smoke: injected gradient NaN must be caught and skipped =="
"$tmpdir/dnntrain" -zoo lenet -iters 10 -inject-grad-nan 5 -guard-policy skip \
	-samples 8 -batch 8 -display 10 -workers 2 |
	grep -q "1 faults (1 skipped" || { echo "FAIL: guard missed the injected NaN" >&2; exit 1; }
echo "injected NaN caught and skipped, as required"

echo "== serving smoke: dnnserve answers a dnnload probe, drains on SIGTERM (zoo and prototxt models) =="
go build -o "$tmpdir/dnnserve" ./cmd/dnnserve
go build -o "$tmpdir/dnnload" ./cmd/dnnload
go build -o "$tmpdir/dnneval" ./cmd/dnneval
serve_smoke() { # serve_smoke <dnnserve model and snapshot flags>
	rm -f "$tmpdir/serve.addr"
	"$tmpdir/dnnserve" "$@" -addr 127.0.0.1:0 -addr-file "$tmpdir/serve.addr" >"$tmpdir/serve.log" 2>&1 &
	serve_pid=$!
	for _ in $(seq 1 100); do
		[ -s "$tmpdir/serve.addr" ] && break
		sleep 0.1
	done
	[ -s "$tmpdir/serve.addr" ] || { echo "FAIL: dnnserve $* never published its address" >&2; cat "$tmpdir/serve.log" >&2; exit 1; }
	"$tmpdir/dnnload" -addr "$(cat "$tmpdir/serve.addr")" -probe ||
		{ echo "FAIL: dnnload probe rejected the response of dnnserve $*" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
	kill -TERM "$serve_pid"
	wait "$serve_pid" || { echo "FAIL: dnnserve $* did not exit cleanly on SIGTERM" >&2; cat "$tmpdir/serve.log" >&2; exit 1; }
	grep -q "draining" "$tmpdir/serve.log" || { echo "FAIL: SIGTERM drain message missing" >&2; exit 1; }
}
"$tmpdir/dnntrain" -zoo lenet -iters 10 -samples 8 -batch 8 -display 10 -workers 2 \
	-snapshot "$tmpdir/lenet.cgdnn" >/dev/null
serve_smoke -zoo lenet -snapshot "$tmpdir/lenet.cgdnn"
# The prototxt leg: the same front door must need no -shape/-classes/-scores
# for the repo's own configs, and dnneval must find the score blob itself.
"$tmpdir/dnntrain" -model configs/lenet.prototxt -solver configs/lenet_solver.prototxt -iters 10 \
	-snapshot "$tmpdir/m.cgdnn" >/dev/null
serve_smoke -model configs/lenet.prototxt -snapshot "$tmpdir/m.cgdnn"
"$tmpdir/dnneval" -model configs/lenet.prototxt -snapshot "$tmpdir/m.cgdnn" -batches 2 |
	grep -q "confusion matrix (ip2 vs label)" || { echo "FAIL: dnneval -model printed no confusion matrix" >&2; exit 1; }
echo "probes answered, SIGTERM drained, prototxt model served and evaluated with no shape flags, as required"

echo "== distributed smoke: 3-rank TCP run bit-identical to in-process run =="
# Coordinator + 2 workers over loopback TCP must write the exact bytes
# the single-process Local-transport run writes (DISTRIBUTED.md's
# determinism contract, checked end to end through real sockets).
go build -o "$tmpdir/dnncluster" ./cmd/dnncluster
"$tmpdir/dnncluster" -role coordinator -replicas 3 -batch 48 -samples 48 -iters 4 \
	-addr 127.0.0.1:0 -addr-file "$tmpdir/coord.addr" -zoo lenet -display 4 \
	-snapshot "$tmpdir/tcp.cgdnn" >"$tmpdir/coord.log" 2>&1 &
coord_pid=$!
"$tmpdir/dnncluster" -role worker -addr-file "$tmpdir/coord.addr" -batch 48 -samples 48 \
	-iters 4 -zoo lenet >"$tmpdir/worker1.log" 2>&1 &
w1_pid=$!
"$tmpdir/dnncluster" -role worker -addr-file "$tmpdir/coord.addr" -batch 48 -samples 48 \
	-iters 4 -zoo lenet >"$tmpdir/worker2.log" 2>&1 &
w2_pid=$!
wait "$coord_pid" || { echo "FAIL: coordinator exited nonzero" >&2; cat "$tmpdir/coord.log" >&2; exit 1; }
wait "$w1_pid" || { echo "FAIL: worker 1 exited nonzero" >&2; cat "$tmpdir/worker1.log" >&2; exit 1; }
wait "$w2_pid" || { echo "FAIL: worker 2 exited nonzero" >&2; cat "$tmpdir/worker2.log" >&2; exit 1; }
"$tmpdir/dnncluster" -role local -replicas 3 -batch 48 -samples 48 -iters 4 -zoo lenet \
	-display 4 -snapshot "$tmpdir/local.cgdnn" >/dev/null
tcp_crc="$(cksum <"$tmpdir/tcp.cgdnn")"
local_crc="$(cksum <"$tmpdir/local.cgdnn")"
[ "$tcp_crc" = "$local_crc" ] ||
	{ echo "FAIL: TCP snapshot CRC ($tcp_crc) != local snapshot CRC ($local_crc)" >&2; exit 1; }
echo "TCP and in-process snapshots bit-identical (cksum $tcp_crc), as required"

echo "== compressed-wire smoke: f16 and int8 over the tree, deterministic and distinct from f32 =="
# DISTRIBUTED.md section 9: a lossy wire (error feedback) is deterministic
# — identical across reruns — but trains on quantized bits, so its
# snapshot must differ from f32's. The f32 and int8 CRCs are also pinned
# to the bytes this run wrote while dist still carried a second (relay
# ring) route and an in-process replica trainer beside the tree
# (linux/amd64): the tree was the default route all along, so deleting
# the others may not move a bit. Through the real CLI, CRC-checked.
[ "$local_crc" = "1587190054 3449072" ] ||
	{ echo "FAIL: f32 3-rank snapshot CRC ($local_crc) moved from the pinned 1587190054 3449072" >&2; exit 1; }
for wire in f16 int8; do
	for run in a b; do
		"$tmpdir/dnncluster" -role local -replicas 3 -grad-wire "$wire" -batch 48 -samples 48 -iters 4 \
			-zoo lenet -display 4 -snapshot "$tmpdir/$wire-$run.cgdnn" >/dev/null
	done
	a_crc="$(cksum <"$tmpdir/$wire-a.cgdnn")"
	b_crc="$(cksum <"$tmpdir/$wire-b.cgdnn")"
	[ "$a_crc" = "$b_crc" ] ||
		{ echo "FAIL: $wire reruns differ ($a_crc vs $b_crc)" >&2; exit 1; }
	[ "$a_crc" != "$local_crc" ] ||
		{ echo "FAIL: $wire snapshot identical to f32 ($a_crc) — compression not applied?" >&2; exit 1; }
	echo "$wire deterministic and distinct from f32 (cksum $a_crc)"
done
[ "$a_crc" = "119604507 3449072" ] ||
	{ echo "FAIL: int8 3-rank snapshot CRC ($a_crc) moved from the pinned 119604507 3449072" >&2; exit 1; }
echo "f32 and int8 CRCs match their pins, as required"

echo "== supervised smoke: kill 1 of 3 ranks, recover bit-identical to a clean 2-rank resume =="
# ROBUSTNESS.md's cluster contract: crash a worker mid-run of a
# supervised group (-min-ranks below the group size is what asks for
# the supervisor), let the survivors fence and continue, and the final
# snapshot must be byte-for-byte what a fresh, rigid 2-rank run resumed
# from the fence checkpoint produces. What the fence reported (epoch,
# iteration, members) is asserted on the structured result in
# internal/cluster's TestCrashDrillRecoversToCleanResume; here the real
# binary only has to leave the checkpoint and the bytes.
"$tmpdir/dnncluster" -role local -min-ranks 1 -replicas 3 -batch 48 -samples 48 -iters 6 \
	-zoo lenet -display 6 -chaos-mode crash -chaos-rank 2 -chaos-iter 2 \
	-fence-dir "$tmpdir/fences" -snapshot "$tmpdir/elastic.cgdnn" >"$tmpdir/elastic.log" 2>&1 ||
	{ echo "FAIL: supervised run exited nonzero" >&2; cat "$tmpdir/elastic.log" >&2; exit 1; }
[ -f "$tmpdir/fences/ckpt-00000002.cgdnn" ] ||
	{ echo "FAIL: fence checkpoint not written" >&2; cat "$tmpdir/elastic.log" >&2; exit 1; }
"$tmpdir/dnncluster" -role local -replicas 2 -batch 48 -samples 48 -iters 6 -zoo lenet \
	-display 6 -resume "$tmpdir/fences/ckpt-00000002.cgdnn" \
	-snapshot "$tmpdir/elastic-ref.cgdnn" >/dev/null
elastic_crc="$(cksum <"$tmpdir/elastic.cgdnn")"
ref_crc="$(cksum <"$tmpdir/elastic-ref.cgdnn")"
[ "$elastic_crc" = "$ref_crc" ] ||
	{ echo "FAIL: post-crash snapshot CRC ($elastic_crc) != clean-resume CRC ($ref_crc)" >&2; exit 1; }
echo "crash-recovery snapshot bit-identical to clean 2-rank resume (cksum $elastic_crc), as required"

echo "== rank-failure smoke: one rank failing set-up ends the run with its error, not a hang =="
# Rank 0 cannot load a LeNet checkpoint into a CIFAR net; rank 1 is by
# then blocked waiting for the resume sync. The group runner must close
# every endpoint and exit 1 with rank 0's error (124 is the timeout: the
# hang this smoke exists to keep fixed).
status=0
timeout 20 "$tmpdir/dnncluster" -role local -replicas 2 -zoo cifar10-full -batch 20 -samples 20 \
	-iters 4 -resume "$tmpdir/fences/ckpt-00000002.cgdnn" >"$tmpdir/mismatch.log" 2>&1 || status=$?
[ "$status" -eq 1 ] && grep -q "rank 0: .*size mismatch" "$tmpdir/mismatch.log" ||
	{ echo "FAIL: want exit 1 with rank 0's size-mismatch error, got exit $status" >&2; cat "$tmpdir/mismatch.log" >&2; exit 1; }
echo "failed fast with the failing rank's error, as required"

echo "OK"
