#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# The workspace vendors its dependencies (vendor/), so everything runs
# with --offline and needs no network.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo test =="
# RUST_TEST_THREADS deliberately unpinned: the suite must pass under
# whatever parallelism the host picks — serializing tests could mask
# races between the mstv-net worker pools, the serving tier's workers
# and the parallel label builders.
unset RUST_TEST_THREADS
cargo test -q --offline --workspace

echo "== mstv-net pool-size equivalence =="
# One worker and several must be observably identical: same verdict,
# same MessageCost, byte-identical event logs, and the single-threaded
# replay reproduces both from the log.
cargo test -q --offline -p mstv-net --test engine_equivalence

echo "== mstv-net determinism smoke (16 seeds, 1 and 8 workers) =="
# A loom-style sweep: the lossy-convergence tests assert that whatever
# schedule the workers and the fault injector produce, the wire verdict
# equals the offline verifier's. Sixteen distinct seeds give sixteen
# different fault schedules; any nondeterministic verdict fails the
# run. The lossy_smoke_ filter picks up both the one-worker and the
# eight-worker variant of the test.
for seed in $(seq 0 15); do
    MSTV_NET_SEED="$seed" cargo test -q --offline -p mstv-net --test net_protocol \
        lossy_smoke >/dev/null \
        || { echo "ci: net smoke failed at seed $seed"; exit 1; }
done

echo "== parallel marker equivalence (pinned at 2 workers) =="
# The proptest sweep asserts centroid decompositions (and therefore the
# whole label pipeline hanging off them) are identical under explicit
# 1-, 2-, and 8-worker pools, so even a single-core CI box exercises
# the multi-worker scheduling paths. The marker-level tests repeat the
# check at the label/bit level for both π_mst and π_flow. The per-node
# walk is the only per-node reference the batch builders have: the
# labels test pins MAX/FLOW/DIST batch output (per family and from the
# one Γ pass) at 1 and 3 workers to the walk, and dyn's stream test pins
# the relabelled state to a full Snapshot::build after every mutation.
# The marker relabels its one Γ pass in place: the relabel proptest
# (random trees, one re-hang, centroid/first-vertex/random
# decompositions) pins GammaPass::relabel of the true dirty set and of
# supersets on both sides of its walk/sweep cut-over to a fresh
# GammaPass::build, field for field. The proptest also pins both builds to an exhaustive-search
# reference up to 600 nodes. A tree swap patches the old decomposition in
# place instead of rebuilding it: the update proptest (chains of 1-8
# re-hangs on random trees, paths and stars up to 2,500 nodes, steered to
# the cases that must re-split) and its root twin (chains of MST swaps on
# fixed seeds) pin SeparatorDecomposition::rehang to a fresh
# centroid_decomposition after every swap, and to listing every node whose
# record moved. dyn's width test pins the kept ω/δ maxima to a rebuild's
# widths as they fall: ties at the top, the heaviest edge swapped out or
# traded away, the farthest node brought closer. The swap also re-hangs
# the marker's rooted tree in place: the re-hang proptest (chains of
# swaps on trees up to 2,500 nodes, steered to the edge cases) pins
# RootedTree::rehang to a tree rebuilt from the swapped edge set, field
# by field, and the root test pins the marker's tree and snapshot bytes
# to a from-scratch build after every SetWeight/SwapWeights of its
# chains. At the root, the one pass's records are pinned to the
# per-family schemes' encodings (and the snapshot to its bytes at 1 and
# 4 workers), and the tree-membership edge cases to their verdicts.
cargo test -q --offline -p mstv-trees --test separator_parallel_proptest
cargo test -q --offline -p mstv-core marker_parallel_is_byte_identical
cargo test -q --offline -p mstv-labels batch_sweep_identical_to_per_node_assembler
cargo test -q --offline -p mstv-labels --test relabel_proptest
cargo test -q --offline -p mstv-dyn every_mutation_stays_bit_identical_to_rebuild
cargo test -q --offline -p mstv-dyn widths_follow_their_largest_values_down
cargo test -q --offline -p mstv-trees --test separator_update_proptest
cargo test -q --offline --test properties swap_redecomposition_equals_a_fresh_decomposition
cargo test -q --offline -p mstv-trees --test rehang_proptest
cargo test -q --offline --test properties incremental_marker_keeps_the_rebuilt_tree_and_snapshot
cargo test -q --offline --test labels one_gamma_pass_encodes_what_the_per_family_schemes_encode
cargo test -q --offline --test properties tree_membership_edge_cases_keep_their_verdicts

echo "== label-store golden fixture (byte-for-byte) =="
# The committed fixture pins the snapshot container layout and the label
# encodings underneath it; any drift fails here rather than silently
# orphaning existing snapshot files.
cargo test -q --offline -p mstv-store --test golden

echo "== label-store serving smoke (fixed seed, verdicts only) =="
# Write a snapshot, fsck it, and serve a seeded query workload with
# every answer cross-checked against the in-memory oracle. Verdicts are
# asserted; timings are not (CI machines are noisy).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --offline --bin mstv -- gen --nodes 200 --extra 400 --seed 7 > "$tmp/g.txt"
cargo run -q --offline --bin mstv -- snapshot write "$tmp/g.txt" "$tmp/g.snap" >/dev/null
cargo run -q --offline --bin mstv -- snapshot fsck "$tmp/g.snap" >/dev/null
cargo run -q --offline --bin mstv -- query "$tmp/g.snap" --bench --queries 5000 \
    --seed 7 --verify-against "$tmp/g.txt" \
    | grep -q "oracle: ok" || { echo "ci: serving smoke failed"; exit 1; }

echo "== networked serving smoke (loopback, vs in-process oracle) =="
# Start a real server on an ephemeral loopback port, push a mixed
# 1k-query batch through `mstv query --connect`, and require the wire
# answers to be byte-identical to the in-process engine's on the same
# snapshot. Then hot-swap to a second snapshot, re-compare against
# *its* local answers, and shut the server down cleanly.
cargo build -q --offline --bin mstv
mstv=target/debug/mstv
"$mstv" gen --nodes 300 --extra 600 --seed 9 > "$tmp/a.txt"
"$mstv" gen --nodes 300 --extra 600 --seed 10 > "$tmp/b.txt"
"$mstv" snapshot write "$tmp/a.txt" "$tmp/a.snap" >/dev/null
"$mstv" snapshot write "$tmp/b.txt" "$tmp/b.snap" >/dev/null
RANDOM=42
for i in $(seq 1 250); do
    u=$((RANDOM % 300)); v=$((RANDOM % 300)); w=$((RANDOM % 1000))
    printf 'max %s %s\nflow %s %s\ndist %s %s\nverify %s %s %s\n' \
        "$u" "$v" "$v" "$u" "$u" "$v" "$u" "$v" "$w"
done > "$tmp/q.txt"
"$mstv" serve --snapshot "$tmp/a.snap" --port 0 --workers 2 > "$tmp/serve.out" &
serve_pid=$!
for i in $(seq 1 100); do
    grep -q '^listening on ' "$tmp/serve.out" && break
    sleep 0.1
done
port="$(sed -n 's/^listening on 127\.0\.0\.1://p' "$tmp/serve.out")"
[ -n "$port" ] || { echo "ci: serve did not report a port"; exit 1; }
"$mstv" query --connect "127.0.0.1:$port" --batch "$tmp/q.txt" > "$tmp/net_a.txt"
"$mstv" query "$tmp/a.snap" --batch "$tmp/q.txt" | sed '$d' > "$tmp/local_a.txt"
diff "$tmp/net_a.txt" "$tmp/local_a.txt" \
    || { echo "ci: wire answers diverge from the in-process engine"; exit 1; }
"$mstv" query --connect "127.0.0.1:$port" --swap "$tmp/b.snap" \
    | grep -q 'swapped: epoch 2' || { echo "ci: hot swap failed"; exit 1; }
"$mstv" query --connect "127.0.0.1:$port" --batch "$tmp/q.txt" > "$tmp/net_b.txt"
"$mstv" query "$tmp/b.snap" --batch "$tmp/q.txt" | sed '$d' > "$tmp/local_b.txt"
diff "$tmp/net_b.txt" "$tmp/local_b.txt" \
    || { echo "ci: post-swap answers diverge from the new snapshot"; exit 1; }
"$mstv" query --connect "127.0.0.1:$port" --shutdown-server >/dev/null
wait "$serve_pid" || { echo "ci: server did not exit cleanly"; exit 1; }

echo "== parallel snapshot writer (5000 nodes, 1 vs 4 threads, v1 and v2) =="
# 5000 nodes is past the decomposition's sequential cutoff (1024), so
# four threads take the parallel centroid path, and the Γ pass and its
# encoding fan out too; every byte must match the one-thread file.
"$mstv" gen --nodes 5000 --extra 10000 --seed 23 > "$tmp/p.txt"
for fmt in v1 v2; do
    "$mstv" snapshot write --threads 1 --format "$fmt" "$tmp/p.txt" "$tmp/p1.snap" >/dev/null
    "$mstv" snapshot write --threads 4 --format "$fmt" "$tmp/p.txt" "$tmp/p4.snap" >/dev/null
    cmp "$tmp/p1.snap" "$tmp/p4.snap" \
        || { echo "ci: snapshot bytes differ between 1 and 4 threads ($fmt)"; exit 1; }
done

echo "== closed stdout (gen | head -1 under pipefail) =="
# A reader that stops early ends mstv quietly with status 0, so the
# pipeline succeeds instead of failing on a panic.
"$mstv" gen --nodes 20000 --extra 40000 --seed 3 | head -1 >/dev/null \
    || { echo "ci: mstv gen failed on a closed stdout"; exit 1; }

echo "== distributed construction smoke (256 nodes, lossy, 1 vs 2 vs 4 workers) =="
# Build the MST and its labels on the network under a lossy link, on
# one worker, on two (the router racing one helper) and on four, and
# diff everything against the centralized marker: all three runs must
# print identical verdict/cost/phase lines, the
# label sizes must match `mstv label` on the same graph, and the
# snapshot written from the construction log must be byte-identical to
# the snapshot of the locally computed MST. (The bit-exact per-node
# label diff runs in `cargo test -p mstv-net --test compute_protocol`.)
compute_flags=(--nodes 256 --extra 512 --seed 17 --drop 0.15 --dup 0.05 --delay 2)
"$mstv" net --compute "${compute_flags[@]}" --workers 1 > "$tmp/compute_1.txt"
"$mstv" net --compute "${compute_flags[@]}" --workers 2 > "$tmp/compute_2.txt"
"$mstv" net --compute "${compute_flags[@]}" --workers 4 \
    --log "$tmp/compute.log" > "$tmp/compute_4.txt"
grep -q 'accepted by all 256 nodes' "$tmp/compute_1.txt" \
    || { echo "ci: construction run rejected"; exit 1; }
# Causal rounds: GHS and the marker each add depth (> 0 rounds), and
# verification adds its one round on top.
grep -Eq '"ghs":\{[^}]*"rounds":[1-9][0-9]*\},"marker":\{[^}]*"rounds":[1-9][0-9]*\}' \
    "$tmp/compute_1.txt" \
    || { echo "ci: construction phases report no causal rounds"; exit 1; }
diff "$tmp/compute_1.txt" "$tmp/compute_2.txt" \
    || { echo "ci: construction runs diverge between 1 and 2 workers"; exit 1; }
diff "$tmp/compute_1.txt" <(sed '$d' "$tmp/compute_4.txt") \
    || { echo "ci: construction runs diverge between 1 and 4 workers"; exit 1; }
"$mstv" gen --nodes 256 --extra 512 --seed 17 > "$tmp/c.txt"
central_bits="$("$mstv" label "$tmp/c.txt" | sed -n 's/.*max label: \([0-9]*\) bits.*/\1/p')"
grep -q "labels: max $central_bits bits" "$tmp/compute_4.txt" \
    || { echo "ci: constructed labels differ from the centralized marker's"; exit 1; }
"$mstv" net --replay "$tmp/compute.log" \
    | grep -q 'replay: matches the recorded run' \
    || { echo "ci: construction log does not replay"; exit 1; }
"$mstv" snapshot write --from-net "$tmp/compute.log" "$tmp/from_net.snap" >/dev/null
"$mstv" snapshot write "$tmp/c.txt" "$tmp/central.snap" >/dev/null
cmp "$tmp/from_net.snap" "$tmp/central.snap" \
    || { echo "ci: construction snapshot differs from the centralized one"; exit 1; }

echo "== delta-journal golden fixture (byte-for-byte) =="
# The committed journal fixture pins the MSTVJRNL container layout and
# the per-record delta framing; drift fails here rather than silently
# orphaning journals written by older builds.
cargo test -q --offline -p mstv-store --test journal_golden

echo "== dynamic mutation smoke (64-mutation stream, journal vs rebuild) =="
# Stream 64 seeded mutations through the incremental marker with every
# step asserted byte-identical to a from-scratch rebuild, fsck the
# resulting journal against its base, fold it back into a snapshot, and
# require the compacted bytes to equal `snapshot write` on the mutated
# graph — the centralized path and the incremental path must agree on
# every byte.
"$mstv" gen --nodes 256 --extra 300 --max-weight 500 --seed 21 > "$tmp/d.txt"
"$mstv" snapshot write "$tmp/d.txt" "$tmp/d.snap" >/dev/null
"$mstv" mutate "$tmp/d.txt" --gen 64 --seed 3 > "$tmp/muts.txt"
"$mstv" mutate "$tmp/d.txt" --stream "$tmp/muts.txt" --journal "$tmp/d.jrnl" \
    --emit-graph "$tmp/dm.txt" --verify-rebuild >/dev/null
"$mstv" snapshot fsck "$tmp/d.jrnl" --base "$tmp/d.snap" >/dev/null
"$mstv" mutate --compact "$tmp/d.snap" "$tmp/d.jrnl" "$tmp/compacted.snap" >/dev/null
"$mstv" snapshot write "$tmp/dm.txt" "$tmp/rebuilt.snap" >/dev/null
cmp "$tmp/compacted.snap" "$tmp/rebuilt.snap" \
    || { echo "ci: compacted journal differs from the rebuilt snapshot"; exit 1; }

echo "== columnar (v2) snapshot smoke (cross-read + zero-copy serving) =="
# The golden stage above already byte-pins both container versions and
# their cross-read; here the CLI path: write the same graph in both
# formats, require the v2 file to fsck, and serve a seeded workload
# straight from the mmap'd columnar sections through the fused pair
# decoders, with every answer oracle-checked.
"$mstv" snapshot write --format v2 "$tmp/g.txt" "$tmp/g2.snap" >/dev/null
"$mstv" snapshot fsck "$tmp/g2.snap" >/dev/null
"$mstv" query "$tmp/g2.snap" --bench --queries 5000 \
    --mmap --seed 7 --verify-against "$tmp/g.txt" \
    | grep -q "oracle: ok" || { echo "ci: v2 mmap serving smoke failed"; exit 1; }

echo "== adversary smoke (256 nodes, one run per fault class, replayed) =="
# One live run per adversary class on four workers, each forged
# labeling required to be rejected, each log required to replay -- the
# forge schedule rides the log's `adversary` header, so the replay
# reconstructs the forged labeling from the spec alone. The honest
# partition/reorder/churn schedule must still converge to accept, and
# one worker must print the same verdict/cost lines as two and four
# under it.
adv_flags=(--nodes 256 --extra 512 --seed 17 --drop 0.1 --dup 0.02 --delay 1)
for spec in "forge:class=root,k=2;seed=7" \
            "forge:class=omega,k=2;seed=7" \
            "forge:class=bits,k=2;seed=7"; do
    "$mstv" net "${adv_flags[@]}" --workers 4 --adversary "$spec" \
        --log "$tmp/adv.log" > "$tmp/adv.txt"
    grep -q 'verdict: rejected at' "$tmp/adv.txt" \
        || { echo "ci: forged labeling accepted ($spec)"; exit 1; }
    "$mstv" net --replay "$tmp/adv.log" \
        | grep -q 'replay: matches the recorded run' \
        || { echo "ci: adversary log does not replay ($spec)"; exit 1; }
done
honest="partition:start=2,heal=5;reorder:window=8;churn:rate=0.02,away=2,cap=8;seed=7"
"$mstv" net "${adv_flags[@]}" --workers 4 --adversary "$honest" \
    --log "$tmp/adv_h.log" > "$tmp/adv_4.txt"
grep -q 'accepted by all 256 nodes' "$tmp/adv_4.txt" \
    || { echo "ci: honest labels rejected under schedule adversary"; exit 1; }
"$mstv" net --replay "$tmp/adv_h.log" \
    | grep -q 'replay: matches the recorded run' \
    || { echo "ci: schedule-adversary log does not replay"; exit 1; }
"$mstv" net "${adv_flags[@]}" --workers 1 --adversary "$honest" > "$tmp/adv_1.txt"
"$mstv" net "${adv_flags[@]}" --workers 2 --adversary "$honest" > "$tmp/adv_2.txt"
diff "$tmp/adv_1.txt" "$tmp/adv_2.txt" \
    || { echo "ci: adversary runs diverge between 1 and 2 workers"; exit 1; }
diff "$tmp/adv_1.txt" <(sed '$d' "$tmp/adv_4.txt") \
    || { echo "ci: adversary runs diverge between 1 and 4 workers"; exit 1; }

echo "== deterministic experiment tables (E1-E9, E12) =="
# These experiments print counts from fixed seeds (label bits, verdicts,
# messages, causal rounds, query-loop checksums), never a timing, so each
# run must reproduce its committed table byte for byte. E3 and E7 build
# γ_small labels on centroid decompositions, so their tables also pin
# the decomposition engine. E10 prints timings and E11 takes about a
# minute, so they stay out of this stage.
cargo build -q --release --offline -p mstv-bench --bins
for e in exp_label_size exp_baseline_compare exp_gamma_small exp_pi_gamma_soundness \
         exp_agreement exp_lower_bound exp_sensitivity exp_flow exp_distributed \
         exp_net_faults; do
    "target/release/$e" > "$tmp/$e.txt"
    diff "experiment-results/$e.txt" "$tmp/$e.txt" \
        || { echo "ci: $e no longer reproduces experiment-results/$e.txt"; exit 1; }
done

echo "== distributed examples (construction, verification, self-stabilization) =="
# Both examples assert what they print: the wire runs agree with the
# offline verifier, delays move no count, logs replay, and every
# maintenance cycle leaves the backbone an MST.
cargo run -q --offline --example distributed_protocols >/dev/null \
    || { echo "ci: distributed_protocols example failed"; exit 1; }
cargo run -q --offline --example self_stabilizing_network >/dev/null \
    || { echo "ci: self_stabilizing_network example failed"; exit 1; }

echo "ci: all checks passed"
