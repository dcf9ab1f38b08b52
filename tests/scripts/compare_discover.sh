#!/usr/bin/env bash
# Byte-compares what two `pghive` builds write from `discover`, and checks
# that NEW resumes OLD's checkpoints. OLD generates the 8 zoo datasets once
# (seed 42); both builds then run every one of them under {elsh, minhash} x
# {1, 4 batches} x {1, 4 threads} x {exact, --sample-datatypes}, each run
# writing its .pgs, .xsd, --changefeed and --checkpoint-to files: 512 files
# per build. Prints each file that differs (or exists on one side only) and
# the count.
#
# Resumes: for each of the 64 runs with 4 batches, OLD also writes a
# checkpoint after batch 2 (--stop-after 2), and NEW resumes it
# (--resume-from); the resumed .pgs and .xsd must equal OLD's uninterrupted
# ones. Prints each resume that fails or differs and the count.
#
# Exits 1 on any byte difference or any failed resume.
#
# Usage: compare_discover.sh OLD_PGHIVE NEW_PGHIVE DIR [SCALE]
# SCALE defaults to 1.0. DIR/graphs, DIR/old, DIR/new, DIR/mid and
# DIR/resumed are recreated.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 OLD_PGHIVE NEW_PGHIVE DIR [SCALE]" >&2
  exit 2
fi
OLD=$1
NEW=$2
DIR=$3
SCALE=${4:-1.0}
DATASETS="POLE MB6 HET.IO FIB25 ICIJ CORD19 LDBC IYP"

rm -rf "$DIR/graphs" "$DIR/old" "$DIR/new" "$DIR/mid" "$DIR/resumed"
mkdir -p "$DIR/graphs" "$DIR/old" "$DIR/new" "$DIR/mid" "$DIR/resumed"
for ds in $DATASETS; do
  "$OLD" generate --dataset "$ds" --scale "$SCALE" --seed 42 \
    --out "$DIR/graphs/$ds.graph" > /dev/null
done

# The datatype modes: a name suffix and the discover flag that selects it.
SAMPLINGS=("" ".sampled")
sampling_flags() {
  if [ -n "$1" ]; then echo --sample-datatypes; fi
}

# run SIDE PGHIVE: every discover run of the grid, outputs under DIR/SIDE.
run() {
  local ds method batches threads sampled out
  for ds in $DATASETS; do
    for method in elsh minhash; do
      for batches in 1 4; do
        for threads in 1 4; do
          for sampled in "${SAMPLINGS[@]}"; do
            out="$DIR/$1/$ds.$method.b$batches.t$threads$sampled"
            # shellcheck disable=SC2046  # The flag list is empty or one word.
            if ! "$2" discover --graph "$DIR/graphs/$ds.graph" \
                --method "$method" --batches "$batches" --threads "$threads" \
                $(sampling_flags "$sampled") \
                --out "$out" --changefeed "$out.feed" \
                --checkpoint-to "$out.ckpt" > /dev/null; then
              echo "failed: $2 on $ds $method b$batches t$threads$sampled" >&2
              exit 1
            fi
          done
        done
      done
    done
  done
}
run old "$OLD"
run new "$NEW"

total=0
differ=0
for name in $( (ls "$DIR/old"; ls "$DIR/new") | sort -u); do
  total=$((total + 1))
  if ! cmp -s "$DIR/old/$name" "$DIR/new/$name"; then
    echo "differs: $name"
    differ=$((differ + 1))
  fi
done
echo "$differ of $total files differ"

resumes=0
bad_resumes=0
for ds in $DATASETS; do
  for method in elsh minhash; do
    for threads in 1 4; do
      for sampled in "${SAMPLINGS[@]}"; do
        name="$ds.$method.b4.t$threads$sampled"
        # shellcheck disable=SC2207  # The flag list is empty or one word.
        args=(discover --graph "$DIR/graphs/$ds.graph" --method "$method"
              --batches 4 --threads "$threads" $(sampling_flags "$sampled"))
        resumes=$((resumes + 1))
        if ! "$OLD" "${args[@]}" --stop-after 2 \
            --checkpoint-to "$DIR/mid/$name.ckpt" > /dev/null ||
           ! "$NEW" "${args[@]}" --resume-from "$DIR/mid/$name.ckpt" \
            --out "$DIR/resumed/$name" > /dev/null; then
          echo "resume failed: $name"
          bad_resumes=$((bad_resumes + 1))
        elif ! cmp -s "$DIR/old/$name.pgs" "$DIR/resumed/$name.pgs" ||
             ! cmp -s "$DIR/old/$name.xsd" "$DIR/resumed/$name.xsd"; then
          echo "resume differs: $name"
          bad_resumes=$((bad_resumes + 1))
        fi
      done
    done
  done
done
echo "$bad_resumes of $resumes resumes of OLD checkpoints by NEW fail or differ"
[ "$differ" -eq 0 ] && [ "$bad_resumes" -eq 0 ]
