#!/usr/bin/env python3
"""Digests of everything the CLI writes for each benchmark workload.

    python3 scripts/artefact_digests.py --seed 5
    python3 scripts/artefact_digests.py --seed 5 --tiny

For each workload of perfbench/workloads.py, the inputs are generated
from --seed. Then `sentmatch train` (with --dev), `eval` and `predict`
on the dev split run as separate processes, with BLAS pinned to one
thread and the workload's config passed as flags, as the benchmark
runs it (the training seed is the config's). One line per workload
gives the sha1 of checkpoint.bin, history.json and config.txt, and of each
command's stdout and stderr. Two checkouts that print the same lines
wrote the same bytes: run it on each and diff the outputs. Every file
is written under a temporary directory that is removed afterwards. A
command that exits non-zero ends the run with exit 1 and its stderr.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every command this script starts

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402  (perfbench/workloads.py, after the path and the BLAS pin)


def _sha1(data):
    return hashlib.sha1(data).hexdigest()


def _cli(argv, env):
    proc = subprocess.run([sys.executable, "-m", "sentmatch.cli", *argv], capture_output=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        sys.exit(f"error: sentmatch {argv[0]} exited {proc.returncode}")
    return proc.stdout, proc.stderr


def digest_line(wl, seed, env):
    """The digests of one workload's train, eval and predict, as one line."""
    with tempfile.TemporaryDirectory(prefix="artefact-digests-") as tmp:
        inputs = wl.generate(seed, Path(tmp) / "inputs")
        out = Path(tmp) / "run"
        contextual = ["--contextual", inputs.contextual] if inputs.contextual else []
        train = ["train", "--train", str(inputs.train), "--dev", str(inputs.dev), "--out", str(out), *contextual]
        if inputs.vocab:
            train += ["--vocab", str(inputs.vocab)]
        if inputs.vectors:
            train += ["--vectors", str(inputs.vectors)]
        for key, value in wl.config.items():
            train += [f"--{key}", str(value)]
        fields = {}
        streams = {"train": _cli(train, env)}
        fields["checkpoint"] = _sha1((out / "checkpoint.bin").read_bytes())
        fields["history"] = _sha1((out / "history.json").read_bytes())
        fields["config"] = _sha1((out / "config.txt").read_bytes())
        for command in ("eval", "predict"):
            streams[command] = _cli([command, "--checkpoint", str(out / "checkpoint.bin"), "--data", str(inputs.dev), *contextual], env)
        for command, (stdout, stderr) in streams.items():
            fields[f"{command}.stdout"] = _sha1(stdout)
            fields[f"{command}.stderr"] = _sha1(stderr)
    return wl.name + " " + " ".join(f"{key}={value}" for key, value in fields.items())


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the workloads' smoke-test sizes")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("SENTMATCH_OUT", None)
    for name in workloads.WORKLOADS:
        print(digest_line(workloads.get(name, tiny=args.tiny), args.seed, env), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
