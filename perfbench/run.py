#!/usr/bin/env python3
"""sentmatch benchmark: seeded workloads, trained then evaluated, in one process.

    python3 perfbench/run.py --workload desk_snli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run generates the workload's inputs from --seed (see workloads.py) and
then follows the CLI's `train` then `eval` sequence, calling the
package's functions directly:

  setup  train side: read the training TSV, the vocabulary, the static
         and contextual vectors, and init_params; eval side: load the
         checkpoint, the contextual vectors and the dev TSV. Each side is
         repeated (at least 3 times, up to 2 s) and its median taken.
  train  trainer.train then save_checkpoint (one train round).
  eval   evaluate_checkpoint over the dev split (one eval round).

Train and eval rounds alternate in cycles (one train round, then eval
rounds for 2/3 of its time) while another cycle fits in --seconds of
timed rounds, at least one; the throughputs come from the median round.
Rounds interleave so that both throughputs sample the whole measured
span: on a shared host slow spells last seconds, and a stage timed in
one stretch would catch them unevenly.

Checks: every epoch loss and every saved parameter is finite; every train
round writes the same checkpoint bytes; checkpoint save -> load -> save
is byte-identical; every eval round gives the same report; dev_quality
lies in [0, 1] and, on the learnable workloads, above the workload's
floor. Operations are train steps, eval pairs and checkpoint round trips;
a failure is an exception or a failed check, and any failure exits 1.

With --trace 0 the last line of stdout holds the end-to-end metrics:

  setup_s            median train-side plus median eval-side setup time
  train_pairs_per_s  pair forwards trained (a ranking triple is two) per
                     second of trainer.train + save_checkpoint
  eval_pairs_per_s   dev pairs per second of evaluate_checkpoint
  peak_rss_mb        ru_maxrss of this process
  dev_quality        dev accuracy, or MAP for ranking; fixed by the seed
  success_rate       1 - failed / attempted operations: the error rate's
                     complement, so that the metric never reads 0

With --trace 1 one untraced pass (one setup of each side, one train
round, one eval round) runs, then the same pass traced; the last line
holds the per-layer metrics of the traced pass plus trace.overhead_frac,
its extra wall time as a share of the untraced pass. The line before it
records the run environment. Results and spans go to .perfbench/ at the
root of the checkout.

`--workload all` runs every workload in its own process, one at a time.
"""

import os

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"  # before numpy loads: BLAS pinned to one thread

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "sentmatch" / "__init__.py").is_file():
    sys.exit(f"error: no sentmatch sources under {ROOT / 'src'}")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np

from sentmatch import checkpoint, config, data, embedding, model, trainer

import tracing
import workloads

OUT = ROOT / ".perfbench"
TRAIN_SHARE = 0.6  # of the measured seconds; the rest goes to eval
SETUP_REPS = dict(budget=2.0, min_reps=3, max_reps=200)
ONCE = dict(budget=0.0, min_reps=1, max_reps=1)
END_TO_END_UNITS = dict(setup_s="s", train_pairs_per_s="pairs/s", eval_pairs_per_s="pairs/s", peak_rss_mb="MB", dev_quality="ratio", success_rate="ratio")

clock = time.perf_counter


@dataclass
class Ledger:
    """Operations attempted and failed, with one message per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ops, problem=None):
        self.attempted += ops
        if problem is not None:
            self.failed += ops
            self.problems.append(problem)


@dataclass
class Pass:
    """Seconds per repetition of each timed stage."""

    setup_train: list
    train: list
    setup_eval: list
    eval: list

    def total(self):
        return sum(map(sum, (self.setup_train, self.train, self.setup_eval, self.eval)))


def _repeat(fn, budget, min_reps, max_reps=None, after=None):
    """Time fn() until the budget (s) is spent; returns (seconds, last result).

    Stops before a repetition that would, at the median pace, end past
    the budget, once min_reps are done. `after` checks each result
    outside the timed call.
    """
    times, result = [], None
    start = clock()
    while True:
        result = None  # release the previous result before making the next
        t0 = clock()
        result = fn()
        times.append(clock() - t0)
        if after is not None:
            after(result)
        if max_reps is not None and len(times) >= max_reps:
            return times, result
        if len(times) >= min_reps and clock() - start + statistics.median(times) > budget:
            return times, result


def _digest(path):
    h = hashlib.sha1()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 24), b""):
            h.update(block)
    return h.hexdigest()


def contextual_provider(cfg, contextual):
    """The provider the CLI builds for `--contextual stub|<cache file>`."""
    if cfg.effective_contextual_dim == 0:
        return None
    if contextual == "stub":
        return embedding.StubContextualProvider(cfg.contextual_dim, seed=cfg.seed)
    return embedding.CacheContextualProvider(contextual)


@dataclass
class TrainSide:
    pairs: list
    vocab: object
    static: object
    provider: object


@dataclass
class EvalSide:
    ck: object
    pairs: list
    provider: object


class Run:
    """One workload's inputs, checks and ledger across its passes."""

    def __init__(self, wl, seed, work_dir, ledger):
        self.wl = wl
        self.cfg = config.TrainConfig(**wl.config).validate()
        self.inputs = wl.generate(seed, work_dir / "inputs")
        self.ck_path = work_dir / "checkpoint.bin"
        self.copy_path = work_dir / "roundtrip.bin"
        self.ledger = ledger
        self.steps = self.pair_forwards = self.dev_pairs = None
        self.digest = None  # checkpoint bytes every train round must reproduce
        self.report = None  # eval metrics every eval round must reproduce
        self.quality = None

    # -- timed stages --------------------------------------------------

    def setup_train(self):
        cfg, inp = self.cfg, self.inputs
        pairs = data.read_dataset(inp.train, cfg.task)
        vocab = embedding.Vocab.load(inp.vocab) if inp.vocab else data.build_vocab(pairs)
        if inp.vectors:
            static = embedding.load_static_vectors(inp.vectors, vocab, cfg.static_dim, seed=cfg.seed)
        else:
            static = embedding.random_static_vectors(vocab, cfg.static_dim, seed=cfg.seed)
        provider = contextual_provider(cfg, inp.contextual)
        model.init_params(cfg, static)
        return TrainSide(pairs, vocab, static, provider)

    def train_round(self, side):
        result = trainer.train(self.cfg, side.pairs, static_matrix=side.static, provider=side.provider, vocab=side.vocab)
        checkpoint.save_checkpoint(self.ck_path, result.checkpoint)
        return result

    def setup_eval(self):
        ck = checkpoint.load_checkpoint(self.ck_path)
        provider = contextual_provider(ck.config, self.inputs.contextual)
        return EvalSide(ck, data.read_dataset(self.inputs.dev, ck.config.task), provider)

    def eval_round(self, side):
        return trainer.evaluate_checkpoint(side.ck, side.pairs, provider=side.provider)

    # -- work counts and checks ----------------------------------------

    def count_work(self, side):
        """Steps and pair forwards per train round, pairs per eval round."""
        cfg = self.cfg
        cap = cfg.effective_max_len
        kept, _ = data.tokenize_pairs(side.pairs, side.vocab, cap)
        if data.task_spec(cfg.task).kind == "classify":
            units, forwards = len(kept), len(kept)
        else:  # one (positive, negative) triple per positive: two pair forwards
            units = len(data.make_ranking_triples(data.group_by_question(kept), seed=0))
            forwards = 2 * units
        self.steps = math.ceil(units / cfg.batch_size) * cfg.epochs
        self.pair_forwards = forwards * cfg.epochs
        dev = data.read_dataset(self.inputs.dev, cfg.task)
        self.dev_pairs = len(data.tokenize_pairs(dev, side.vocab, cap)[0])

    def check_train(self, result):
        problem = None
        losses = [h["train_loss"] for h in result.history]
        if not losses or not all(math.isfinite(x) for x in losses):
            problem = f"train: epoch losses {losses} are not all finite"
        elif not all(np.isfinite(t.data).all() for t in result.checkpoint.params.values()):
            problem = "train: the checkpoint holds non-finite parameters"
        else:
            digest = _digest(self.ck_path)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problem = "train: a repeated round wrote different checkpoint bytes"
        self.ledger.record(self.steps, problem)

    def check_eval(self, report):
        problem = None
        quality = report.primary()
        floor = self.wl.quality_floor
        if self.report is None:
            self.report, self.quality = dict(report.metrics), quality
        if report.metrics != self.report:
            problem = f"eval: report {report.metrics} differs from the first round's {self.report}"
        elif not 0.0 <= quality <= 1.0:
            problem = f"eval: dev_quality {quality} outside [0, 1]"
        elif floor is not None and quality < floor:
            problem = f"eval: dev_quality {quality:.4f} below the floor {floor}"
        self.ledger.record(self.dev_pairs, problem)

    def check_roundtrip(self):
        ck = checkpoint.load_checkpoint(self.ck_path)
        checkpoint.save_checkpoint(self.copy_path, ck)
        same = _digest(self.copy_path) == self.digest
        self.copy_path.unlink()
        self.ledger.record(1, None if same else "checkpoint: save -> load -> save changed the bytes")

    # -- passes --------------------------------------------------------

    def measure(self, seconds, once=False, tracer=None):
        """Set up the train side, then run train/eval cycles.

        A cycle is one train round, then eval rounds filling
        (1 - TRAIN_SHARE) / TRAIN_SHARE of its time, so both stages sample
        the whole measured span. The eval side is set up after the first
        train round. Cycles run while another one fits in `seconds` of
        timed stages, at least one. With `once`, every stage runs exactly
        once.
        """
        phase = tracer.in_phase if tracer is not None else (lambda name: contextlib.nullcontext())
        setup = ONCE if once else SETUP_REPS
        with phase("setup"):
            setup_train_s, train_side = _repeat(self.setup_train, **setup)
        if self.steps is None:  # counted before tracing: the trace holds only the program's calls
            self.count_work(train_side)
        measured = Pass(setup_train_s, [], [], [])
        eval_side, spent = None, 0.0
        while True:
            with phase("train"):
                train_s = _repeat(lambda: self.train_round(train_side), **ONCE, after=self.check_train)[0]
            if eval_side is None:
                with phase("setup"):
                    measured.setup_eval, eval_side = _repeat(self.setup_eval, **setup)
            budget = ONCE if once else dict(budget=train_s[0] * (1.0 - TRAIN_SHARE) / TRAIN_SHARE, min_reps=1)
            with phase("eval"):
                eval_s = _repeat(lambda: self.eval_round(eval_side), **budget, after=self.check_eval)[0]
            measured.train += train_s
            measured.eval += eval_s
            cycle = sum(train_s) + sum(eval_s)
            spent += cycle
            if once or spent + cycle > seconds:
                return measured


def end_to_end(run, measured):
    values = {
        "setup_s": statistics.median(measured.setup_train) + statistics.median(measured.setup_eval),
        "train_pairs_per_s": run.pair_forwards / statistics.median(measured.train),
        "eval_pairs_per_s": run.dev_pairs / statistics.median(measured.eval),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dev_quality": run.quality,  # acc, or MAP for ranking
        "success_rate": 1.0 - run.ledger.failed / run.ledger.attempted,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def traced_metrics(run, seconds, spans_path):
    """Per-layer metrics of one traced pass, with the tracing overhead."""
    untraced = run.measure(seconds, once=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.measure(seconds, once=True, tracer=tracer)
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer, {"pair_forwards_trained": run.pair_forwards, "unk_id": embedding.UNK})
    metrics["trace.overhead_frac"] = (traced.total() / untraced.total() - 1.0, "ratio")
    return metrics, tracer.missing


def run_workload(wl, seed, seconds, trace, out=OUT):
    """Run one workload; returns (result line, record).

    The record adds the run environment, the failures and, for a traced
    run, the trace targets that were missing and where the spans went.
    """
    ledger = Ledger()
    record = {"environment": environment(wl, seed, seconds, trace)}
    metrics = {}
    work_dir = out / "work" / f"{wl.name}-{seed}-{os.getpid()}"
    try:
        run = Run(wl, seed, work_dir, ledger)
        if trace:
            spans = out / "results" / f"{wl.name}-seed{seed}-spans.jsonl"
            metrics, record["missing"] = traced_metrics(run, seconds, spans)
            record["spans"] = str(spans)
            run.check_roundtrip()
        else:
            measured = run.measure(seconds)
            run.check_roundtrip()
            metrics = end_to_end(run, measured)
    except Exception as exc:  # the run's boundary: count the failure, report it, exit non-zero
        traceback.print_exc()
        ledger.record(1, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["problems"] = ledger.problems
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(wl, seed, seconds, trace):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": wl.name,
        "config": wl.config,
        "sizes": wl.sizes,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN},
    }


def run_all(args):
    """Every workload in its own process, one at a time; one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(workloads.get(args.workload), args.seed, args.seconds, args.trace)
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    for missing in record.get("missing", []):
        print(f"missing layer: {missing}")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
