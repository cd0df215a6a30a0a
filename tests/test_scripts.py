"""The scripts under scripts/ run at tiny sizes and write TSVs that `read_dataset` reads back."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sentmatch.data import RawPair, read_dataset
from sentmatch.synthetic import make_classification_pairs, make_ranking_groups, write_tsv

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, env=None):
    proc = subprocess.run(
        [sys.executable, ROOT / "scripts" / script, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fails(script, *args):
    """Run a script that must fail on data: exit 2 and one `error:` line, no traceback; returns that line."""
    proc = subprocess.run([sys.executable, ROOT / "scripts" / script, *map(str, args)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == ""
    return proc.stderr


# dataset -> (release-format lines, the pairs the converted TSV must hold)
RELEASES = {
    "snli": (
        '{"gold_label": "entailment", "sentence1": "A man\\tplays.", "sentence2": "A person plays."}\n'
        '{"gold_label": "-", "sentence1": "No consensus.", "sentence2": "Dropped."}\n'
        '{"gold_label": "neutral", "sentence1": "Two dogs run.", "sentence2": "Dogs\\nrace."}\n',
        [RawPair(0, "A man plays.", "A person plays.", None, 1), RawPair(2, "Two dogs run.", "Dogs race.", None, 2)],
    ),
    "scitail": (
        "Plants need light.\tLight feeds plants.\tentails\nnot three columns\nA rock sits.\tRocks fly.\tneutral\n",
        [RawPair(0, "Plants need light.", "Light feeds plants.", None, 1), RawPair(1, "A rock sits.", "Rocks fly.", None, 2)],
    ),
    "quora": (
        "id\tqid1\tqid2\tquestion1\tquestion2\tis_duplicate\n"
        "0\t1\t2\tHow do I cook rice?\tHow is rice cooked?\t1\n"
        "1\t3\t4\tWhat is a star?\tWhy is the sky blue?\t0\n",
        [RawPair(1, "How do I cook rice?", "How is rice cooked?", None, 1), RawPair(0, "What is a star?", "Why is the sky blue?", None, 2)],
    ),
    "wikiqa": (
        "QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\tLabel\n"
        "Q1\twho wrote hamlet\tD1\tHamlet\tD1-0\tShakespeare wrote Hamlet.\t1\n"
        "Q1\twho wrote hamlet\tD1\tHamlet\tD1-1\tIt is a play.\t0\n",
        [RawPair(1, "who wrote hamlet", "Shakespeare wrote Hamlet.", "Q1", 1), RawPair(0, "who wrote hamlet", "It is a play.", "Q1", 2)],
    ),
}


@pytest.mark.parametrize("dataset", sorted(RELEASES))
def test_convert_datasets_writes_the_normalized_schema(tmp_path, dataset):
    lines, want = RELEASES[dataset]
    src = tmp_path / "release.txt"
    src.write_text(lines, encoding="utf-8")
    out = tmp_path / "nested" / "out.tsv"
    printed = _run("convert_datasets.py", dataset, "--in", src, "--out", out)
    assert printed == f"wrote {len(want)} records to {out}\n"
    assert read_dataset(out, dataset) == want


def test_convert_snli_maps_a_carriage_return_to_a_space(tmp_path):
    # read_dataset splits lines as text mode does, where a lone "\r" ends a line
    src = tmp_path / "release.jsonl"
    src.write_text('{"gold_label": "entailment", "sentence1": "a man\\rsleeps", "sentence2": "a person rests"}\n', encoding="utf-8")
    out = tmp_path / "out.tsv"
    _run("convert_datasets.py", "snli", "--in", src, "--out", out)
    assert read_dataset(out, "snli") == [RawPair(0, "a man sleeps", "a person rests", None, 1)]


def test_convert_snli_skips_blank_lines(tmp_path):
    lines, want = RELEASES["snli"]
    src = tmp_path / "release.jsonl"
    src.write_text("\n" + lines.replace("\n", "\n  \n", 1), encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert _run("convert_datasets.py", "snli", "--in", src, "--out", out) == f"wrote {len(want)} records to {out}\n"
    assert [(p.label, p.sent_a, p.sent_b) for p in read_dataset(out, "snli")] == [(p.label, p.sent_a, p.sent_b) for p in want]


SNLI_RECORD = b'{"gold_label": "neutral", "sentence1": "A dog runs.", "sentence2": "A dog races."}\n'
WIKIQA_HEADER = b"QuestionID\tQuestion\tDocumentID\tDocumentTitle\tSentenceID\tSentence\n"

# (dataset, release bytes, the line the error names)
BAD_RELEASES = {
    "invalid JSON": ("snli", SNLI_RECORD + b'{"gold_label": "neutral",\n', 2),
    "a JSON array": ("snli", SNLI_RECORD + b'["neutral", "a", "b"]\n', 2),
    "no sentence2": ("snli", SNLI_RECORD * 2 + b'{"gold_label": "entailment", "sentence1": "A dog runs."}\n', 3),
    "invalid UTF-8": ("scitail", b"Plants need light.\tLight feeds plants.\tentails\nA rock \xff sits.\tRocks fly.\tneutral\n", 2),
    "WikiQA header without Label": ("wikiqa", WIKIQA_HEADER + b"Q1\twho wrote hamlet\tD1\tHamlet\tD1-0\tShakespeare wrote Hamlet.\n", 1),
}


@pytest.mark.parametrize("case", sorted(BAD_RELEASES))
def test_convert_datasets_names_the_line_it_cannot_read_and_writes_nothing(tmp_path, case):
    dataset, blob, line = BAD_RELEASES[case]
    src = tmp_path / "release"
    src.write_bytes(blob)
    assert f"{src}:{line}: " in _fails("convert_datasets.py", dataset, "--in", src, "--out", tmp_path / "out.tsv")
    assert list(tmp_path.iterdir()) == [src], "no output and no .tmp file"


def test_convert_datasets_names_a_missing_input_and_writes_nothing(tmp_path):
    missing = tmp_path / "no_such_release.jsonl"
    assert str(missing) in _fails("convert_datasets.py", "snli", "--in", missing, "--out", tmp_path / "out.tsv")
    assert list(tmp_path.iterdir()) == []


QUORA_HEADER = "id\tqid1\tqid2\tquestion1\tquestion2\tis_duplicate\n"

# (dataset, release text that yields no record, the skip count the error names)
EMPTY_RELEASES = {
    "an empty Quora file": ("quora", "", 0),
    "a Quora file labelled only yes": ("quora", QUORA_HEADER + "0\t1\t2\tHow do I cook rice?\tHow is rice cooked?\tyes\n", 1),
}


@pytest.mark.parametrize("case", sorted(EMPTY_RELEASES))
def test_convert_datasets_refuses_a_release_that_yields_no_record(tmp_path, case):
    dataset, text, skipped = EMPTY_RELEASES[case]
    src, out = tmp_path / "release.tsv", tmp_path / "out.tsv"
    src.write_text(text, encoding="utf-8")
    out.write_bytes(b"an earlier output\n")
    assert f"{src}: no {dataset} record to write (skipped={skipped})" in _fails("convert_datasets.py", dataset, "--in", src, "--out", out)
    assert out.read_bytes() == b"an earlier output\n"
    assert sorted(tmp_path.iterdir()) == [out, src], "no .tmp file"


def test_convert_datasets_prints_the_count_of_skipped_rows_on_stderr(tmp_path):
    lines, want = RELEASES["scitail"]
    # one row of the release has the wrong column count; add one of four columns, an unknown label and blank lines
    src, out = tmp_path / "release.tsv", tmp_path / "out.tsv"
    src.write_text("\n" + lines + "A\tB\tentails\textra\nA cat sits.\tA cat rests.\tcontradicts\n\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, ROOT / "scripts" / "convert_datasets.py", "scitail", "--in", src, "--out", out], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {len(want)} records to {out}\n", "skipped=3\n")
    assert [(p.label, p.sent_a, p.sent_b) for p in read_dataset(out, "scitail")] == [(p.label, p.sent_a, p.sent_b) for p in want]


def test_failing_conversion_leaves_an_earlier_output_as_it_was(tmp_path):
    lines, _ = RELEASES["snli"]
    src = tmp_path / "release.jsonl"
    src.write_text(lines, encoding="utf-8")
    out = tmp_path / "out.tsv"
    _run("convert_datasets.py", "snli", "--in", src, "--out", out)
    earlier = out.read_bytes()
    src.write_bytes(lines.encode("utf-8") + b"{not json}\n")
    _fails("convert_datasets.py", "snli", "--in", src, "--out", out)
    assert out.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv", "release.jsonl"]


def test_make_contextual_cache_names_the_record_with_an_unknown_label(tmp_path):
    data = tmp_path / "split.tsv"
    data.write_text("maybe\tA dog runs.\tA dog races.\n", encoding="utf-8")
    args = ["--data", data, "--task", "snli", "--dim", "4", "--out", tmp_path / "ctx.bin"]
    assert f"{data}:1: unknown label 'maybe'" in _fails("make_contextual_cache.py", *args)
    assert list(tmp_path.iterdir()) == [data]


def test_make_synthetic_data_names_an_output_path_it_cannot_write(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    assert str(taken) in _fails("make_synthetic_data.py", "classify", "--n", "3", "--out", taken)
    assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []


def test_write_tsv_failing_midway_leaves_an_earlier_file_intact(tmp_path):
    path = tmp_path / "data.tsv"
    write_tsv(path, [("1", "a", "b")])
    earlier = path.read_bytes()

    def rows():
        yield ("0", "c", "d")
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        write_tsv(path, rows())
    assert path.read_bytes() == earlier
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "args, task, rows",
    [
        (["classify", "--n", "12", "--seed", "1"], "snli", make_classification_pairs(12, seed=1)),
        (["rank", "--questions", "3", "--candidates", "3", "--seed", "2"], "wikiqa", make_ranking_groups(3, candidates_per_question=3, seed=2)),
    ],
    ids=["classify", "rank"],
)
def test_make_synthetic_data_writes_the_generators_rows(tmp_path, args, task, rows):
    out = tmp_path / "data.tsv"
    assert _run("make_synthetic_data.py", *args, "--out", out) == f"wrote {len(rows)} rows to {out}\n"
    pairs = read_dataset(out, task)
    assert [(p.sent_a, p.sent_b) for p in pairs] == [(row[1], row[2]) for row in rows]


def test_run_desk_experiment_trains_and_evaluates(tmp_path):
    printed = _run("run_desk_experiment.py", "--out", tmp_path, "--train-size", "30", "--dev-size", "12", "--hidden", "4", "--epochs", "1")
    assert len(read_dataset(tmp_path / "train.tsv", "snli")) == 30
    assert len(read_dataset(tmp_path / "dev.tsv", "snli")) == 12
    assert (tmp_path / "run" / "checkpoint.bin").exists()
    assert "fingerprint=full" in printed and "acc=" in printed


def test_artefact_digests_prints_the_same_line_per_workload_twice_and_leaves_no_files(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    first = _run("artefact_digests.py", "--seed", "3", "--tiny", env=env)
    assert _run("artefact_digests.py", "--seed", "3", "--tiny", env=env) == first
    lines = first.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["desk_snli", "paper_snli", "wikiqa_rank"]
    artefacts = ["checkpoint", "history", "config"] + [f"{c}.{s}" for c in ("train", "eval", "predict") for s in ("stdout", "stderr")]
    for line in lines:
        fields = dict(field.split("=") for field in line.split()[1:])
        assert list(fields) == artefacts and all(re.fullmatch("[0-9a-f]{40}", v) for v in fields.values()), line
    assert list(tmp_path.iterdir()) == []
