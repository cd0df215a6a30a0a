#!/usr/bin/env python3
"""Convert the public releases of the four benchmark datasets to the
normalized TSV schema (`label \t sentence_a \t sentence_b [\t group_id]`).

Supported source formats:

  snli     JSONL with gold_label / sentence1 / sentence2
           (snli_1.0_{train,dev,test}.jsonl)
  scitail  TSV with premise \t hypothesis \t label
           (scitail_1.0_{train,dev,test}.tsv)
  quora    TSV with header id, qid1, qid2, question1, question2,
           is_duplicate (quora_duplicate_questions.tsv style)
  wikiqa   TSV with header QuestionID, Question, DocumentID,
           DocumentTitle, SentenceID, Sentence, Label
           (WikiQA-{train,dev,test}.tsv)

Blank lines are passed over. Rows with the wrong column count and labels
outside the task's label set (SNLI's "-" included) are skipped, and their
count is printed on stderr as `skipped=N`. A record that cannot be read,
or a release that yields no record, exits 2 naming the file; the output
is written atomically, so a failed run leaves an earlier output intact.

    python3 scripts/convert_datasets.py snli --in snli_1.0_train.jsonl --out data/snli_train.tsv
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sentmatch.cli import run
from sentmatch.data import TASKS
from sentmatch.embedding import _text_lines, _write_atomic
from sentmatch.errors import DataError

# dataset -> (the record's fields: None for one JSON object a line, "header" for columns the first
# line names, else the column names; then the label, sentence a, sentence b and group id fields)
FORMATS = {
    "snli": (None, "gold_label", "sentence1", "sentence2", None),
    "scitail": (("premise", "hypothesis", "label"), "label", "premise", "hypothesis", None),
    "quora": ("header", "is_duplicate", "question1", "question2", None),
    "wikiqa": ("header", "Label", "Question", "Sentence", "QuestionID"),
}


def _json_record(line, _names):
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    return record


def _tsv_record(line, names):
    parts = line.split("\t")
    return dict(zip(names, parts)) if len(parts) == len(names) else None


def _text(record, key):
    value = record.get(key)
    if not isinstance(value, str):
        raise ValueError(f"record has no string field {key!r}")
    # read_dataset splits lines as text mode does, so a "\r" would end the record too
    return value.replace("\t", " ").replace("\n", " ").replace("\r", " ").strip()


def convert(dataset, src, out):
    """Write `src`, a release in `dataset`'s format, to `out` as normalized TSV.

    Returns the counts of records written and of rows skipped; a release
    with no record to write raises DataError and writes nothing.
    """
    names, label_key, a_key, b_key, group_key = FORMATS[dataset]
    read = _json_record if names is None else _tsv_record
    labels = TASKS[dataset].labels
    n = skipped = 0
    with _write_atomic(out) as fh:
        for line_no, line in _text_lines(src, DataError):
            if not line.strip():
                continue
            try:
                if names == "header":
                    names = line.split("\t")
                    missing = [key for key in (label_key, a_key, b_key, group_key) if key and key not in names]
                    if missing:
                        raise ValueError(f"header has no column {missing[0]!r}")
                    continue
                record = read(line, names)
                if record is None or record.get(label_key, "-") not in labels:
                    skipped += 1
                    continue
                fields = [record[label_key], _text(record, a_key), _text(record, b_key)] + ([record[group_key]] if group_key else [])
                fh.write(("\t".join(fields) + "\n").encode("utf-8"))
            except ValueError as exc:  # a UnicodeEncodeError of a lone surrogate from JSON too
                raise DataError(f"{src}:{line_no}: {exc}") from None
            n += 1
        if n == 0:
            raise DataError(f"{src}: no {dataset} record to write (skipped={skipped})")
    return n, skipped


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dataset", choices=sorted(FORMATS))
    parser.add_argument("--in", dest="src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n, skipped = convert(args.dataset, args.src, out)
    if skipped:
        print(f"skipped={skipped}", file=sys.stderr)
    print(f"wrote {n} records to {out}")


if __name__ == "__main__":
    sys.exit(run(main))
