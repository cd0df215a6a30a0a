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

    python3 scripts/convert_datasets.py snli --in snli_1.0_train.jsonl --out data/snli_train.tsv
"""

import argparse
import json
import sys
from pathlib import Path


def _clean(text):
    # read_dataset splits lines as text mode does, so a "\r" would end the record too
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ").strip()


def convert_snli(src, out):
    n = 0
    with open(src, encoding="utf-8") as fin, open(out, "w", encoding="utf-8") as fout:
        for line in fin:
            rec = json.loads(line)
            label = rec.get("gold_label", "-")
            if label not in ("entailment", "contradiction", "neutral"):
                continue  # "-" means the annotators disagreed
            fout.write(f"{label}\t{_clean(rec['sentence1'])}\t{_clean(rec['sentence2'])}\n")
            n += 1
    return n


def convert_scitail(src, out):
    n = 0
    with open(src, encoding="utf-8") as fin, open(out, "w", encoding="utf-8") as fout:
        for line in fin:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                continue
            premise, hypothesis, label = parts
            if label not in ("entails", "neutral"):
                continue
            fout.write(f"{label}\t{_clean(premise)}\t{_clean(hypothesis)}\n")
            n += 1
    return n


def convert_quora(src, out):
    n = 0
    with open(src, encoding="utf-8") as fin, open(out, "w", encoding="utf-8") as fout:
        header = fin.readline().rstrip("\n").split("\t")
        idx = {name: i for i, name in enumerate(header)}
        for line in fin:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                continue
            label = parts[idx["is_duplicate"]]
            if label not in ("0", "1"):
                continue
            fout.write(f"{label}\t{_clean(parts[idx['question1']])}\t{_clean(parts[idx['question2']])}\n")
            n += 1
    return n


def convert_wikiqa(src, out):
    n = 0
    with open(src, encoding="utf-8") as fin, open(out, "w", encoding="utf-8") as fout:
        header = fin.readline().rstrip("\n").split("\t")
        idx = {name: i for i, name in enumerate(header)}
        for line in fin:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                continue
            label = parts[idx["Label"]]
            if label not in ("0", "1"):
                continue
            question = _clean(parts[idx["Question"]])
            answer = _clean(parts[idx["Sentence"]])
            group = parts[idx["QuestionID"]]
            fout.write(f"{label}\t{question}\t{answer}\t{group}\n")
            n += 1
    return n


CONVERTERS = {
    "snli": convert_snli,
    "scitail": convert_scitail,
    "quora": convert_quora,
    "wikiqa": convert_wikiqa,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dataset", choices=sorted(CONVERTERS))
    parser.add_argument("--in", dest="src", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = CONVERTERS[args.dataset](args.src, out)
    print(f"wrote {n} records to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
