"""Seeded synthetic corpora in the normalized TSV schema.

The generator produces learnable but non-trivial sentence pairs:

  entailment     second sentence generalizes the subject (person/animal)
                 and keeps the verb, optionally dropping the place
  contradiction  second sentence negates the verb with "never" or
                 "not", sometimes under the generalized subject
  neutral        second sentence keeps the subject but switches to an
                 unrelated verb and place

Telling entailment from neutral requires comparing verbs across the two
sentences, so alignment and cross-sentence attention genuinely help.
The ranking generator builds question groups whose positive answer
matches the question's subject and verb.
"""

from __future__ import annotations

import numpy as np

from .embedding import _write_atomic

PEOPLE = ["a man", "a woman", "a boy", "a girl", "a child", "a doctor", "a farmer", "an artist"]
ANIMALS = ["a dog", "a cat", "a horse", "a bird", "a monkey"]
VERBS = ["eats", "runs", "sleeps", "plays", "reads", "sings", "jumps", "walks", "swims", "works", "paints", "laughs"]
PLACES = [
    "in the park",
    "at home",
    "on the street",
    "near the river",
    "in the city",
    "at school",
    "on the beach",
    "in the garden",
]
FILLERS = ["quietly", "outside", "today", "happily", "alone", "slowly"]


def _hypernym(subject):
    return "a person" if subject in PEOPLE else "an animal"


def _subject(rng):
    pool = PEOPLE if rng.random() < 0.7 else ANIMALS
    return pool[rng.integers(len(pool))]


def _pick(rng, pool, avoid=None):
    choice = pool[rng.integers(len(pool))]
    while choice == avoid:
        choice = pool[rng.integers(len(pool))]
    return choice


def make_classification_pairs(n, seed=0):
    """Balanced three-way corpus; returns (label, sent_a, sent_b) rows."""
    rng = np.random.default_rng(seed)
    rows = []
    labels = ["entailment", "contradiction", "neutral"]
    for i in range(n):
        label = labels[i % 3]
        subj = _subject(rng)
        verb = _pick(rng, VERBS)
        place = _pick(rng, PLACES)
        sent_a = f"{subj} {verb} {place}"
        if rng.random() < 0.3:
            sent_a += f" {_pick(rng, FILLERS)}"
        if label == "entailment":
            head = _hypernym(subj) if rng.random() < 0.8 else subj
            sent_b = f"{head} {verb}"
            if rng.random() < 0.4:
                sent_b += f" {place}"
        elif label == "contradiction":
            head = subj if rng.random() < 0.6 else _hypernym(subj)
            negation = "never" if rng.random() < 0.7 else "not"
            sent_b = f"{head} {negation} {verb}"
        else:
            sent_b = f"{subj} {_pick(rng, VERBS, avoid=verb)} {_pick(rng, PLACES, avoid=place)}"
        rows.append((label, sent_a, sent_b))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def make_ranking_groups(n_questions, candidates_per_question=4, seed=0):
    """Question groups with one relevant answer each.

    Returns (label, question, candidate, group_id) rows grouped by
    question in stable order.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for qid in range(n_questions):
        subj = _subject(rng)
        verb = _pick(rng, VERBS)
        question = f"where does {subj} {verb}"
        group = f"q{qid}"
        positive_slot = int(rng.integers(candidates_per_question))
        for slot in range(candidates_per_question):
            if slot == positive_slot:
                cand = f"{subj} {verb} {_pick(rng, PLACES)}"
                rows.append(("1", question, cand, group))
            else:
                wrong_subj = _pick(rng, PEOPLE + ANIMALS, avoid=subj)
                wrong_verb = _pick(rng, VERBS, avoid=verb)
                cand = f"{wrong_subj} {wrong_verb} {_pick(rng, PLACES)}"
                rows.append(("0", question, cand, group))
    return rows


def write_tsv(path, rows):
    """Write each row as one tab-joined line, atomically: a failure midway leaves an earlier file intact."""
    with _write_atomic(path) as fh:
        for row in rows:
            fh.write(("\t".join(row) + "\n").encode("utf-8"))

