"""Every ledger output of ``tests/output_ledger.py`` matches ``tests/data/output_ledger.json``."""

import json

import numpy as np

import output_ledger


def test_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(output_ledger.LEDGER.read_text())
    # the ledger's runs are fixed by the script; a run changed there needs a rewrite
    assert (ledger["seed"], ledger["synth"], ledger["grid"]) == (
        output_ledger.SEED, output_ledger.SYNTH, output_ledger.GRID
    )
    moved = output_ledger.moved(ledger["outputs"], output_ledger.collect(tmp_path))
    assert not moved, (
        f"outputs moved from the ledger (written under numpy {ledger['numpy']}, "
        f"running numpy {np.__version__}):\n" + "\n".join(moved)
    )


def test_a_moved_float_and_a_moved_decision_are_named():
    entry = {"exit": 0, "rows": 2, "exact": {"trigger": "a"}, "float": {"score": [1.0, 2.0]}}
    close = {**entry, "float": {"score": [1.0, 2.0 * (1 + output_ledger.RTOL / 4)]}}
    assert output_ledger.moved({"f": entry}, {"f": close}) == []
    far = {**entry, "exact": {"trigger": "b"}, "float": {"score": [1.0, 2.0 * (1 + 4 * output_ledger.RTOL)]}}
    lines = output_ledger.moved({"f": entry}, {"f": far, "g": entry})
    assert lines == [
        "f: column 'trigger' differs",
        f"f: float column 'score' moved past rtol {output_ledger.RTOL} at rows [1] (1 of 2)",
        "g: not in the ledger",
    ]
