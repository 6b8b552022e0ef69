"""Golden-file regression partitions for two small SBM graphs.

Every registered backend must reproduce the committed partition exactly —
block count, assignment, and description length (stored as ``float.hex``
and compared bitwise) — through sequential SBP, DC-SBP and EDiSt (two
thread ranks).  This pins the whole pipeline (proposal streams, merge
selections, MCMC acceptance, golden-ratio bracketing, the DC-SBP combine
and the EDiSt replica exchange) against unintended drift.  The sequential
files were recorded before the ``sparse_csr`` backend existed and the
distributed ones while the hash-map ``"dict"`` reference backend was still
in the tree, so passing them is the proof that neither change moved a
partition.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python tests/differential/regenerate_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.testing.differential import (
    ALL_BACKENDS,
    golden_record,
    run_backends,
    run_dcsbp,
    run_edist,
    run_sequential,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: strategy → (runner, runner keyword arguments)
STRATEGIES = {
    "sbp": (run_sequential, {}),
    "dcsbp": (run_dcsbp, {"num_ranks": 2}),
    "edist": (run_edist, {"num_ranks": 2}),
}

#: golden-file stem -> (strategy, conftest graph fixture name)
CASES = {
    "sbm-a": ("sbp", "diff_graph_a"),
    "sbm-b": ("sbp", "diff_graph_b"),
    "dcsbp-sbm-a": ("dcsbp", "diff_graph_a"),
    "dcsbp-sbm-b": ("dcsbp", "diff_graph_b"),
    "edist-sbm-a": ("edist", "diff_graph_a"),
    "edist-sbm-b": ("edist", "diff_graph_b"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_backend_matches_golden_partition(name, request, diff_config):
    strategy, fixture = CASES[name]
    runner, kwargs = STRATEGIES[strategy]
    graph = request.getfixturevalue(fixture)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    results = run_backends(runner, graph, diff_config, backends=ALL_BACKENDS, **kwargs)
    for backend, result in results.items():
        record = golden_record(result)
        assert record["num_blocks"] == golden["num_blocks"], f"{backend}: block count drifted"
        assert record["description_length_hex"] == golden["description_length_hex"], (
            f"{backend}: description length drifted "
            f"({record['description_length_hex']} != {golden['description_length_hex']})"
        )
        assert record["assignment"] == golden["assignment"], f"{backend}: partition drifted"
