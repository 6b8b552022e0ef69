"""Regenerate the golden-file regression partitions.

Run from the repository root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/differential/regenerate_golden.py

The script runs the same graphs/config as ``tests/differential/conftest.py``
through every strategy of :data:`test_golden.STRATEGIES` (sequential SBP,
and DC-SBP / EDiSt on two thread ranks) on every backend, verifies the
backends agree, and rewrites ``golden/*.json``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import diff_config, diff_graph_a, diff_graph_b  # noqa: E402,F401
from test_golden import CASES, GOLDEN_DIR, STRATEGIES  # noqa: E402

from repro.testing.differential import (  # noqa: E402
    REFERENCE_BACKEND,
    assert_all_results_identical,
    golden_record,
    run_backends,
)


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    config = diff_config.__wrapped__()
    fixtures = {"diff_graph_a": diff_graph_a, "diff_graph_b": diff_graph_b}
    for name, (strategy, fixture) in sorted(CASES.items()):
        graph = fixtures[fixture].__wrapped__()
        runner, kwargs = STRATEGIES[strategy]
        results = run_backends(runner, graph, config, **kwargs)
        assert_all_results_identical(results)
        record = golden_record(results[REFERENCE_BACKEND])
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        reference = results[REFERENCE_BACKEND]
        print(f"wrote {path} (B={record['num_blocks']}, DL={reference.description_length:.3f})")


if __name__ == "__main__":
    main()
