"""Bench: the cost of one serial pfmlint pass over the real ``src/`` tree.

Two measurements:

- **Visits** -- a deterministic count of ``ast.iter_child_nodes`` calls
  (one per node a walk expands) during one full lint of ``src/``,
  against the number of AST nodes in the tree.  Every rule and the
  project summary read a module's shared node lists, so the count must
  stay at most :data:`MAX_VISITS_PER_NODE` times the node count; a rule
  that goes back to walking the whole tree itself pushes it over.
- **Cold serial wall time** of the same lint, as median and quartiles
  over :data:`TIMED_RUNS` runs (recorded, not gated).

Writes ``BENCH_lint.json`` next to this file with the environment the
numbers were taken on (``benchmarks/bench_env.py``).
"""

import ast
import json
import statistics
import time
from pathlib import Path

from benchmarks.bench_env import environment
from repro.devtools.lint.engine import LintResult, iter_python_files, lint_paths
from repro.devtools.lint.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
ARTIFACT = Path(__file__).with_name("BENCH_lint.json")

#: The visit gate.  One walk per module for the rules' node list, one for
#: the function-scoped list, plus the sub-tree walks a few rules and the
#: summary extractor make, lands near 4 visits per node.
MAX_VISITS_PER_NODE = 5.0

#: Timed cold lints of ``src/`` (median and quartiles are reported).
TIMED_RUNS = 5


def count_nodes(files: list[str]) -> int:
    """AST nodes over every parseable file, as ``ast.walk`` yields them."""
    total = 0
    for path in files:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        total += sum(1 for _ in ast.walk(tree))
    return total


def count_visits(monkeypatch) -> tuple[int, LintResult]:
    """``ast.iter_child_nodes`` calls made by one lint of ``src/``."""
    calls = 0
    original = ast.iter_child_nodes

    def counting(node):
        nonlocal calls
        calls += 1
        return original(node)

    with monkeypatch.context() as patch:
        patch.setattr(ast, "iter_child_nodes", counting)
        result = lint_paths([SRC])
    return calls, result


def test_bench_lint_single_pass(monkeypatch):
    files = iter_python_files([SRC])
    nodes = count_nodes(files)
    visits, counted = count_visits(monkeypatch)

    walls = []
    for _ in range(TIMED_RUNS):
        start = time.perf_counter()
        result = lint_paths([SRC])
        walls.append(time.perf_counter() - start)
        assert result.findings == counted.findings
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")

    assert counted.files_checked == len(files) > 100
    per_node = visits / nodes
    assert per_node <= MAX_VISITS_PER_NODE, (
        f"{visits} visits over {nodes} nodes = {per_node:.2f} per node "
        f"(> {MAX_VISITS_PER_NODE}): a rule is re-walking the whole tree"
    )

    doc = {
        "bench": "lint",
        "env": environment(),
        "config": {"paths": ["src"], "rules": len(all_rules())},
        "files_checked": counted.files_checked,
        "ast_nodes": nodes,
        "child_node_visits": visits,
        "visits_per_node": round(per_node, 2),
        "max_visits_per_node": MAX_VISITS_PER_NODE,
        "cold_serial_seconds": {
            "runs": TIMED_RUNS,
            "median": round(median, 4),
            "q1": round(q1, 4),
            "q3": round(q3, 4),
        },
        "findings": len(counted.findings),
        "suppressed_inline": counted.suppressed,
    }
    ARTIFACT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("BENCH_lint:", json.dumps(doc, sort_keys=True))
