"""Golden report: the JSON and SARIF bytes of one fixed corpus, pinned.

The corpus triggers every registered rule (PFM001--PFM013) at least
once, plus a PFM000 parse error and an inline suppression, so any change
to what the engine reports -- a finding gained, lost, moved, re-worded
or re-fingerprinted, a rule doc edited, a key reordered -- shows up as a
byte difference against the committed files in ``golden/``.

Refactors of the engine must leave these bytes alone.  A deliberate
report change (a rule tightened and its version bumped) regenerates
them with ``PYTHONPATH=src python tests/devtools/test_golden_report.py``
and says why in the commit.
"""

import json
import os
import sys
import tempfile
import textwrap
from pathlib import Path

from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.rules import REGISTRY

GOLDEN = Path(__file__).with_name("golden")

#: relative path -> source; ``__init__.py`` markers are added for every
#: package directory so module names resolve.
CORPUS = {
    # PFM001 (global numpy RNG) and the source of PFM012's chain.
    "repro/faults/noise.py": """\
        import numpy as np


        def jitter():
            return np.random.normal()
    """,
    # PFM002 (direct wall clock in a sim-time module); the second call
    # is deliberate wall accounting, suppressed inline.
    "repro/simulator/clock.py": """\
        import time


        def stamp():
            return time.time()


        def wall():
            return time.perf_counter()  # pfmlint: disable=PFM002 -- wall half
    """,
    # PFM011: a sim-time step reaching the wall clock through a helper.
    "repro/simulator/step.py": """\
        from repro.faults.util import stamp


        def advance():
            return stamp()
    """,
    "repro/faults/util.py": """\
        import time


        def stamp():
            return time.time()
    """,
    # PFM003, PFM004, PFM005 and PFM009 in one module, plus a PFM003
    # sentinel suppressed inline.
    "repro/core/checks.py": """\
        def close(x):
            return x == 0.5


        def sentinel(x):
            return x != 0.0  # pfmlint: disable=PFM003 -- exact-zero sentinel


        def emit(out, log=[]):
            for item in {3, 1, 2}:
                out.append(item)
            return out


        def probe(fn):
            try:
                fn()
            except Exception:
                pass
    """,
    # PFM006 (lambda and nested function into a pool seam) and PFM007
    # (frozen spec mutated in place, both ways).
    "repro/fleet/pool.py": """\
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class Spec:
            seed: int


        def launch(executor, spec):
            def task():
                return spec.seed

            executor.submit(lambda: 1)
            executor.submit(task)
            object.__setattr__(spec, "seed", 2)
            fresh = Spec(3)
            fresh.seed = 4
            return fresh
    """,
    # PFM008: __all__ names an unbound symbol and misses a public one.
    "repro/fleet/api.py": """\
        __all__ = ["missing"]


        def exported():
            return 1
    """,
    # PFM010: telemetry importing core (the lazy import stays legal).
    "repro/telemetry/bad.py": """\
        from repro.core import checks


        def hook():
            from repro.core import checks as lazy
            return lazy
    """,
    # PFM012: the fleet planner reaching unseeded RNG through a helper.
    "repro/fleet/plan.py": """\
        from repro.faults.noise import jitter


        def shuffle():
            return jitter()
    """,
    # PFM013: a local lambda flowing into run_fleet.
    "repro/fleet/go.py": """\
        from repro.fleet.runner import run_fleet


        def start(specs):
            key = lambda s: s.seed
            return run_fleet(specs, shard_key=key)
    """,
    "repro/fleet/runner.py": """\
        def run_fleet(specs, shard_key=None):
            return specs
    """,
    # PFM000: a module that does not parse.
    "repro/broken.py": """\
        def broken(:
            pass
    """,
}


def write_corpus(root: Path) -> None:
    for rel, source in CORPUS.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        parent = path.parent
        while parent != root:
            marker = parent / "__init__.py"
            if not marker.exists():
                marker.write_text("")
            parent = parent.parent


def lint_corpus(root: Path) -> tuple[int, bytes, bytes]:
    """Lint the corpus from inside ``root`` (relative, stable paths)."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code = lint_main(
            [
                "repro",
                "--no-baseline",
                "--output",
                "report.json",
                "--sarif",
                "report.sarif",
            ]
        )
    finally:
        os.chdir(cwd)
    return (
        code,
        (root / "report.json").read_bytes(),
        (root / "report.sarif").read_bytes(),
    )


class TestGoldenReport:
    def test_corpus_covers_every_rule(self, tmp_path, capsys):
        write_corpus(tmp_path)
        _code, report, _sarif = lint_corpus(tmp_path)
        doc = json.loads(report)
        fired = {finding["rule"] for finding in doc["findings"]}
        assert fired == {"PFM000", *REGISTRY}
        assert doc["summary"]["suppressed_inline"] == 2

    def test_report_bytes_match_golden(self, tmp_path, capsys):
        write_corpus(tmp_path)
        code, report, sarif = lint_corpus(tmp_path)
        assert code == 1
        assert report == (GOLDEN / "report.json").read_bytes()
        assert sarif == (GOLDEN / "report.sarif").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_corpus(Path(scratch))
        _code, report, sarif = lint_corpus(Path(scratch))
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "report.json").write_bytes(report)
    (GOLDEN / "report.sarif").write_bytes(sarif)
    sys.stdout.write(f"wrote {GOLDEN}/report.json and report.sarif\n")
