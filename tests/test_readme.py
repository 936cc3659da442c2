"""README's API statements, checked against the code they describe.

README.md is found from this file, not from dcsparse.__file__: CI runs the
tests against the installed package, whose files are not the checkout's.
"""

import inspect
import re
from pathlib import Path

import dcsparse.solvers
from dcsparse.harness import parse_config
from test_harness import SPEC_CONFIG_TEXT

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks(text):
    return re.findall(r"^```\n(.*?)^```$", text, re.M | re.S)


def _as_readme_writes_it(func):
    """func's signature without annotations, then the return type's bare name."""
    sig = inspect.signature(func)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    bare = sig.replace(parameters=params, return_annotation=inspect.Signature.empty)
    return f"{func.__name__}{bare} -> {sig.return_annotation.__name__}"


def test_solver_signatures_match_the_code():
    text = README.read_text(encoding="utf-8")
    lines = _fenced_blocks(text[text.index("## Solver signatures"):])[0].splitlines()
    names = [line.partition("(")[0] for line in lines]
    assert names == ["dc_gpsr", "gpsr_baseline", "ista", "omp", "brute_force_l0"]
    assert lines == [_as_readme_writes_it(getattr(dcsparse.solvers, name)) for name in names]


def test_config_example_is_the_benchmark_configuration():
    blocks = _fenced_blocks(README.read_text(encoding="utf-8"))
    examples = [block for block in blocks if block.startswith("n_antennas=")]
    assert len(examples) == 1
    assert parse_config(examples[0]) == parse_config(SPEC_CONFIG_TEXT)
