"""DESIGN.md cites benchmark tests by id; every id must name a real test.

Sixteen of the nineteen ids in §3's "Bench target" column once named
functions that never existed (``test_fig5_8_window4`` for what is
``test_fig5_8_to_10_throughput_vs_hops[4]``), so the experiment index sent
readers to nothing.  The files are parsed with ``ast`` — nothing under
``benchmarks/`` is imported or collected.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent.parent
CITATION = re.compile(r"(benchmarks/\w+\.py)::(test_\w+)")


def test_every_bench_target_cited_in_design_md_exists():
    cited = CITATION.findall((ROOT / "DESIGN.md").read_text(encoding="utf-8"))
    assert len(cited) >= 19  # §3 alone has one per table and figure row
    missing = []
    for path, name in sorted(set(cited)):
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
        if name not in defined:
            missing.append(f"{path}::{name}")
    assert not missing, f"DESIGN.md cites tests that do not exist: {missing}"


def test_no_bench_target_is_abbreviated_out_of_the_check():
    """``...::test_x`` would not match :data:`CITATION`; spell the file out."""
    assert "...::" not in (ROOT / "DESIGN.md").read_text(encoding="utf-8")
