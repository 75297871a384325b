"""Golden compile output: the registry and every summand's C source.

`golden_compile.txt` pins `registry.dump()` and each `SummandPlan.source`
for every builtin kernel at every compression level, so a change to the
compiler core that claims identical output is held to it.  After an
intended change of output, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

from polypack import codegen, polyhedra
from polypack.cli import BUILTIN_KERNELS
from polypack.codegen import build_plan
from polypack.stur import parse_program

GOLDEN = Path(__file__).with_name("golden_compile.txt")
LEVELS = ("none", "input", "input+output")


def render_all():
    parts = []
    for name in sorted(BUILTIN_KERNELS):
        kern = BUILTIN_KERNELS[name]
        program = parse_program(kern.text)
        for level in LEVELS:
            plan = build_plan(program, kern.rule, level)
            parts.append(f"=== {name} {level} registry")
            parts.append(plan.registry.dump())
            for si, sp in enumerate(plan.summands):
                parts.append(f"=== {name} {level} summand {si}")
                parts.append(sp.source)
    return "\n".join(parts) + "\n"


def test_compile_output_matches_golden():
    want = GOLDEN.read_text().split("\n=== ")
    got = render_all().split("\n=== ")
    for w, g in zip(want, got):
        assert g == w, f"compile output differs at === {w.splitlines()[0]}"
    assert len(got) == len(want)


def test_compile_decides_without_sampling(monkeypatch):
    """Emptiness and registry decisions are proofs: with the enumerator
    raising, only counting's literal-domain check (`_difference_vanishes`,
    which holds its own reference) may enumerate, and the output is the
    same."""
    def refuse(poly, binding):
        raise AssertionError(f"compiler sampled {poly}")
    monkeypatch.setattr(polyhedra, "enumerate_points", refuse)
    monkeypatch.setattr(codegen, "enumerate_points", refuse)
    polyhedra._empty_cache.clear()   # no answer carried over from earlier tests
    assert render_all() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render_all())
