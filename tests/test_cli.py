"""Command-line behavior: output formats, exit codes, CSV schema."""

import csv
import io
import os
import re
import shutil
import subprocess

import pytest

import numpy as np

from polypack import native, runtime
from polypack.cli import BUILTIN_KERNELS, CSV_COLUMNS, derive_shapes, main
from polypack.codegen import JAM, CodegenError, build_plan, emit_c_files
from polypack.polyhedra import enumerate_points, iteration_space
from polypack.stur import build_compressed_summands, parse_program

PRISM = """A(i, j) := B(i, j, l) * C(j, l)
B_U(i, j, l) := (0 <= i < M) * (i <= j < N) * (0 <= l < Q)
"""

TRIANGLE = """A(i) := B(i, j) * C(j)
B_U(i, j) := (0 <= i < n) * (i <= j < n)
"""

needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                               reason="no gcc to compile the emitted C")


def run_cli(*argv):
    return main(list(argv))


class TestCompile:
    def test_spmv_d_prints_rank_and_size(self, capsys):
        assert run_cli("compile", "--kernel", "SpMV_D") == 0
        out = capsys.readouterr().out
        assert "size=n_i rank=i" in out
        assert "j = i" in out  # degenerate level shown as an assignment

    def test_ttm_ut_prints_the_linearization_polynomial(self, capsys):
        assert run_cli("compile", "--kernel", "TTM_UT") == 0
        out = capsys.readouterr().out
        assert "n_l*j + l" in out
        assert "n_j*n_l*i" in out

    def test_loop_nest_c(self, capsys):
        assert run_cli("compile", "--kernel", "SpMV_UT") == 0
        out = capsys.readouterr().out
        # i <= j < n_j implies i < n_j; the projected bound keeps it, and
        # the share bounds follow
        assert ("for (int64_t i = MAX2(0, share_lo); "
                "i <= MIN2(MIN2(-1 + n_i, -1 + n_j), share_hi); i++) {") in out
        assert "int64_t j_lo = i;\n" in out and "int64_t j_hi = -1 + n_j;\n" in out
        assert "sum += B_1[k1 + j - j_lo] * C_2[k2 + j - j_lo];" in out

    def test_contracted_block_marked(self, capsys):
        # TTM_UT's innermost l is walked as runs, as SpMV_UT's j is; its
        # output's gather walks A's region with k as runs
        assert run_cli("compile", "--kernel", "TTM_UT") == 0
        out = capsys.readouterr().out
        assert f"summand 0: (parallel outer loop) (l walked as runs) (k jammed by {JAM})\n" in out
        assert "gather buffer 0: (k walked as runs)\n" in out
        assert "for (int64_t k = 0; k <= -1 + n_k; k++) {" in out
        assert "for (int64_t j = i; j <= -1 + n_j; j++) {" in out
        assert "contracted" not in out
        assert run_cli("compile", "--kernel", "SpMV_UT") == 0
        out = capsys.readouterr().out
        assert "summand 0: (parallel outer loop) (j walked as runs)\n" in out

    def test_jammed_level_marked(self, capsys):
        # TTM_UT's reducing run over l takes JAM rows of k per pass, and
        # only its summand is jammed (copies assign); SpMV_UT's run over j
        # starts at i, so nothing there is jammed
        assert run_cli("compile", "--kernel", "TTM_UT") == 0
        out = capsys.readouterr().out
        assert out.count(" jammed by ") == 1
        assert f"(l walked as runs) (k jammed by {JAM})\n" in out
        assert run_cli("compile", "--kernel", "SpMV_UT") == 0
        out = capsys.readouterr().out
        assert "summand 0: (parallel outer loop) (j walked as runs)\n" in out
        assert "jammed" not in out

    @pytest.mark.parametrize("level", ["none", "input", "input+output"])
    def test_prints_the_emitted_c(self, level, capsys):
        # the functions `compile` shows, each summand's, then each
        # compressed output's gather and each compressed input's pack, are
        # the ones `--emit-c` writes
        gathers = packs = 0
        for name in sorted(BUILTIN_KERNELS):
            kern = BUILTIN_KERNELS[name]
            assert run_cli("compile", "--kernel", name, "--compression", level) == 0
            shown = re.split(r"\n(?:summand \d+|gather buffer \d+|pack buffer \d+):",
                             capsys.readouterr().out)[1:]
            plan = build_plan(parse_program(kern.text), kern.rule, level)
            files = emit_c_files(plan)
            gathers += sum(f.startswith(f"{kern.rule}_g") for f, _ in files)
            packs += sum(f.startswith(f"{kern.rule}_p") for f, _ in files)
            assert len(shown) == len(files), name
            for text, (_, c_text) in zip(shown, files):
                body = "\n".join(line[2:] for line in text.splitlines()[1:])
                assert "int " + c_text.partition("\nint ")[2] == body + "\n", name
        assert (gathers > 0) == (level == "input+output")
        assert (packs > 0) == (level != "none")

    def test_stur_shapes_at_large_binding(self, tmp_path, capsys):
        # compiling is symbolic: a 10^8-point bounding box must not matter
        path = os.path.join(tmp_path, "tri.stur")
        with open(path, "w") as f:
            f.write(TRIANGLE)
        shapes = derive_shapes(parse_program(TRIANGLE), "A", {"n": 10000})
        assert shapes == {"A": (10000,), "B": (10000, 10000), "C": (10000,)}
        assert run_cli("compile", "--stur", path, "--bind", "n=10000") == 0
        assert "int a_s0(" in capsys.readouterr().out

    def test_compile_needs_no_bindings(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "prism.stur")
        with open(path, "w") as f:
            f.write(PRISM)
        assert run_cli("compile", "--stur", path) == 0
        assert "int a_s0(" in capsys.readouterr().out

    def test_stur_shapes_walk_rows(self):
        # a triangle of 4.5e8 points: only its 30000 rows are walked
        shapes = derive_shapes(parse_program(TRIANGLE), "A", {"n": 30000})
        assert shapes == {"A": (30000,), "B": (30000, 30000), "C": (30000,)}

    def test_stur_shapes_match_enumeration(self):
        # random triangles and bands walked by rows, and a diagonal and a
        # strided band walked by points, against the accessed points' box
        rng = np.random.default_rng(23)
        texts = ["A(i) := B(i, j) * C(j)\nB_U(i, j) := (a <= i < n) * (i + b <= j < m)\n",
                 "A(i) := B(i, j) * C(j)\nB_U(i, j) := (a <= i < n) * (i - b <= j <= i + m)\n",
                 "A(j) := B(i, j)\nB_U(i, j) := (a <= i < n) * (b <= j <= i) * (i - j <= m)\n",
                 "A(i) := B(i, j)\nB_U(i, j) := (a <= i < n) * (j = i + b - m)\n",
                 "A(i) := B(i, j)\nB_U(i, j) := (0 <= i < 7) * (0 <= j < 8) * ((i + j) % 3 = 1)\n"]
        refused = 0
        for case in range(40):
            program = parse_program(texts[case % len(texts)])
            binding = {"a": int(rng.integers(0, 3)), "b": int(rng.integers(0, 3)),
                       "n": int(rng.integers(0, 9)), "m": int(rng.integers(0, 9))}
            want = {}
            for s in build_compressed_summands(program, "A"):
                space = iteration_space(s)
                pts = enumerate_points(space, binding)
                for acc in (s.output, *s.inputs):
                    cols = pts[:, [space.dims.index(d) for d in acc.index_names]]
                    top = cols.max(axis=0, initial=-1) + 1
                    if cols.size and cols.min() < 0:
                        want = None
                    if want is not None:
                        want[acc.tensor] = tuple(int(e) for e in np.maximum(
                            want.get(acc.tensor, top), top))
            if want is None:
                refused += 1
                with pytest.raises(CodegenError, match="negative positions"):
                    derive_shapes(program, "A", binding)
            else:
                assert derive_shapes(program, "A", binding) == want, (case, binding)
        assert 0 < refused < 20

    def test_stur_shapes_refuse_negative_positions(self):
        text = "A(i) := B(i) * (-2 <= i < n)\n"
        with pytest.raises(CodegenError, match="negative positions"):
            derive_shapes(parse_program(text), "A", {"n": 3})

    def test_emit_c_writes_one_file_per_summand(self, tmp_path, capsys):
        target = os.path.join(tmp_path, "cdir")
        assert run_cli("compile", "--kernel", "SpMV_L",
                       "--emit-c", target) == 0
        names = sorted(os.listdir(target))
        # and the gathers and the packs
        assert names == ["A_0.c", "A_1.c", "A_g0.c", "A_g3.c", "A_p1.c", "A_p4.c"]
        text = open(os.path.join(target, "A_1.c")).read()
        assert text.startswith("/* generated kernel code */")
        assert "int a_s1(" in text
        gcc = shutil.which("gcc")
        if gcc is None:
            pytest.skip("no gcc to compile the emitted C")
        for name in names:   # each file is its own translation unit
            subprocess.run([gcc, "-std=c99", "-Wall", "-Werror", "-Wno-unused-variable",
                            "-c", "-o", os.path.join(tmp_path, name + ".o"),
                            os.path.join(target, name)], check=True)

    def test_malformed_stur_exits_2(self, tmp_path, capsys):
        bad = os.path.join(tmp_path, "bad.stur")
        with open(bad, "w") as f:
            f.write("A(i) := B(i, j\n")
        assert run_cli("compile", "--stur", bad) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("compile", "--stur", "/nonexistent/x.stur") == 2

    def test_unknown_kernel_rejected_by_parser(self):
        with pytest.raises(SystemExit) as e:
            run_cli("compile", "--kernel", "NOPE")
        assert e.value.code == 2


class TestRun:
    def test_spmv_d_passes(self, capsys):
        assert run_cli("run", "--kernel", "SpMV_D", "--seed", "1") == 0
        assert "VERIFY: PASS maxrel=" in capsys.readouterr().out

    @pytest.mark.parametrize("kernel", ["TTM_J", "THP_I", "MTT_JUT", "SpMV_L"])
    def test_one_kernel_per_family(self, kernel, capsys):
        assert run_cli("run", "--kernel", kernel, "--dtype", "i64",
                       "--seed", "3") == 0
        assert "VERIFY: PASS maxrel=0.000e+00" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        assert run_cli("run", "--kernel", "THP_DP", "--dtype", "i64",
                       "--workers", "2") == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, workers, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--kernel", "SpMV_D", "--workers", workers)
        assert exit_info.value.code == 2
        assert "at least 1 worker" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_backend_flag(self, backend, capsys):
        if backend == "c" and shutil.which("gcc") is None:
            pytest.skip("no gcc to compile the emitted C")
        assert run_cli("run", "--kernel", "SpMV_UT", "--dtype", "i64",
                       "--backend", backend) == 0
        assert "VERIFY: PASS maxrel=0.000e+00" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_backend_numpy_packs_on_the_walk(self, command, monkeypatch, capsys):
        # --backend reaches build_store: no copy, pack or gather, runs on C
        real = runtime._run

        def no_c(sp, lib, *args):
            if lib is not None:
                raise AssertionError("a copy ran on C")
            return real(sp, lib, *args)
        monkeypatch.setattr(runtime, "_run", no_c)
        assert run_cli(command, "--kernel", "SpMV_UT", "--dtype", "i64",
                       "--backend", "numpy") == 0
        assert "PASS" in capsys.readouterr().out

    def test_backend_c_without_gcc_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PATH", str(tmp_path))   # no gcc there
        assert run_cli("run", "--kernel", "SpMV_UT", "--backend", "c") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: backend 'c' needs a C compiler")
        assert "Traceback" not in err

    def test_corrupt_index_fails_with_exit_1(self, capsys):
        assert run_cli("run", "--kernel", "SpMV_UT", "--dtype", "i64",
                       "--seed", "3", "--corrupt-index") == 1
        assert "VERIFY: FAIL" in capsys.readouterr().out

    def test_corrupt_index_needs_compressed_inputs(self, capsys):
        assert run_cli("run", "--kernel", "SpMV_UT", "--compression", "none",
                       "--corrupt-index") == 2
        assert "error:" in capsys.readouterr().err

    def test_stur_file(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "prism.stur")
        with open(path, "w") as f:
            f.write(PRISM)
        assert run_cli("run", "--stur", path, "--bind", "M=5", "--bind", "N=6",
                       "--bind", "Q=3", "--dtype", "i64") == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_binding_exits_2(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "prism.stur")
        with open(path, "w") as f:
            f.write(PRISM)
        assert run_cli("run", "--stur", path) == 2
        err = capsys.readouterr().err
        assert "bindings missing parameters" in err and "'N'" in err

    def test_parameter_named_like_an_argument(self, tmp_path, capsys):
        # len1 is also the emitted name of buffer 1's length: by default the
        # run falls back to NumPy and verifies (see test_codegen)
        path = os.path.join(tmp_path, "len.stur")
        with open(path, "w") as f:
            f.write(TRIANGLE.replace("n)", "len1)"))
        assert run_cli("run", "--stur", path, "--bind", "len1=9", "--dtype", "i64") == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_redundancy_map_rejected(self, command, tmp_path, capsys):
        path = os.path.join(tmp_path, "sym.stur")
        with open(path, "w") as f:
            f.write("A(i) := B(i, j) * C(j)\n"
                    "B_U(i, j) := (0 <= i < n) * (i <= j < n)\n"
                    "B_R(i, j, i', j') := (j < i) * (i' = j) * (j' = i)\n")
        assert run_cli(command, "--stur", path, "--bind", "n=5") == 2
        assert "B_R" in capsys.readouterr().err

    def test_bad_bind_syntax_rejected(self):
        with pytest.raises(SystemExit) as e:
            run_cli("run", "--kernel", "SpMV_D", "--bind", "n_i")
        assert e.value.code == 2


class TestBench:
    def test_csv_schema_and_rows(self, capsys):
        assert run_cli("bench", "--kernel", "SpMV_D", "--kernel", "SpMV_UT",
                       "--compression", "none",
                       "--compression", "input+output",
                       "--dtype", "i64") == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == CSV_COLUMNS
        assert len(rows) == 4  # 2 kernels x 2 levels, input order preserved
        assert [r["kernel"] for r in rows] == \
            ["SpMV_D", "SpMV_D", "SpMV_UT", "SpMV_UT"]
        assert all(r["verify"] == "PASS" for r in rows)
        want = "c" if shutil.which("gcc") else "numpy"
        assert all(r["backend"] == want for r in rows)

    @pytest.mark.parametrize("kernel,flag,want", [
        ("SpMV_UT", "numpy", "numpy"),
        ("TTM_UT", None, "c" if shutil.which("gcc") else "numpy"),   # C where gcc is
        pytest.param("TTM_UT", "c", "c", marks=needs_gcc),
    ])
    def test_backend_column_names_what_ran(self, kernel, flag, want, capsys):
        args = ["--backend", flag] if flag else []
        assert run_cli("bench", "--kernel", kernel, "--dtype", "i64", *args) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["backend"] == want and row["verify"] == "PASS"

    @needs_gcc
    def test_failed_build_falls_back_by_default(self, tmp_path, monkeypatch, capsys):
        # a run var named `sum` clashes with the row's sum: the C does not
        # build, so the default runs NumPy and --backend c exits 2
        monkeypatch.setattr(native, "_LOADED", {})
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        path = os.path.join(tmp_path, "clash.stur")
        with open(path, "w") as f:
            f.write("A(i) := B(i, sum) * C(sum)\n"
                    "B_U(i, sum) := (0 <= i < n) * (i <= sum < n)\n")
        assert run_cli("bench", "--stur", path, "--bind", "n=6", "--dtype", "i64") == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["backend"] == "numpy" and row["verify"] == "PASS"
        assert run_cli("run", "--stur", path, "--bind", "n=6", "--backend", "c") == 2
        assert "names of the rule clash with names the emitter declares: sum" \
            in capsys.readouterr().err

    def test_rate_column_exact_rational(self, capsys):
        assert run_cli("bench", "--kernel", "SpMV_D", "--dtype", "i64") == 0
        out = capsys.readouterr().out
        row = next(csv.DictReader(io.StringIO(out)))
        # n=8: dense 64+8+8, stored 8+8+8
        assert row["elements_dense"] == "80"
        assert row["elements_compressed"] == "24"
        assert row["rate"] == "10/3"
        assert row["binding"] == "n_i=8;n_j=8"

    def test_csv_file_output(self, tmp_path, capsys):
        target = os.path.join(tmp_path, "out.csv")
        assert run_cli("bench", "--kernel", "THP_DP", "--dtype", "i64",
                       "--csv", target) == 0
        rows = list(csv.DictReader(open(target)))
        assert len(rows) == 1
        assert int(rows[0]["runtime_ns"]) > 0

    def test_diagonal_rate_beats_triangular(self, capsys):
        # the same qualitative ordering the footprint study reports
        assert run_cli("bench", "--kernel", "SpMV_D", "--kernel", "SpMV_UT",
                       "--bind", "n_i=100", "--bind", "n_j=100",
                       "--dtype", "i64") == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        from fractions import Fraction
        rates = {r["kernel"]: Fraction(r["rate"]) for r in rows}
        assert rates["SpMV_D"] > rates["SpMV_UT"]


class TestBuiltins:
    def test_twelve_kernels_defined(self):
        assert sorted(BUILTIN_KERNELS) == sorted([
            "TTM_DP", "TTM_J", "TTM_UT", "THP_DP", "THP_I", "THP_J",
            "MTT_D", "MTT_JUT", "MTT_J", "SpMV_L", "SpMV_UT", "SpMV_D"])

    def test_defaults_cover_their_shapes(self):
        for k in BUILTIN_KERNELS.values():
            for syms in k.shapes.values():
                for s in syms:
                    assert s in k.defaults, (k.name, s)
