"""End-to-end command-line behavior: verbs, formats, exit codes."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsign import cli
from sumsign.graphs import parse_graph
from sumsign.labeling import derive, parse_labeling
from sumsign.verify import TheoremId

TRIANGLE_GRAPH = "u v\nu w\nv w\n"
TRIANGLE_LABELING = "universe_max = 8\nu: {0,1}\nv: {0,2}\nw: {0,2,4}\n"
K2_GRAPH = "u v\n"
K2_LABELING = "universe_max = 4\nu: {0,1}\nv: {0,2}\n"
UNBALANCED_GRAPH = "u v\nu w\nv w\n"
UNBALANCED_LABELING = "universe_max = 4\nu: {0,1}\nv: {0,2}\nw: {0,1,2}\n"


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_a_fresh_process_needs_only_the_standard_library():
    script = """
import io, sys
import sumsign
from sumsign import cli
sumsign.resolve_family("connected:7")
assert not sumsign.sweep_sign_patterns(sumsign.complete_graph(7)).disagreements
sumsign.verify_theorem("SUBDIVISION", "triangle", sumsign.SearchBounds(2, 2))
assert cli.main(["verify", "--theorem", "BALANCE_BIPARTITE_REV", "--family", "triangle",
                 "--universe-max", "3", "--max-label-size", "2"], out=io.StringIO()) == 1
print(sorted({"numpy", "networkx"} & set(sys.modules)))
"""
    # -S leaves site-packages off the path: only the standard library remains.
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "[]\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestDerive:
    def test_k2_table_row(self, files):
        code, text = run(
            ["derive", "--graph", files("g", K2_GRAPH), "--labeling", files("l", K2_LABELING)]
        )
        assert code == 0
        assert text.splitlines()[0] == "u v : {0,1,2,3} +"
        assert "EDGES=1" in text and "POSITIVE=1" in text

    def test_triangle(self, files):
        code, text = run(
            ["derive", "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING)]
        )
        assert code == 0
        assert "NEGATIVE=0" in text

    @pytest.mark.parametrize(
        "labeling",
        [
            "universe_max = 4\nu: {0,\u00b2}\nv: {0,2}\n",
            "universe_max = \u00b2\nu: {0,1}\nv: {0,2}\n",
        ],
        ids=["set-element", "universe-max"],
    )
    def test_non_ascii_digit_is_parse_error(self, files, capsys, labeling):
        code, _ = run(
            ["derive", "--graph", files("g", K2_GRAPH), "--labeling", files("l", labeling)]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: PARSE_ERROR") for line in err)


    @pytest.mark.parametrize(
        "graph, labeling",
        [
            (K2_GRAPH, "universe_max = 3\nuniverse_max = 9\nu: {0,1}\nv: {0,2}\n"),
            ("w vertex\n", "universe_max = 4\nw: {0,1}\nvertex: {0,2}\n"),
        ],
        ids=["second-universe-max", "vertex-keyword-as-endpoint"],
    )
    def test_ambiguous_input_is_parse_error(self, files, capsys, graph, labeling):
        code, text = run(
            ["derive", "--graph", files("g", graph), "--labeling", files("l", labeling)]
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: PARSE_ERROR: line ")

    def test_non_utf8_file_is_parse_error(self, files, tmp_path, capsys):
        labeling = tmp_path / "l"
        labeling.write_bytes(b"universe_max = 4\nu: {0,1}\xff\nv: {0,2}\n")
        code, text = run(
            ["derive", "--graph", files("g", K2_GRAPH), "--labeling", str(labeling)]
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: PARSE_ERROR: cannot read")

    @pytest.mark.parametrize("marked", ["graph", "labeling", "both"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, marked):
        def write(name, text, mark):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" * mark + text.encode())
            return str(path)

        plain = run(["derive", "--graph", write("g0", K2_GRAPH, False),
                     "--labeling", write("l0", K2_LABELING, False)])
        marked_run = run(["derive", "--graph", write("g", K2_GRAPH, marked != "labeling"),
                          "--labeling", write("l", K2_LABELING, marked != "graph")])
        assert marked_run == plain and plain[0] == 0

    def test_byte_order_mark_past_the_start_stays_text(self, files, capsys):
        code, _ = run(["derive", "--graph", files("g", K2_GRAPH),
                       "--labeling", files("l", "universe_max = 4\nu: {0,1}\n\ufeffv: {0,2}\n")])
        assert code == 2
        assert "MISSING_LABEL: vertex 'v' has no set-label" in capsys.readouterr().err

    def test_label_for_vertex_not_in_graph(self, files, capsys):
        code, _ = run(
            ["derive", "--graph", files("g", K2_GRAPH),
             "--labeling", files("l", K2_LABELING + "zz: {3}\n")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: UNKNOWN_VERTEX") for line in err)


class TestCheck:
    def test_balance_true_exit_zero(self, files):
        code, text = run(
            ["check", "balance", "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING)]
        )
        assert code == 0
        assert "BALANCED=true" in text
        assert "cycle u v w : negatives=0 sign=+" in text

    def test_balance_false_exit_one(self, files):
        code, text = run(
            ["check", "balance", "--graph", files("g", UNBALANCED_GRAPH),
             "--labeling", files("l", UNBALANCED_LABELING)]
        )
        assert code == 1
        assert "BALANCED=false" in text

    def test_aiasl(self, files):
        code, text = run(
            ["check", "aiasl", "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING)]
        )
        assert code == 0 and "AIASL=true" in text
        code, text = run(
            ["check", "aiasl", "--graph", files("g2", K2_GRAPH),
             "--labeling", files("l2", "universe_max = 8\nu: {0,1}\nv: {0,3,6}\n")]
        )
        assert code == 1
        assert "AIASL=false" in text
        assert "edge u v" in text

    def test_iasi(self, files):
        code, text = run(
            ["check", "iasi", "--graph", files("g", "a b\nb c\n"),
             "--labeling", files("l", "universe_max = 2\na: {0,2}\nb: {0,1}\nc: {0,1,2}\n")]
        )
        assert code == 1
        assert "IASI=false" in text and "collision" in text

    def test_cluster(self, files):
        code, text = run(
            ["check", "cluster", "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", "universe_max = 4\nu: {0}\nv: {1}\nw: {2}\n")]
        )
        assert code == 0
        assert "CLUSTERABLE=true" in text
        assert "cluster 1 : u" in text
        code, text = run(
            ["check", "cluster", "--graph", files("g2", UNBALANCED_GRAPH),
             "--labeling", files("l2", UNBALANCED_LABELING)]
        )
        assert code == 1
        assert "CLUSTERABLE=false" in text and "violating_cycle" in text

    def test_empty_label_is_input_error(self, files, capsys):
        code, _ = run(
            ["check", "balance", "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", "universe_max = 3\nu: {}\n")]
        )
        assert code == 2
        assert "EMPTY_LABEL" in capsys.readouterr().err

    def test_cycle_bound_exceeded_exit_three(self, files, capsys):
        edges = "\n".join(f"n{i:02d} n{i + 1:02d}" for i in range(13)) + "\n"
        labels = "universe_max = 20\n" + "".join(
            f"n{i:02d}: {{{i}}}\n" for i in range(14)
        )
        code, _ = run(
            ["check", "balance", "--graph", files("g", edges),
             "--labeling", files("l", labels)]
        )
        assert code == 3
        assert "BOUND_EXCEEDED" in capsys.readouterr().err

    def test_cycle_bound_env_override(self, files, monkeypatch):
        edges = "\n".join(f"n{i:02d} n{i + 1:02d}" for i in range(13)) + "\n"
        labels = "universe_max = 20\n" + "".join(
            f"n{i:02d}: {{{i}}}\n" for i in range(14)
        )
        monkeypatch.setenv(cli.ENV_CYCLE_BOUND, "14")
        code, text = run(
            ["check", "balance", "--graph", files("g", edges),
             "--labeling", files("l", labels)]
        )
        assert code == 0 and "BALANCED=true" in text

    def test_long_path_under_a_large_cycle_bound_exit_zero(self, files):
        edges = "".join(f"v{i:05d} v{i + 1:05d}\n" for i in range(4999))
        labels = "universe_max = 5000\n" + "".join(f"v{i:05d}: {{{i}}}\n" for i in range(5000))
        code, text = run(
            ["--cycle-bound", "6000", "check", "balance", "--graph", files("g", edges),
             "--labeling", files("l", labels)]
        )
        assert code == 0
        assert text.endswith("BALANCED=true\n")

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_cycle_bound_is_input_error(self, files, monkeypatch, capsys, source):
        argv = ["check", "balance", "--graph", files("g", TRIANGLE_GRAPH),
                "--labeling", files("l", TRIANGLE_LABELING)]
        if source == "flag":
            argv = ["--cycle-bound", "-5"] + argv
        else:
            monkeypatch.setenv(cli.ENV_CYCLE_BOUND, "-5")
        code, text = run(argv)
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: PARSE_ERROR: ")

    def test_missing_file_is_input_error(self, files, capsys):
        code, _ = run(
            ["check", "balance", "--graph", "/nonexistent/g",
             "--labeling", "/nonexistent/l"]
        )
        assert code == 2

    def test_strict_universe_flag(self, files, capsys):
        graph = files("g", K2_GRAPH)
        labeling = files("l", "universe_max = 3\nu: {0,2}\nv: {1,3}\n")
        code, _ = run(["derive", "--graph", graph, "--labeling", labeling])
        assert code == 0
        code, _ = run(
            ["derive", "--graph", graph, "--labeling", labeling, "--strict-universe"]
        )
        assert code == 2
        assert "UNIVERSE_VIOLATION" in capsys.readouterr().err


class TestTransform:
    def test_subdivide_round_trip(self, files, tmp_path):
        out_graph = str(tmp_path / "out.graph")
        out_labeling = str(tmp_path / "out.labeling")
        code, text = run(
            ["transform", "subdivide", "--edge", "u v",
             "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING),
             "--out-graph", out_graph, "--out-labeling", out_labeling]
        )
        assert code == 0
        assert "-- provenance --" in text
        assert "label u*v : inherited from edge u v" in text
        g = parse_graph(open(out_graph).read())
        lab = parse_labeling(open(out_labeling).read())
        assert g.n == 4 and g.m == 4
        slg = derive(g, lab)
        assert slg.edge_label("u", "u*v").to_text() == "{0,1,2,3,4}"

    def test_span_reports_removed_negatives(self, files):
        code, text = run(
            ["transform", "span", "--keep", "u v", "--keep", "u w",
             "--graph", files("g", UNBALANCED_GRAPH),
             "--labeling", files("l", UNBALANCED_LABELING)]
        )
        assert code == 0
        assert "REMOVED_NEGATIVE_EDGES=1" in text

    def test_delete_vertex(self, files):
        code, text = run(
            ["transform", "delete-vertex", "--vertex", "w",
             "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING)]
        )
        assert code == 0
        assert "removed_vertex = w" in text

    def test_homeo(self, files):
        code, text = run(
            ["transform", "homeo", "--vertex", "b",
             "--graph", files("g", "a b\nb c\n"),
             "--labeling", files("l", "universe_max = 4\na: {0,1}\nb: {4}\nc: {2,3}\n")]
        )
        assert code == 0
        assert "added_edge = a c" in text

    @pytest.mark.parametrize(
        "env",
        [
            {"PYTHONIOENCODING": "ascii"},
            {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        ],
        ids=["ascii-stdout", "c-locale"],
    )
    def test_output_is_utf8_whatever_the_locale(self, tmp_path, env):
        graph, labeling, out_graph = tmp_path / "g", tmp_path / "l", tmp_path / "out"
        graph.write_text("\u00e9 b\nb c\n", encoding="utf-8")
        labeling.write_text("universe_max = 4\n\u00e9: {0,1}\nb: {4}\nc: {2,3}\n", encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parent.parent)
        base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        done = subprocess.run(
            [sys.executable, "-m", "sumsign.cli", "transform", "homeo", "--vertex", "b",
             "--graph", str(graph), "--labeling", str(labeling), "--out-graph", str(out_graph)],
            capture_output=True, env={**base, **env, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert "-- graph --\nc \u00e9\n".encode() in done.stdout
        assert out_graph.read_bytes() == "c \u00e9\n".encode()

    def test_unwritable_output_is_input_error(self, files, tmp_path, capsys):
        code, _ = run(
            ["transform", "subdivide", "--edge", "u v",
             "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING),
             "--out-graph", str(tmp_path / "missing" / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: PARSE_ERROR: cannot write") for line in err)

    @pytest.mark.parametrize(
        "operation, needs",
        [("subdivide", "--edge"), ("homeo", "--vertex"),
         ("delete-vertex", "--vertex"), ("span", "at least one --keep")],
    )
    def test_missing_operand_is_input_error(self, tmp_path, capsys, operation, needs):
        # The operands are checked before any file is read: the files are missing.
        code, text = run(
            ["transform", operation,
             "--graph", str(tmp_path / "missing.graph"),
             "--labeling", str(tmp_path / "missing.labeling")]
        )
        assert (code, text) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: PARSE_ERROR: transform {operation} needs {needs}")

    def test_unknown_vertex_is_input_error(self, files, capsys):
        code, _ = run(
            ["transform", "delete-vertex", "--vertex", "zz",
             "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING)]
        )
        assert code == 2
        assert "UNKNOWN_VERTEX" in capsys.readouterr().err


# sha256 of stdout, then the --out-graph file, then the --out-labeling file
# (joined by NUL bytes) of ``transform``, computed before the four transforms
# shared one rebuild step: every output must stay byte-identical.
GOLDEN_TRANSFORMS = {
    "subdivide-triangle": (
        ["subdivide", "--edge", "u v"], TRIANGLE_GRAPH, TRIANGLE_LABELING,
        "f8fc5555f76f87f8afafc635cd0734e39ab1c3d465a49665a8704cab8835467f",
    ),
    "subdivide-prefix-named-path": (
        ["subdivide", "--edge", "v1 v10"], "v1 v10\nv10 v2\n",
        "universe_max = 6\nv1: {0,1}\nv10: {2}\nv2: {0,2}\n",
        "0052d65a019a04ce3769dcb28cdb1b1166a2c51d9c8046535812c7ec16a020a6",
    ),
    "subdivide-default-name-taken": (
        ["subdivide", "--edge", "u v"], "u v\nv u*v\n",
        "universe_max = 8\nu: {0,1}\nv: {0,2}\nu*v: {5}\n",
        "4ffe850900b67aa8745decaa23d781967d582be72903ac0c2d6096b6e0c0bef9",
    ),
    "homeo-path": (
        ["homeo", "--vertex", "b"], "a b\nb c\n",
        "universe_max = 4\na: {0,1}\nb: {4}\nc: {2,3}\n",
        "5a66fcd9f900c36e86cfda02a5fbe82a49e9e8847d937ae875bde9191b8537ce",
    ),
    "delete-vertex-triangle": (
        ["delete-vertex", "--vertex", "w"], TRIANGLE_GRAPH, TRIANGLE_LABELING,
        "72741876beedb2bcea0878e3932afadc3233fe795137fbbb10ae94e4e91d14c6",
    ),
    "span-unbalanced-triangle": (
        ["span", "--keep", "u v", "--keep", "u w"], UNBALANCED_GRAPH, UNBALANCED_LABELING,
        "8fd3e3a867f0b0843db958d1f346890f21dd7724b611a140dc7096bb724aeb0f",
    ),
}


@pytest.mark.parametrize(
    "operation, graph, labeling, expected",
    GOLDEN_TRANSFORMS.values(),
    ids=GOLDEN_TRANSFORMS.keys(),
)
def test_transform_outputs_match_golden_hashes(
    files, tmp_path, operation, graph, labeling, expected
):
    out_graph = tmp_path / "out.graph"
    out_labeling = tmp_path / "out.labeling"
    code, text = run(
        ["transform", *operation,
         "--graph", files("g", graph), "--labeling", files("l", labeling),
         "--out-graph", str(out_graph), "--out-labeling", str(out_labeling)]
    )
    assert code == 0
    blob = "\0".join([text, out_graph.read_text(), out_labeling.read_text()])
    assert hashlib.sha256(blob.encode()).hexdigest() == expected


class TestEnumerate:
    def test_k2_count_six(self, files):
        code, text = run(
            ["enumerate", "--graph", files("g", K2_GRAPH),
             "--universe-max", "1", "--max-label-size", "2"]
        )
        assert code == 0
        assert text.strip().endswith("COUNT=6")
        assert "u={0} v={1}" in text

    def test_limit_caps_lines_not_count(self, files):
        code, text = run(
            ["enumerate", "--graph", files("g", K2_GRAPH),
             "--universe-max", "1", "--max-label-size", "2", "--limit", "2"]
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.startswith("u=")]
        assert len(lines) == 2
        assert "COUNT=6" in text

    def test_negative_limit_is_input_error(self, files, capsys):
        code, text = run(
            ["enumerate", "--graph", files("g", K2_GRAPH),
             "--universe-max", "2", "--max-label-size", "2", "--limit", "-1"]
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: PARSE_ERROR: ")


class TestVerify:
    def test_rev_triangle_exit_one(self, files, tmp_path):
        out = str(tmp_path / "report.txt")
        code, text = run(
            ["verify", "--theorem", "BALANCE_BIPARTITE_REV", "--family", "triangle",
             "--universe-max", "4", "--max-label-size", "3", "--out", out]
        )
        assert code == 1
        assert "verdict = COUNTEREXAMPLE_FOUND" in text
        assert open(out).read() == text

    def test_rev_odd_only_exit_zero(self, files):
        code, text = run(
            ["verify", "--theorem", "BALANCE_BIPARTITE_REV", "--family", "triangle",
             "--universe-max", "4", "--max-label-size", "3", "--odd-ratios-only"]
        )
        assert code == 0
        assert "verdict = CONFIRMED_WITHIN_BOUNDS" in text

    def test_unknown_theorem_exit_two(self, capsys):
        code, _ = run(
            ["verify", "--theorem", "NOPE", "--family", "triangle",
             "--universe-max", "2", "--max-label-size", "2"]
        )
        assert code == 2
        assert "UNKNOWN_THEOREM" in capsys.readouterr().err

    def test_unwritable_report_is_input_error(self, tmp_path, capsys):
        code, _ = run(
            ["verify", "--theorem", "POSITIVE_EDGE", "--family", "triangle",
             "--universe-max", "2", "--max-label-size", "2",
             "--out", str(tmp_path / "missing" / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: PARSE_ERROR: cannot write") for line in err)

    @pytest.mark.parametrize(
        "flag, value",
        [("--universe-max", "-1"), ("--max-label-size", "0"), ("--max-vertices", "0")],
    )
    def test_out_of_range_bound_is_input_error(self, capsys, flag, value):
        bounds = {"--universe-max": "2", "--max-label-size": "2", flag: value}
        argv = ["verify", "--theorem", "CARDINALITY", "--family", "triangle"]
        for name, text in bounds.items():
            argv += [name, text]
        code, _ = run(argv)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: PARSE_ERROR") for line in err)

    @pytest.mark.parametrize("family", ["connected:0", "connected:-3", "bipartite:-1"])
    def test_empty_family_is_input_error(self, capsys, family):
        code, text = run(
            ["verify", "--theorem", "BALANCE_BIPARTITE_REV", "--family", family,
             "--universe-max", "2", "--max-label-size", "2"]
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: PARSE_ERROR: ")

    def test_candidate_set_cap_exit_three(self, capsys):
        code, text = run(
            ["verify", "--theorem", "CARDINALITY", "--family", "triangle",
             "--universe-max", "60", "--max-label-size", "10"]
        )
        assert code == 3 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: BOUND_EXCEEDED: ")

    def test_bad_family_exit_two(self, capsys):
        code, _ = run(
            ["verify", "--theorem", "CARDINALITY", "--family", "blob:9",
             "--universe-max", "2", "--max-label-size", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "family", ["path:1_0", "connected:\u0663", "cycle:+5", "biclique:2,\u0663"]
    )
    def test_family_integer_in_other_than_ascii_digits_is_input_error(self, capsys, family):
        code, text = run(
            ["verify", "--theorem", "BALANCE_BIPARTITE_REV", "--family", family,
             "--universe-max", "2", "--max-label-size", "2"]
        )
        assert code == 2 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: PARSE_ERROR: ")

    def test_out_of_memory_exit_three(self, monkeypatch):
        def exhaust(*args):
            raise MemoryError

        class Stderr(io.StringIO):
            def write(self, text):
                # The line is written once the MemoryError, and with it the
                # exhausted search's frames, has been released.
                assert sys.exc_info() == (None, None, None)
                return super().write(text)

        monkeypatch.setattr(cli, "verify_theorem", exhaust)
        monkeypatch.setattr(sys, "stderr", Stderr())
        code, text = run(
            ["verify", "--theorem", "BALANCE_BIPARTITE_REV", "--family", "connected:6",
             "--universe-max", "4", "--max-label-size", "2"]
        )
        assert code == 3 and text == ""
        err = sys.stderr.getvalue().splitlines()
        assert len(err) == 1 and err[0].startswith("error: BOUND_EXCEEDED: ")

    def test_oversize_family_spec_exit_three(self, capsys):
        # The pair theorems use no family member, but the spec is still checked.
        code, text = run(
            ["verify", "--theorem", "POSITIVE_EDGE", "--family", "path:13",
             "--universe-max", "2", "--max-label-size", "2"]
        )
        assert code == 3 and text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: BOUND_EXCEEDED: ")


@pytest.mark.parametrize("value", ["٣", "1_0", "+5"])
@pytest.mark.parametrize(
    "source",
    ["--universe-max", "--max-label-size", "--max-vertices", "--limit",
     "--cycle-bound", "SUMSIGN_CYCLE_BOUND"],
)
def test_numeric_input_takes_ascii_digits_only(files, monkeypatch, capsys, source, value):
    if source == "--limit":
        bounds = {"--universe-max": "1", "--max-label-size": "2", "--limit": value}
        argv = ["enumerate", "--graph", files("g", K2_GRAPH)]
        argv += [text for item in bounds.items() for text in item]
    elif source in ("--cycle-bound", cli.ENV_CYCLE_BOUND):
        argv = ["check", "balance", "--graph", files("g", TRIANGLE_GRAPH),
                "--labeling", files("l", TRIANGLE_LABELING)]
        if source == "--cycle-bound":
            argv = [source, value] + argv
        else:
            monkeypatch.setenv(source, value)
    else:
        bounds = {"--universe-max": "2", "--max-label-size": "2", source: value}
        argv = ["verify", "--theorem", "POSITIVE_EDGE", "--family", "triangle"]
        argv += [text for item in bounds.items() for text in item]
    code, text = run(argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: PARSE_ERROR: ")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, files):
        graph = files("g", TRIANGLE_GRAPH)
        labeling = files("l", TRIANGLE_LABELING)
        for argv in (
            ["derive", "--graph", graph, "--labeling", labeling],
            ["check", "balance", "--graph", graph, "--labeling", labeling],
            ["verify", "--theorem", "POSITIVE_EDGE", "--family", "triangle",
             "--universe-max", "3", "--max-label-size", "2"],
        ):
            first = run(argv)
            second = run(argv)
            assert first == second


# ---------------------------------------------------------------------------
# Fuzzed inputs: whatever the files hold, the CLI ends with a documented exit
# code and reports failures only as "error: CODE: message" lines.
# ---------------------------------------------------------------------------

VERTEX_IDS = ["a", "b", "c", "d", "e", "v1", "v10", "a*b"]
vertex_id = st.one_of(
    st.sampled_from(VERTEX_IDS),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
)
junk_line = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
graph_text = st.lists(
    st.one_of(
        st.tuples(vertex_id, vertex_id).map(" ".join),
        vertex_id.map("vertex {}".format),
        junk_line,
    ),
    max_size=8,
).map("\n".join)
set_literal = st.one_of(
    st.lists(st.integers(0, 12), max_size=4).map(
        lambda xs: "{" + ",".join(map(str, xs)) + "}"
    ),
    junk_line,
)
labeling_text = st.lists(
    st.one_of(
        st.tuples(vertex_id, set_literal).map(": ".join),
        st.one_of(st.integers(0, 12).map(str), junk_line).map("universe_max = {}".format),
        junk_line,
    ),
    max_size=8,
).map("\n".join)
command = st.one_of(
    st.just(["derive"]),
    st.sampled_from(["aiasl", "iasi", "balance", "cluster"]).map(lambda p: ["check", p]),
    st.tuples(vertex_id, vertex_id).map(
        lambda e: ["transform", "subdivide", f"--edge={e[0]} {e[1]}"]
    ),
    st.tuples(st.sampled_from(["homeo", "delete-vertex"]), vertex_id).map(
        lambda t: ["transform", t[0], f"--vertex={t[1]}"]
    ),
    st.lists(st.tuples(vertex_id, vertex_id), min_size=1, max_size=3).map(
        lambda keep: ["transform", "span"] + [f"--keep={u} {v}" for u, v in keep]
    ),
)


def assert_exit_code_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run(argv)
    assert code in (0, 1, 2, 3)
    assert all(line.startswith("error: ") for line in err.getvalue().splitlines())


@settings(max_examples=150, deadline=None)
@given(
    graph=graph_text,
    labeling=labeling_text,
    cmd=command,
    strict=st.booleans(),
    cycle_bound=st.one_of(st.none(), st.integers(-2, 8)),
)
def test_fuzzed_inputs_keep_the_exit_code_contract(graph, labeling, cmd, strict, cycle_bound):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "g"
        labeling_path = Path(tmp) / "l"
        graph_path.write_text(graph, encoding="utf-8")
        labeling_path.write_text(labeling, encoding="utf-8")
        argv = [] if cycle_bound is None else [f"--cycle-bound={cycle_bound}"]
        argv += cmd + ["--graph", str(graph_path), "--labeling", str(labeling_path)]
        if strict:
            argv.append("--strict-universe")
        assert_exit_code_contract(argv)


# Tiny bounds keep every search small: at most 4 vertices in a family
# member, at most 5 in a fuzzed graph, and at most 10 candidate label sets.
# Family specs include malformed and negative integers.
bound_flags = st.tuples(st.integers(0, 3), st.integers(1, 2), st.integers(1, 5)).map(
    lambda b: [f"--universe-max={b[0]}", f"--max-label-size={b[1]}", f"--max-vertices={b[2]}"]
)
family_spec = st.one_of(
    st.sampled_from(["triangle", "path:1_0", "connected:\u0663", "cycle:+5", "blob:2"]),
    st.tuples(
        st.sampled_from(["connected", "bipartite", "path", "cycle", "star", "complete"]),
        st.integers(-1, 3),
    ).map(lambda t: f"{t[0]}:{t[1]}"),
    st.tuples(st.integers(-1, 2), st.integers(-1, 2)).map(lambda t: f"biclique:{t[0]},{t[1]}"),
    junk_line,
)
theorem = st.sampled_from([t.value for t in TheoremId] + ["NOPE"])
search_flags = st.tuples(bound_flags, st.booleans(), st.booleans()).map(
    lambda t: t[0] + ["--strict-universe"] * t[1] + ["--odd-ratios-only"] * t[2]
)


@settings(max_examples=150, deadline=None)
@given(theorem=theorem, family=family_spec, flags=search_flags)
def test_fuzzed_verify_keeps_the_exit_code_contract(theorem, family, flags):
    assert_exit_code_contract(["verify", f"--theorem={theorem}", f"--family={family}"] + flags)


@settings(max_examples=100, deadline=None)
@given(graph=graph_text, limit=st.one_of(st.none(), st.integers(-1, 3)), flags=search_flags)
def test_fuzzed_enumerate_keeps_the_exit_code_contract(graph, limit, flags):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = Path(tmp) / "g"
        graph_path.write_text(graph, encoding="utf-8")
        argv = ["enumerate", f"--graph={graph_path}"] + flags
        if limit is not None:
            argv.append(f"--limit={limit}")
        assert_exit_code_contract(argv)
