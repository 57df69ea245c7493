"""End-to-end command-line behavior: verbs, formats, exit codes."""

import io

import pytest

from sumsign import cli
from sumsign.graphs import parse_graph
from sumsign.labeling import derive, parse_labeling

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

    def test_missing_operand_is_input_error(self, files, capsys):
        code, _ = run(
            ["transform", "subdivide",
             "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING)]
        )
        assert code == 2

    def test_unknown_vertex_is_input_error(self, files, capsys):
        code, _ = run(
            ["transform", "delete-vertex", "--vertex", "zz",
             "--graph", files("g", TRIANGLE_GRAPH),
             "--labeling", files("l", TRIANGLE_LABELING)]
        )
        assert code == 2
        assert "UNKNOWN_VERTEX" in capsys.readouterr().err


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

    def test_bad_family_exit_two(self, capsys):
        code, _ = run(
            ["verify", "--theorem", "CARDINALITY", "--family", "blob:9",
             "--universe-max", "2", "--max-label-size", "2"]
        )
        assert code == 2


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

    def test_format_plain_accepted(self, files):
        code, _ = run(
            ["--format", "plain", "derive",
             "--graph", files("g", K2_GRAPH), "--labeling", files("l", K2_LABELING)]
        )
        assert code == 0
