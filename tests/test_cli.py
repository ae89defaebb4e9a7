"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def db_file(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(
        json.dumps(
            {
                "R1": [["ab", "ab"], ["ab", "ba"], ["b", "b"]],
                "R2": [["ab"], ["b"]],
            }
        )
    )
    return str(path)


class TestCheck:
    def test_satisfied(self, capsys):
        code = main(
            [
                "check",
                "--alphabet",
                "ab",
                "([x,y]l(x = y))* . [x,y]l(x = y = eps)",
                "x=abab",
                "y=abab",
            ]
        )
        assert code == 0
        assert "satisfied" in capsys.readouterr().out

    def test_not_satisfied(self, capsys):
        code = main(
            [
                "check",
                "--alphabet",
                "ab",
                "[x]l(x = 'a')",
                "x=b",
            ]
        )
        assert code == 1

    def test_missing_binding(self, capsys):
        code = main(["check", "--alphabet", "ab", "[x]l", "y=a"])
        assert code == 2
        assert "missing bindings" in capsys.readouterr().err

    def test_bad_binding_syntax(self, capsys):
        code = main(["check", "--alphabet", "ab", "[x]l", "x"])
        assert code == 2


class TestQuery:
    def test_selection_query(self, capsys, db_file):
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "--length",
                "3",
                "R2(x) & [x]l(x = 'a')",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip() == "ab"

    def test_generation_query_auto_length(self, capsys, db_file):
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "exists y, z: R2(y) & R2(z) & "
                "([x,y]l(x = y))* . ([x,z]l(x = z))* . [x,y,z]l(x = y = z = eps)",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.split()
        assert "abab" in lines and "bb" in lines

    def test_parallel_workers_and_stats(self, capsys, db_file, pooled):
        sequential = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "--length",
                "3",
                "--engine",
                "naive",
                "R2(x) & [x]l(x = 'a')",
            ]
        )
        assert sequential == 0
        expected = capsys.readouterr().out

        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "--length",
                "3",
                "--engine",
                "auto",
                "--workers",
                "2",
                "--stats",
                "R2(x) & [x]l(x = 'a')",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "parallel runs=1" in captured.err

    def test_explicit_engine_choice(self, capsys, db_file):
        for engine in ("naive", "algebra", "auto"):
            code = main(
                [
                    "query",
                    "--alphabet",
                    "ab",
                    "--db",
                    db_file,
                    "--head=x",
                    "--length",
                    "3",
                    "--engine",
                    engine,
                    "R2(x) & [x]l(x = 'a')",
                ]
            )
            assert code == 0
            assert capsys.readouterr().out.strip() == "ab"

    def test_stats_flag_reports_caches(self, capsys, db_file):
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "--stats",
                "R2(x) & [x]l(x = 'a')",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "cache compile" in err
        assert "engine auto" in err

    def test_self_describing_db(self, capsys, tmp_path):
        path = tmp_path / "described.json"
        path.write_text(
            json.dumps(
                {"alphabet": "ab", "relations": {"R2": [["ab"], ["b"]]}}
            )
        )
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                str(path),
                "--head=x",
                "--length",
                "3",
                "R2(x)",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.split() == ["ab", "b"]

    def test_mismatched_embedded_alphabet_fails(self, capsys, tmp_path):
        path = tmp_path / "described.json"
        path.write_text(
            json.dumps({"alphabet": "acgt", "relations": {"R2": [["a"]]}})
        )
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                str(path),
                "--head=x",
                "--length",
                "1",
                "R2(x)",
            ]
        )
        assert code == 2
        assert "alphabet" in capsys.readouterr().err

    def test_epsilon_rendering(self, capsys, db_file):
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "--length",
                "2",
                "{_} & !R2(x)",
            ]
        )
        assert code == 0
        assert "ε" in capsys.readouterr().out


class TestObservabilityFlags:
    QUERY = "R2(x) & [x]l(x = 'a')"

    def _run(self, db_file, *extra):
        return main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "--length",
                "3",
                *extra,
                self.QUERY,
            ]
        )

    def test_metrics_out_emits_schema_stable_json(self, capsys, db_file, tmp_path):
        path = tmp_path / "metrics.json"
        code = self._run(
            db_file,
            "--engine",
            "auto",
            "--workers",
            "2",
            "--metrics-out",
            str(path),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "ab"
        assert "metrics written to" in captured.err
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == "repro.trace-report/3"
        assert data["enabled"] is True
        assert set(data["stages"]) == {
            "compile",
            "specialize",
            "normalize",
            "translate",
            "optimize",
            "plan",
            "shard",
            "execute",
            "fold",
            "delta",
        }
        for bucket in data["stages"].values():
            assert set(bucket) == {"spans", "seconds"}
        assert data["spans"], "traced CLI run recorded no spans"

    def test_trace_prints_span_tree(self, capsys, db_file):
        code = self._run(db_file, "--trace")
        assert code == 0
        err = capsys.readouterr().err
        assert "engine.evaluate" in err

    def test_profile_prints_stage_table(self, capsys, db_file):
        code = self._run(db_file, "--profile")
        assert code == 0
        err = capsys.readouterr().err
        assert "stage        spans    seconds" in err
        for stage in ("compile", "translate", "fold"):
            assert stage in err

    def test_stats_kernel_line_counts_the_factor(self, capsys, db_file):
        code = main(
            [
                "query",
                "--alphabet",
                "ab",
                "--db",
                db_file,
                "--head=x",
                "--stats",
                "--trace",
                "R2(x) & ([x]l)* . [x]l(x = 'a') . [x]l(x = 'b')",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "ab"
        assert "determinized=1 factor=1" in captured.err

    def test_stats_alone_leaves_tracing_disabled(self, capsys, db_file):
        code = self._run(db_file, "--stats")
        assert code == 0
        err = capsys.readouterr().err
        assert "cache compile" in err
        assert "trace spans" not in err


class TestCompile:
    def test_text_listing(self, capsys):
        code = main(["compile", "--alphabet", "ab", "[x]l(x = 'a')"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tapes: x" in out
        assert "FSA" in out

    def test_dot_output(self, capsys):
        code = main(["compile", "--alphabet", "ab", "--dot", "[x]l"])
        assert code == 0
        assert "digraph" in capsys.readouterr().out


class TestLimit:
    def test_limited_direction(self, capsys):
        code = main(
            [
                "limit",
                "--alphabet",
                "ab",
                "--inputs=x",
                "--outputs=y",
                "([x,y]l(x = y))* . [x,y]l(x = y = eps)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "limited: True" in out

    def test_unlimited_direction(self, capsys):
        code = main(
            [
                "limit",
                "--alphabet",
                "ab",
                "--outputs=y",
                "([y]l(y = 'a'))* . [y]l(y = eps)",
            ]
        )
        assert code == 1
        assert "limited: False" in capsys.readouterr().out
