"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestDemo:
    def test_demo_runs_and_verifies(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "differential check vs naive evaluator: PASS" in out
        assert "JOIN" in out


class TestOptimize:
    def test_optimize_prints_plan(self, capsys):
        assert main(["optimize", "SELECT MGR FROM DEPT"]) == 0
        out = capsys.readouterr().out
        assert "estimated cost" in out
        assert "ACCESS" in out

    def test_execute_prints_rows(self, capsys):
        assert main(
            ["optimize", "SELECT NAME FROM EMP WHERE ENO = 3", "--execute"]
        ) == 0
        out = capsys.readouterr().out
        assert "executed:" in out

    def test_trace_flag(self, capsys):
        assert main(["optimize", "SELECT MGR FROM DEPT", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "AccessRoot" in out

    def test_synthetic_workload(self, capsys):
        assert main(
            ["optimize", "SELECT R0.ID FROM R0 WHERE R0.VAL < 5", "--workload", "chain:2"]
        ) == 0

    def test_rule_set_selection(self, capsys):
        assert main(
            ["optimize", "SELECT MGR FROM DEPT", "--rules", "base"]
        ) == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["optimize", "SELECT 1 FROM X", "--workload", "nope"])

    def test_unknown_rules_rejected(self):
        with pytest.raises(SystemExit):
            main(["optimize", "SELECT MGR FROM DEPT", "--rules", "nope"])


class TestRules:
    def test_print_rules(self, capsys):
        assert main(["rules", "--rules", "base"]) == 0
        out = capsys.readouterr().out
        assert "star JoinRoot" in out
        assert "star JMeth" in out

    def test_show_dsl(self, capsys):
        assert main(["rules", "--show-dsl"]) == 0
        out = capsys.readouterr().out
        assert "// ===== Single-table access" in out

    def test_validate_good_file(self, tmp_path, capsys):
        rule_file = tmp_path / "good.star"
        rule_file.write_text(
            "extend JMeth { alt if nonempty(SP) -> "
            "JOIN(MG, Glue(T1 [order = merge_cols(SP, T1)], {}), "
            "Glue(T2 [order = merge_cols(SP, T2)], IP), SP, P - (IP | SP)); }"
        )
        assert main(["validate", str(rule_file), "--extend-builtin"]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        rule_file = tmp_path / "bad.star"
        rule_file.write_text("star X(T) { alt -> Missing(T); }")
        assert main(["validate", str(rule_file)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "Missing" in out


class TestTrace:
    def test_trace_writes_chrome_file(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.json"
        assert main(["trace", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "trace event(s)" in out
        assert "star" in out and "executor" in out
        data = json.loads(out_file.read_text())
        assert data["traceEvents"]
        assert {e["ph"] for e in data["traceEvents"]} <= {"X", "i"}

    def test_trace_jsonl_output_validates(self, tmp_path):
        from repro.obs import validate_jsonl

        out_file = tmp_path / "trace.json"
        jsonl_file = tmp_path / "trace.jsonl"
        assert main([
            "trace", "SELECT MGR FROM DEPT",
            "--out", str(out_file), "--jsonl", str(jsonl_file),
        ]) == 0
        assert validate_jsonl(jsonl_file.read_text()) == []

    def test_self_check_passes(self, capsys):
        assert main(["trace", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert "trace self-check: PASS" in out


class TestAnalyze:
    def test_analyze_prints_operator_table(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "operator" in out and "q-error" in out
        assert "est rows" in out and "act rows" in out
        assert "plan-level Q-error" in out

    def test_analyze_with_sql_and_json(self, capsys):
        assert main([
            "analyze", "SELECT NAME FROM EMP WHERE ENO = 3", "--json",
        ]) == 0
        out = capsys.readouterr().out
        assert '"plan_q_error"' in out

    def test_analyze_metrics_snapshot(self, capsys):
        assert main(["analyze", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "analyze.plan_q_error" in out


class TestChaosTraceOut:
    def test_chaos_writes_jsonl_artifact(self, tmp_path, capsys):
        from repro.obs import validate_jsonl

        out_file = tmp_path / "chaos.jsonl"
        assert main([
            "chaos", "--kill-site", "N.Y.", "--link-failure-prob", "0.1",
            "--trace-out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "JSONL event log" in out
        text = out_file.read_text()
        assert validate_jsonl(text) == []
        assert '"cat": "chaos"' in text

    def test_chaos_trace_carries_checkpoint_feedback(self, tmp_path, capsys):
        # Seed 4 at a 0.5 link-failure rate fails over to a plan with a
        # materialization point, whose checkpoints record into the
        # optimizer's feedback cache: those records belong in the trace.
        out_file = tmp_path / "chaos.jsonl"
        assert main([
            "chaos", "--kill-site", "N.Y.", "--link-failure-prob", "0.5",
            "--seed", "4", "--trace-out", str(out_file),
        ]) == 0
        capsys.readouterr()
        text = out_file.read_text()
        assert '"name": "checkpoint"' in text
        assert text.count('"name": "feedback_record"') == 2
        # The trace is about the run: no optimizer spans.
        assert '"cat": "optimizer"' not in text
