"""CLI coverage for the ``adaptive`` and ``validate`` subcommands."""

import re

import pytest

from repro.__main__ import main


class TestAdaptive:
    def test_adaptive_reoptimizes_and_verifies(self, capsys):
        assert main(
            ["adaptive", "--rows-big", "1500", "--rows-small", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "static plan:" in out
        assert "differential check vs static plan: PASS" in out
        assert "executed-cost ratio static/adaptive:" in out

    def test_accurate_statistics_single_attempt(self, capsys):
        assert main(
            [
                "adaptive", "--accurate",
                "--rows-big", "1200", "--rows-small", "150",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert re.search(r"executions:\s+1\b", out)
        assert re.search(r"checkpoint violations:\s+0\b", out)

    def test_budget_flag_produces_anytime_plan(self, capsys):
        assert main(
            [
                "adaptive", "--budget", "5",
                "--rows-big", "1200", "--rows-small", "150",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "budget exhausted" in out

    @pytest.mark.parametrize("spec", ["", "x", "5:y", "1:2:3:4", "-1"])
    def test_malformed_budget_rejected(self, spec, capsys):
        with pytest.raises(SystemExit):
            main(["adaptive", "--budget", spec])

    def test_qerror_threshold_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["adaptive", "--qerror-threshold", "0.5"])


class TestValidate:
    def test_builtin_rules_pass_strict(self, capsys):
        assert main(["validate", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "rule set is VALID" in out
        assert "0 error(s), 0 warning(s)" in out

    @pytest.mark.parametrize("rules", ["base", "extended", "all"])
    def test_every_builtin_set_validates(self, rules, capsys):
        assert main(["validate", "--rules", rules]) == 0

    def test_warning_file_passes_by_default(self, tmp_path, capsys):
        rules = tmp_path / "rules.star"
        rules.write_text(
            """
            star S(T) exclusive {
                alt if local_query() -> ACCESS(T, {}, {});
                alt if needs_temp(T) -> ACCESS(T, {}, {});
            }
            """
        )
        assert main(["validate", str(rules)]) == 0
        out = capsys.readouterr().out
        assert "warning:" in out
        assert "unconditional final alternative" in out

    def test_warning_file_fails_strict(self, tmp_path, capsys):
        rules = tmp_path / "rules.star"
        rules.write_text(
            """
            star S(T) exclusive {
                alt if local_query() -> ACCESS(T, {}, {});
                alt if needs_temp(T) -> ACCESS(T, {}, {});
            }
            """
        )
        assert main(["validate", str(rules), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "rule set is VALID" in out  # warnings, not errors
        assert "strict" in out

    def test_error_file_fails(self, tmp_path, capsys):
        rules = tmp_path / "rules.star"
        rules.write_text("star S(T) { alt -> Missing(T); }")
        assert main(["validate", str(rules)]) == 1
        out = capsys.readouterr().out
        assert "rule set is INVALID" in out
