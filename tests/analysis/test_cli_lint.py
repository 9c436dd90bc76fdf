"""The ``repro lint`` command, including the golden-file contract.

To regenerate the golden document after an intentional output change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/analysis/test_cli_lint.py

then review the diff of ``tests/analysis/golden/`` like any other code
change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
DEFECTIVE = FIXTURES / "defective_bundle.json"
GOLDEN_LINT = GOLDEN / "defective_bundle.lint.json"
CLEAN_EXAMPLE = (Path(__file__).parent.parent.parent
                 / "examples" / "preservation_bundle.json")


def _analyze_defective():
    with DEFECTIVE.open(encoding="utf-8") as handle:
        document = json.load(handle)
    return Analyzer().analyze_document(document,
                                       source="defective_bundle.json")


class TestGolden:
    def test_lint_json_matches_golden(self):
        payload = _analyze_defective().to_dict()
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_LINT.write_text(rendered, encoding="utf-8")
            pytest.skip("golden file regenerated")
        assert rendered == GOLDEN_LINT.read_text(encoding="utf-8")

    def test_defective_bundle_spans_all_families(self):
        report = _analyze_defective()
        families = {d.family for d in report.diagnostics}
        assert families == {"workflow", "provenance", "storage", "vault"}
        # the acceptance bar: at least six distinct seeded defects
        assert len(report.rule_ids()) >= 6
        assert report.exit_code == 1


class TestCliLint:
    def test_defective_file_exits_nonzero(self, capsys):
        assert main(["lint", str(DEFECTIVE)]) == 1
        out = capsys.readouterr().out
        assert "error" in out
        assert "WF006" in out

    def test_clean_example_exits_zero(self, capsys):
        assert main(["lint", str(CLEAN_EXAMPLE)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_format(self, capsys):
        exit_code = main(["lint", "--format", "json", str(DEFECTIVE)])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["exit_code"] == 1
        assert payload["summary"]["error"] >= 1
        rules = {d["rule"] for d in payload["diagnostics"]}
        assert {"WF006", "PR003", "ST001", "VA001"} <= rules
        sources = {d["source"] for d in payload["diagnostics"]}
        assert sources == {str(DEFECTIVE)}

    def test_rules_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("WF001", "PR001", "ST001", "VA001"):
            assert rule_id in out

    def test_disable_rule(self, capsys):
        main(["lint", "--format", "json", "--disable", "WF006",
              str(DEFECTIVE)])
        payload = json.loads(capsys.readouterr().out)
        assert "WF006" not in {d["rule"] for d in payload["diagnostics"]}

    def test_unknown_disable_raises(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["lint", "--disable", "GHOST", str(DEFECTIVE)])
        assert exited.value.code == 2
        assert "unknown rule 'GHOST'" in capsys.readouterr().err

    def test_baseline_workflow(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--write-baseline", str(baseline),
                     str(DEFECTIVE)]) == 0
        capsys.readouterr()
        # every finding is now suppressed: exit 0, nothing reported
        assert main(["lint", "--baseline", str(baseline),
                     str(DEFECTIVE)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 info" in out
        assert "suppressed by baseline" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["lint", "no_such_file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_unrecognised_document_exits_two(self, tmp_path, capsys):
        weird = tmp_path / "weird.json"
        weird.write_text('{"hello": 1}', encoding="utf-8")
        assert main(["lint", str(weird)]) == 2
        assert "unrecognised" in capsys.readouterr().err
