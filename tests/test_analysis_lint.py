"""Every lint rule fires on its bad fixture and stays silent on good.

Fixtures live in ``tests/analysis_fixtures/``: one known-bad and one
known-good file per rule, plus ``suppressed.py`` exercising the inline
``# repro-lint: ignore[...]`` waiver syntax.
"""

from pathlib import Path

import pytest

from repro.analysis import LintConfig, Linter, all_rule_ids, lint_paths

FIXTURES = Path(__file__).parent / "analysis_fixtures"

RULE_FIXTURES = [
    ("DET001", "det001_bad.py", "det001_good.py"),
    ("DET002", "det002_bad.py", "det002_good.py"),
    ("DET003", "det003_bad.py", "det003_good.py"),
    ("DET004", "det004_bad.py", "det004_good.py"),
    ("DET005", "det005_bad.py", "det005_good.py"),
    ("UNIT001", "unit001_bad.py", "unit001_good.py"),
    ("UNIT002", "unit002_bad.py", "unit002_good.py"),
    ("UNIT003", "unit003_bad.py", "unit003_good.py"),
    ("UNIT004", "unit004_bad.py", "unit004_good.py"),
    ("UNIT005", "unit005_bad.py", "unit005_good.py"),
    ("UNIT006", "unit006_bad.py", "unit006_good.py"),
    ("PROC001", "proc001_bad.py", "proc001_good.py"),
    ("PROC002", "proc002_bad.py", "proc002_good.py"),
    ("PROC003", "proc003_bad.py", "proc003_good.py"),
    ("PROC004", "proc004_bad.py", "proc004_good.py"),
]


def lint_fixture(name, config=LintConfig()):
    return Linter(config=config).lint_paths([str(FIXTURES / name)])


def test_fixture_table_covers_every_rule():
    assert sorted(rule_id for rule_id, _, _ in RULE_FIXTURES) == sorted(
        all_rule_ids()
    )


@pytest.mark.parametrize("rule_id,bad,good", RULE_FIXTURES)
def test_rule_fires_on_bad_fixture(rule_id, bad, good):
    report = lint_fixture(bad)
    assert report.findings, f"{rule_id} produced no findings on {bad}"
    assert {f.rule_id for f in report.findings} == {rule_id}
    assert all(f.line > 0 for f in report.findings)


@pytest.mark.parametrize("rule_id,bad,good", RULE_FIXTURES)
def test_rule_silent_on_good_fixture(rule_id, bad, good):
    report = lint_fixture(good)
    assert report.ok, report.render()
    assert report.suppressed == []


def test_det001_flags_each_usage_site():
    report = lint_fixture("det001_bad.py")
    # import, from-import, and the three call sites.
    assert len(report.findings) == 5


def test_det003_sees_a_generator_stepped_in_place(tmp_path):
    # step_in_place runs the first step now, and that step schedules.
    source = tmp_path / "stepper.py"
    source.write_text(
        "from repro.sim import step_in_place\n"
        "\n"
        "\n"
        "def serve_all(sim, batches, done):\n"
        "    for batch in set(batches):\n"
        "        step_in_place(sim, batch, done)\n",
        encoding="utf-8",
    )
    report = lint_paths([str(source)])
    assert [(f.rule_id, f.line) for f in report.findings] == [("DET003", 5)]


def test_suppression_comment_silences_and_is_counted():
    report = lint_fixture("suppressed.py")
    assert report.ok, report.render()
    assert len(report.suppressed) == 3
    assert {s.rule_id for s in report.suppressed} == {"DET001", "DET004"}


def test_audit_render_lists_suppressions():
    report = lint_fixture("suppressed.py")
    rendered = report.render(audit=True)
    assert "Suppressions in effect (3):" in rendered
    assert "suppressed.py" in rendered


def test_rng_module_exemption():
    config = LintConfig(rng_modules=("analysis_fixtures/det001_bad.py",))
    report = lint_fixture("det001_bad.py", config=config)
    assert report.ok, report.render()


def test_wallclock_exemption():
    config = LintConfig(wallclock_exempt=("analysis_fixtures/det002_bad.py",))
    report = lint_fixture("det002_bad.py", config=config)
    assert report.ok, report.render()


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n", encoding="utf-8")
    report = lint_paths([str(bad)])
    assert not report.ok
    assert report.parse_errors and report.parse_errors[0].rule_id == "PARSE"


def test_missing_path_is_an_error_not_a_silent_pass():
    report = lint_paths(["no/such/path"])
    assert not report.ok
    assert report.parse_errors[0].rule_id == "IO"


def test_non_python_file_is_an_error(tmp_path):
    other = tmp_path / "notes.txt"
    other.write_text("hello", encoding="utf-8")
    report = lint_paths([str(other)])
    assert not report.ok
    assert report.parse_errors[0].rule_id == "IO"


def test_directory_discovery_finds_all_fixtures():
    report = lint_paths([str(FIXTURES)])
    assert report.files_checked == len(list(FIXTURES.glob("*.py")))
    bad_rule_ids = {f.rule_id for f in report.findings}
    assert bad_rule_ids == set(all_rule_ids())
