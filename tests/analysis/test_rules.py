"""Per-family rule tests: one true-positive and one clean fixture each.

The fixture snippets live in ``tests/analysis/fixtures/`` and are only
ever *parsed* — the stage fixtures reference undefined ``Stage`` /
``SparsifyPipeline`` names that never need to resolve.  Path-scoped
rules (R102 order-sensitivity, R403 docstring audit) are pointed at the
fixture directory through a tailored :class:`LintConfig`.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import LintConfig, lint_files

FIXTURES = Path(__file__).parent / "fixtures"

#: Config that treats the fixture dir as order-sensitive and audited.
FIXTURE_CONFIG = LintConfig(
    order_sensitive=("fixtures/",),
    docstring_packages=("fixtures/",),
)


def _rules(path: Path, config: LintConfig = FIXTURE_CONFIG):
    result = lint_files([path], config)
    return [f.rule for f in result.findings], result


def test_determinism_bad_fixture_fires():
    rules, result = _rules(FIXTURES / "det_bad.py")
    assert rules.count("R101") == 5
    assert rules.count("R102") == 2
    for finding in result.findings:
        assert finding.line > 0
        assert str(FIXTURES / "det_bad.py") in finding.path


def test_determinism_clean_fixture_passes():
    rules, _ = _rules(FIXTURES / "det_clean.py")
    assert "R101" not in rules
    assert "R102" not in rules


def test_contracts_bad_fixture_fires():
    rules, result = _rules(FIXTURES / "contracts_bad.py")
    assert "R201" in rules  # undeclared ctx.heats read in LeakyStage
    assert "R202" in rules  # undeclared ctx.candidates write
    assert "R203" in rules  # dead requires=edge_mask
    assert "R204" in rules  # consumer ordered before producer
    by_rule = {f.rule: f for f in result.findings}
    assert by_rule["R201"].symbol == "LeakyStage"
    assert "heats" in by_rule["R201"].message
    assert by_rule["R202"].symbol == "LeakyStage"
    assert "candidates" in by_rule["R202"].message
    assert by_rule["R204"].symbol == "ConsumerStage"


def test_contracts_clean_fixture_passes():
    rules, _ = _rules(FIXTURES / "contracts_clean.py")
    assert not {"R201", "R202", "R203", "R204"} & set(rules)


def test_kernels_bad_fixture_fires():
    """A routine call in a stage body hides no dataflow from R201/R202."""
    rules, result = _rules(FIXTURES / "kernels_bad.py")
    assert rules.count("R201") == 1
    assert rules.count("R202") == 1
    by_rule = {f.rule: f for f in result.findings}
    assert by_rule["R201"].symbol == "EmbedStage"
    assert "off_tree" in by_rule["R201"].message
    assert by_rule["R202"].symbol == "ThresholdStage"
    assert "candidates" in by_rule["R202"].message
    for finding in result.findings:
        assert finding.line > 0


def test_kernels_clean_fixture_passes():
    rules, _ = _rules(FIXTURES / "kernels_clean.py")
    assert not {"R201", "R202", "R203", "R204"} & set(rules)


def test_locks_bad_fixture_fires():
    rules, result = _rules(FIXTURES / "locks_bad.py")
    assert rules.count("R301") == 3  # dict store, counter bump, .clear()
    symbols = {f.symbol for f in result.findings if f.rule == "R301"}
    assert symbols == {"LeakyStore.put", "LeakyStore.drain"}


def test_locks_clean_fixture_passes():
    rules, _ = _rules(FIXTURES / "locks_clean.py")
    assert "R301" not in rules


def test_hygiene_bad_fixture_fires():
    rules, result = _rules(FIXTURES / "hygiene_bad.py")
    assert "R401" in rules  # bare except
    assert rules.count("R402") == 2  # two mutable defaults
    r403 = [f for f in result.findings if f.rule == "R403"]
    symbols = {f.symbol for f in r403}
    assert {"undocumented", "sloppy", "Widget.poke"} <= symbols


def test_hygiene_clean_fixture_passes():
    rules, _ = _rules(FIXTURES / "hygiene_clean.py")
    assert not {"R401", "R402", "R403"} & set(rules)


def test_rule_subset_filter():
    rules, _ = _rules(
        FIXTURES / "det_bad.py",
        LintConfig(order_sensitive=("fixtures/",), rules=("R102",)),
    )
    assert set(rules) == {"R102"}


def test_observability_bad_fixture_fires():
    rules, result = _rules(FIXTURES / "obs_bad.py")
    assert rules.count("R501") == 3  # manual enter/exit, alias, expression
    for finding in result.findings:
        if finding.rule == "R501":
            assert "with" in finding.message
            assert finding.line > 0


def test_observability_clean_fixture_passes():
    rules, _ = _rules(FIXTURES / "obs_clean.py")
    assert "R501" not in rules


def test_metric_name_bad_fixture_fires():
    rules, result = _rules(FIXTURES / "metrics_bad.py")
    # non-literal name, missing prefix, counter sans _total, computed
    # labelnames, bad case via alias
    assert rules.count("R502") == 5
    messages = [f.message for f in result.findings if f.rule == "R502"]
    assert any("string literal" in m for m in messages)
    assert any("repro_[a-z]" in m for m in messages)
    assert any("_total" in m for m in messages)
    assert any("labelnames" in m for m in messages)


def test_metric_name_clean_fixture_passes():
    rules, _ = _rules(FIXTURES / "metrics_clean.py")
    assert "R502" not in rules
