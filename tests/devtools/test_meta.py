"""Meta-tests: the rule set stays documented as it grows."""

import re
from pathlib import Path

from repro.devtools.lint.project_rules import ProjectRule
from repro.devtools.lint.rules import REGISTRY, Rule, all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC = REPO_ROOT / "docs" / "static-analysis.md"


class TestRuleHygiene:
    def test_registry_ids_are_well_formed_and_sorted(self):
        for rule_id, cls in REGISTRY.items():
            assert rule_id == cls.id
            assert rule_id.startswith("PFM") and rule_id[3:].isdigit()
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)

    def test_every_rule_has_docstring_title_and_severity(self):
        for cls in REGISTRY.values():
            assert cls.__doc__ and cls.__doc__.strip(), cls.id
            assert cls.doc(), cls.id
            assert cls.title, cls.id
            assert cls.severity in ("error", "warning"), cls.id

    def test_check_is_overridden(self):
        for cls in REGISTRY.values():
            assert cls.check is not Rule.check, cls.id

    def test_every_rule_has_a_positive_integer_version(self):
        for cls in REGISTRY.values():
            assert isinstance(cls.version, int) and cls.version >= 1, cls.id

    def test_project_rules_override_check_project(self):
        project_rules = [cls for cls in REGISTRY.values() if cls.project]
        assert project_rules, "PFM010+ should be registered"
        for cls in project_rules:
            assert issubclass(cls, ProjectRule), cls.id
            assert cls.check_project is not ProjectRule.check_project, cls.id

    def test_file_rules_are_not_marked_project(self):
        for cls in REGISTRY.values():
            if not cls.project:
                assert not issubclass(cls, ProjectRule), cls.id


class TestRuleDocs:
    def test_docs_page_exists(self):
        assert DOC.exists(), "docs/static-analysis.md is the rule catalogue"

    def test_every_rule_is_documented(self):
        text = DOC.read_text(encoding="utf-8")
        for rule_id in REGISTRY:
            assert rule_id in text, f"{rule_id} missing from {DOC.name}"

    def test_catalogue_lists_exactly_the_registered_rules(self):
        """A deleted rule takes its catalogue row with it (PFM000 is the
        engine's reserved parse-failure id, not a registered rule)."""
        text = DOC.read_text(encoding="utf-8")
        rows = set(re.findall(r"^\| (PFM\d{3}) \|", text, flags=re.MULTILINE))
        assert rows - {"PFM000"} == set(REGISTRY)

    def test_suppression_syntax_documented(self):
        text = DOC.read_text(encoding="utf-8")
        assert "pfmlint: disable=" in text
        assert "baseline" in text.lower()
