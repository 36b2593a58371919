"""The docs/ subsystem stays wired: links resolve and CI's checker works."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docstrings import undocumented  # noqa: E402
from check_markdown_links import (  # noqa: E402
    check_file,
    github_slug,
    heading_slugs,
    markdown_files,
)


class TestRepositoryDocs:
    def test_docs_directory_exists_with_required_pages(self):
        assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
        assert (REPO_ROOT / "docs" / "BATCHING.md").is_file()
        assert (REPO_ROOT / "docs" / "ENGINE.md").is_file()

    def test_readme_links_the_docs_pages(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/BATCHING.md" in readme
        assert "docs/ENGINE.md" in readme

    def test_architecture_links_the_engine_page(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        assert "ENGINE.md" in architecture

    def test_no_broken_links_in_tracked_markdown(self):
        targets = [REPO_ROOT / "README.md", REPO_ROOT / "ROADMAP.md",
                   REPO_ROOT / "docs"]
        problems = []
        for path in markdown_files([str(target) for target in targets]):
            problems.extend(check_file(path))
        assert problems == []


class TestLinkChecker:
    def test_github_slug(self):
        assert github_slug("The cache key scheme") == "the-cache-key-scheme"
        assert github_slug("Batching: the batch axis") == "batching-the-batch-axis"
        assert github_slug("`code` and *emphasis*") == "code-and-emphasis"

    def test_detects_missing_file(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [other](missing.md)\n", encoding="utf-8")
        problems = check_file(page)
        assert len(problems) == 1
        assert problems[0][1] == "missing.md"

    def test_detects_missing_anchor(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Present\n", encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text("[ok](target.md#present) [bad](target.md#absent)\n",
                        encoding="utf-8")
        problems = check_file(page)
        assert [problem[1] for problem in problems] == ["target.md#absent"]

    def test_accepts_valid_relative_and_anchor_links(self, tmp_path):
        target = tmp_path / "sub" / "target.md"
        target.parent.mkdir()
        target.write_text("## A Section\n", encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text("[a](sub/target.md) [b](sub/target.md#a-section) "
                        "[c](#local)\n\n# Local\n", encoding="utf-8")
        assert check_file(page) == []

    def test_skips_external_links(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("[x](https://example.com/nope) [y](mailto:a@b.c)\n",
                        encoding="utf-8")
        assert check_file(page) == []

    def test_heading_slugs_skip_code_fences(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# Real\n```\n# not a heading\n```\n", encoding="utf-8")
        assert heading_slugs(page) == {"real"}

    def test_duplicate_headings_get_numbered_suffixes(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Setup\n\ntext\n\n# Setup\n\n# Setup\n",
                          encoding="utf-8")
        assert heading_slugs(target) == {"setup", "setup-1", "setup-2"}
        page = tmp_path / "page.md"
        page.write_text("[a](target.md#setup-2) [b](target.md#setup-3)\n",
                        encoding="utf-8")
        assert [problem[1] for problem in check_file(page)] == ["target.md#setup-3"]

    def test_setext_headings_are_anchors(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("Big Title\n=========\n\nSmaller One\n---\n\n"
                        "[a](#big-title) [b](#smaller-one) [c](#absent)\n",
                        encoding="utf-8")
        assert heading_slugs(page) >= {"big-title", "smaller-one"}
        assert [problem[1] for problem in check_file(page)] == ["#absent"]

    def test_html_anchors_are_recognised(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text('<a name="push-back"></a>\n\nSee [x](#push-back) '
                        "and [y](#missing)\n", encoding="utf-8")
        assert [problem[1] for problem in check_file(page)] == ["#missing"]


class TestDocstringChecker:
    def test_flags_missing_public_docstrings(self, tmp_path):
        module = tmp_path / "sample.py"
        module.write_text(
            '"""Module doc."""\n\n'
            "def documented():\n    \"\"\"ok\"\"\"\n\n"
            "def undocumented_function():\n    pass\n\n"
            "def _private():\n    pass\n\n"
            "class Thing:\n"
            "    \"\"\"ok\"\"\"\n\n"
            "    def method(self):\n        pass\n\n"
            "    def __repr__(self):\n        return ''\n",
            encoding="utf-8")
        names = [name for _, _, name in undocumented(module)]
        assert names == ["undocumented_function", "Thing.method"]

    def test_flags_missing_module_docstring(self, tmp_path):
        module = tmp_path / "bare.py"
        module.write_text("x = 1\n", encoding="utf-8")
        assert [name for _, _, name in undocumented(module)] == ["<module>"]

    def test_engine_and_verifier_surfaces_are_documented(self):
        targets = [REPO_ROOT / "src" / "repro" / "engine",
                   REPO_ROOT / "src" / "repro" / "verifiers",
                   REPO_ROOT / "src" / "repro" / "core" / "abonn.py",
                   REPO_ROOT / "src" / "repro" / "bab" / "baseline.py",
                   REPO_ROOT / "src" / "repro" / "baselines",
                   REPO_ROOT / "src" / "repro" / "bounds"]
        problems = []
        for target in targets:
            files = ([target] if target.is_file()
                     else sorted(target.rglob("*.py")))
            for path in files:
                problems.extend(undocumented(path))
        assert problems == []
