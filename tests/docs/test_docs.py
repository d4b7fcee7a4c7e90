"""Docs cannot rot: execute snippets, resolve links, smoke the examples.

Four layers of protection, all cheap enough for tier-1:

* every ``python`` fenced block in ``docs/API.md``, ``docs/CLOUD.md``
  and ``docs/KERNELS.md`` executes, in order, in one shared namespace
  per document (the blocks are written as a continuous session);
* every cross-reference in ``docs/*.md`` resolves: markdown links point
  at files that exist, ``#anchor`` fragments and ``[[...]]``-style
  anchors match a real heading slug somewhere in the docs;
* the kernels handbook tracks the kernel layer: every public kernel name
  must be mentioned in ``docs/KERNELS.md`` (snippet drift fails the docs
  job);
* every ``examples/*.py`` script imports cleanly (the docs CI job
  additionally *runs* them end to end).
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
DOCS = REPO / "docs"
DOC_FILES = sorted(DOCS.glob("*.md"))
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_WIKI_ANCHOR = re.compile(r"\[\[([^\]]+)\]\]")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXECUTABLE_DOCS = ["API.md", "CLOUD.md", "FIGURES.md", "KERNELS.md"]


def python_blocks(path: Path) -> list[str]:
    return _FENCE.findall(path.read_text())


def heading_slug(title: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    slug = title.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return re.sub(r"\s+", "-", slug).strip("-")


def doc_slugs(path: Path) -> set[str]:
    return {heading_slug(m) for m in _HEADING.findall(path.read_text())}


ALL_SLUGS = {slug for path in DOC_FILES for slug in doc_slugs(path)}


class TestDocSnippets:
    @pytest.mark.parametrize("doc", _EXECUTABLE_DOCS)
    def test_has_snippets(self, doc):
        assert len(python_blocks(DOCS / doc)) >= 8

    @pytest.mark.parametrize("doc", _EXECUTABLE_DOCS)
    def test_snippets_execute(self, doc):
        """The whole document runs as one session, top to bottom."""
        namespace: dict = {}
        for i, block in enumerate(python_blocks(DOCS / doc)):
            try:
                exec(compile(block, f"docs/{doc}[block {i}]", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - the failure path
                pytest.fail(f"docs/{doc} block {i} failed: {exc!r}\n{block}")


class TestKernelsHandbookDrift:
    def test_every_public_kernel_documented(self):
        """Adding a kernel without documenting it fails the docs job."""
        from repro.graphkit import kernels

        text = (DOCS / "KERNELS.md").read_text()
        missing = [name for name in kernels.__all__ if name not in text]
        assert not missing, f"docs/KERNELS.md does not mention: {missing}"


class TestFiguresHandbookDrift:
    def test_every_registered_figure_documented(self):
        """Registering a figure without documenting it fails the docs job."""
        from repro.bench import FIGURES

        text = (DOCS / "FIGURES.md").read_text()
        missing = [f"`{name}`" for name in FIGURES if f"`{name}`" not in text]
        assert not missing, f"docs/FIGURES.md does not mention: {missing}"

    def test_declared_inputs_documented(self):
        """The run JSON the bench figures read appears in the handbook."""
        from repro.bench.registry import BENCH_JSON

        text = (DOCS / "FIGURES.md").read_text()
        assert BENCH_JSON.name in text

    def test_readme_bench_table_generated(self):
        """The README speedup table is the generated string, verbatim.

        Hand-editing the numbers breaks this pin; regenerating
        ``BENCH_vectorized.json`` and re-emitting the table is the only
        way to change them.
        """
        from repro.bench import kernel_speedup_markdown, load_run_json

        payload = load_run_json(REPO / "BENCH_vectorized.json")
        table = kernel_speedup_markdown(payload)
        assert table in (REPO / "README.md").read_text(), (
            "README.md speedup table is out of sync with "
            "BENCH_vectorized.json; regenerate it with "
            "repro.bench.reporting.kernel_speedup_markdown"
        )


class TestExamplesSmoke:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_example_imports(self, path):
        """Import-and-smoke: the module loads and exposes main()."""
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # type: ignore[union-attr]
        assert callable(getattr(module, "main", None)), f"{path.name} has no main()"


class TestDocsLinks:
    """Every docs/*.md cross-reference and [[...]] anchor must resolve."""

    @pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
    def test_markdown_links_resolve(self, path):
        text = path.read_text()
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            resolved = (path.parent / base).resolve() if base else path
            assert resolved.exists(), f"{path.name}: broken link {target!r}"
            if fragment and resolved.suffix == ".md":
                assert fragment in doc_slugs(resolved), (
                    f"{path.name}: anchor #{fragment} not found in {base or path.name}"
                )

    @pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
    def test_wiki_anchors_resolve(self, path):
        for anchor in _WIKI_ANCHOR.findall(path.read_text()):
            assert anchor in ALL_SLUGS, (
                f"{path.name}: [[{anchor}]] matches no docs/*.md heading; "
                f"known slugs include {sorted(ALL_SLUGS)[:8]}..."
            )

    def test_docs_exist(self):
        assert (DOCS / "ARCHITECTURE.md").is_file()
        assert (DOCS / "API.md").is_file()
        assert (DOCS / "CLOUD.md").is_file()
        assert (DOCS / "KERNELS.md").is_file()
        assert (DOCS / "FIGURES.md").is_file()

    def test_docs_link_each_other(self):
        assert "API.md" in (DOCS / "ARCHITECTURE.md").read_text()
        assert "CLOUD.md" in (DOCS / "ARCHITECTURE.md").read_text()
        assert "KERNELS.md" in (DOCS / "ARCHITECTURE.md").read_text()
        assert "FIGURES.md" in (DOCS / "ARCHITECTURE.md").read_text()
        assert "ARCHITECTURE.md" in (DOCS / "API.md").read_text()
        assert "ARCHITECTURE.md" in (DOCS / "CLOUD.md").read_text()
        assert "ARCHITECTURE.md" in (DOCS / "KERNELS.md").read_text()
        assert "ARCHITECTURE.md" in (DOCS / "FIGURES.md").read_text()

    def test_readme_links_docs_and_bench(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/API.md" in readme
        assert "docs/KERNELS.md" in readme
        assert "docs/FIGURES.md" in readme
        assert "BENCH_vectorized.json" in readme
        assert "python -m repro.bench.figures --all" in readme
