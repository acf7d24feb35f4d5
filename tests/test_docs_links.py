"""The docs link checker (tools/check_docs_links.py) — the repo's own
docs must pass it, and it must actually catch rot."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs_links", REPO_ROOT / "tools" / "check_docs_links.py")
check_docs_links = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs_links)


def test_repo_docs_have_no_dangling_links():
    assert check_docs_links.dangling(REPO_ROOT) == []


def test_main_exit_status(capsys):
    assert check_docs_links.main(["check_docs_links.py",
                                  str(REPO_ROOT)]) == 0
    assert "docs links OK" in capsys.readouterr().out


def test_detects_dangling_markdown_link(tmp_path):
    (tmp_path / "README.md").write_text(
        "see [the guide](docs/missing.md) for details\n")
    bad = check_docs_links.dangling(tmp_path)
    assert [(p.name, line, target) for p, line, target in bad] == [
        ("README.md", 1, "docs/missing.md")]


def test_detects_dangling_code_reference(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "notes.md").write_text(
        "the logic lives in `src/nowhere/ghost.py` now\n")
    bad = check_docs_links.dangling(tmp_path)
    assert len(bad) == 1
    assert bad[0][2] == "src/nowhere/ghost.py"


def test_smoke_output_does_not_satisfy_a_reference(tmp_path):
    # A file that exists only in a git-ignored output directory, at the
    # top level or below it, is absent from a fresh clone, so naming it
    # is still a dangling link, by bare name or by full path.
    (tmp_path / ".gitignore").write_text(
        "# local output\n.repro_scenarios_smoke/\nbench/out/\n")
    for output, name in ((".repro_scenarios_smoke", "summary.json"),
                         ("bench/out", "results.json")):
        (tmp_path / output).mkdir(parents=True)
        (tmp_path / output / name).write_text("{}")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "smoke.md").write_text(
        "the smoke run writes `summary.json`\n"
        "the benchmark writes `results.json` (`bench/out/results.json`)\n")
    bad = check_docs_links.dangling(tmp_path)
    assert [(p.name, line, target) for p, line, target in bad] == [
        ("smoke.md", 1, "summary.json"), ("smoke.md", 2, "results.json"),
        ("smoke.md", 2, "bench/out/results.json")]


def test_accepts_valid_references(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "docs" / "guide.md").write_text("# guide\n")
    (tmp_path / "README.md").write_text(
        "read [the guide](docs/guide.md); code in `mod.py` and\n"
        "`src/mod.py`; externals like <https://example.com> and\n"
        "[site](https://example.com/x.md) are skipped, as are\n"
        "[anchors](#section) and knobs like `epoch_us`.\n")
    (tmp_path / "docs" / "other.md").write_text(
        "sibling [guide](guide.md) resolves relative to docs/\n")
    assert check_docs_links.dangling(tmp_path) == []


def test_main_reports_failures(tmp_path, capsys):
    (tmp_path / "README.md").write_text("[x](gone.md)\n")
    assert check_docs_links.main(["check_docs_links.py",
                                  str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "README.md:1" in out and "gone.md" in out
