"""The docs link checker (tools/check_docs_links.py) over the repo's own
docs, and its reading of code: link syntax inside code is not a link."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _checker():
    path = REPO_ROOT / "tools" / "check_docs_links.py"
    spec = importlib.util.spec_from_file_location("check_docs_links", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_docs_pass_the_link_check(capsys):
    assert _checker().main() == 0, capsys.readouterr().err


def test_links_inside_code_are_not_links(tmp_path):
    checker = _checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "page.md").write_text(
        "A formula:\n"
        "\n"
        "```\n"
        "[E | B | s](h) = [I | 0 | 0] + w @ M\n"
        "```\n"
        "\n"
        "~~~~\n"
        "[x](inside-tildes)\n"
        "```\n"
        "[y](still-inside)\n"
        "~~~~\n"
        "\n"
        "Inline: `[x](h)` and ``a `[z](tick)` b``.\n"
        "A real one: [missing](nowhere.md).\n"
    )
    (tmp_path / "README.md").write_text(
        "[page](docs/page.md)\n\n```\n[ghost](docs/ghost.md)\n```\n"
    )
    assert checker.broken_links(tmp_path) == [("docs/page.md", "nowhere.md")]
    # A page named only inside a README code block is not linked.
    (tmp_path / "docs" / "ghost.md").write_text("no links\n")
    assert checker.unlinked_docs(tmp_path) == ["docs/ghost.md"]
