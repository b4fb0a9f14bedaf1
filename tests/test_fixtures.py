"""``scripts/make_fixtures.py`` is the oracle the goldens come from: run it
into a temporary directory and require the committed fixture tree back, byte
for byte, so a change to the generator, or a hand edit of a fixture, that the
other side does not match fails here."""

import filecmp
import os

from conftest import FIXTURES, load_make_fixtures


def relative_files(root):
    return sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    )


def test_make_fixtures_regenerates_the_committed_tree(tmp_path, monkeypatch, capsys):
    make_fixtures = load_make_fixtures()
    monkeypatch.setattr(make_fixtures, "FIXTURES", str(tmp_path))
    make_fixtures.main()
    assert capsys.readouterr().out == f"fixtures written under {tmp_path}\n"
    names = relative_files(FIXTURES)
    assert relative_files(tmp_path) == names
    _, mismatch, errors = filecmp.cmpfiles(FIXTURES, tmp_path, names, shallow=False)
    assert mismatch == [] and errors == []
