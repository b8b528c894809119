"""Every frozen output against golden.json, and the tool in golden.py."""

import json

import pytest

import golden


@pytest.mark.parametrize("group", list(golden.GROUPS))
def test_matches_the_manifest(group):
    golden.assert_pinned(*golden.GROUPS[group])


def test_every_entry_is_pinned_once():
    assert sum(map(len, golden.GROUPS.values())) == len(golden.REGISTRY)
    assert sorted(golden.REGISTRY) == sorted(golden.pins())


def test_a_repin_rewrites_only_the_named_entries(tmp_path, monkeypatch, capsys):
    manifest = tmp_path / "golden.json"
    manifest.write_bytes(golden.MANIFEST.read_bytes())
    monkeypatch.setattr(golden, "MANIFEST", manifest)
    before = manifest.read_bytes()
    for name in ("report/000", "report/001"):
        monkeypatch.setitem(golden.REGISTRY, name, lambda: b"changed")
    assert golden.main([]) == 1
    assert capsys.readouterr().out == "report/000\nreport/001\n"
    # an unnamed entry differs, or a name is unknown: nothing is written
    assert golden.main(["report/000"]) == 1
    assert capsys.readouterr().err.endswith("differ too:\nreport/001\n")
    assert golden.main(["report/000", "report/001", "no/such/entry"]) == 2
    assert manifest.read_bytes() == before
    assert golden.main(["report/000", "report/001"]) == 0
    assert json.loads(manifest.read_text()) == json.loads(before) | dict.fromkeys(
        ["report/000", "report/001"], golden.digest(b"changed"))
    assert golden.main([]) == 0
    assert capsys.readouterr().out == ""
