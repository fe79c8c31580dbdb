"""A report names the field its checks ran over, so a run with ``--field``
is told apart from one over the declared field by its report alone."""
import json
import os
import shutil

from weakhopf.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "weakhopf", "corpus")


def test_report_differs_between_fields_only_in_its_field(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(os.path.join(CORPUS, "pair_groupoid_smash.json"), "pair.json")
    reports = {}
    for field, extra in (("rational", []), ("prime:7", ["--field", "prime:7"])):
        assert main(["validate", "pair.json", "--report", f"{field}.json", *extra]) == 0
        with open(f"{field}.json", encoding="utf-8") as fh:
            reports[field] = json.load(fh)
    q, f7 = reports["rational"], reports["prime:7"]
    assert list(q) == ["version", "input_sha256", "field", "entries", "millis"]
    assert (q["field"], f7["field"]) == ("rational", "prime:7")
    assert {k: v for k, v in q.items() if k != "field"} == {
        k: v for k, v in f7.items() if k != "field"
    }
