"""Golden digests of the command line on the bundled presentations.

Every report command and a battery of ``eval`` calls run in process, in a
temporary working directory, on both bundled files and on two variants of
them, over the declared field and over F_7.  The variants stop the ladder
early: the pair file's cocycle with its first entry raised by two fails a
build hypothesis, and the z2 file's cocycle with one entry set to zero has
no convolution inverse.  Each call's exit code, stdout, stderr, report
bytes and product bytes are hashed: one sha256 per (file, field, command),
and one per (file, field) over all its eval calls.  A change to any byte
the command line prints or writes shows here.

The digests live in ``cli_golden.json`` beside this file.  Rewrite them only
for an intended output change, by running this module as a script::

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import tempfile

from weakhopf import cli
from weakhopf.identities import identity_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "cli_golden.json")
CORPUS = os.path.join(HERE, "..", "src", "weakhopf", "corpus")
FILES = ("pair_groupoid_smash.json", "z2_trivial_smash.json")
# Variant name -> (bundled source, column of the cocycle's first row, new entry).
VARIANTS = {
    "bumped_cocycle.json": ("pair_groupoid_smash.json", 0, lambda entry: str(int(entry) + 2)),
    "singular_cocycle.json": ("z2_trivial_smash.json", 3, lambda entry: "0"),
}
FIELDS = {"declared": [], "prime:7": ["--field", "prime:7"]}
REPORT, PRODUCT = "r.json", "p.json"
COMMANDS = {
    "validate": [],
    "build": ["--out", PRODUCT],
    "cleft": [],
    "reconstruct": [],
    "equiv": [],
}
IDENTITIES = [
    ("mu ; Delta", "Delta * Delta ; id(H) * swap(H,H) * id(H) ; mu * mu"),
    ("id(H)", "eps ; eta"),
]


def _answer(argv) -> bytes:
    """Exit code, stdout, stderr, report and product bytes of one call."""
    for target in (REPORT, PRODUCT):
        if os.path.exists(target):
            os.unlink(target)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = [pathlib.Path(t).read_bytes() if os.path.exists(t) else None
               for t in (REPORT, PRODUCT)]
    return repr((code, out.getvalue(), err.getvalue(), *written)).encode()


def _eval_argvs(path, extra):
    keys = dict.fromkeys(key for block in identity_corpus().values() for key in block)
    argvs = [["eval", "--sig", path, "--key", key, *extra] for key in [*keys, "", "no_such"]]
    argvs.append(["eval", "--sig", path, "--expr", "mu", *extra])
    argvs += [["eval", "--sig", path, "--lhs", lhs, "--rhs", rhs, *extra] for lhs, rhs in IDENTITIES]
    return argvs


def _write_inputs():
    """Copy the bundled files and write the variants, under fixed names."""
    for name in FILES:
        shutil.copy(os.path.join(CORPUS, name), name)
    for name, (source, col, change) in VARIANTS.items():
        data = json.loads(pathlib.Path(CORPUS, source).read_text(encoding="utf-8"))
        row = data["generators"]["f"]["matrix"][0]
        row[col] = change(row[col])
        pathlib.Path(name).write_text(json.dumps(data), encoding="utf-8")


def digests() -> dict:
    """The digests of the battery, run in the current working directory."""
    cli._ladder_of.cache_clear()
    _write_inputs()
    found = {}
    for name in (*FILES, *VARIANTS):
        for field, extra in FIELDS.items():
            for command, options in COMMANDS.items():
                argv = [command, name, "--report", REPORT, *options, *extra]
                found[f"{name} {field} {command}"] = hashlib.sha256(_answer(argv)).hexdigest()
            h = hashlib.sha256()
            for argv in _eval_argvs(name, extra):
                h.update(hashlib.sha256(_answer(argv)).digest())
            found[f"{name} {field} eval"] = h.hexdigest()
    return found


def test_cli_output_matches_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert digests() == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        found = digests()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(found, fh, indent=2, sort_keys=True)
        fh.write("\n")
