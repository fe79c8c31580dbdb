import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

from fractions import Fraction

import pytest

from weakhopf import cleft, cli, crossed, fields
from weakhopf import identities as ids
from weakhopf.cli import main
from weakhopf.identities import identity_corpus
from weakhopf.ir import check_identity_text
from weakhopf.cleft import crossed_to_cleft
from weakhopf.presentation import (
    PresentationError,
    decode_presentation,
    dump_json,
    load_presentation,
    presentation_to_json,
    read_presentation,
)

from concurrency import race

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
CORPUS = os.path.join(SRC, "weakhopf", "corpus")
PAIR = os.path.join(CORPUS, "pair_groupoid_smash.json")
Z2 = os.path.join(CORPUS, "z2_trivial_smash.json")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def pair_file(tmp_path):
    target = tmp_path / "pair.json"
    shutil.copy(PAIR, target)
    return str(target)


def test_validate_bundled_instances(tmp_path, pair_file, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a report goes by default
    assert main(["validate", pair_file]) == 0
    report = _load(str(tmp_path / "pair.json.report.json"))
    assert report["version"] == "0.1.0"
    assert report["millis"] == 0
    assert all(e["status"] != "fail" for e in report["entries"])
    assert len(report["input_sha256"]) == 64


def test_validate_broken_epsilon(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = _load(PAIR)
    data["generators"]["eps"]["matrix"][0][1] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["validate", str(bad)])
    assert code == 1
    report = _load(str(tmp_path / "bad.json.report.json"))
    failed = {e["id"] for e in report["entries"] if e["status"] == "fail"}
    assert any("counit_weak_mult" in f for f in failed)


def _digest(top):
    """sha256 of every file under top, bytecode caches aside."""
    return {str(p.relative_to(top)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in pathlib.Path(top).rglob("*") if p.is_file() and "__pycache__" not in p.parts}


def test_default_outputs_go_to_the_working_directory_not_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    package = os.path.dirname(cli.__file__)
    before = _digest(package)
    assert main(["validate", Z2]) == 0
    assert main(["build", Z2]) == 0
    assert _digest(package) == before
    assert sorted(os.listdir(tmp_path)) == ["z2_trivial_smash.json.built.json",
                                            "z2_trivial_smash.json.report.json"]
    out = capsys.readouterr().out
    assert "report: z2_trivial_smash.json.report.json" in out
    assert "product: z2_trivial_smash.json.built.json" in out


def test_malformed_scalar_exits_2(tmp_path, capsys):
    data = _load(PAIR)
    data["generators"]["mu"]["matrix"][0][0] = "1/0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 2


def test_build_outputs_and_determinism(tmp_path, pair_file):
    out1 = tmp_path / "e1.json"
    rep1 = tmp_path / "r1.json"
    out2 = tmp_path / "e2.json"
    rep2 = tmp_path / "r2.json"
    assert main(["build", pair_file, "--out", str(out1), "--report", str(rep1)]) == 0
    assert main(["build", pair_file, "--out", str(out2), "--report", str(rep2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert rep1.read_bytes() == rep2.read_bytes()
    built = json.loads(out1.read_text())
    assert built["objects"]["E"] == 4
    report = json.loads(rep1.read_text())
    notes = [e for e in report["entries"] if e["id"] == "build.completed"]
    assert notes and notes[0]["note"] == "E_dim 4"


def test_build_z2(tmp_path):
    target = tmp_path / "z2.json"
    shutil.copy(Z2, target)
    out = tmp_path / "e.json"
    assert main(["build", str(target), "--out", str(out), "--report", str(tmp_path / "r.json")]) == 0
    built = json.loads(out.read_text())
    assert built["objects"]["E"] == 2  # dim A * dim H


def test_build_broken_cocycle_exit_1(tmp_path):
    data = _load(PAIR)
    data["generators"]["f"]["matrix"][0][0] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["build", str(bad), "--out", str(tmp_path / "e.json"),
                 "--report", str(tmp_path / "r.json")])
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    failed = [e["id"] for e in report["entries"] if e["status"] == "fail"]
    assert "build.cocycle" in failed


def test_cleft_and_reconstruct_commands(tmp_path, pair_file):
    assert main(["cleft", pair_file, "--report", str(tmp_path / "rc.json")]) == 0
    assert main(["reconstruct", pair_file, "--report", str(tmp_path / "rr.json")]) == 0
    report = json.loads((tmp_path / "rr.json").read_text())
    ids = {e["id"] for e in report["entries"]}
    assert "recovered_rho_matches" in ids and "recovered_f_matches" in ids
    assert all(e["status"] != "fail" for e in report["entries"])


def test_equiv_command(tmp_path, pair_file):
    assert main(["equiv", pair_file, "--report", str(tmp_path / "re.json")]) == 0
    report = json.loads((tmp_path / "re.json").read_text())
    ids = {e["id"] for e in report["entries"]}
    assert "phi_round_trip" in ids


def test_eval_expression_and_identity(capsys, pair_file):
    assert main(["eval", "--sig", pair_file, "--expr", "eta ; eps"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["matrix"] == [["2"]]  # two objects in the groupoid
    assert main(["eval", "--sig", pair_file,
                 "--lhs", "mu ; Delta",
                 "--rhs", "Delta * Delta ; id(H) * swap(H,H) * id(H) ; mu * mu"]) == 0
    assert "IDENTITY: pass" in capsys.readouterr().out
    assert main(["eval", "--sig", pair_file, "--lhs", "id(H)", "--rhs", "eps ; eta"]) == 1
    assert "IDENTITY: fail" in capsys.readouterr().out


def test_eval_corpus_key(capsys, pair_file):
    assert main(["eval", "--sig", pair_file, "--key", "comult_multiplicative"]) == 0
    assert "IDENTITY: pass" in capsys.readouterr().out
    for key in ("no_such_identity", ""):
        assert _call(["eval", "--sig", pair_file, "--key", key]) == (
            2, "", f"error: unknown corpus identity {key!r}\n")


def test_field_override(tmp_path, pair_file):
    assert main(["validate", pair_file, "--field", "prime:7",
                 "--report", str(tmp_path / "r7.json")]) == 0


def test_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch, pair_file, capsys):
    from weakhopf import cli

    assert main(["eval", "--sig", pair_file, "--expr", "eta"]) == 0
    parser = cli._parser()
    calls = []
    command = cli.cmd_eval
    monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args) or command(args))
    assert main(["eval", "--sig", pair_file, "--expr", "eta"]) == 0
    assert cli._parser() is parser
    assert len(calls) == 1


def test_bundled_identities_match_tables():
    data = _load(os.path.join(CORPUS, "identities.json"))
    assert data["contexts"] == identity_corpus()


def test_presentation_round_trip(tmp_path):
    from weakhopf.presentation import (
        dump_json,
        load_presentation,
        presentation_to_json,
    )

    pres = load_presentation(PAIR)
    out = presentation_to_json(pres.field, pres.generators, roles=pres.roles)
    target = tmp_path / "roundtrip.json"
    dump_json(out, target)
    again = load_presentation(str(target))
    assert again.generators == pres.generators
    assert again.roles == pres.roles
    assert again.field == pres.field


def test_eval_key_context_escalation(capsys, pair_file):
    # keys from every context level resolve against a measure+cocycle file
    for key in ("antipode_cancel_left", "wma_unital", "cocycle_f",
                "mu_E_colinear", "gammainv_conv_right", "q_gamma_conv",
                "phi_unit"):
        assert main(["eval", "--sig", pair_file, "--key", key]) == 0, key
        assert "IDENTITY: pass" in capsys.readouterr().out


def test_eval_expr_escalates_to_derived_generators(capsys, pair_file):
    assert main(["eval", "--sig", pair_file, "--expr", "piL ; gam ; dE"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dom"] == ["H"] and out["cod"] == ["E", "H"]
    assert main(["eval", "--sig", pair_file, "--expr", "nosuchgen"]) == 2


def test_missing_roles_exit_2(tmp_path):
    data = _load(Z2)
    del data["roles"]["phi"]
    target = tmp_path / "nophi.json"
    target.write_text(json.dumps(data))
    assert main(["equiv", str(target), "--report", str(tmp_path / "r.json")]) == 2
    assert main(["build", str(target), "--measure", "nosuch",
                 "--report", str(tmp_path / "r2.json")]) == 2
    del data["roles"]["measure"]
    target.write_text(json.dumps(data))
    assert main(["build", str(target), "--report", str(tmp_path / "r3.json")]) == 2


def test_shape_mismatch_exit_2(tmp_path):
    data = _load(Z2)
    data["generators"]["mu"]["matrix"] = [["1", "0"], ["0", "1"]]  # wrong shape
    target = tmp_path / "badshape.json"
    target.write_text(json.dumps(data))
    assert main(["validate", str(target)]) == 2


def _bumped_cocycle(tmp_path):
    data = _load(PAIR)
    f = data["generators"]["f"]["matrix"]
    f[0][0] = str(int(f[0][0]) + 2)
    target = tmp_path / "badf.json"
    target.write_text(json.dumps(data))
    return str(target)


def _singular_cocycle(tmp_path):
    data = _load(Z2)
    data["generators"]["f"]["matrix"][0][3] = "0"  # a cocycle with no inverse
    target = tmp_path / "singular.json"
    target.write_text(json.dumps(data))
    return str(target)


def test_equiv_reports_failed_build_hypothesis(tmp_path, capsys):
    path = _bumped_cocycle(tmp_path)
    assert main(["equiv", path, "--report", str(tmp_path / "r.json")]) == 1
    report = json.loads((tmp_path / "r.json").read_text())
    failed = [e for e in report["entries"] if e["status"] == "fail"]
    assert [e["id"] for e in failed] == ["build.cocycle"]
    assert "witness" in failed[0]


def test_eval_on_failed_build_hypothesis_exits_2(tmp_path, capsys):
    path = _bumped_cocycle(tmp_path)
    assert main(["eval", "--sig", path, "--key", "mu_E_associative"]) == 2
    assert main(["eval", "--sig", path, "--lhs", "mu;Delta", "--rhs", "muE"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: crossed product hypothesis failed: cocycle") == 2


def test_generator_clashing_with_derived_name_exits_2(tmp_path, capsys):
    data = _load(PAIR)
    data["generators"]["chi"] = {
        "dom": ["H", "A"], "cod": ["A", "H"], "matrix": [["0"] * 8 for _ in range(8)],
    }
    target = tmp_path / "chi.json"
    target.write_text(json.dumps(data))
    for key in ("cocycle_f", "twisted_module_f", "twisting_counit", "mu_E_definition"):
        assert main(["eval", "--sig", str(target), "--key", key]) == 2, key
        assert "generator 'chi' differs" in capsys.readouterr().err
    # Levels that derive no chi are unaffected.
    assert main(["eval", "--sig", str(target), "--key", "comult_multiplicative"]) == 0


def test_generator_named_like_an_object_exits_2(tmp_path, capsys):
    data = _load(PAIR)
    data["generators"]["A"] = data["generators"]["muA"]
    target = tmp_path / "clash.json"
    target.write_text(json.dumps(data))
    assert main(["eval", "--sig", str(target), "--expr", "mu"]) == 2
    assert main(["validate", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: generator 'A' is named like a declared object") == 2


# -- the kept eval ladder -------------------------------------------------------

def _call(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


PASS = "IDENTITY: pass\n"


EVAL_FLAGS = {"--key": "unit_left", "--expr": "mu", "--lhs": "mu ; Delta", "--rhs": "mu ; Delta"}


@pytest.mark.parametrize("flags", [
    [flag for k, flag in enumerate(EVAL_FLAGS) if mask >> k & 1] for mask in range(16)
], ids=lambda flags: "+".join(flag[2:] for flag in flags) or "none")
def test_eval_takes_exactly_one_kind_of_input(flags):
    argv = ["eval", "--sig", Z2] + [x for flag in flags for x in (flag, EVAL_FLAGS[flag])]
    code, out, err = _call(argv)
    if flags == ["--key"] or flags == ["--lhs", "--rhs"]:
        assert (code, out, err) == (0, PASS, "")
    elif flags == ["--expr"]:
        assert code == 0 and json.loads(out)["cod"] == ["H"] and err == ""
    else:
        assert (code, out) == (2, "")
        assert err == "error: give exactly one of --key, --expr, or --lhs with --rhs\n"


def test_eval_sees_a_same_size_rewrite_with_the_old_mtime(tmp_path):
    data = _load(PAIR)
    target = tmp_path / "pair.json"
    target.write_text(json.dumps(data))
    st = os.stat(target)
    code, out, _ = _call(["eval", "--sig", str(target), "--expr", "eps"])
    assert code == 0 and json.loads(out)["matrix"] == [["1", "1", "1", "1"]]
    data["generators"]["eps"]["matrix"][0][1] = "0"
    target.write_text(json.dumps(data))
    os.utime(target, ns=(st.st_atime_ns, st.st_mtime_ns))
    after = os.stat(target)
    assert (after.st_size, after.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    code, out, _ = _call(["eval", "--sig", str(target), "--expr", "eps"])
    assert code == 0 and json.loads(out)["matrix"] == [["1", "0", "1", "1"]]


def test_declared_and_overridden_fields_never_share_a_ladder(tmp_path):
    data = _load(PAIR)
    data["generators"]["half"] = {"dom": [], "cod": [], "matrix": [["1/2"]]}
    target = tmp_path / "half.json"
    target.write_text(json.dumps(data))
    declared = ["eval", "--sig", str(target), "--expr", "half"]
    for _ in range(2):
        code, out, _ = _call(declared)
        assert code == 0 and json.loads(out)["matrix"] == [["1/2"]]
        code, out, _ = _call(declared + ["--field", "prime:7"])
        assert code == 0 and json.loads(out)["matrix"] == [["4"]]


def test_failed_levels_fail_alike_on_every_call(tmp_path):
    cases = [
        (_bumped_cocycle(tmp_path), "mu_E_associative",
         "error: crossed product hypothesis failed: cocycle\n"),
        (_singular_cocycle(tmp_path), "gammainv_conv_right",
         "error: the cocycle is not invertible; no inverse context\n"),
    ]
    for path, key, err in cases:
        for _ in range(3):
            assert _call(["eval", "--sig", path, "--key", key]) == (2, "", err)
        # The levels below the failing one are still good.
        assert _call(["eval", "--sig", path, "--key", "wma_unital"])[:2] == (0, PASS)
    assert _call(["eval", "--sig", PAIR, "--key", "gammainv_conv_right"])[:2] == (0, PASS)


def test_warm_cleft_eval_builds_nothing_again(monkeypatch):
    calls = {"build": 0, "wma": 0}
    build, run_table = cli.build_crossed_product, crossed.run_identity_table

    def counted_build(*a, **k):
        calls["build"] += 1
        return build(*a, **k)

    def counted_table(table, *a, **k):
        calls["wma"] += table is ids.MODULE_ALGEBRA_IDENTITIES
        return run_table(table, *a, **k)

    monkeypatch.setattr(cli, "build_crossed_product", counted_build)
    monkeypatch.setattr(crossed, "run_identity_table", counted_table)
    argv = ["eval", "--sig", PAIR, "--key", "coaction_coassociative"]
    cli._ladder_of.cache_clear()
    assert _call(argv)[0] == 0
    assert calls == {"build": 1, "wma": 1}
    for key in ("coaction_coassociative", "mu_B_colinear", "gammainv_conv_right"):
        assert _call(["eval", "--sig", PAIR, "--key", key])[0] == 0
    assert calls == {"build": 1, "wma": 1}


def test_second_eval_walk_converts_no_generator(monkeypatch):
    # A map's integer columns are computed once and kept with the map, so a
    # second walk over every key on the kept ladder converts no scalars.
    calls = []
    for cls in (fields.RationalField, fields.PrimeField):
        def counted(self, values, _to_ints=cls.to_ints):
            calls.append(self)
            return _to_ints(self, values)
        monkeypatch.setattr(cls, "to_ints", counted)
    keys = [key for block in identity_corpus().values() for key in block]
    cli._ladder_of.cache_clear()
    for key in keys:
        assert _call(["eval", "--sig", PAIR, "--key", key])[:2] == (0, PASS), key
    assert calls
    calls.clear()
    for key in keys:
        assert _call(["eval", "--sig", PAIR, "--key", key])[:2] == (0, PASS), key
    assert calls == []


def test_threads_sharing_one_kept_ladder_match_a_serial_run():
    jobs = [(cli._CONTEXT_LEVEL[context], row["lhs"], row["rhs"])
            for context, block in identity_corpus().items() for row in block.values()]

    def run(ladder):
        out = []
        for level, lhs, rhs in jobs:
            v = check_identity_text(lhs, rhs, cli._eval_env(ladder, level, [lhs, rhs]))
            out.append((v.status, v.witness))
        return out

    def context():
        return cli._Ladder(load_presentation(PAIR))

    serial = run(context())
    assert len(serial) == len(jobs) and all(status == "pass" for status, _ in serial)
    for results in race(context, run, 5):
        assert results == [serial] * 4


REPORT_COMMANDS = ("validate", "build", "cleft", "reconstruct", "equiv")


def test_warm_eval_output_is_byte_identical_to_cold(tmp_path):
    # Every report command and every corpus key, on both bundled files, a
    # file whose cocycle fails a build hypothesis and one whose cocycle has
    # no inverse, declared and over F_7: each answer from a ladder kept
    # across the whole walk must be what a cold call prints after the memo
    # is cleared, with the same report and product bytes.
    keys = [key for block in identity_corpus().values() for key in block]
    report, product = tmp_path / "out.report.json", tmp_path / "out.built.json"

    def run(argv):
        for target in (report, product):
            target.unlink(missing_ok=True)
        return _call(argv) + tuple(t.read_bytes() if t.exists() else None for t in (report, product))

    for path in (PAIR, Z2, _bumped_cocycle(tmp_path), _singular_cocycle(tmp_path)):
        for extra in ([], ["--field", "prime:7"]):
            argvs = [["eval", "--sig", path, "--key", key, *extra] for key in keys]
            for cmd in REPORT_COMMANDS:
                argvs.append([cmd, path, "--report", str(report), *extra])
            argvs[-4] += ["--out", str(product)]  # build
            for argv in argvs:
                run(argv)
            warm = [run(argv) for argv in argvs]
            for argv, answer in zip(argvs, warm):
                cli._ladder_of.cache_clear()
                assert run(argv) == answer, argv
    # A fresh process prints what a warm in-process call does.
    argv = ["eval", "--sig", PAIR, "--key", "coaction_coassociative"]
    _call(argv)
    warm = _call(argv)
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "weakhopf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == warm


# -- malformed presentations and declared cleft extensions ---------------------

ALL_COMMANDS = REPORT_COMMANDS + ("eval",)


def _set(path, value):
    """A mutation that sets the entry at ``path`` (keys into the JSON) to ``value``."""
    def mutate(data):
        *head, last = path
        for key in head:
            data = data[key]
        if value is KeyError:
            del data[last]
        else:
            data[last] = value
    return mutate


MALFORMED = [
    ("top_level_list", None, ALL_COMMANDS),
    ("objects_list", _set(["objects"], ["H", "A"]), ALL_COMMANDS),
    ("generators_list", _set(["generators"], ["mu"]), ALL_COMMANDS),
    ("generator_string", _set(["generators", "eps"], "eps"), ALL_COMMANDS),
    ("dom_string", _set(["generators", "eps", "dom"], "H"), ALL_COMMANDS),
    ("matrix_number", _set(["generators", "eps", "matrix"], 5), ALL_COMMANDS),
    ("row_number", _set(["generators", "eps", "matrix"], [5]), ALL_COMMANDS),
    ("field_number", _set(["field"], 7), ALL_COMMANDS),
    ("role_string", _set(["roles", "bialgebra"], "H"), ALL_COMMANDS),
    ("bialgebra_no_object", _set(["roles", "bialgebra", "object"], KeyError), ALL_COMMANDS),
    ("bialgebra_object_list", _set(["roles", "bialgebra", "object"], ["H"]), ALL_COMMANDS),
    # validate reads no measure, cocycle or phi
    ("measure_no_rho", _set(["roles", "measure", "rho"], KeyError), ALL_COMMANDS[1:]),
    ("measure_undeclared_object", _set(["roles", "measure", "object"], "Q"), ALL_COMMANDS[1:]),
    ("cocycle_no_map", _set(["roles", "cocycle", "map"], KeyError), ALL_COMMANDS[1:]),
    ("phi_no_map", _set(["roles", "phi", "map"], KeyError), ("equiv",)),
    ("phi_wrong_type", _set(["roles", "phi", "map"], "S"), ("equiv",)),
    ("entry_float", _set(["generators", "eps", "matrix", 0, 1], 0.5), ALL_COMMANDS),
    ("not_utf8", None, ALL_COMMANDS),
    ("dom_undeclared", _set(["generators", "mu", "dom"], ["Z", "H"]), ALL_COMMANDS),
    ("cod_undeclared", _set(["generators", "Delta", "cod"], ["H", "Z"]), ALL_COMMANDS),
]

# The one stderr line of the cases whose message names what is wrong.
MALFORMED_MESSAGES = {
    "dom_undeclared": "error: generator 'mu' names undeclared object 'Z'\n",
    "cod_undeclared": "error: generator 'Delta' names undeclared object 'Z'\n",
    "phi_wrong_type": "error: phi must be a map H -> A\n",
}


@pytest.mark.parametrize("case,mutate,commands", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_presentation_exits_2_on_every_command(tmp_path, case, mutate, commands):
    data = _load(PAIR)
    if mutate is not None:
        mutate(data)
    target = tmp_path / "bad.json"
    text = json.dumps([data] if case == "top_level_list" else data)
    target.write_bytes(b"\xff" + text.encode() if case == "not_utf8" else text.encode())
    for command in commands:
        if command == "eval":
            argv = ["eval", "--sig", str(target), "--key", "cocycle_f"]
        else:
            argv = [command, str(target), "--report", str(tmp_path / "r.json")]
        code, out, err = _call(argv)
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert err == MALFORMED_MESSAGES.get(case, err), command


@pytest.mark.parametrize("entry", ["1e-400", "1.0000000000000001", "1e400", "2.0"])
def test_a_float_entry_is_refused_where_it_stands(entry):
    # A JSON float is not an exact scalar: 1e-400 would read as 0 and
    # 1.0000000000000001 as 1.  Strings and integers stay accepted.
    data = _load(PAIR)
    data["generators"]["eps"]["matrix"][0][1] = "@"
    text = json.dumps(data)

    def eps01(literal):
        """eps[0][1] of the file whose entry there is the JSON ``literal``."""
        raw = text.replace('"@"', literal).encode()
        return decode_presentation(raw, "p.json").generators["eps"].rows[0][1]

    with pytest.raises(PresentationError, match=r"generator 'eps': entry \(row 0, col 1\)"):
        eps01(entry)
    assert eps01(json.dumps(entry)) == Fraction(entry)
    assert eps01("1") == 1


def test_a_boolean_dimension_exits_2_on_every_command(tmp_path):
    # The z2 file's A has dimension 1, which ``true`` would pass for.
    data = _load(Z2)
    assert data["objects"]["A"] == 1
    data["objects"]["A"] = True
    target = tmp_path / "bool.json"
    target.write_text(json.dumps(data))
    for command in ALL_COMMANDS:
        if command == "eval":
            argv = ["eval", "--sig", str(target), "--key", "unit_left"]
        else:
            argv = [command, str(target), "--report", str(tmp_path / "r.json")]
        assert _call(argv) == (2, "", "error: object 'A' has bad dimension True\n"), command


@pytest.mark.parametrize("query", [["--key", "phi_unit"], ["--expr", "muEp"]])
def test_eval_refuses_a_phi_of_the_wrong_type_as_equiv_does(tmp_path, query):
    # Both reach the crossed level, whose context binds the declared phi.
    data = _load(PAIR)
    data["roles"]["phi"]["map"] = "S"
    target = tmp_path / "phi_s.json"
    target.write_text(json.dumps(data))
    assert _call(["eval", "--sig", str(target), *query]) == (
        2, "", "error: phi must be a map H -> A\n")


def _declared_cleft(tmp_path, bump=False):
    """The pair instance's crossed product written as a declared cleft
    extension; with ``bump``, one entry of its gamma inverse is off by one."""
    pres = load_presentation(PAIR)
    H = pres.bialgebra()
    m = pres.measure(H)
    data = pres.cocycle(m)
    E = crossed.build_crossed_product(m, data)
    finv, _ = crossed.invert_cocycle(m, data)
    X, c = crossed_to_cleft(E, crossed.gamma_inverse(E, finv)[0])
    gens = {name: pres.gen(name) for name in ("mu", "eta", "Delta", "eps", "S", "muA", "etaA")}
    gens.update(muB=X.comodule.B.mu, etaB=X.comodule.B.eta, dB=X.comodule.delta, j=X.j,
                gamB=c.gamma, gamBinv=c.gamma_inv)
    roles = {
        "bialgebra": pres.roles["bialgebra"],
        "antipode": pres.roles["antipode"],
        "comodule": {"object": "B", "mu": "muB", "eta": "etaB", "delta": "dB"},
        "extension": {"object": "A", "mu": "muA", "eta": "etaA", "j": "j"},
        "cleaving": {"gamma": "gamB", "gamma_inv": "gamBinv"},
    }
    out = presentation_to_json(pres.field, gens, roles)
    if bump:
        row = out["generators"]["gamBinv"]["matrix"][0]
        row[0] = str(Fraction(row[0]) + 1)
    target = tmp_path / ("bumped_cleft.json" if bump else "cleft.json")
    dump_json(out, str(target))
    return str(target)


def test_declared_cleft_extension(tmp_path):
    path = _declared_cleft(tmp_path)
    report = tmp_path / "r.json"
    for command in ("cleft", "reconstruct"):
        assert _call([command, path, "--report", str(report)])[0] == 0, command
        entries = _load(report)["entries"]
        assert entries and all(e["status"] != "fail" for e in entries)
    bumped = _declared_cleft(tmp_path, bump=True)
    code, out, _ = _call(["cleft", bumped, "--report", str(report)])
    failed = [e["id"] for e in _load(report)["entries"] if e["status"] == "fail"]
    assert code == 1 and failed
    assert all(cid.startswith("cleaving.") for cid in failed), failed
    assert all(f"  FAIL {cid}" in out for cid in failed)


def test_reconstruct_reports_a_cleaving_that_does_not_factor(tmp_path):
    # An entry of gamma inverse set from 0 to 1: q = b0 gamma^-1(b1) leaves
    # the image of j, a verdict on the input (exit 1), not bad input (exit 2).
    data = _load(_declared_cleft(tmp_path))
    row = data["generators"]["gamBinv"]["matrix"][1]
    assert row[0] == "0"
    row[0] = "1"
    target = tmp_path / "unfactored.json"
    target.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    code, out, err = _call(["reconstruct", str(target), "--report", str(report)])
    assert (code, err) == (1, "")
    assert [(e["id"], e["status"]) for e in _load(report)["entries"]] == [("factorization", "fail")]
    assert "  FAIL factorization\n" in out


def _bumped_antipode(tmp_path):
    data = _load(PAIR)
    data["generators"]["S"]["matrix"][1][2] = "2"
    target = tmp_path / "badS.json"
    target.write_text(json.dumps(data))
    return str(target)


@pytest.mark.parametrize("bumped", [_bumped_antipode, lambda p: _declared_cleft(p, bump=True)],
                         ids=["antipode", "gamma_inverse"])
def test_reconstruct_reports_a_recovered_cocycle_that_is_not_regular(tmp_path, bumped):
    # The recovered cocycle fails f * u2 = f, the precondition of the
    # convolution solver, and the rebuilt product's hypotheses: both are
    # failed checks in the report, not an escaping exception.
    report = tmp_path / "r.json"
    code, out, err = _call(["reconstruct", bumped(tmp_path), "--report", str(report)])
    assert (code, err) == (1, "")
    entries = {e["id"]: e for e in _load(report)["entries"]}
    assert entries["solver_finds_inverse"]["status"] == "fail"
    assert entries["rebuild.cocycle_normalized"]["status"] == "fail"
    assert "witness" in entries["rebuild.cocycle_normalized"]
    assert "  FAIL solver_finds_inverse\n" in out


def test_cleft_and_reconstruct_solve_the_cocycle_once(tmp_path, monkeypatch):
    # The kept ladder's inverse serves both commands.  The reconstruction's
    # solver check on the recovered cocycle is a separate, independent route.
    calls = []
    solve = crossed.conv_inverse

    def counted(f, *rest):
        calls.append(f)
        return solve(f, *rest)

    monkeypatch.setattr(crossed, "conv_inverse", counted)
    cli._ladder_of.cache_clear()
    for command in ("cleft", "reconstruct"):
        assert _call([command, PAIR, "--report", str(tmp_path / "r.json")])[0] == 0, command
    presented = cli._ladder_of(read_presentation(PAIR), PAIR, None, None, None).cocycle
    assert [f is presented.f for f in calls] == [True, False]


def test_each_cleft_side_map_is_built_once_per_file(tmp_path, monkeypatch):
    # The integral inverse is kept with its verdicts on the ladder, and the
    # decomposition on the cleaving: cleft, reconstruct and a cleft-level
    # eval share both.
    formulas = {f"{ids.Q_EXPR} ; jnu * gam ; muE": "gaminv", ids.Q_CLEFT_EXPR: "q"}
    calls = []
    for module in (crossed, cleft):
        def counted(src, env, _eval=module.eval_text):
            if src in formulas:
                calls.append(formulas[src])
            return _eval(src, env)
        monkeypatch.setattr(module, "eval_text", counted)
    cli._ladder_of.cache_clear()
    for command in ("cleft", "reconstruct"):
        assert _call([command, PAIR, "--report", str(tmp_path / "r.json")])[0] == 0, command
    assert _call(["eval", "--sig", PAIR, "--key", "cleaving_conv_right"])[:2] == (0, PASS)
    assert sorted(calls) == ["gaminv", "q"]


def test_eval_runs_the_cleft_rows_of_a_declared_cleft_extension(tmp_path):
    path = _declared_cleft(tmp_path)
    keys = [key for key, (level, *_) in cli._corpus_keys().items() if level == "cleft"]
    assert len(keys) == 35
    for key in keys:
        assert _call(["eval", "--sig", path, "--key", key]) == (0, PASS, ""), key


def test_bare_eval_escalates_past_levels_the_file_does_not_declare(tmp_path):
    # The declared cleft extension has no measure, cocycle or product: bare
    # --lhs/--rhs and --expr still reach its cleft level, as --key does.
    path = _declared_cleft(tmp_path)
    lhs, rhs = cli._corpus_keys()["siginv_absorbs_right"][1:]
    assert _call(["eval", "--sig", path, "--lhs", "sig", "--rhs", "sig"]) == (0, PASS, "")
    assert _call(["eval", "--sig", path, "--lhs", lhs, "--rhs", rhs]) == (0, PASS, "")
    code, out, err = _call(["eval", "--sig", path, "--expr", "siginv"])
    assert (code, err) == (0, "") and json.loads(out)["dom"] == ["H", "H"]
    assert _call(["eval", "--sig", path, "--lhs", "nope", "--rhs", "nope"]) == (
        2, "", "error: unknown generator 'nope' (line 1, col 1)\n")


def test_a_cleaving_of_the_wrong_type_is_refused_where_it_is_built(tmp_path):
    data = _load(_declared_cleft(tmp_path))
    data["roles"]["cleaving"]["gamma_inv"] = "j"  # a map A -> B
    target = tmp_path / "wrong_type.json"
    target.write_text(json.dumps(data))
    for command in ("cleft", "reconstruct"):
        assert _call([command, str(target), "--report", str(tmp_path / "r.json")]) == (
            2, "", "error: the cleaving's gamma_inv must be a map H -> B\n"), command


def test_a_file_without_an_antipode_validates_but_has_no_cleft_extension(tmp_path):
    data = _load(PAIR)
    del data["roles"]["antipode"]
    target = tmp_path / "noS.json"
    target.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    code, out, err = _call(["validate", str(target), "--report", str(report)])
    assert (code, err) == (0, "")
    entries = json.loads(report.read_text())["entries"]
    skipped = [e["id"] for e in entries if e["status"] == "skipped"]
    assert skipped == ["projection." + row[0] for row in ids.ANTIPODE_PROJECTION_IDENTITIES]
    assert not any(e["id"].startswith("antipode.") for e in entries)
    assert _call(["cleft", str(target), "--report", str(report)]) == (
        2, "", "error: gamma inverse needs an antipode\n")


def test_eval_of_an_unknown_name_stops_at_the_last_level_the_file_supports(tmp_path):
    data = _load(PAIR)
    del data["roles"]["measure"]
    target = tmp_path / "nomeasure.json"
    target.write_text(json.dumps(data))
    cli._ladder_of.cache_clear()
    assert _call(["eval", "--sig", str(target), "--expr", "nosuchgen"]) == (
        2, "", "error: unknown generator 'nosuchgen' (line 1, col 1)\n")
    ladder = cli._ladder_of(read_presentation(str(target)), str(target), None, None, None)
    assert sorted(ladder._contexts) == ["bialgebra", "raw"]
