"""Acceptance criteria, one test per criterion, exact equality throughout.

Every check is an exact matrix identity over the rationals or a prime field;
there are no tolerances anywhere.  Each test prints one PASS line when it
completes (pytest -s shows them; a failure raises before printing).
"""
import itertools
import json
import random
import shutil
import time

import pytest

from weakhopf.algebra import RegularityPreconditionFailed, conv_inverse, convolve
from weakhopf.bialgebra import (
    WeakHopfAlgebra,
    check_antipode,
    check_bialgebra_axioms,
    projection_identity_suite,
)
from weakhopf.cleft import crossed_to_cleft, full_reconstruction
from weakhopf.crossed import (
    base_action_measure,
    build_crossed_product,
    cocycle_report,
    crossed_product_law_suite,
    gamma_inverse,
    invert_cocycle,
    module_algebra_suite,
    smash_cocycle,
    trivial_measure,
)
from weakhopf.equivalence import equivalence_from_phi, phi_from_iso
from weakhopf.fields import GF, QQ
from weakhopf.groupoid import enumerate_groupoids, groupoid_algebra
from weakhopf.linalg import LinMap, compose, identity, tensor_product, zero_map

from instances import pair_groupoid_hopf, z2_hopf

FIELDS = (QQ, GF(7))


def _pass(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def randomized_instances():
    """Twenty seeded random groupoid smash instances with their full
    invertible-cocycle pipeline, shared by criteria 4-7."""
    rng = random.Random(20240801)
    universe = enumerate_groupoids(3, 9)
    picks = [universe[rng.randrange(len(universe))] for _ in range(20)]
    out = []
    for k, (name, G) in enumerate(picks):
        field = FIELDS[k % 2]
        H = groupoid_algebra(G, field)
        m = base_action_measure(H)
        c = smash_cocycle(m)
        E = build_crossed_product(m, c)
        finv, inv_report = invert_cocycle(m, c)
        out.append((name, field, H, m, c, E, finv, inv_report))
    return out


def test_criterion_1_axiom_suite_over_enumerated_groupoids():
    started = time.monotonic()
    universe = enumerate_groupoids(3, 9)
    assert len(universe) >= 90
    for name, G in universe:
        for field in FIELDS:
            H = groupoid_algebra(G, field)  # checked constructor re-validates
            assert check_bialgebra_axioms(H).all_pass, (name, field)
            assert check_antipode(H).all_pass, (name, field)
            assert projection_identity_suite(H).all_pass, (name, field)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"
    _pass(1, f"{len(universe)} groupoids x {len(FIELDS)} fields in {elapsed:.1f}s")


def test_criterion_2_identity_corpus_on_canonical_instances():
    started = time.monotonic()
    total = 0
    for H, make in ((pair_groupoid_hopf(), base_action_measure), (z2_hopf(), trivial_measure)):
        m = make(H)
        c = smash_cocycle(m)
        E = build_crossed_product(m, c)
        for report in (
            projection_identity_suite(H),
            cocycle_report(m, c),
            crossed_product_law_suite(E),
            module_algebra_suite(E),
        ):
            assert report.all_pass, [v.check_id for v in report.failures()]
            total += sum(1 for v in report if v.status == "pass")
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"identity corpus took {elapsed:.1f}s"
    _pass(2, f"{total} identity checks on both canonical instances in {elapsed:.1f}s")


def test_criterion_3_crossed_product_construction():
    H = pair_groupoid_hopf()
    m = base_action_measure(H)
    c = smash_cocycle(m)
    E = build_crossed_product(m, c)
    assert E.E_dim == 4
    idE = identity(QQ, E.obj)
    assert compose(E.mu_E, tensor_product(E.mu_E, idE)) == compose(
        E.mu_E, tensor_product(idE, E.mu_E)
    )
    assert compose(E.mu_E, tensor_product(E.eta_E, idE)) == idE
    assert compose(E.mu_E, tensor_product(idE, E.eta_E)) == idE
    assert m.chi == compose(E.i, compose(E.mu_E, tensor_product(E.gamma, E.j_nu)))
    assert c.Ff == compose(E.i, compose(E.mu_E, tensor_product(E.gamma, E.gamma)))
    _pass(3, "E_dim 4; unit, associativity and both factorizations exact")


def test_criterion_4_cocycle_invertibility(randomized_instances):
    H = pair_groupoid_hopf()
    m = base_action_measure(H)
    c = smash_cocycle(m)
    finv, report = invert_cocycle(m, c)
    assert finv == m.u(2)
    assert report.all_pass
    for name, field, H, m, c, E, finv, inv_report in randomized_instances:
        assert finv is not None, name
        u2 = m.u(2)
        assert convolve(c.f, finv, H.coalgebra, m.A) == u2, name
        assert convolve(finv, c.f, H.coalgebra, m.A) == u2, name
        assert convolve(finv, u2, H.coalgebra, m.A) == finv, name
    _pass(4, "inverse is the unit power on the smash; 20 randomized instances exact")


def test_criterion_5_cleftness(randomized_instances):
    for name, field, H, m, c, E, finv, _ in randomized_instances:
        gaminv, report = gamma_inverse(E, finv)
        assert report.all_pass, (name, [v.check_id for v in report.failures()])
        assert report.get("gammainv_conv_right").passed
        assert report.get("gammainv_conv_left").passed
        assert report.get("equalizer_is_base").passed
        assert report.get("cleft_factorization").passed
        assert report.get("is_cleft").passed
    _pass(5, "integral inverse verdicts pass on all 20 instances")


@pytest.fixture(scope="module")
def round_trips(randomized_instances):
    out = []
    for name, field, H, m, c, E, finv, _ in randomized_instances:
        gaminv, _ = gamma_inverse(E, finv)
        X, cl = crossed_to_cleft(E, gaminv)
        recon, f_inv2, iso, report = full_reconstruction(X, cl)
        out.append((name, m, c, finv, recon, f_inv2, iso, report))
    return out


def test_criterion_6_round_trip(round_trips):
    for name, m, c, finv, recon, f_inv2, iso, report in round_trips:
        assert recon.rho == m.rho, name
        assert recon.f == c.f, name
        assert report.all_pass, (name, [v.check_id for v in report.failures()])
        for key in ("iso_unitary", "iso_multiplicative", "iso_colinear",
                    "iso_respects_embeddings", "iso_invertible"):
            assert report.get(key).passed, (name, key)
    _pass(6, "measure and cocycle recovered entrywise; isos verified on all instances")


def test_criterion_7_reconstruction_cross_check(round_trips):
    for name, m, c, finv, recon, f_inv2, iso, report in round_trips:
        assert f_inv2 == finv, name
        assert report.get("finv_matches_solver").passed, name
    _pass(7, "factorization route equals solver route on all instances")


def test_criterion_8_equivalence_theory():
    H = pair_groupoid_hopf()
    m = base_action_measure(H)
    E = build_crossed_product(m, smash_cocycle(m))
    u1 = m.u(1)
    Phi, report = equivalence_from_phi(E, E, u1)
    assert report.all_pass
    assert Phi == identity(QQ, E.obj)
    assert phi_from_iso(E, E, identity(QQ, E.obj)) == u1
    rng = random.Random(10)
    done = 0
    while done < 10:
        t0, t1 = rng.randint(1, 9), rng.randint(1, 9)
        # invertible perturbation psi(g_ij) = (t_i/t_j) 1_A convolved onto u1
        psi = zero_map(QQ, (H.obj,), (m.A.obj,))
        t = [QQ.normalize(t0), QQ.normalize(t1)]
        for col, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            for r in range(2):
                psi.rows[r][col] = t[i] / t[j]
        phi = convolve(u1, psi, H.coalgebra, m.A)
        Phi, report = equivalence_from_phi(E, E, phi)
        assert report.all_pass, [v.check_id for v in report.failures()]
        assert phi_from_iso(E, E, Phi) == phi
        Phi2, _ = equivalence_from_phi(E, E, phi_from_iso(E, E, Phi))
        assert Phi2 == Phi
        done += 1
    _pass(8, "unit datum gives the identity; 10 perturbed round trips exact")


def test_criterion_9_solver_against_exhaustive_enumeration():
    H = z2_hopf(GF(2))
    field, coalg, alg = H.field, H.coalgebra, H.algebra
    cands = [
        LinMap(field, (H.obj,), (H.obj,), [[a, b], [c, d]])
        for a, b, c, d in itertools.product([0, 1], repeat=4)
    ]
    assert len(cands) == 16
    rng = random.Random(99)
    agreements = refused = 0
    for _ in range(50):
        g = cands[rng.randrange(16)]
        u = cands[rng.randrange(16)]
        if convolve(g, u, coalg, alg) != g:
            # Not regular: the solver must refuse the pair, as the oracle does.
            with pytest.raises(RegularityPreconditionFailed):
                conv_inverse(g, u, coalg, alg)
            refused += 1
            continue
        got = conv_inverse(g, u, coalg, alg)
        solutions = [
            x
            for x in cands
            if convolve(g, x, coalg, alg) == u
            and convolve(x, g, coalg, alg) == u
            and convolve(x, u, coalg, alg) == x
        ]
        if got is None:
            assert not solutions
        else:
            assert got in solutions
        agreements += 1
    assert agreements >= 10 and refused > 0
    _pass(9, f"solver agrees with exhaustive search on {agreements} admissible pairs"
             f" and refuses the other {refused}")


def test_criterion_10_build_determinism(tmp_path):
    import os

    from weakhopf.cli import main

    src = os.path.join(os.path.dirname(__file__), "..", "src", "weakhopf", "corpus",
                       "pair_groupoid_smash.json")
    target = tmp_path / "pair.json"
    shutil.copy(src, target)
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"built_{tag}.json"
        rep = tmp_path / f"report_{tag}.json"
        assert main(["build", str(target), "--out", str(out), "--report", str(rep)]) == 0
        pairs.append((out.read_bytes(), rep.read_bytes()))
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]
    _pass(10, "repeated builds are byte-identical (matrices and report)")


def _statuses(report):
    return [(v.check_id, v.status) for v in report]


def _axiom_reports(H):
    return [check_bialgebra_axioms(H), check_antipode(H), projection_identity_suite(H)]


def _pipeline_reports(H, make_measure):
    m = make_measure(H)
    c = smash_cocycle(m)
    E = build_crossed_product(m, c)
    finv, inv_report = invert_cocycle(m, c)
    gaminv, gam_report = gamma_inverse(E, finv)
    X, cl = crossed_to_cleft(E, gaminv)
    *_, recon_report = full_reconstruction(X, cl)
    return _axiom_reports(H) + [
        cocycle_report(m, c), crossed_product_law_suite(E), module_algebra_suite(E),
        inv_report, gam_report, recon_report,
    ]


def test_q_and_f7_reports_agree_on_p_integral_instances():
    """ROADMAP 4(c): every p-integral acceptance instance gets the same
    status, entry by entry, over Q and over F_7."""
    Q, F7 = FIELDS
    for name, G in enumerate_groupoids(3, 9):
        q = [_statuses(r) for r in _axiom_reports(groupoid_algebra(G, Q))]
        f7 = [_statuses(r) for r in _axiom_reports(groupoid_algebra(G, F7))]
        assert q == f7, name
    for make_h, make_measure in ((pair_groupoid_hopf, base_action_measure), (z2_hopf, trivial_measure)):
        q = [_statuses(r) for r in _pipeline_reports(make_h(field=Q), make_measure)]
        f7 = [_statuses(r) for r in _pipeline_reports(make_h(field=F7), make_measure)]
        assert q == f7, make_h.__name__
        assert all(status == "pass" for report in q for _, status in report)


def test_q_and_f7_counterexample_fails_at_one_witness():
    """Add one to mu[k][(e, h)] for an identity morphism e: only column h
    of eta * id(H) ; mu changes, in row k.  Both fields fail unit_left
    there, and the Q witness reduced mod 7 is the F_7 witness."""
    rng = random.Random(4)
    universe = enumerate_groupoids(3, 9)
    name, G = universe[rng.randrange(len(universe))]
    units = sorted(G.morphisms.index(G.identity[x]) for x in G.objects)
    n = len(G.morphisms)
    e, h, k = rng.choice(units), rng.randrange(n), rng.randrange(n)
    witnesses = {}
    for field in FIELDS:
        H = groupoid_algebra(G, field)
        rows = [list(r) for r in H.mu.rows]
        rows[k][e * n + h] = field.normalize(rows[k][e * n + h] + 1)
        mu = LinMap(field, H.mu.dom, H.mu.cod, rows)
        bad = WeakHopfAlgebra.unchecked(field, H.obj, mu, H.eta, H.delta, H.eps, H.antipode)
        v = check_bialgebra_axioms(bad).get("unit_left")
        assert v.status == "fail", (name, field)
        witnesses[field] = v.witness
    q, f7 = witnesses[QQ], witnesses[GF(7)]
    assert (q.row, q.col) == (f7.row, f7.col) == (k, h), name
    assert (GF(7).normalize(q.lhs), GF(7).normalize(q.rhs)) == (f7.lhs, f7.rhs)
    assert q.lhs == (1 if k == h else 0) + 1
