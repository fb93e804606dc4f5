"""Brute-force enumeration oracle versus the cohomological classifier."""

import itertools

import numpy as np
import pytest

from sqzlift import complexes, gf
from sqzlift import oracle as oracle_module
from sqzlift.cli import canonical_json
from sqzlift.algebra import AlgMatrix, LevelAlgebra, mk_algebra
from sqzlift.complexes import (
    Complex,
    GradedMap,
    GradedObject,
    compose,
    delta,
    map_reduce,
    zero_map,
)
from sqzlift.errors import CheckFailed, ValidationError
from sqzlift.obstruction import (
    DifferentialProblem,
    MapProblem,
    classify,
    classify_lifts,
    lift,
    lift_differential,
    obstruct_differential,
    obstruct_homotopy,
    obstruct_map,
    v_class,
)
from sqzlift.finring import mk_tower
from sqzlift.oracle import (
    _PARTITION_ROWS,
    _partition,
    gen_instance,
    oracle,
    oracle_differential,
    oracle_homotopy,
    oracle_map,
    witness,
    witness_differential,
    witness_map,
)

OB3 = GradedObject.of({0: 1, 1: 1, 2: 1})


def test_z4_oracle_counts(z4):
    prob = DifferentialProblem(z4, OB3, zero_map(z4.mid, OB3, OB3, 1))
    res = oracle_differential(prob)
    assert res.candidates == 4
    assert res.num_witnesses == 4
    assert res.num_classes == 4          # all classes are singletons here
    for idx in res.witness_indices:
        d = witness_differential(prob, int(idx))
        assert compose(d, d).is_zero()


def test_oracle_partition_matches_v_classes(z4):
    prob = DifferentialProblem(z4, OB3, zero_map(z4.mid, OB3, OB3, 1))
    res = oracle_differential(prob)
    witnesses = [witness_differential(prob, int(i)) for i in res.witness_indices]
    # group witnesses by vanishing difference class
    by_v = {}
    for w_idx, w in zip(res.witness_indices, witnesses):
        for key, (rep, members) in by_v.items():
            if v_class(prob, rep, w).is_zero:
                members.append(int(w_idx))
                break
        else:
            by_v[len(by_v)] = (w, [int(w_idx)])
    v_partition = sorted(tuple(sorted(m)) for _, m in by_v.values())
    o_partition = sorted(tuple(o) for o in res.orbits.tolist())
    assert v_partition == o_partition
    assert len(o_partition) == 2 ** prob.kernel.h_dim(1) == classify_lifts(prob).count


@pytest.mark.parametrize("seed", range(12))
def test_differential_oracle_agreement(seed):
    inst = gen_instance("differential", seed)
    cls, _ = obstruct_differential(inst.problem)
    res = oracle_differential(inst.problem)
    assert cls.is_zero == (res.num_witnesses > 0)
    if res.num_witnesses:
        assert res.num_classes == inst.problem.kernel.p ** inst.problem.kernel.h_dim(1)


@pytest.mark.parametrize("seed", range(8))
def test_map_oracle_agreement(seed):
    inst = gen_instance("map", seed)
    cls, _ = obstruct_map(inst.problem)
    res = oracle_map(inst.problem)
    assert cls.is_zero == (res.num_witnesses > 0)
    for idx in res.witness_indices[:4]:
        f = witness_map(inst.problem, int(idx))
        assert delta(f, inst.problem.C.d, inst.problem.D.d).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_homotopy_oracle_agreement(seed):
    inst = gen_instance("homotopy", seed)
    cls, _ = obstruct_homotopy(inst.problem)
    res = oracle_homotopy(inst.problem)
    assert cls.is_zero == (res.num_witnesses > 0)


@pytest.mark.parametrize("obstructed", [False, True])
def test_map_oracle_agreement_on_large_blocks(obstructed, monkeypatch):
    """Maps C -> D with 9x1 and 1x9 blocks, so the residual multiplies 9x1 by
    1x9 matrices (r*c*s = 81), and on the oracle's stacks of 16 or 18 maps
    matmul takes its two-step path: the oracle agrees with the closed-form
    lift and classification, here a torsor over H^0 of dimension 8."""
    defalg = mk_algebra(mk_tower("zmod", 2, a=2, b=1), "trivial")
    bar = defalg.bar
    obC, obD = GradedObject.of({0: 9, 1: 1}), GradedObject.of({0: 1, 1: 9})
    rng = np.random.default_rng(5)

    def mat(rows, cols, values):
        return AlgMatrix(bar, rng.choice(values, size=(rows, cols, 1, 1)))

    if obstructed:   # d_C is J-valued, so any f commutes at the mid level
        C = Complex(bar, obC, GradedMap(bar, obC, obC, 1, {0: mat(1, 9, [2])}))
        D = Complex(bar, obD, zero_map(bar, obD, obD, 1))
        f = GradedMap(bar, obC, obD, 0, {1: mat(9, 1, [1])})
    else:            # delta of a degree -1 map is a cochain map; d_D is J-valued
        C = Complex(bar, obC, GradedMap(bar, obC, obC, 1, {0: mat(1, 9, range(4))}))
        D = Complex(bar, obD, GradedMap(bar, obD, obD, 1, {0: mat(9, 1, [2])}))
        f = delta(GradedMap(bar, obC, obD, -1, {1: mat(1, 1, [1, 3])}), C.d, D.d)
    prob = MapProblem(defalg, C, D, map_reduce(defalg, f, "bar", "mid"))
    K = prob.kernel
    assert K.dim(0) == 18
    two_step = []
    apply_left = LevelAlgebra.apply_left

    def counted(self, op, b):
        two_step.append(b.shape)
        return apply_left(self, op, b)

    monkeypatch.setattr(LevelAlgebra, "apply_left", counted)
    res = oracle_map(prob)
    assert two_step
    monkeypatch.undo()
    assert obstruct_map(prob)[0].is_zero == (not obstructed) == (res.num_witnesses > 0)
    if obstructed:
        return
    powers = K.p ** np.arange(K.dim(0))
    orbit_of = {int(w): o for o, row in enumerate(res.orbits) for w in row}

    def orbit(X):
        assert delta(X, C.d, D.d).is_zero()
        return orbit_of[int(K.into_kernel(X - prob.sigma_lift) @ powers)]

    reps = classify(prob).reps
    assert res.num_classes == len(reps) == K.p ** K.h_dim(0) > 1
    assert orbit(lift(prob).lifted) in range(len(reps))
    assert sorted(orbit(X) for X in reps) == list(range(len(reps)))


def test_sigma_lift_is_a_witness_for_trivial_deformation(z4):
    # lifting the zero differential: the coefficientwise lift (index 0 in
    # digit coordinates) must be among the witnesses
    prob = DifferentialProblem(z4, OB3, zero_map(z4.mid, OB3, OB3, 1))
    res = oracle_differential(prob)
    assert 0 in set(int(i) for i in res.witness_indices)


def test_witness_rejects_an_index_outside_the_candidates():
    prob = gen_instance("differential", 1).problem
    total = prob.kernel.p ** prob.kernel.dim(1)
    assert total == 8
    assert witness(prob, total - 1) != witness(prob, 0)
    for idx in (total, -1, total + 3):
        with pytest.raises(ValidationError, match="outside"):
            witness(prob, idx)


@pytest.mark.parametrize("kind,seed", [("differential", 1), ("differential", 21),
                                       ("map", 24), ("homotopy", 2)])
def test_oracle_recheck_catches_a_false_witness(kind, seed, monkeypatch):
    """A scan that puts a non-witness ahead of its hits is caught by the
    re-check, which evaluates the residual and not the scan's generators."""
    prob = gen_instance(kind, seed).problem
    res = oracle(prob)
    non = sorted(set(range(res.candidates)) - set(res.witness_indices.tolist()))[0]
    scan = gf.scan_affine_zero

    def lying_scan(*args):
        return np.concatenate([[non], scan(*args)]).astype(np.int64)

    monkeypatch.setattr(gf, "scan_affine_zero", lying_scan)
    with pytest.raises(CheckFailed, match="scan produced a false witness"):
        oracle(gen_instance(kind, seed).problem)


def test_oracle_does_not_use_the_closed_form_delta(monkeypatch):
    """The oracle evaluates the defining equations itself: with
    delta_layout (behind delta_generators and delta_core) raising, it still
    re-derives every result."""
    kinds = [("differential", s) for s in (1, 21, 51)] + [("map", 24), ("homotopy", 12)]
    want = [oracle(gen_instance(k, s, max_kdim=20).problem) for k, s in kinds]
    fresh = [gen_instance(k, s, max_kdim=20).problem for k, s in kinds]

    def refuse(*args):
        raise AssertionError("the oracle used the closed-form delta")

    monkeypatch.setattr(complexes, "delta_layout", refuse)
    for prob, ref in zip(fresh, want):
        res = oracle(prob)
        assert np.array_equal(res.witness_indices, ref.witness_indices)
        assert np.array_equal(res.orbits, ref.orbits)
    for build in (fresh[0].kernel.delta_matrix, fresh[0].kernel.delta_core):
        with pytest.raises(AssertionError, match="closed-form"):
            build(1)


def test_gen_instance_is_deterministic():
    a = gen_instance("differential", 17)
    b = gen_instance("differential", 17)
    assert a.tower_desc == b.tower_desc
    assert a.problem.d_mid == b.problem.d_mid
    assert a.meta == b.meta


def test_gen_covers_towers_and_primes():
    seen_p = set()
    seen_kind = set()
    for seed in range(40):
        inst = gen_instance("differential", seed)
        seen_kind.add(inst.tower_desc[0])
        seen_p.add(inst.tower_desc[1])
    assert seen_p == {2, 3}
    assert len(seen_kind) >= 2


# ---------------------------------------------------------------------------
# the orbit partition against a per-witness reference
# ---------------------------------------------------------------------------

def _orbit_of(w, kdim, p, moves):
    """Every w + sum c_s moves[s], over all coefficient tuples, as indices."""
    powers = p ** np.arange(kdim, dtype=np.int64)
    wd = (w // powers) % p
    return {int(((wd + np.asarray(c, dtype=np.int64) @ moves) % p) @ powers)
            for c in itertools.product(range(p), repeat=len(moves))}


def _reference_partition(witnesses, kdim, p, moves):
    """One orbit per unseen witness, in witness order, each sorted."""
    moves = np.asarray(moves, dtype=np.int64).reshape(-1, kdim)
    present = set(witnesses)
    seen, orbits = set(), []
    for w in witnesses:
        if w in seen:
            continue
        orbit = sorted(_orbit_of(w, kdim, p, moves))
        if not present.issuperset(orbit):
            raise CheckFailed("orbit left the witness set")
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def _random_moves(rng, kdim, p, shape):
    """A move list of the given shape: "none", "zero" (zero rows only),
    "sparse" (rows zero outside a strict subset of the digit columns) or
    "mixed" (independent rows, a zero row and a dependent row)."""
    if shape == "none":
        return []
    if shape == "zero":
        return [np.zeros(kdim, dtype=np.int64)] * 2
    if shape == "sparse":
        support = np.zeros(kdim, dtype=np.int64)
        support[rng.choice(kdim, size=rng.integers(1, kdim), replace=False)] = 1
        return [rng.integers(0, p, size=kdim) * support for _ in range(rng.integers(1, 3))]
    rows = [rng.integers(0, p, size=kdim) for _ in range(rng.integers(1, 3))]
    rows.append(np.zeros(kdim, dtype=np.int64))
    rows.append((rows[0] + (p - 1) * rows[-2]) % p)
    return [r.astype(np.int64) for r in rows]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("shape", ["none", "zero", "sparse", "mixed"])
@pytest.mark.parametrize("trial", range(4))
def test_partition_matches_per_witness_reference(p, shape, trial):
    rng = np.random.default_rng(100 * p + 10 * trial + len(shape))
    kdim = int(rng.integers(2 if shape == "sparse" else 1, 6))
    moves = _random_moves(rng, kdim, p, shape)
    move_rows = np.asarray(moves, dtype=np.int64).reshape(-1, kdim)
    # the witnesses are a random union of whole orbits
    orbits = {min(o): o for o in (_orbit_of(w, kdim, p, move_rows)
                                  for w in range(p ** kdim))}
    chosen = [o for o in orbits.values() if rng.random() < 0.5]
    witnesses = sorted(set().union(*chosen))
    got = _partition(np.asarray(witnesses, dtype=np.int64), kdim, p, moves)
    assert [tuple(o) for o in got.tolist()] == _reference_partition(witnesses, kdim, p, moves)
    assert got.dtype == np.int64


def test_partition_matches_per_witness_reference_over_several_chunks():
    # 2^16 candidates, all but two orbits of them witnesses: more witnesses
    # than _PARTITION_ROWS, so the keys are computed in two chunks
    p, kdim = 2, 16
    moves = [np.zeros(kdim, dtype=np.int64) for _ in range(3)]
    moves[0][[2, 7, 13]] = 1
    moves[1][[7, 11]] = 1
    move_rows = np.asarray(moves)
    left_out = _orbit_of(5, kdim, p, move_rows) | _orbit_of(40000, kdim, p, move_rows)
    witnesses = sorted(set(range(p ** kdim)) - left_out)
    assert len(witnesses) > _PARTITION_ROWS
    got = _partition(np.asarray(witnesses, dtype=np.int64), kdim, p, moves)
    assert [tuple(o) for o in got.tolist()] == _reference_partition(witnesses, kdim, p, moves)


def test_partition_of_every_candidate_at_rank_0_matches_the_reference():
    # the shape of the oracle's largest reports: every one of 3^10 candidates
    # is a witness and no move is nonzero, so 59 049 singleton orbits, more
    # witnesses than _PARTITION_ROWS
    p, kdim = 3, 10
    witnesses = list(range(p ** kdim))
    assert len(witnesses) > _PARTITION_ROWS
    got = _partition(np.asarray(witnesses, dtype=np.int64), kdim, p, [])
    assert got.shape == (p ** kdim, 1) and got.dtype == np.int64
    assert [tuple(o) for o in got.tolist()] == _reference_partition(witnesses, kdim, p, [])


@pytest.mark.parametrize("p", [2, 3])
def test_partition_orders_interleaved_orbits_by_least_member(p):
    """The move e_0 + e_2 pairs digit 0 with digit 2, so orbits interleave:
    the order of their canonical keys (pivot digit 0 cleared) is not the
    order of their least members, and the rows come in the latter."""
    kdim = 3
    moves = [np.array([1, 0, 1], dtype=np.int64)]
    witnesses = list(range(p ** kdim))
    got = _partition(np.asarray(witnesses, dtype=np.int64), kdim, p, moves)
    assert [tuple(o) for o in got.tolist()] == _reference_partition(witnesses, kdim, p, moves)
    red, pivots = gf.row_space(np.asarray(moves), p)
    powers = p ** np.arange(kdim)
    keys = gf.reduce_mod_rowspace(gf.digits(got[:, 0], kdim, p), red, pivots, p) @ powers
    assert list(np.argsort(keys)) != list(range(len(got)))


def _whole_orbits(rng, kdim, p, moves, share=0.5):
    """A random union of whole orbits of the candidates, ascending."""
    move_rows = np.asarray(moves, dtype=np.int64).reshape(-1, kdim)
    seen, chosen = set(), set()
    for w in range(p ** kdim):
        if w not in seen:
            orbit = _orbit_of(w, kdim, p, move_rows)
            seen |= orbit
            if rng.random() < share:
                chosen |= orbit
    return sorted(chosen)


def _unit_rows(kdim, *supports):
    """Moves with the given (column, coefficient) entries, one row each."""
    rows = np.zeros((len(supports), kdim), dtype=np.int64)
    for row, support in zip(rows, supports):
        for col, c in support:
            row[col] = c
    return list(rows)


@pytest.mark.parametrize("p", [2, 3])
def test_partition_with_pivot_runs_apart_and_free_touched_columns(p):
    # row-reduced, the moves have pivots 0, 3 and 5 (runs [0,1), [3,4) and
    # [5,6)) and touch the free columns 1, 4 and 6 as well
    kdim = 7
    a, b, c = _unit_rows(kdim, [(0, 1), (1, p - 1), (6, 1)], [(3, 1), (4, 1), (6, p - 1)],
                         [(5, 1), (6, 1)])
    moves = [(a + b) % p, b, (c + 2 * a) % p, (a + c) % p, np.zeros(kdim, dtype=np.int64)]
    red, pivots = gf.row_space(np.asarray(moves), p)
    assert pivots == [0, 3, 5]
    assert np.flatnonzero(red.any(axis=0)).tolist() == [0, 1, 3, 4, 5, 6]
    witnesses = _whole_orbits(np.random.default_rng(p), kdim, p, moves)
    got = _partition(np.asarray(witnesses, dtype=np.int64), kdim, p, moves)
    assert [tuple(o) for o in got.tolist()] == _reference_partition(witnesses, kdim, p, moves)


@pytest.mark.parametrize("free", [False, True])
def test_partition_of_many_orbits_out_of_key_order_over_several_chunks(monkeypatch, free):
    # pivots 0 and 4 go below the other digits in the keys, so the keys of
    # ascending witnesses are out of order; with a free touched column 5 the
    # keys also move by the pivot digits.  _PARTITION_ROWS is lowered so that
    # the digits of the free columns are decoded in several chunks.
    monkeypatch.setattr(oracle_module, "_PARTITION_ROWS", 7)
    p, kdim = 3, 6
    moves = _unit_rows(kdim, [(0, 1)] + [(5, 2)] * free, [(4, 1), (5, 1)] if free else [(4, 1)])
    witnesses = _whole_orbits(np.random.default_rng(7), kdim, p, moves, share=0.8)
    assert len(witnesses) > 7 * 9
    w = np.asarray(witnesses, dtype=np.int64)
    got = _partition(w, kdim, p, moves)
    want = _reference_partition(witnesses, kdim, p, moves)
    assert len(want) > 40 and [tuple(o) for o in got.tolist()] == want
    keys = (w // 3 % 27) * 9 + w % 3 + (w // 81 % 3) * 3 + (w // 243) * 243   # without the change
    assert (np.diff(keys) < 0).any()


def test_partition_of_one_orbit_of_3_to_the_8_in_two_pivot_runs():
    # the shape of gen differential seed 51: kdim 12 over F_3, every move a
    # unit vector in the runs [0,4) and [8,12), and the witnesses one coset
    p, kdim = 3, 12
    eye = np.eye(kdim, dtype=np.int64)
    units = [eye[j] for j in (0, 1, 2, 3, 8, 9, 10, 11)]
    moves = units + [np.zeros(kdim, dtype=np.int64)] * 8
    middle = 2 * 3 ** 4 + 1 * 3 ** 6
    witnesses = sorted(_orbit_of(middle, kdim, p, np.asarray(units)))
    assert len(witnesses) == 3 ** 8
    got = _partition(np.asarray(witnesses, dtype=np.int64), kdim, p, moves)
    assert got.shape == (1, 3 ** 8) and got.dtype == np.int64
    assert got[0].tolist() == witnesses
    with pytest.raises(CheckFailed, match="orbit left the witness set"):
        _partition(np.asarray(witnesses[1:], dtype=np.int64), kdim, p, moves)


@pytest.mark.parametrize("p, kdim", [(2, 62), (3, 39)])
def test_partition_with_kdim_near_the_int64_limit(p, kdim):
    # p^kdim is near 2^62 (2^62, and 3^39 = 4.05e18): keys stay below p^kdim,
    # with a pivot at the top digit's neighbour and the top digit a free
    # touched column
    moves = _unit_rows(kdim, [(0, 1), (kdim - 1, 1)], [(kdim // 2, 1)],
                       [(kdim - 2, 1), (kdim - 1, p - 1)])
    top = p ** kdim - 1
    witnesses = sorted(set().union(*(_orbit_of(w, kdim, p, np.asarray(moves))
                                     for w in (top, top - p ** 5, 7, p ** (kdim - 1)))))
    got = _partition(np.asarray(witnesses, dtype=np.int64), kdim, p, moves)
    assert [tuple(o) for o in got.tolist()] == _reference_partition(witnesses, kdim, p, moves)
    assert got.max() == top


def test_partition_of_no_witnesses_is_empty():
    got = _partition(np.zeros(0, dtype=np.int64), 3, 2, [np.ones(3, dtype=np.int64)])
    assert len(got) == 0
    assert canonical_json(got) == b"[]\n"


@pytest.mark.parametrize("p", [2, 3])
def test_partition_rejects_an_orbit_that_leaves_the_witness_set(p):
    kdim = 4
    moves = [np.array([1, 0, 1, 0], dtype=np.int64), np.array([0, 1, 0, 1], dtype=np.int64)]
    coset = sorted(_orbit_of(1, kdim, p, np.asarray(moves)))
    other = sorted(_orbit_of(2, kdim, p, np.asarray(moves)))
    full = sorted(coset + other)
    got = _partition(np.asarray(full), kdim, p, moves)
    assert [tuple(o) for o in got.tolist()] == _reference_partition(full, kdim, p, moves)
    for dropped in (coset[0], coset[-1]):
        partial = [w for w in full if w != dropped]
        with pytest.raises(CheckFailed, match="orbit left the witness set"):
            _partition(np.asarray(partial), kdim, p, moves)
    # a repeated or out-of-order witness, with moves and without
    for bad in ([*full[:1], *full], full[::-1], [1, 1], [2, 1]):
        for gens in (moves, []):
            with pytest.raises(CheckFailed, match="orbit left the witness set"):
                _partition(np.asarray(bad, dtype=np.int64), kdim, p, gens)
