"""Brute-force enumeration oracle versus the cohomological classifier."""

import itertools

import numpy as np
import pytest

from sqzlift.cli import canonical_json
from sqzlift.complexes import Complex, GradedObject, compose, delta, map_reduce, zero_map
from sqzlift.errors import CheckFailed
from sqzlift.obstruction import (
    DifferentialProblem,
    classify_lifts,
    lift_differential,
    obstruct_differential,
    obstruct_homotopy,
    obstruct_map,
    v_class,
)
from sqzlift.oracle import (
    _PARTITION_ROWS,
    _partition,
    gen_instance,
    oracle_differential,
    oracle_homotopy,
    oracle_map,
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


def test_sigma_lift_is_a_witness_for_trivial_deformation(z4):
    # lifting the zero differential: the coefficientwise lift (index 0 in
    # digit coordinates) must be among the witnesses
    prob = DifferentialProblem(z4, OB3, zero_map(z4.mid, OB3, OB3, 1))
    res = oracle_differential(prob)
    assert 0 in set(int(i) for i in res.witness_indices)


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


def test_partition_of_no_witnesses_is_empty():
    got = _partition(np.zeros(0, dtype=np.int64), 3, 2, [np.ones(3, dtype=np.int64)])
    assert len(got) == 0
    assert canonical_json(got) == "[]\n"


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
