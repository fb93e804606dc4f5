"""Independent checks of sqzlift reports.

Nothing here imports sqzlift.  Rings are rebuilt from the tower descriptions
in the problem documents, products of ring, algebra and matrix elements are
computed with this module's own einsum over each ring's multiplication table,
and ranks mod p come from this module's own row reduction.  The only things
shared with the program are the document format and the coordinate
conventions needed to read a report: the J basis (greedy over kernel elements
in lexicographic order), the flattening order of the kernel complex
(J index, then graded degree, then row, column and algebra index) and the
base-p digit order of oracle candidate indices (least significant first).

`check_report` returns a list of problems; an empty list means the report
passed every check.
"""

from __future__ import annotations

import itertools

import numpy as np

# ---------------------------------------------------------------------------
# linear algebra mod p
# ---------------------------------------------------------------------------


def row_reduce(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Nonzero rows of the reduced row echelon form of `a` mod p, and the
    pivot columns.  Row operations are vectorised over the whole matrix."""
    a = np.array(a, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("row_reduce expects a 2-d array")
    rows, cols = a.shape
    r = 0
    pivots: list[int] = []
    for j in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, j])
        if len(nz) == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * pow(int(a[r, j]), p - 2, p)) % p
        col = a[:, j].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if len(hit):
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(j)
        r += 1
    return a[:r], pivots


def rank_mod_p(a, p: int) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return len(row_reduce(a, p)[1])


def null_basis(a, p: int) -> np.ndarray:
    """Rows spanning the right null space of `a` mod p."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1]
    red, piv = row_reduce(a, p) if a.size else (np.zeros((0, n), np.int64), [])
    free = [j for j in range(n) if j not in piv]
    out = np.zeros((len(free), n), dtype=np.int64)
    for b, j in enumerate(free):
        out[b, j] = 1
        for i, pj in enumerate(piv):
            out[b, pj] = (-red[i, j]) % p
    return out


def in_row_space(v, red: np.ndarray, piv: list[int], p: int) -> bool:
    return not normal_form(v, red, piv, p).any()


def normal_form(v, red: np.ndarray, piv: list[int], p: int) -> np.ndarray:
    out = np.asarray(v, dtype=np.int64) % p
    for i, j in enumerate(piv):
        if out[j]:
            out = (out - out[j] * red[i]) % p
    return out


# ---------------------------------------------------------------------------
# rings and towers
# ---------------------------------------------------------------------------


class Ring:
    """Finite commutative ring given by additive orders and a basis product table."""

    def __init__(self, p: int, orders, mult):
        self.p = int(p)
        self.orders = np.asarray(orders, dtype=np.int64)
        self.mult = np.asarray(mult, dtype=np.int64)
        self.m = len(self.orders)

    def elements(self) -> np.ndarray:
        """All coefficient vectors in lexicographic order."""
        return np.array(list(itertools.product(*[range(int(o)) for o in self.orders])),
                        dtype=np.int64).reshape(-1, self.m)

    def mul(self, x, y) -> np.ndarray:
        return np.einsum("...u,...v,uvw->...w", x, y, self.mult) % self.orders


def trunc_poly_ring(p: int, a: int) -> Ring:
    mult = np.zeros((a, a, a), dtype=np.int64)
    for i in range(a):
        for j in range(a - i):
            mult[i, j, i + j] = 1
    return Ring(p, [p] * a, mult)


def zmod_ring(p: int, a: int) -> Ring:
    return Ring(p, [p ** a], [[[1]]])


def square_zero_ring(p: int, r: int) -> Ring:
    m = r + 1
    mult = np.zeros((m, m, m), dtype=np.int64)
    for j in range(m):
        mult[0, j, j] = 1
        mult[j, 0, j] = 1
    return Ring(p, [p] * m, mult)


class Tower:
    """Rbar -> R -> F_p with the projections as coefficient image tables."""

    def __init__(self, pay: dict):
        kind, p = pay["kind"], int(pay["p"])
        prm = {k: int(v) for k, v in pay.get("params", {}).items()}
        self.p = p
        if kind == "trunc_poly":
            a, b = prm["a"], prm["b"]
            self.bar, self.mid = trunc_poly_ring(p, a), trunc_poly_ring(p, b)
            self.pibar = np.eye(a, b, dtype=np.int64)
        elif kind == "zmod":
            self.bar, self.mid = zmod_ring(p, prm["a"]), zmod_ring(p, prm["b"])
            self.pibar = np.ones((1, 1), dtype=np.int64)
        elif kind == "square_zero":
            self.bar, self.mid = square_zero_ring(p, prm["r"]), zmod_ring(p, 1)
            self.pibar = np.eye(prm["r"] + 1, 1, dtype=np.int64)
        else:
            raise ValueError(f"tower kind {kind!r} is not covered by the checker")
        self.base = zmod_ring(p, 1)
        self.pi = np.eye(self.mid.m, 1, dtype=np.int64)
        self._jbasis()

    def _jbasis(self):
        """Greedy F_p basis of J = Ker(Rbar -> R) over kernel elements in
        lexicographic order, with a lookup from J element to coordinates."""
        elems = self.bar.elements()
        ker = elems[~((elems @ self.pibar) % self.mid.orders).any(axis=1)]
        scale = self.bar.orders // self.p
        basis, rows = [], np.zeros((0, self.bar.m), dtype=np.int64)
        for v in ker:
            if not v.any():
                continue
            cand = np.vstack([rows, (v // scale) % self.p])
            if rank_mod_p(cand, self.p) > len(basis):
                basis.append(v)
                rows = cand
        self.jbasis = np.array(basis, dtype=np.int64).reshape(-1, self.bar.m)
        self.dimJ = len(basis)
        self.jcoords = {}
        for lam in itertools.product(range(self.p), repeat=self.dimJ):
            v = (np.asarray(lam, dtype=np.int64) @ self.jbasis) % self.bar.orders
            self.jcoords[v.tobytes()] = np.asarray(lam, dtype=np.int64)
        if len(self.jcoords) != len(ker):
            raise ValueError("J basis does not span the kernel")


# ---------------------------------------------------------------------------
# algebras at the three levels, matrices and graded maps
# ---------------------------------------------------------------------------


class Level:
    """Free algebra over a ring with structure constants struct[i, j, l, :]."""

    def __init__(self, ring: Ring, struct, unit):
        self.ring = ring
        self.struct = np.asarray(struct, dtype=np.int64) % ring.orders
        self.unit = np.asarray(unit, dtype=np.int64) % ring.orders
        self.k = self.struct.shape[0]

    def matmul(self, x, y) -> np.ndarray:
        """Product of (r, c, k, m) and (c, s, k, m) matrices over the algebra."""
        ring_prod = np.einsum("acix,cbjy,xyz->abijz", x, y, self.ring.mult)
        out = np.einsum("abijz,ijlu,zuw->ablw", ring_prod % self.ring.orders,
                        self.struct, self.ring.mult)
        return out % self.ring.orders

    def eye(self, n: int) -> np.ndarray:
        out = np.zeros((n, n, self.k, self.ring.m), dtype=np.int64)
        for i in range(n):
            out[i, i] = self.unit
        return out


class Setting:
    """A tower with one algebra read over Rbar, R and F_p."""

    def __init__(self, tower_pay: dict, alg_pay: dict):
        self.tower = t = Tower(tower_pay)
        self.p = t.p
        R = t.bar
        one = np.eye(R.m, 1, dtype=np.int64)[:, 0]
        kind = alg_pay["kind"]
        if kind == "trivial":
            struct = one.reshape(1, 1, 1, R.m)
            unit = one.reshape(1, R.m)
        elif kind == "dual_numbers":
            struct = np.zeros((2, 2, 2, R.m), dtype=np.int64)
            struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 0, 1] = one
            unit = np.stack([one, 0 * one])
        elif kind == "custom":
            struct, unit = alg_pay["struct"], alg_pay["unit"]
        else:
            raise ValueError(f"algebra kind {kind!r} is not covered by the checker")
        self.bar = Level(R, struct, unit)
        self.mid = Level(t.mid, self.bar.struct @ t.pibar, self.bar.unit @ t.pibar)
        to_base = t.pibar @ t.pi
        self.base = Level(t.base, self.bar.struct @ to_base, self.bar.unit @ to_base)
        self.k = self.bar.k
        self.images = {("bar", "mid"): t.pibar, ("mid", "base"): t.pi,
                       ("bar", "base"): to_base}
        self._sigma_table()

    def level(self, name: str) -> Level:
        return {"bar": self.bar, "mid": self.mid, "base": self.base}[name]

    def reduce(self, x, src: str, dst: str) -> np.ndarray:
        return (np.asarray(x) @ self.images[(src, dst)]) % self.level(dst).ring.orders

    def _sigma_table(self):
        """Lexicographically minimal preimage in Rbar of each element of R."""
        self._sigma = {}
        for v in self.tower.bar.elements():
            key = self.reduce(v, "bar", "mid").tobytes()
            self._sigma.setdefault(key, v)

    def sigma(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        flat = x.reshape(-1, x.shape[-1])
        out = np.stack([self._sigma[v.tobytes()] for v in flat]) if len(flat) else \
            np.zeros((0, self.bar.ring.m), dtype=np.int64)
        return out.reshape(x.shape[:-1] + (self.bar.ring.m,))

    def j_coords(self, x) -> np.ndarray | None:
        """(dimJ,) + x.shape[:-1] coordinates of J-valued coefficients, or None."""
        x = np.asarray(x, dtype=np.int64)
        flat = x.reshape(-1, x.shape[-1])
        out = np.zeros((self.tower.dimJ, len(flat)), dtype=np.int64)
        for e, v in enumerate(flat):
            lam = self.tower.jcoords.get(v.tobytes())
            if lam is None:
                return None
            out[:, e] = lam
        return out.reshape((self.tower.dimJ,) + x.shape[:-1])

    def j_matrix(self, lam) -> np.ndarray:
        """J-valued coefficients from coordinates of shape (dimJ, ...)."""
        lam = np.asarray(lam, dtype=np.int64)
        return np.einsum("s...,sw->...w", lam, self.tower.jbasis) % self.bar.ring.orders


def ranks_of(pay: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in pay.items() if int(v)}


class GMap:
    """Graded map of degree n: comps[i] : src_i -> tgt_{i+n}, all support filled."""

    def __init__(self, level: Level, src: dict, tgt: dict, n: int, comps=None):
        self.level, self.src, self.tgt, self.n = level, src, tgt, n
        comps = comps or {}
        self.comps = {}
        for i in self.support():
            shape = (tgt[i + n], src[i], level.k, level.ring.m)
            c = comps.get(i)
            self.comps[i] = (np.zeros(shape, dtype=np.int64) if c is None
                             else np.asarray(c, dtype=np.int64) % level.ring.orders)
            if self.comps[i].shape != shape:
                raise ValueError(f"component {i} has shape {self.comps[i].shape}")

    def support(self) -> list[int]:
        return sorted(i for i in self.src if self.tgt.get(i + self.n, 0))

    def like(self, comps) -> "GMap":
        return GMap(self.level, self.src, self.tgt, self.n, comps)

    def __add__(self, o: "GMap") -> "GMap":
        return self.like({i: self.comps[i] + o.comps[i] for i in self.comps})

    def __sub__(self, o: "GMap") -> "GMap":
        return self.like({i: self.comps[i] - o.comps[i] for i in self.comps})

    def is_zero(self) -> bool:
        return not any(c.any() for c in self.comps.values())

    def equals(self, o: "GMap") -> bool:
        return (self.src == o.src and self.tgt == o.tgt and self.n == o.n
                and (self - o).is_zero())


def compose(g: GMap, f: GMap) -> GMap:
    """g o f, components (g o f)_i = g_{i+|f|} f_i."""
    n = f.n + g.n
    comps = {}
    for i in f.support():
        if g.tgt.get(i + n, 0) and (i + f.n) in g.comps:
            comps[i] = g.level.matmul(g.comps[i + f.n], f.comps[i])
    return GMap(f.level, f.src, g.tgt, n, comps)


def delta(f: GMap, dC: GMap, dD: GMap) -> GMap:
    """dD o f - (-1)^|f| f o dC."""
    sign = -1 if f.n % 2 == 0 else 1
    a, b = compose(dD, f), compose(f, dC)
    return a.like({i: a.comps[i] + sign * b.comps[i] for i in a.comps})


def gmap_from(setting: Setting, pay: dict) -> GMap:
    lvl = setting.level(pay["level"])
    return GMap(lvl, ranks_of(pay["src"]), ranks_of(pay["tgt"]), int(pay["degree"]),
                {int(k): v for k, v in pay["comps"].items()})


def complex_from(setting: Setting, pay: dict) -> GMap:
    ob = ranks_of(pay["ranks"])
    return GMap(setting.level(pay["level"]), ob, ob, 1,
                {int(k): v for k, v in pay["d"].items()})


def reduce_map(setting: Setting, f: GMap, src: str, dst: str) -> GMap:
    return GMap(setting.level(dst), f.src, f.tgt, f.n,
                {i: setting.reduce(c, src, dst) for i, c in f.comps.items()})


def sigma_map(setting: Setting, f: GMap) -> GMap:
    return GMap(setting.bar, f.src, f.tgt, f.n,
                {i: setting.sigma(c) for i, c in f.comps.items()})


# ---------------------------------------------------------------------------
# the base Hom complex and its cohomology
# ---------------------------------------------------------------------------


class BaseHom:
    """Hom(C0, D0) over the base algebra: delta matrices, ranks, cohomology.

    Flattening of degree n: graded degree ascending, then row, column and
    algebra index (the same order the kernel complex uses).
    """

    def __init__(self, setting: Setting, dC0: GMap, dD0: GMap):
        self.s, self.p, self.k = setting, setting.p, setting.k
        self.dC = {i: c[..., 0] % self.p for i, c in dC0.comps.items()}
        self.dD = {i: c[..., 0] % self.p for i, c in dD0.comps.items()}
        self.obC, self.obD = dC0.src, dD0.src
        self.S = setting.base.struct[..., 0] % self.p
        self._rank: dict[int, int] = {}

    def support(self, n: int) -> list[int]:
        return sorted(i for i in self.obC if self.obD.get(i + n, 0))

    def block(self, n: int, i: int) -> int:
        return self.obD[i + n] * self.obC[i] * self.k

    def dim(self, n: int) -> int:
        return sum(self.block(n, i) for i in self.support(n))

    def offsets(self, n: int) -> dict[int, int]:
        out, pos = {}, 0
        for i in self.support(n):
            out[i] = pos
            pos += self.block(n, i)
        return out

    def delta_matrix(self, n: int) -> np.ndarray:
        """Matrix of f -> dD f - (-1)^n f dC from Hom^n to Hom^{n+1}."""
        src, dst = self.offsets(n), self.offsets(n + 1)
        out = np.zeros((self.dim(n + 1), self.dim(n)), dtype=np.int64)
        k, S = self.k, self.S
        sign = -1 if n % 2 == 0 else 1
        for i in dst:
            A, B = self.obD[i + n + 1], self.obC[i]
            r0 = dst[i]
            rows = slice(r0, r0 + A * B * k)
            if i in src and (i + n) in self.dD:          # dD_{i+n} f_i
                X = self.dD[i + n]
                C = self.obD[i + n]
                M = np.einsum("aci,ijl,bd->ablcdj", X, S, np.eye(B, dtype=np.int64))
                out[rows, src[i]:src[i] + C * B * k] += M.reshape(A * B * k, C * B * k)
            if (i + 1) in src and i in self.dC:          # f_{i+1} dC_i
                Y = self.dC[i]
                C = self.obC[i + 1]
                M = np.einsum("ae,cbj,ijl->ableci", np.eye(A, dtype=np.int64), Y, S)
                out[rows, src[i + 1]:src[i + 1] + A * C * k] += \
                    sign * M.reshape(A * B * k, A * C * k)
        return out % self.p

    def rank(self, n: int) -> int:
        if n not in self._rank:
            self._rank[n] = rank_mod_p(self.delta_matrix(n), self.p)
        return self._rank[n]

    def h(self, n: int) -> int:
        return self.dim(n) - self.rank(n) - self.rank(n - 1)

    def flatten(self, f: GMap) -> np.ndarray:
        """Base-level flattening of a graded map (coefficients mod p)."""
        parts = [f.comps[i][..., 0].reshape(-1) for i in self.support(f.n)]
        return (np.concatenate(parts) if parts else np.zeros(0, np.int64)) % self.p


def cohomology_dims(setting: Setting, d0: GMap) -> dict[int, int]:
    """h_i of a base complex of a rank-1 algebra, from ranks of its blocks."""
    p = setting.p
    rk = {i: rank_mod_p(c[..., 0, 0], p) for i, c in d0.comps.items()}
    return {i: r - rk.get(i, 0) - rk.get(i - 1, 0) for i, r in d0.src.items()}


def kunneth(hC: dict[int, int], hD: dict[int, int], n: int) -> int:
    return sum(h * hD.get(i + n, 0) for i, h in hC.items())


def kernel_vector(setting: Setting, hom: BaseHom, f: GMap) -> np.ndarray | None:
    """Kernel-complex coordinates (J index major) of a J-valued bar map."""
    parts = []
    for i in hom.support(f.n):
        lam = setting.j_coords(f.comps[i])
        if lam is None:
            return None
        parts.append(lam.reshape(setting.tower.dimJ, -1))
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts, axis=1).reshape(-1)


def kernel_map(setting: Setting, hom: BaseHom, vec, n: int) -> GMap:
    """Inverse of kernel_vector: a J-valued bar map from coordinates."""
    dimJ, k = setting.tower.dimJ, setting.k
    vec = np.asarray(vec, dtype=np.int64).reshape(dimJ, hom.dim(n))
    comps = {}
    for i, off in hom.offsets(n).items():
        r, c = hom.obD[i + n], hom.obC[i]
        lam = vec[:, off:off + r * c * k].reshape(dimJ, r, c, k)
        comps[i] = setting.j_matrix(lam)
    return GMap(setting.bar, hom.obC, hom.obD, n, comps)


# ---------------------------------------------------------------------------
# the three lifting problems, read from a problem document
# ---------------------------------------------------------------------------


class Problem:
    """A problem document, with the equation a lift must satisfy.

    `unknown` is the degree of the lifted datum in Hom(C, D); the defect of
    the minimal lift lives one degree higher in the kernel complex.
    """

    def __init__(self, pay: dict):
        self.s = s = Setting(pay["tower"], pay["algebra"])
        self.kind = pay["kind"]
        if self.kind == "differential":
            self.mid_datum = complex_from(s, pay["complex"])
            d0 = reduce_map(s, self.mid_datum, "mid", "base")
            self.dC0 = self.dD0 = d0
            self.unknown = 1
        else:
            self.dC = complex_from(s, pay["C"])
            self.dD = complex_from(s, pay["D"])
            self.dC0 = reduce_map(s, self.dC, "bar", "base")
            self.dD0 = reduce_map(s, self.dD, "bar", "base")
            if self.kind == "map":
                self.mid_datum = gmap_from(s, pay["f"])
                self.unknown = self.mid_datum.n
            else:
                self.f, self.g = gmap_from(s, pay["f"]), gmap_from(s, pay["g"])
                self.mid_datum = gmap_from(s, pay["H"])
                self.unknown = self.f.n - 1
        self.hom = BaseHom(s, self.dC0, self.dD0)

    def residual(self, X: GMap) -> GMap:
        """The bar-level equation, zero exactly for a lift."""
        if self.kind == "differential":
            return compose(X, X)
        if self.kind == "map":
            return delta(X, self.dC, self.dD)
        return delta(X, self.dC, self.dD) - (self.g - self.f)

    def lift_problems(self, X: GMap) -> list[str]:
        out = []
        if X.n != self.unknown or X.src != self.mid_datum.src or X.tgt != self.mid_datum.tgt:
            return ["witness has the wrong degree or ranks"]
        if not self.residual(X).is_zero():
            out.append("witness does not satisfy the lifting equation")
        if not reduce_map(self.s, X, "bar", "mid").equals(self.mid_datum):
            out.append("witness does not reduce to the given mid-level datum")
        return out

    def minimal_lift(self) -> GMap:
        return sigma_map(self.s, self.mid_datum)

    def defect_vector(self) -> np.ndarray:
        """Kernel-complex coordinates of the residual of the minimal lift."""
        vec = kernel_vector(self.s, self.hom, self.residual(self.minimal_lift()))
        if vec is None:
            raise ValueError("residual of the minimal lift is not J-valued")
        return vec

    def obstructed(self) -> bool:
        """True iff the defect is not a coboundary: J (x) delta0 is block
        diagonal, so test each J component against the image of delta0."""
        n, p = self.unknown, self.s.p
        D = self.hom.delta_matrix(n)
        dimJ = self.s.tower.dimJ
        for c in self.defect_vector().reshape(dimJ, -1):
            if rank_mod_p(np.column_stack([D, c]), p) != rank_mod_p(D, p):
                return True
        return False

    def kernel_dims(self) -> dict[str, int]:
        """dimJ times the base dimensions around the unknown's degree."""
        n, dimJ, hom = self.unknown, self.s.tower.dimJ, self.hom
        return {"kdim": dimJ * hom.dim(n),
                "z": dimJ * (hom.dim(n) - hom.rank(n)),
                "b": dimJ * hom.rank(n - 1),
                "h": dimJ * hom.h(n)}


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

EXIT_OF = {"lifts": 0, "classified": 0, "verified": 0, "obstructed": 2}


def _h_dim(prob: Problem, n: int) -> tuple[int, int | None]:
    """(dimJ * h^n by delta ranks, the Kunneth value for rank-1 algebras or None)."""
    dimJ = prob.s.tower.dimJ
    small = sum(prob.hom.dim(j) for j in (n - 1, n, n + 1)) <= 1500
    by_rank = dimJ * prob.hom.h(n) if small else None
    kun = None
    if prob.s.k == 1:
        kun = dimJ * kunneth(cohomology_dims(prob.s, prob.dC0),
                             cohomology_dims(prob.s, prob.dD0), n)
    if by_rank is None and kun is None:
        raise ValueError("no way to compute h for this instance")
    return (by_rank if by_rank is not None else kun), kun


def _check_h(prob: Problem, n: int, claimed: int, what: str) -> list[str]:
    h, kun = _h_dim(prob, n)
    out = []
    if kun is not None and kun != h:
        out.append(f"checker inconsistency: {what} Kunneth {kun} vs ranks {h}")
    if claimed != h:
        out.append(f"{what} is {claimed}, expected {h}")
    return out


def _check_classification(prob: Problem, cl: dict) -> list[str]:
    out = []
    p = prob.s.p
    n = prob.unknown
    if cl["torsor_degree"] != n:
        out.append("torsor degree is wrong")
    out += _check_h(prob, n, cl["h_dim"], "h_dim")
    if cl["count"] != p ** cl["h_dim"]:
        out.append("count is not p^h_dim")
    wits = [gmap_from(prob.s, w) for w in cl["witnesses"]]
    if len(wits) != cl["count"] or len(cl["class_reps"]) != cl["count"]:
        out.append("number of witnesses or class representatives differs from count")
        return out
    for w in wits:
        out += prob.lift_problems(w)
    if out:
        return out
    # distinct classes: differences from the first witness must be distinct
    # and nonzero modulo the coboundaries J (x) im delta0^{n-1}
    dimJ = prob.s.tower.dimJ
    B = prob.hom.delta_matrix(n - 1).T
    red, piv = row_reduce(B, p) if B.size else (np.zeros((0, prob.hom.dim(n)), np.int64), [])
    seen = set()
    for w in wits:
        vec = kernel_vector(prob.s, prob.hom, w - wits[0])
        if vec is None:
            return out + ["two witnesses differ outside J"]
        key = tuple(tuple(normal_form(c, red, piv, p)) for c in vec.reshape(dimJ, -1))
        seen.add(key)
    if len(seen) != len(wits):
        out.append("two witnesses lie in the same class")
    return out


def _check_lift(prob: Problem, report: dict, expect: str | None) -> list[str]:
    out = []
    want = expect or ("obstructed" if prob.obstructed() else "lifts")
    verdict = report.get("verdict")
    if verdict == "classified":
        verdict = "lifts"
    if verdict != want:
        return [f"verdict {report.get('verdict')!r}, expected {want!r}"]
    obs = report.get("obstruction")
    if obs is not None:
        if obs["degree"] != prob.unknown + 1:
            out.append("obstruction has the wrong degree")
        if any(obs["coords"]) != (want == "obstructed"):
            out.append("obstruction class disagrees with the verdict")
    if want == "lifts" and "witness" in report:
        out += prob.lift_problems(gmap_from(prob.s, report["witness"]))
    return out


def _check_oracle(prob: Problem, report: dict) -> list[str]:
    out = []
    p = prob.s.p
    dims = prob.kernel_dims()
    obstructed = prob.obstructed()
    want = "obstructed" if obstructed else "verified"
    if report.get("verdict") != want:
        return [f"verdict {report.get('verdict')!r}, expected {want!r}"]
    if report["kind"] != prob.kind or not report["agrees_with_obstruction"]:
        out.append("kind or agreement flag is wrong")
    if report["kdim"] != dims["kdim"] or report["candidates"] != p ** dims["kdim"]:
        out.append("candidate count is not p^kdim")
    wit = report["witness_indices"]
    nw = 0 if obstructed else p ** dims["z"]
    if report["num_witnesses"] != nw or len(wit) != nw:
        out.append(f"num_witnesses {report['num_witnesses']}, expected {nw}")
    ncl = 0 if obstructed else p ** dims["h"]
    orbits = report["orbits"]
    if report["num_classes"] != ncl or len(orbits) != ncl:
        out.append(f"num_classes {report['num_classes']}, expected {ncl}")
    if out or obstructed:
        return out
    if any(b <= a for a, b in zip(wit, wit[1:])):
        out.append("witness indices are not strictly increasing")
    size = p ** dims["b"]
    if any(len(o) != size for o in orbits):
        out.append(f"an orbit does not have size p^dim B = {size}")
    if sorted(i for o in orbits for i in o) != list(wit):
        out.append("orbits do not partition the witnesses")
    # decode a deterministic sample of witnesses and test them directly
    sample = sorted(set(wit[:8] + wit[-8:] + [o[0] for o in orbits[:8]]))
    base = prob.minimal_lift()
    kd = dims["kdim"]
    for idx in sample:
        digits = [(idx // p ** s) % p for s in range(kd)]
        cand = base + kernel_map(prob.s, prob.hom, digits, prob.unknown)
        if not prob.residual(cand).is_zero():
            out.append(f"witness index {idx} does not satisfy the lifting equation")
            break
    return out


def _check_functor(doc_pay: dict, report: dict, command: str) -> list[str]:
    s = Setting(doc_pay["tower"], doc_pay["algebra"])
    p = s.p
    d_mid = complex_from(s, doc_pay["complex"])
    d0 = reduce_map(s, d_mid, "mid", "base")
    hom = BaseHom(s, d0, d0)
    tangent = hom.h(1)
    out = []
    if s.k == 1 and tangent != kunneth(cohomology_dims(s, d0), cohomology_dims(s, d0), 1):
        out.append("checker inconsistency: tangent by ranks and by Kunneth differ")
    if report.get("verdict") != "verified":
        return [f"verdict {report.get('verdict')!r}, expected 'verified'"]
    if report["tangent_dim"] != tangent:
        out.append(f"tangent_dim {report['tangent_dim']}, expected {tangent}")
    if command == "tangent":
        return out
    A = s.tower.bar
    a = A.m
    if doc_pay["tower"]["kind"] != "trunc_poly" or report["ring_size"] != p ** a:
        return out + ["functor check expects F_p[t]/t^a with ring_size p^a"]
    # R (x) Lambda_0 over A = F_p[t]/t^a
    one = np.eye(a, 1, dtype=np.int64)[:, 0]
    algA = Level(A, s.base.struct[..., :1] * one, s.base.unit[..., :1] * one)
    ob = d0.src
    elems = report["F0"]["elements"]
    if len(set(map(tuple, elems))) != len(elems):
        out.append("F0 has repeated elements")
    for e in elems:
        vec = np.asarray(e, dtype=np.int64)
        comps, pos = {}, 0
        for i in sorted(ob):
            size = ob.get(i + 1, 0) * ob[i] * s.k * a
            if size:
                comps[i] = vec[pos:pos + size].reshape(ob[i + 1], ob[i], s.k, a)
            pos += size
        if pos != len(vec):
            return out + ["an F0 element has the wrong length"]
        d = GMap(algA, ob, ob, 1, comps)
        if not compose(d, d).is_zero():
            return out + ["an F0 element is not square-zero"]
        if any(not np.array_equal(d.comps[i][..., 0] % p, d0.comps[i][..., 0] % p)
               for i in d.comps):
            return out + ["an F0 element does not reduce to d0"]
    # |F0| from the cocycles of End(C0)
    Z = null_basis(hom.delta_matrix(1), p) if hom.dim(1) else np.zeros((0, 0), np.int64)
    nz = len(Z)
    if a == 2:
        want_f0 = p ** nz
    else:
        B2 = hom.delta_matrix(1).T
        red, piv = row_reduce(B2, p) if B2.size else (np.zeros((0, hom.dim(2)), np.int64), [])
        good = 0
        for lam in itertools.product(range(p), repeat=nz):
            nu = (np.asarray(lam, dtype=np.int64) @ Z) % p if nz else np.zeros(hom.dim(1), np.int64)
            nu_map = base_map(s, hom, nu, 1)
            sq = hom.flatten(compose(nu_map, nu_map))
            good += in_row_space(sq, red, piv, p) if len(sq) else 1
        want_f0 = good * p ** nz
    if len(elems) != want_f0 or report["F0"]["size"] != want_f0:
        out.append(f"|F0| is {len(elems)}, expected {want_f0}")
    for tag in ("F0", "F", "F1"):
        cls = report[tag]["classes"]
        if sorted(i for c in cls for i in c) != list(range(len(elems))):
            out.append(f"{tag} classes do not partition F0")
        if report[tag]["elements"] != elems or report[tag]["size"] != len(cls):
            out.append(f"{tag} elements or size disagree with F0")
    if report["F0"]["classes"] != [[i] for i in range(len(elems))]:
        out.append("F0 classes are not singletons")
    if sorted(report["F1"]["classes"]) != sorted(report["F"]["classes"]):
        out.append("F1 classes differ from F classes")
    if a == 2 and report["F"]["size"] != p ** tangent:
        out.append(f"|F| over F_p[t]/t^2 is {report['F']['size']}, expected p^{tangent}")
    return out


def base_map(s: Setting, hom: BaseHom, vec, n: int) -> GMap:
    """A base-level graded map from its flattening."""
    comps = {}
    for i, off in hom.offsets(n).items():
        r, c = hom.obD[i + n], hom.obC[i]
        comps[i] = np.asarray(vec[off:off + r * c * s.k]).reshape(r, c, s.k, 1)
    return GMap(s.base, hom.obC, hom.obD, n, comps)


def check_report(command: str, doc: dict, report: dict, code: int,
                 expect: str | None = None) -> list[str]:
    """Problems found in the report of `command` on the problem document `doc`.

    `expect` is the verdict known by construction, when there is one.
    """
    if not isinstance(report, dict):
        return ["no report"]
    verdict = report.get("verdict")
    if report.get("command") != command:
        return [f"report is for {report.get('command')!r}"]
    if verdict == "failed":
        return [f"failed report: {report.get('error')}"]
    if EXIT_OF.get(verdict) != code:
        return [f"exit code {code} does not match verdict {verdict!r}"]
    pay = doc["payload"]
    if command in ("tangent", "functor-eval"):
        return _check_functor(pay, report, command)
    prob = Problem(pay)
    if command == "oracle":
        return _check_oracle(prob, report)
    if command == "obstruct-diff":
        out = _check_lift(prob, report, expect)
        return out + _check_h(prob, 2, report["h2_dim"], "h2_dim")
    if command in ("lift-diff", "lift-map", "lift-homotopy", "extend-order"):
        out = _check_lift(prob, report, expect)
        if command == "extend-order" and not out:
            b = int(pay["tower"]["params"]["b"])
            if (report["from_order"], report["to_order"]) != (b, b + 1):
                out.append("extend-order reports the wrong orders")
        return out
    if command in ("classify", "classify-homotopy"):
        out = _check_lift(prob, report, expect)
        if not out and report["verdict"] == "classified":
            out += _check_classification(prob, report["classification"])
        return out
    return [f"no check for command {command!r}"]
