"""The four benchmark workloads.

Each workload draws its whole operation stream from the seed in ``setup`` and
returns it as rounds: lists of operations with a fixed mix of kinds, so any
whole number of rounds has the same proportions.  ``prepare`` (untimed, once
per round) builds each operation's input objects from the draw, attaches the
reference its check needs, computed by an independent route, and redraws an
input whose check could not be evaluated.  An input's shape (which cone, face
or simple root) comes from its slot in the stream, not from the seed, so every
seed runs the same shapes and seeds differ only in the numbers: the spread
between seeds then measures the program, not the luck of the draw.  ``execute`` is the timed call.
``check`` (untimed) compares the outcome with the reference and returns an
error message or None.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import zlib
from fractions import Fraction
from math import gcd
from pathlib import Path

from toroidal import cli, suites
from toroidal.bigcell import Calculus, MixedPoint, OutsideDomain, specialize_mixed
from toroidal.catalog import chamber_cones, cone_catalog
from toroidal.charts import (
    ChartPoint,
    InvalidChartValues,
    limit_point,
    torus_point,
    torus_translate,
)
from toroidal.chevalley import random_element
from toroidal.cones import Cone, interior_cocharacter
from toroidal.ratfun import EPS, PoleAtZero, evaluate_at_zero
from toroidal.rootdata import RootDatum

MISS = "outside-domain"


class Op:
    """One operation of the stream: a label, its input and its reference."""

    __slots__ = ("uid", "kind", "data", "expect", "digest")

    def __init__(self, uid: str, kind: str, data):
        self.uid = uid
        self.kind = kind
        self.data = data
        self.expect = None
        self.digest = None


class Workload:
    name = ""
    rounds = 1
    # (label, count) per round; the label selects the input generator
    mix: tuple = ()

    def setup(self, seed: int, workdir: Path) -> list:
        """Build shared program state and draw the stream (timed as setup_s)."""
        self.seed = seed
        self.workdir = workdir
        self.build()
        rng = random.Random(f"{seed}:{self.name}")
        out = []
        for r in range(self.rounds):
            ops = [
                Op(f"{r}.{label}.{k}", label, rng.getrandbits(64))
                for label, count in self.mix
                for k in range(count)
            ]
            rng.shuffle(ops)
            out.append(ops)
        return out

    def prepare(self, ops) -> None:
        for op in ops:
            draw = op.data
            for attempt in range(200):
                shape = random.Random(f"{self.name}:{op.uid}")
                op.data = self.generate(op.kind, random.Random(f"{draw}:{attempt}"), shape)
                if self.reference(op):
                    break
            else:
                raise RuntimeError(f"{op.uid}: no input with a checkable reference")

    def build(self) -> None:
        """Program state shared by all operations (part of set-up)."""

    def generate(self, label, rng, shape):
        """Input for ``label``: numbers from ``rng``, structure from ``shape``."""
        raise NotImplementedError

    def reference(self, op) -> bool:
        """Attach op.expect; False asks for a new input."""
        return True

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, value, exc, latency: float):
        raise NotImplementedError


# -- shared input helpers ------------------------------------------------------


def _nonzero_fraction(rng) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 3))


def _boundary_base(cone, shape):
    """Limit point of a nonzero face's interior cocharacter on a chamber cone."""
    faces = [s for s in cone.face_ray_sets() if s]
    tau = Cone(sorted(shape.choice(faces)), cone.dim)
    return limit_point(interior_cocharacter(tau), cone)


def _unexpected(exc) -> str:
    return f"unexpected {type(exc).__name__}: {exc}"


# -- calculus over Q -------------------------------------------------------------


class CalculusQ(Workload):
    """reflect_simple, reorder, act and check_equivalence over Q.

    Torus inputs are checked against the matrix-level maps (``n_i g n_i^-1``,
    ``reorder_direct``, ``act_direct``).  Boundary inputs are checked by the
    identity laws ``reorder(e, p, e) = (e, p, e)`` and ``act(e, p, e) = p``,
    by ``f_i^4 = id`` for a single reflection and by the round trip
    ``reflect_longest_inverse(reflect_longest(p)) = p``.  Equivalent pairs
    built through ``act`` must never be refuted; pairs bumped by a root
    element must never be confirmed.
    """

    name = "calculus_q"
    rounds = 40
    mix = (
        ("1.reflect_torus", 4),
        ("1.reflect_boundary", 2),
        ("1.longest_boundary", 2),
        ("1.reorder_torus", 6),
        ("1.reorder_boundary", 2),
        ("1.act_torus", 6),
        ("1.act_boundary", 2),
        ("1.equiv_same", 2),
        ("1.equiv_bumped", 2),
        ("2.reflect_torus", 2),
        ("2.reflect_boundary", 1),
        ("2.longest_boundary", 1),
        ("2.reorder_torus", 2),
        ("2.reorder_boundary", 1),
        ("2.act_torus", 2),
        ("2.act_boundary", 1),
        ("2.equiv_same", 1),
        ("2.equiv_bumped", 1),
        ("3.reflect_torus", 1),
        ("3.reflect_boundary", 1),
    )

    def build(self) -> None:
        self.calcs = {r: Calculus(RootDatum.of_type("A", r)) for r in (1, 2, 3)}
        self.cones = {r: chamber_cones(c.rd) for r, c in self.calcs.items()}
        self.zero = {r: Cone([], dim=r) for r in self.calcs}
        # rank 3 runs reflections only, which need no anchors
        for r in (1, 2):
            for cone in self.cones[r]:
                self.calcs[r].anchors(cone)

    def _unipotents(self, calc, rng):
        pin = calc.pinning
        um = pin.unipotent_product(
            pin.negative_order, [Fraction(rng.randint(-3, 3)) for _ in pin.negative_order]
        )
        up = pin.unipotent_product(
            pin.positive_order, [Fraction(rng.randint(-3, 3)) for _ in pin.positive_order]
        )
        return um, up

    def _torus_chart(self, r, rng, shape):
        cone = shape.choice([self.zero[r]] + self.cones[r])
        return torus_point(tuple(_nonzero_fraction(rng) for _ in range(r)), cone)

    def _boundary_chart(self, r, rng, shape):
        cone = shape.choice([c for c in self.cones[r] if not c.is_zero()])
        coords = tuple(_nonzero_fraction(rng) for _ in range(r))
        return torus_translate(coords, _boundary_base(cone, shape))

    def generate(self, label, rng, shape):
        rank, kind = label.split(".")
        r = int(rank)
        calc = self.calcs[r]
        pin = calc.pinning
        um, up = self._unipotents(calc, rng)
        d = {"rank": r, "kind": kind}
        if kind.startswith("equiv"):
            coords = tuple(_nonzero_fraction(rng) for _ in range(r))
            d["w"] = MixedPoint(um, torus_point(coords, self.zero[r]), up)
            d["g"] = tuple(random_element(pin, rng) for _ in range(4))
            d["seed"] = rng.randrange(10**6)
            return d
        if kind.endswith("torus"):
            chart = self._torus_chart(r, rng, shape)
        else:
            chart = self._boundary_chart(r, rng, shape)
        if kind in ("reorder_boundary", "act_boundary"):
            d["g1"] = d["g2"] = pin.identity()
            if kind == "reorder_boundary":
                um = up = pin.identity()
        else:
            d["g1"], d["g2"] = random_element(pin, rng), random_element(pin, rng)
        d["p"] = MixedPoint(um, chart, up)
        d["i"] = shape.randrange(r)
        return d

    def reference(self, op) -> bool:
        d = op.data
        calc = self.calcs[d["rank"]]
        kind, p = d["kind"], d.get("p")
        if kind == "reflect_torus":
            n_i = calc.pinning.simple_reflection_element(d["i"])
            op.expect = n_i @ calc.to_matrix(p) @ n_i.inverse()
        elif kind in ("reflect_boundary", "longest_boundary"):
            if kind == "reflect_boundary":
                forward = lambda x: calc.reflect_simple(x, d["i"])  # noqa: E731
                backward = lambda x: calc.reflect_simple(  # noqa: E731
                    calc.reflect_simple(calc.reflect_simple(x, d["i"]), d["i"]), d["i"]
                )
            else:
                forward, backward = calc.reflect_longest, calc.reflect_longest_inverse
            try:
                q = forward(p)
            except OutsideDomain:
                op.expect = MISS
                return True
            try:
                back = backward(q)
            except OutsideDomain:
                return False
            op.expect = q if back == p else ("law", "inverse law does not return the input")
        elif kind == "reorder_torus":
            try:
                op.expect = calc.reorder_direct(p.u_plus, p.chart, p.u_minus)
            except OutsideDomain:
                return False
        elif kind == "act_torus":
            try:
                op.expect = calc.act_direct(d["g1"], p, d["g2"])
            except OutsideDomain:
                return False
        elif kind in ("reorder_boundary", "act_boundary"):
            op.expect = p
        elif kind == "equiv_same":
            g1, g2, c1, c2 = d["g"]
            w = d["w"]
            try:
                w2 = calc.act(c1, w, c2)
            except OutsideDomain:
                return False
            d["pair"] = ((g1, w, g2), (g1 @ c1.inverse(), w2, g2 @ c2.inverse()))
            op.expect = "not_equivalent"  # the verdict that would be wrong
        elif kind == "equiv_bumped":
            g1, g2 = d["g"][:2]
            w = d["w"]
            pin = calc.pinning
            bumped = MixedPoint(
                w.u_minus, w.chart, w.u_plus @ pin.root_element(calc.rd.simple_root(0), Fraction(1))
            )
            d["pair"] = ((g1, w, g2), (g1, bumped, g2))
            op.expect = "equivalent"
        return True

    def execute(self, op):
        d = op.data
        calc = self.calcs[d["rank"]]
        kind = d["kind"]
        if kind.startswith("equiv"):
            a, b = d["pair"]
            return calc.check_equivalence(a, b, witness_budget=8, seed=d["seed"])
        p = d["p"]
        if kind.startswith("reflect"):
            return calc.reflect_simple(p, d["i"])
        if kind == "longest_boundary":
            return calc.reflect_longest(p)
        if kind.startswith("reorder"):
            return calc.reorder(p.u_plus, p.chart, p.u_minus)
        return calc.act(d["g1"], p, d["g2"])

    def check(self, op, value, exc, latency):
        kind = op.data["kind"]
        if isinstance(exc, OutsideDomain):
            # A miss counts in in_domain_ratio.  It is an error only where the
            # reference found the same map defined on the same input.  An
            # identity law that leaves the domain is a miss: about 1 in 600
            # rank-2 boundary charts makes reorder(e, p, e) hit D = 0.
            if kind in ("reflect_boundary", "longest_boundary") and op.expect is not MISS:
                return f"{op.kind}: outside the domain now, inside before"
            return None
        if exc is not None:
            return _unexpected(exc)
        if kind.startswith("equiv"):
            return f"{op.kind}: verdict {value.kind}" if value.kind == op.expect else None
        if op.expect is MISS:
            return f"{op.kind}: in domain now, outside before"
        if isinstance(op.expect, tuple):
            return f"{op.kind}: {op.expect[1]}"
        if kind == "reflect_torus":
            value = self.calcs[op.data["rank"]].to_matrix(value)
        return None if value == op.expect else f"{op.kind}: result differs from the reference"


# -- calculus over Q(eps) ---------------------------------------------------------


def _eps_linear(rng, nonzero: bool = False):
    while True:
        a = Fraction(rng.randint(-2, 2))
        if a or not nonzero:
            return a + EPS * Fraction(rng.randint(-2, 2))


def _specialize_matrix(m):
    return m.map(evaluate_at_zero)


class CalculusEps(Workload):
    """The same maps on curves with entries a + b*eps.

    Each input is drawn so that its specialization at eps = 0 lies in the
    map's domain; the reference is the map over Q at the specialized input,
    and the check is that specialization commutes with the map.
    """

    name = "calculus_eps"
    rounds = 16
    mix = (
        ("1.reflect", 12),
        ("1.reorder", 12),
        ("1.act", 12),
        ("2.reflect", 6),
        ("2.reorder", 1),
        ("2.act", 1),
    )

    def build(self) -> None:
        self.calcs = {r: Calculus(RootDatum.of_type("A", r)) for r in (1, 2)}
        self.cones = {r: chamber_cones(c.rd) for r, c in self.calcs.items()}
        for r, calc in self.calcs.items():
            for cone in self.cones[r]:
                calc.anchors(cone)

    def generate(self, label, rng, shape):
        rank, kind = label.split(".")
        r = int(rank)
        pin = self.calcs[r].pinning
        neg, pos = pin.negative_order, pin.positive_order
        cone = shape.choice(self.cones[r])
        coords = tuple(_eps_linear(rng, nonzero=True) for _ in range(r))
        if cone.is_zero():
            chart = torus_point(coords, cone)
        else:
            chart = torus_translate(coords, _boundary_base(cone, shape))
        um = pin.unipotent_product(neg, [_eps_linear(rng) for _ in neg])
        up = pin.unipotent_product(pos, [_eps_linear(rng) for _ in pos])
        d = {"rank": r, "kind": kind, "p": MixedPoint(um, chart, up), "i": shape.randrange(r)}
        if kind == "act":
            # unipotent curves: a torus factor in g1 gives rank 2 a heavy tail
            d["g1"] = pin.unipotent_product(neg, [_eps_linear(rng) for _ in neg])
            d["g2"] = pin.unipotent_product(pos, [_eps_linear(rng) for _ in pos])
        return d

    def _apply(self, d, p, g1=None, g2=None):
        calc = self.calcs[d["rank"]]
        kind = d["kind"]
        if kind == "reflect":
            return calc.reflect_simple(p, d["i"])
        if kind == "reorder":
            return calc.reorder(p.u_plus, p.chart, p.u_minus)
        return calc.act(g1, p, g2)

    def reference(self, op) -> bool:
        d = op.data
        try:
            p0 = specialize_mixed(d["p"])
            if d["kind"] == "act":
                op.expect = self._apply(
                    d, p0, _specialize_matrix(d["g1"]), _specialize_matrix(d["g2"])
                )
            else:
                op.expect = self._apply(d, p0)
        except (OutsideDomain, PoleAtZero):
            return False
        return True

    def execute(self, op):
        d = op.data
        return self._apply(d, d["p"], d.get("g1"), d.get("g2"))

    def check(self, op, value, exc, latency):
        if exc is not None:
            # the specialization is in the domain, so the curve must be too
            return f"{op.kind}: {exc}" if isinstance(exc, OutsideDomain) else _unexpected(exc)
        try:
            got = specialize_mixed(value)
        except PoleAtZero as e:
            return f"{op.kind}: result has a pole at eps = 0 ({e})"
        return None if got == op.expect else f"{op.kind}: specialization does not commute"


# -- command-line helpers ------------------------------------------------------------


class _CliWorkload(Workload):
    """Operations are in-process ``toroidal`` command lines writing --out."""

    replay_every = 8
    replay_max_s = 1.0

    def prepare(self, ops) -> None:
        """Inputs are complete after set-up."""

    def _out_bytes(self) -> bytes | None:
        """Read and remove the --out file, so the next operation starts clean."""
        try:
            data = self.out_path.read_bytes()
        except FileNotFoundError:
            return None
        self.out_path.unlink()
        return data

    def _replay(self, op, latency, data: bytes | None):
        """Byte-identical output on a replay with the same arguments."""
        digest = hashlib.sha256(data or b"").hexdigest()
        if op.digest is None:
            op.digest = digest
            sampled = zlib.crc32(op.uid.encode()) % self.replay_every == 0
            if sampled and latency < self.replay_max_s:
                self.execute(op)
                if hashlib.sha256(self._out_bytes() or b"").hexdigest() != digest:
                    return f"{op.kind}: replay with the same arguments differs"
        elif op.digest != digest:
            return f"{op.kind}: output differs from an earlier run of the same arguments"
        return None

    def execute(self, op):
        return cli.main(op.data["argv"])


# -- polyhedral ------------------------------------------------------------------------


_ROOT_TYPES = {"A2": ("A", 2), "B2": ("B", 2), "G2": ("G", 2), "A3": ("A", 3)}
_FIXTURES = {
    "overlap": ({"cartan_matrix": [[2, 0], [0, 2]]}, [[[-1, 0], [-1, -2]], [[-1, -1], [0, -1]]], 2),
    "positive": ({"cartan_matrix": [[2, 0], [0, 2]]}, [[[1, 0]]], 3),
}
_BOX = {1: 8, 2: 8, 3: 5}


def _pairing(m, r):
    return sum(a * b for a, b in zip(m, r))


def _in_dual(rays, m):
    return all(_pairing(m, r) >= 0 for r in rays)


def _rank(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _hilbert_oracle(rays, dim, basis):
    """Brute-force check of a dual-monoid Hilbert basis inside a lattice box.

    Full-dimensional cones have a pointed dual: the irreducibles in the box
    must be exactly the basis.  Otherwise every basis element must lie in the
    dual monoid and every box point of it must decompose over the basis.
    """
    box = _BOX[dim]
    if rays and _rank(rays) == dim:
        if any(abs(x) > box for h in basis for x in h):
            return "basis leaves the oracle box"
        pts = [
            p
            for p in itertools.product(range(-box, box + 1), repeat=dim)
            if any(p) and _in_dual(rays, p)
        ]
        members = set(pts)
        irreducible = [
            p
            for p in pts
            if not any(q != p and tuple(a - b for a, b in zip(p, q)) in members for q in pts)
        ]
        return None if sorted(irreducible) == sorted(basis) else "differs from brute force"
    if not all(_in_dual(rays, h) for h in basis):
        return "basis element outside the dual monoid"
    for p in itertools.product(range(-3, 4), repeat=dim):
        if _in_dual(rays, p) and not _decomposes(p, basis):
            return f"{p} does not decompose over the basis"
    return None


def _decomposes(target, gens, cap: int = 9) -> bool:
    seen = {target}
    stack = [target]
    while stack:
        v = stack.pop()
        if not any(v):
            return True
        moves = []
        for g in gens:
            w = tuple(a - b for a, b in zip(v, g))
            if w not in seen and all(abs(x) <= cap for x in w):
                seen.add(w)
                moves.append(w)
        moves.sort(key=lambda w: sum(abs(x) for x in w), reverse=True)
        stack.extend(moves)
    return False


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _breakable(basis, dim):
    """Basis elements on one side of a binomial relation of degree <= 3."""
    buckets = {}
    for size in range(4):
        for combo in itertools.combinations_with_replacement(basis, size):
            total = tuple(sum(c[k] for c in combo) for k in range(dim))
            buckets.setdefault(total, []).append(set(combo))
    out = set()
    for combos in buckets.values():
        for a, b in itertools.permutations(combos, 2):
            out |= a - b
    return sorted(out)


class Polyhedral(_CliWorkload):
    """CLI analyze and hilbert plus validated chart points, on fresh cones.

    Every round analyzes the chamber fans of A2, B2, G2 and A3, a star
    subdivision of the A2, B2 and G2 chambers, and the two rejected fixtures;
    runs hilbert twice on the 30 catalog cones (rays in two seeded orders)
    and on 2D cones; and builds validated ChartPoints (torus or limit points)
    on the catalog cones, plus relation-breaking value maps on each catalog
    cone that has a binomial relation.
    """

    name = "polyhedral"
    rounds = 2
    hilbert_passes = 2
    random_2d = 30
    reject_passes = 2
    # Chart points per round and catalog cone, by Hilbert basis size.  The
    # 15-element cone takes ~2.5 s per point.  The A3 analyze (~13 s) keeps a
    # run to one round, so the small operations (hilbert, small charts,
    # rejections; ~200 per round) are many enough to pin p50, and thirty
    # torus points on the 9-element cone (~0.2 s each) form the cluster that
    # p90 falls in, below the heaviest analyze runs; without it p90 sits where
    # latencies are sparse.  Limit points (faster) are drawn on the smaller
    # cones only.
    chart_passes = ((6, 2), (9, 30), (10**9, 1))
    limit_max_basis = 6

    def build(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out_path = self.workdir / "out.json"
        self.files = {}
        for key, (letter, rank) in _ROOT_TYPES.items():
            self.files[key] = self._write(f"root_{key}.json", {"type": letter, "rank": rank})
            chamber = RootDatum.of_type(letter, rank).negative_chamber()
            self.files[f"chamber_{key}"] = self._write(
                f"fan_chamber_{key}.json", {"cones": [{"rays": [list(r) for r in chamber.rays]}]}
            )
        for key, (root, cones, _) in _FIXTURES.items():
            self.files[f"root_{key}"] = self._write(f"root_{key}.json", root)
            self.files[key] = self._write(
                f"fan_{key}.json", {"cones": [{"rays": c} for c in cones]}
            )
        self.catalog = [(c.dim, c.rays, c.hilbert_basis) for c in cone_catalog()]
        self.breakable = {
            k: _breakable(hb, dim) for k, (dim, _, hb) in enumerate(self.catalog)
        }
        self._oracle_cache = {}

    def _write(self, name, payload) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def setup(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.build()
        rng = random.Random(f"{seed}:{self.name}")
        rounds = []
        for r in range(self.rounds):
            # fans and chart shapes depend on the round only, numbers on the seed
            shape = random.Random(f"{self.name}:{r}")
            ops = []
            for key in _ROOT_TYPES:
                ops.append(self._analyze(f"{r}.chamber_{key}.0", key, self.files[f"chamber_{key}"], 0))
            for key in ("A2", "B2", "G2"):
                letter, rank = _ROOT_TYPES[key]
                r1, r2 = RootDatum.of_type(letter, rank).negative_chamber().rays
                a, b = shape.choice(((1, 1), (1, 2), (2, 1)))
                v = list(_primitive(tuple(a * x + b * y for x, y in zip(r1, r2))))
                fan = {"cones": [{"rays": [list(r1), v]}, {"rays": [v, list(r2)]}]}
                path = self._write(f"fan_star_{key}_{r}.json", fan)
                ops.append(self._analyze(f"{r}.star_{key}.0", key, path, 0))
            for key, (_, _, code) in _FIXTURES.items():
                ops.append(self._analyze(f"{r}.{key}.0", f"root_{key}", self.files[key], code))
            for _ in range(self.hilbert_passes):
                for k, (dim, rays, _) in enumerate(self.catalog):
                    rays = list(rays)
                    rng.shuffle(rays)
                    ops.append(self._hilbert(f"{r}.hilbert_catalog.{k}", rays, dim))
            for k in range(self.random_2d):
                while True:
                    r1 = (shape.randint(-3, 3), shape.randint(-3, 3))
                    r2 = (shape.randint(-3, 3), shape.randint(-3, 3))
                    if r1[0] * r2[1] - r1[1] * r2[0] > 0:
                        break
                ops.append(self._hilbert(f"{r}.hilbert_2d.{k}", [list(r1), list(r2)], 2))
            for k, (_, _, hb) in enumerate(self.catalog):
                passes = next(n for size, n in self.chart_passes if len(hb) <= size)
                for _ in range(passes):
                    ops.append(Op(f"{r}.chart.{k}", "chart", self._chart(k, rng, shape, False)))
                if self.breakable[k] and len(hb) <= 9:
                    for _ in range(self.reject_passes):
                        data = self._chart(k, rng, shape, True)
                        ops.append(Op(f"{r}.chart_reject.{k}", "chart_reject", data))
            for k, op in enumerate(ops):
                op.uid = f"{op.uid}.{k}"
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def _analyze(self, uid, root_key, fan_path, code):
        argv = ["analyze", "--root-datum", self.files[root_key], "--fan", fan_path]
        argv += ["--out", str(self.out_path)]
        kind = "analyze_" + uid.split(".")[1]
        return Op(uid, kind, {"argv": argv, "code": code})

    def _hilbert(self, uid, rays, dim):
        argv = ["hilbert", "--rays", json.dumps(rays), "--out", str(self.out_path)]
        if not rays:
            argv += ["--dim", str(dim)]
        return Op(uid, "hilbert", {"argv": argv, "rays": [tuple(r) for r in rays], "dim": dim})

    def _chart(self, k, rng, shape, reject):
        dim, rays, hb = self.catalog[k]
        coords = [_nonzero_fraction(rng) for _ in range(dim)]
        values = {}
        for h in hb:
            v = Fraction(1)
            for c, e in zip(coords, h):
                v *= c**e
            values[h] = v
        if rays and not reject and len(hb) <= self.limit_max_basis and shape.random() < 0.5:
            delta = [0] * dim
            for r in shape.sample(rays, shape.randint(1, len(rays))):
                m = shape.randint(1, 2)
                delta = [a + m * b for a, b in zip(delta, r)]
            values = {h: v if _pairing(h, delta) == 0 else Fraction(0) for h, v in values.items()}
        if reject:
            h = shape.choice(self.breakable[k])
            values[h] = values[h] * 2
        return {"dim": dim, "rays": rays, "values": values}

    def execute(self, op):
        if op.kind.startswith("chart"):
            d = op.data
            return ChartPoint(Cone(d["rays"], dim=d["dim"]), d["values"])
        return super().execute(op)

    def check(self, op, value, exc, latency):
        if op.kind == "chart_reject":
            if isinstance(exc, InvalidChartValues):
                return None
            return _unexpected(exc) if exc else "chart_reject: broken relation accepted"
        if exc is not None:
            return _unexpected(exc)
        if op.kind == "chart":
            return None if value.values == op.data["values"] else "chart: values changed"
        d = op.data
        raw = self._out_bytes()
        if op.kind == "hilbert":
            if value != 0 or raw is None:
                return f"hilbert: exit {value}"
            got = [tuple(h) for h in json.loads(raw)["hilbert_basis"]]
            key = (d["dim"], tuple(sorted(d["rays"])))
            if key not in self._oracle_cache:
                self._oracle_cache[key] = _hilbert_oracle(d["rays"], d["dim"], got)
            if self._oracle_cache[key]:
                return f"hilbert {d['rays']}: {self._oracle_cache[key]}"
        else:
            if value != d["code"] or raw is None:
                return f"{op.kind}: exit {value}, expected {d['code']}"
            report = json.loads(raw)
            want = {
                0: (True, True, True),
                2: (False, None, None),
                3: (True, False, None),
            }[d["code"]]
            got = (report["valid"], report["chamber_supported"], report["proper"])
            if got != want:
                return f"{op.kind}: (valid, chamber_supported, proper) = {got}"
        return self._replay(op, latency, raw)


# -- verify ----------------------------------------------------------------------------


# At rank 2, limits is heavy-tailed by seed (up to minutes per case), and the
# boundary_identity properties of theta and action fail for some seeds
# (reorder(e, p, e) leaves the domain), e.g.
# ``toroidal verify --suite theta --rank 2 --cases 1 --seed 980464`` exits 4.
_RANK2_SUITES = tuple(
    s for s in suites.SUITE_NAMES if s not in ("limits", "theta", "action")
)


class VerifyCli(_CliWorkload):
    """``toroidal verify`` in-process, several seeds per run.

    Each round runs ``--suite all`` at rank 1 with four seeds, the suites in
    ``_RANK2_SUITES`` at rank 2 with one seed and ``equivalence`` at rank 2
    with a second seed, one case each.  The package keeps its
    Calculus objects in ``suites._CALCULI`` across calls; set-up clears and
    refills it, so process start-up is out of scope.
    """

    name = "verify_cli"
    rounds = 24
    rank1_runs = 4

    def build(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out_path = self.workdir / "out.json"
        cache = getattr(suites, "_CALCULI", None)
        warm = getattr(suites, "_calculus", None)
        if cache is None or warm is None:
            return
        cache.clear()
        for rank in (1, 2):
            calc = warm(rank)
            for cone in chamber_cones(calc.rd):
                calc.anchors(cone)

    def setup(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.build()
        rng = random.Random(f"{seed}:{self.name}")
        rounds = []
        for r in range(self.rounds):
            runs = [("all", 1, rng.randrange(10**6)) for _ in range(self.rank1_runs)]
            s = rng.randrange(10**6)
            runs += [(name, 2, s) for name in _RANK2_SUITES]
            # a second equivalence run makes its cluster the one p90 falls in
            runs.append(("equivalence", 2, rng.randrange(10**6)))
            ops = []
            for k, (suite, rank, s) in enumerate(runs):
                argv = ["verify", "--suite", suite, "--rank", str(rank), "--cases", "1"]
                argv += ["--seed", str(s), "--out", str(self.out_path)]
                ops.append(Op(f"{r}.{suite}.{k}", f"verify_r{rank}_{suite}", {"argv": argv}))
            rounds.append(ops)
        return rounds

    def check(self, op, value, exc, latency):
        if exc is not None:
            return _unexpected(exc)
        raw = self._out_bytes()
        if value != 0 or raw is None:
            return f"{op.kind}: exit {value}"
        report = json.loads(raw)
        if report["all_pass"] is not True:
            failed = [p["name"] for p in report["properties"] if not p["passed"]]
            return f"{op.kind}: all_pass false ({failed})"
        return self._replay(op, latency, raw)


WORKLOADS = {w.name: w for w in (CalculusQ, CalculusEps, Polyhedral, VerifyCli)}
