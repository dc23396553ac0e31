"""The two workloads: seeded inputs, the queries they send, and the checks
on every answer.

A workload is a list of units. A unit is a generator that yields one
``Query`` at a time and receives its ``Result``; the checks on that result
run inside the generator, after the timed call has returned, and may shape
the next query (the large-jord walkthrough orders a parameter with the
program's own canonical order). The loop in ``run.py`` never looks inside
a unit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Generator

import oracles as O

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "fixtures.json"

R_LABEL = {"id": "r", "dim": 1, "self_dual": True, "parity": "orthogonal"}
UV_LABELS = [{"id": x, "dim": 2, "self_dual": False, "parity": None} for x in ("u", "v")]
# Labels of the unpairable sets: any two distinct ones of equal dimension
# count as contragredient, so an odd set of them makes the pairing search
# try every matching before it gives up.
W_LABELS = [{"id": f"w{k}", "dim": 2, "self_dual": False, "parity": None} for k in range(11)]
TWISTS = [(1, 4), (-1, 4), (1, 3), (-1, 3), (1, 6), (2, 5), (-2, 5)]


@dataclass
class Query:
    cmd: str
    argv: list[str]
    stdin: str | None = None


@dataclass
class Result:
    code: int | None
    out: str
    problem: str | None = None
    # Set when the disagreement is a documented defect of the program (see
    # NOTES.md). It still counts as failed; it does not make the run incorrect.
    known: str | None = None
    _doc: Any = field(default=None, repr=False)

    def expect(self, ok: bool, what: str) -> bool:
        """Record the first disagreement with the oracle; return ``ok``."""
        if not ok and self.problem is None:
            self.problem = what
        return ok

    def doc(self, *keys: str) -> dict | None:
        """The parsed JSON answer, or None (recorded as a failure) when it is
        not an object carrying ``keys``."""
        if self._doc is None:
            try:
                self._doc = json.loads(self.out)
            except ValueError:
                self._doc = False
        doc = self._doc
        if self.expect(isinstance(doc, dict) and all(k in doc for k in keys),
                       f"answer is not an object with keys {keys}: {self.out[:120]!r}"):
            return doc
        return None


Unit = Callable[[], Generator[Query, Result, None]]


@dataclass
class Workload:
    name: str
    units: list[Unit]
    workspaces: list[str]
    # A window is a run of consecutive units that sends the workload's whole
    # mix once, so that every window asks for the same work. Runs are made of
    # whole windows; the unit count is a multiple of it.
    window_units: int


def _ws(labels: list[dict], m_star: int, epsilon: int, params: list[dict]) -> str:
    return json.dumps({
        "labels": labels,
        "group": {"kind": "SOodd", "m_star": m_star, "epsilon": "+" if epsilon > 0 else "-"},
        "parameters": params,
    })


def _block(rho: str, a: int, b: int, twist: tuple[int, int] = (0, 1)) -> dict:
    return {"rho": rho, "a": a, "b": b, "twist_num": twist[0], "twist_den": twist[1]}


def _dim(block: dict) -> int:
    return (1 if block["rho"] == "r" else 2) * block["a"] * block["b"]


def _half(x2: int) -> str:
    return str(x2 // 2) if x2 % 2 == 0 else f"{x2}/2"


def _sign(text: str) -> int:
    return {"+": 1, "-": -1}.get(text, 0)


# ---------------------------------------------------------------------------
# Fixture queries: every subcommand and mode on the bundled workspaces, with
# answers compared with golden bytes


def fixture_argvs() -> list[list[str]]:
    """Every subcommand and mode on the bundled fixtures."""
    demo, sp = "tests/data/demo_workspace.json", "tests/data/sp_workspace.json"
    order = ["order", "-w", demo, "--param", "P", "--rho", "r", "--a0", "4", "--b0", "3"]
    return [
        ["validate", "-w", demo],
        ["validate", "-w", demo, "--param", "P"],
        ["validate", "-w", sp],
        ["packet", "-w", demo, "--param", "P", "--count"],
        ["packet", "-w", demo, "--param", "P", "--list"],
        ["packet", "-w", demo, "--param", "Q", "--count", "--epsilon", "-"],
        ["packet", "-w", demo, "--param", "Q", "--list", "--epsilon", "-"],
        ["packet", "-w", sp, "--param", "J", "--count"],
        ["packet", "-w", sp, "--param", "J", "--list", "--epsilon", "-"],
        order + ["--validate"],
        order + ["--canonical"],
        order + ["--validate", "--side", "psi_plus"],
        order + ["--canonical", "--side", "psi_plus"],
        ["pole-order", "-w", demo, "--param", "P", "--rho", "r", "--a0", "4", "--s0", "1"],
        ["pole-order", "-w", sp, "--param", "J", "--rho", "r", "--a0", "4", "--s0", "3/2"],
        ["transfer", "-w", demo, "--param", "P", "--rho", "r", "--a0", "4", "--b0", "3"],
        ["transfer", "-w", demo, "--param", "P", "--rho", "r", "--a0", "3", "--b0", "2",
         "--insert-position", "0"],
        # A leading minus needs the '=' form: argparse reads '-1,2' as an option.
        ["jac", "--normal-form", "--rho", "r", "--exponents=-1,2,0,1/2,-3/2,1,3,2"],
        ["jac", "--nonvanishing", "-w", demo, "--param", "P", "--rho", "r",
         "--from", "1/2", "--to", "3/2"],
        ["jac", "--nonvanishing", "-w", demo, "--param", "P", "--rho", "r",
         "--from", "3/2", "--to=-7/2"],
        ["irreducible", "-w", demo, "--param", "P", "--rho", "r", "--x", "5/2"],
        ["irreducible", "-w", demo, "--param", "Q", "--rho", "r", "--x", "1/2"],
        ["infchar", "-w", demo, "--arch", "AR"],
        ["infchar", "-w", demo, "--arch", "AI", "--a-tau", "2", "--s0", "1", "--check-regular"],
        ["arch-order", "-w", demo, "--arch", "AR", "--a-tau", "2", "--a-tau", "3", "--s0", "1"],
        ["eisenstein", "-w", demo, "--global", "G1", "--rho", "r", "--s0", "2",
         "--local", "t", "--residue"],
        ["eisenstein", "-w", demo, "--global", "G2", "--rho", "r", "--s0", "3/2"],
    ]


def fixture_units(root: Path) -> tuple[list[Unit], list[str]]:
    """One unit per fixture argv, and the texts of the workspaces they read."""
    golden = {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text())}
    argvs = fixture_argvs()
    missing = [a for a in argvs if tuple(a) not in golden]
    if missing:
        raise SystemExit(f"no golden answer recorded for {missing[0]}")

    def unit(argv: list[str]) -> Unit:
        def run() -> Generator[Query, Result, None]:
            want = golden[tuple(argv)]
            r = yield Query(argv[0], argv)
            r.expect(r.code == want["code"], f"exit {r.code}, golden {want['code']}")
            r.expect(r.out == want["stdout"], "stdout differs from the golden bytes")
        return run

    files = sorted({a[a.index("-w") + 1] for a in argvs if "-w" in a})
    return [unit(a) for a in argvs], [(root / f).read_text() for f in files]


# ---------------------------------------------------------------------------
# packet-survey: in-process count and list for both signs, 3 to 8 blocks

# The (m + 1) factors of one parameter's blocks, m = min(a, b). Their
# products, the candidates enumeration walks, rise roughly geometrically from
# 27 (3 blocks) to 23,040 (8 blocks), so the latencies form an even spectrum
# with no gap for a median to fall into. The spectrum is the same for every
# seed; the seed picks the blocks and the order. Rows made only of 3s and 5s
# have nonzero sign excess, so the two signs' counts differ there.
SPECTRUM = [
    (3, 3, 3), (2, 4, 5), (3, 5, 5), (2, 2, 5, 6), (3, 3, 5, 5),
    (2, 3, 3, 3, 6), (3, 3, 3, 5, 5), (2, 3, 3, 3, 3, 6), (3, 3, 3, 3, 3, 5),
    (2, 3, 3, 5, 5, 6), (3, 3, 3, 3, 3, 3, 5), (2, 2, 4, 4, 5, 5, 5),
    (3, 3, 3, 3, 3, 3, 3, 5), (2, 2, 2, 4, 4, 5, 6, 6),
]


def _good_block(rng: random.Random, m: int) -> tuple[int, int]:
    """A good-parity (a, b) for the SOodd group (a + b odd) with min(a, b) = m."""
    big = m + 1 + 2 * rng.randrange(3)
    return (m, big) if rng.random() < 0.5 else (big, m)


def packet_survey(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    units: list[Unit] = []
    texts: list[str] = []

    def unit(sizes: list[tuple[int, int]], text: str) -> Unit:
        def run() -> Generator[Query, Result, None]:
            for mode in ("--count", "--list"):
                for eps in (1, -1):
                    want = O.packet_count(sizes, eps)
                    r = yield Query("packet", ["packet", "-w", "-", "--param", "P", mode,
                                               "--epsilon", "+" if eps > 0 else "-"], text)
                    if r.expect(r.code == 0, f"exit {r.code}"):
                        _check_packet(r, sizes, eps, want, mode == "--list")
        return run

    for _ in range(4):
        for factors in rng.sample(SPECTRUM, len(SPECTRUM)):
            sizes = [_good_block(rng, f - 1) for f in rng.sample(factors, len(factors))]
            text = _ws([R_LABEL], sum(a * b for a, b in sizes), rng.choice((1, -1)),
                       [{"name": "P", "jord": [_block("r", a, b) for a, b in sizes]}])
            units.append(unit(sizes, text))
            texts.append(text)
    # Each run of len(SPECTRUM) units is the whole spectrum once.
    return Workload("packet-survey", units, texts, window_units=len(SPECTRUM))


def _check_packet(r: Result, sizes, eps: int, want: int, listed: bool) -> None:
    doc = r.doc("epsilon", "params" if listed else "count")
    if doc is None:
        return
    r.expect(doc["epsilon"] == ("+" if eps > 0 else "-"), "wrong epsilon echoed")
    if not listed:
        r.expect(doc["count"] == want, f"count {doc['count']}, oracle {want}")
        return
    members = doc["params"]
    r.expect(len(members) == want, f"{len(members)} members listed, oracle count {want}")
    seen = set()
    for p in members:
        if not r.expect(isinstance(p, dict) and O.member_ok(
                sizes, p.get("t", []), [_sign(e) for e in p.get("eta", [])], eps), f"bad member {p}"):
            return
        seen.add((tuple(p["t"]), tuple(p["eta"])))
    r.expect(len(seen) == len(members), "listed members repeat")


# ---------------------------------------------------------------------------
# large-jord: in-process walkthrough on parameters of about 100-300 blocks


@dataclass
class BigParam:
    blocks: list[dict]
    epsilon: int
    target: tuple[int, int] | None = None  # (a0, b0) on label r
    broken: str | None = None  # the violation code validate must report
    m_star: int = 0
    t: list[int] = field(default_factory=list)
    eta: list[int] = field(default_factory=list)
    word: list[int] = field(default_factory=list)
    seg: tuple[int, int] = (0, 0)
    x: int = 1

    def labels(self) -> list[dict]:
        return [R_LABEL] + UV_LABELS + (W_LABELS if self.broken == "UnpairedBlock" else [])

    def ws(self, params: list[dict], m_star: int | None = None) -> str:
        return _ws(self.labels(), self.m_star if m_star is None else m_star, self.epsilon, params)

    def sizes(self, rho: str | None = None) -> list[tuple[int, int]]:
        return [(b["a"], b["b"]) for b in self.blocks if rho is None or b["rho"] == rho]


def _big_param(rng: random.Random, n: int, broken: str | None, length: int) -> BigParam:
    blocks: list[dict] = []
    if broken == "UnpairedBlock":
        k = rng.choice((7, 9, 11))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        blocks += [_block(w["id"], a, b) for w in rng.sample(W_LABELS, k)]
    while len(blocks) < n:
        roll = rng.random()
        if roll < 0.6:
            blocks.append(_block("r", *_good_block(rng, rng.randint(1, 6))))
        elif roll < 0.8:
            a = rng.randint(1, 7)
            b = a + 2 * rng.randint(-3, 3)
            blocks += [_block("r", a, b if b >= 1 else a)] * 2
        else:
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            tw = rng.choice(TWISTS)
            blocks += [_block("u", a, b, tw), _block("v", a, b, (-tw[0], tw[1]))]
    rng.shuffle(blocks)
    p = BigParam(blocks, rng.choice((1, -1)), broken=broken)
    p.m_star = sum(_dim(b) for b in blocks)
    if broken == "DimensionMismatch":
        p.m_star += 2 * rng.randint(1, 5)
        return p

    good = [(b["a"], b["b"]) for b in blocks
            if b["rho"] == "r" and (b["a"] + b["b"]) % 2 == 1]
    a0, b_small = rng.choice(good)
    p.target = (a0, b_small + 2)
    # One packet member: a (t, eta) per block; if the sign product comes out
    # wrong, the first block takes a (t, eta) of the other sign (every block
    # has both).
    for a, b in p.sizes():
        t, e = rng.choice(O.pairs(a, b))
        p.t.append(t)
        p.eta.append(e)
    total = 1
    for (a, b), t, e in zip(p.sizes(), p.t, p.eta):
        total *= O.sign(a, b, t, e)
    if total != p.epsilon:
        a, b = p.sizes()[0]
        p.t[0], p.eta[0] = next((t, e) for t, e in O.pairs(a, b)
                                if O.sign(a, b, t, e) != O.sign(a, b, p.t[0], p.eta[0]))
    quads = [O.quad2(a, b) for a, b in p.sizes("r")]
    # Words are runs along the segments [zeta B, ..., zeta A] of the r blocks.
    while len(p.word) < length:
        A, B, z = rng.choice(quads)
        p.word += [z * d for d in range(B, A + 1, 2)]
    del p.word[length:]
    A, B, z = rng.choice(quads)
    p.seg = (z * B, z * B + 2 * rng.randint(-8, 8))
    p.x = rng.choice([d for d in range(-24, 25) if d])
    return p


def _spread(lo: int, hi: int, k: int) -> list[int]:
    """k values evenly spaced from lo to hi."""
    return [lo + round((hi - lo) * i / (k - 1)) for i in range(k)]


def large_jord(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    # Sizes and word lengths are spread evenly over their ranges rather than
    # drawn, so every seed asks for the same amount of work; the seed picks
    # the blocks. One parameter in five is invalid and stops at validate.
    valid, invalid = 32, 8
    lengths = _spread(50, 300, valid)
    rng.shuffle(lengths)
    params = [_big_param(rng, n, None, lengths.pop()) for n in _spread(100, 300, valid)]
    params += [_big_param(rng, n, ("DimensionMismatch", "UnpairedBlock")[i % 2], 0)
               for i, n in enumerate(_spread(100, 300, invalid))]
    # The fixture queries cover the subcommands the walkthrough does not send
    # (infchar, arch-order, eisenstein) and the other modes of those it does.
    fixtures, fixture_texts = fixture_units(root)
    units = [_walkthrough(p) for p in params] + fixtures
    rng.shuffle(units)
    return Workload("large-jord", units,
                    [p.ws([{"name": "P", "jord": p.blocks}]) for p in params] + fixture_texts,
                    window_units=len(units))


def _check_canonical(r: Result, jord: list[dict]) -> list[int] | None:
    """The indices of a canonical-order answer, if they permute ``jord``."""
    if not r.expect(r.code == 0, f"exit {r.code}: {r.out[:200]!r}"):
        return None
    doc = r.doc("indices", "blocks")
    if doc is None:
        return None
    idx = doc["indices"]
    if not r.expect(sorted(idx) == list(range(len(jord))), "indices are not a permutation"):
        return None
    r.expect(doc["blocks"] == [jord[i] for i in idx], "blocks do not match the indices")
    return idx


# Defect 1 of NOTES.md: on the small side of a parameter holding bad-parity
# r blocks, the canonical order can break P or Condition0.
KNOWN_CODES = {"P", "Condition0"}


def _check_validates(r: Result, jord: list[dict], side: str) -> None:
    doc = r.doc("violations")
    if doc is None:
        return
    codes = {str(v.get("code")) for v in doc["violations"]}
    if not r.expect(r.code == 0 and not codes,
                    f"the canonical order does not validate: {', '.join(sorted(codes))}"):
        bad_parity_r = any(b["rho"] == "r" and (b["a"] + b["b"]) % 2 == 0 for b in jord)
        if r.code == 2 and codes and codes <= KNOWN_CODES and side == "psi" and bad_parity_r:
            r.known = "canonical order rejected on bad-parity r blocks"


def _walkthrough(p: BigParam) -> Unit:
    def run() -> Generator[Query, Result, None]:
        base = p.ws([{"name": "P", "jord": p.blocks}])
        r = yield Query("validate", ["validate", "-w", "-"], base)
        if p.broken:
            doc = r.doc("violations") if r.expect(r.code == 2, f"exit {r.code}, want 2") else None
            if doc is not None:
                codes = {v.get("code") for v in doc["violations"]}
                r.expect(codes == {p.broken}, f"violation codes {sorted(codes)}, want {p.broken}")
            return
        if r.expect(r.code == 0, f"exit {r.code}: {r.out[:200]!r}"):
            doc = r.doc("violations")
            r.expect(doc is None or doc["violations"] == [], "valid parameter rejected")

        a0, b0 = p.target
        tgt = ["--rho", "r", "--a0", str(a0), "--b0", str(b0)]
        # The enlarged side: the first copy of (r, a0, b0 - 2) grows to b0.
        grown = list(p.blocks)
        grown[grown.index(_block("r", a0, b0 - 2))] = _block("r", a0, b0)
        m_plus = p.m_star + 2 * a0
        plus_ws = p.ws([{"name": "P", "jord": grown}], m_plus)
        orders = {}
        for side, jord, text in (("psi", p.blocks, base), ("psi_plus", grown, plus_ws)):
            r = yield Query("order", ["order", "-w", "-", "--param", "P", *tgt,
                                      "--canonical", "--side", side], text)
            orders[side] = _check_canonical(r, jord)
        for side, jord, m in (("psi", p.blocks, p.m_star), ("psi_plus", grown, m_plus)):
            if orders[side] is None:
                continue
            text = p.ws([{"name": "P", "jord": jord, "order": orders[side]}], m)
            r = yield Query("order", ["order", "-w", "-", "--param", "P", *tgt,
                                      "--validate", "--side", side], text)
            _check_validates(r, jord, side)

        r = yield Query("pole-order", ["pole-order", "-w", "-", "--param", "P", "--rho", "r",
                                       "--a0", str(a0), "--s0", _half(b0 - 1)], base)
        want = O.pole_order(p.sizes("r"), a0, b0 - 1)
        if r.expect(r.code == 0, f"exit {r.code}") and (doc := r.doc("order")):
            r.expect(doc["order"] == want, f"pole order {doc['order']}, oracle {want}")

        order = orders["psi"] or list(range(len(p.blocks)))
        text = p.ws([{"name": "P", "jord": p.blocks, "order": order,
                      "t": [p.t[i] for i in order],
                      "eta": ["+" if p.eta[i] > 0 else "-" for i in order]}])
        r = yield Query("transfer", ["transfer", "-w", "-", "--param", "P", *tgt], text)
        if r.expect(r.code == 0, f"exit {r.code}: {r.out[:200]!r}"):
            _check_transfer(r, p, grown, m_plus)

        quads = [O.quad2(a, b) for a, b in p.sizes("r")]
        r = yield Query("irreducible", ["irreducible", "-w", "-", "--param", "P", "--rho", "r",
                                        f"--x={_half(p.x)}"], base)
        want = "irreducible" if O.irreducible(quads, p.x) else "unknown"
        if r.expect(r.code == 0, f"exit {r.code}") and (doc := r.doc("verdict")):
            r.expect(doc["verdict"] == want, f"verdict {doc['verdict']}, oracle {want}")

        x, y = p.seg
        r = yield Query("jac", ["jac", "--nonvanishing", "-w", "-", "--param", "P", "--rho", "r",
                                f"--from={_half(x)}", f"--to={_half(y)}"], base)
        want = O.chain_possible(quads, x, y)
        if r.expect(r.code == 0, f"exit {r.code}") and (doc := r.doc("nonvanishing_possible")):
            r.expect(doc["nonvanishing_possible"] is want, f"chain {doc}, oracle {want}")

        r = yield Query("jac", ["jac", "--normal-form", "--rho", "r",
                                "--exponents=" + ",".join(_half(d) for d in p.word)])
        if r.expect(r.code == 0, f"exit {r.code}") and (doc := r.doc("exponents_x2")):
            got = doc["exponents_x2"]
            r.expect(isinstance(got, list) and all(isinstance(d, int) for d in got)
                     and O.respects_order(p.word, got), "normal form breaks the commutation order")
            r.expect(got == O.normal_form(p.word), "normal form differs from Kahn's sort")
    return run


def _check_transfer(r: Result, p: BigParam, grown: list[dict], m_plus: int) -> None:
    doc = r.doc("psi_plus", "order", "t", "eta", "pivot")
    if doc is None:
        return
    key = lambda b: json.dumps(b, sort_keys=True)
    r.expect(doc["psi_plus"] == {"m_star": m_plus, "jord": grown}, "psi_plus differs")
    order = doc["order"]
    if not r.expect(isinstance(order, list) and sorted(map(key, order)) == sorted(map(key, grown)),
                    "order is not a permutation of psi_plus"):
        return
    sizes = [(b["a"], b["b"]) for b in order]
    eta = [_sign(e) for e in doc["eta"]]
    if not r.expect(O.member_ok(sizes, doc["t"], eta, p.epsilon),
                    "transported t/eta are not admissible"):
        return
    a0, b0 = p.target
    pos = doc["pivot"].get("position")
    r.expect(isinstance(pos, int) and 0 <= pos < len(order) and order[pos] == _block("r", a0, b0)
             and doc["pivot"].get("t") == doc["t"][pos] and doc["pivot"].get("eta") == doc["eta"][pos],
             "pivot does not name the enlarged block")


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "packet-survey": packet_survey,
    "large-jord": large_jord,
}

