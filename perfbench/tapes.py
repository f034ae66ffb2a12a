"""Seeded request tapes for the three workloads, and the output check.

A request is {"op": ..., "params": {...}}, with params exactly as the
daemon takes them; `cli_args` turns one into the equivalent inline
`polyufc` command line.  Every request any seed can produce comes from
the finite pools below, so `reference.json` holds a digest for each.

Seeds pick sizes and order, never the mix: each round of a tape holds
every request class once, and within a class the sizes are visited in a
low-discrepancy order over the pool (sorted by cost), so any prefix a run
manages to complete covers the class's cost range evenly whatever the
seed.  That keeps p50 and the tail off class boundaries."""

import hashlib
import json
import random

PHI = (5 ** 0.5 - 1) / 2


def req(op, workload=None, machine="bdw", **sizes):
    params = {"workload": workload, "sizes": sizes, "machine": machine}
    return {"op": op, "params": params}


def multi(*tenants):
    """analyze_multi over (workload, n) tenants on BDW."""
    return {
        "op": "analyze_multi",
        "params": {
            "machine": "bdw",
            "tenants": [{"workload": w, "sizes": {"n": n}} for w, n in tenants],
        },
    }


def spread(rng, pool):
    """Every item of `pool` once, in an order whose every prefix is spread
    evenly over the pool (golden-ratio stepping from a seeded start)."""
    m, u, used = len(pool), rng.random(), set()
    for r in range(m):
        i = int(((u + r * PHI) % 1.0) * m)
        while i in used:
            i = (i + 1) % m
        used.add(i)
        yield pool[i]


# The one `run` every workload answers the same way: it warms the serve
# workloads' roofline memo, and it is cli-warm's `run` request.  A BB
# kernel where capping pays, so the EDP geomean is well away from zero.
PANEL = req("run", "mvt", n=200)

# --- serve-cold: every (workload, size) pair is new to a fresh store ---


def _size_product(r):
    """A cost proxy that grows with cost within one family."""
    prod = 1
    for t in r["params"].get("tenants", [r["params"]]):
        for v in t["sizes"].values():
            prod *= v
    return prod


def blend(*families):
    """One class pool from families of requests (one kernel each): each
    family is sorted by cost, and the pool by rank within its family, so
    that an evenly spread prefix of the pool covers every family's cost
    range evenly."""
    ranked = []
    for j, fam in enumerate(families):
        fam = sorted(fam, key=_size_product)
        ranked += [(i / len(fam), j, r) for i, r in enumerate(fam)]
    return [r for _, _, r in sorted(ranked, key=lambda t: t[:2])]


def sizes(op, workload, machine, ns):
    return [req(op, workload, machine, n=n) for n in ns]


# Each class costs 80-450 ms a request and holds 80 or more requests, over
# four times the rounds a run completes at about 7 requests a second, so
# that a much faster build still sends every class in every round.
# Tenants never repeat a (workload, size) across analyze_multi requests.
COLD_CLASSES = {
    "analyze.bdw.blas3": blend(
        sizes("analyze", "gemm", "bdw", range(50, 63)),
        sizes("analyze", "syr2k", "bdw", range(56, 69)),
        sizes("analyze", "symm", "bdw", range(44, 58)),
        sizes("analyze", "2mm", "bdw", range(44, 53)),
        sizes("analyze", "trmm", "bdw", range(62, 77)),
        sizes("analyze", "lu", "bdw", range(66, 82)),
    ),
    "analyze.bdw.atax": blend(sizes("analyze", "atax", "bdw", range(220, 331))),
    "analyze.rpl.blas3": blend(
        sizes("analyze", "syrk", "rpl", range(56, 71)),
        sizes("analyze", "syr2k", "rpl", range(50, 67)),
        sizes("analyze", "trmm", "rpl", range(60, 77)),
        sizes("analyze", "symm", "rpl", range(50, 65)),
        sizes("analyze", "lu", "rpl", range(66, 82)),
    ),
    "analyze.rpl.jacobi-2d": blend(
        [req("analyze", "jacobi-2d", "rpl", n=n, tsteps=t) for n in range(80, 120) for t in (6, 7)]
    ),
    "analyze.rpl.deriche": blend(
        [req("analyze", "deriche", "rpl", w=w, h=h) for w in range(140, 181, 5) for h in range(140, 181, 5)]
    ),
    "run.bdw.mvt": blend(sizes("run", "mvt", "bdw", [n for n in range(150, 251) if n != 200])),
    "run.bdw.jacobi-2d": blend(
        [req("run", "jacobi-2d", n=n, tsteps=t) for n in range(70, 110) for t in (4, 5)]
    ),
    "multi2": blend([multi(("gesummv", n), ("bicg", n + 10)) for n in range(100, 180)]),
    "multi3": blend(
        [multi(("atax", n), ("trisolv", n + 100), ("gemver", n + 20)) for n in range(60, 140)]
    ),
}


def serve_cold(seed):
    """(set-up requests, timed tape) for serve-cold."""
    rng = random.Random(seed)
    streams = {name: spread(rng, pool) for name, pool in COLD_CLASSES.items()}
    tape = []
    while streams:
        names = sorted(streams)
        rng.shuffle(names)
        for name in names:
            nxt = next(streams[name], None)
            if nxt is None:
                del streams[name]
            else:
                tape.append(nxt)
    return [PANEL], tape


# --- serve-hits: a small warm set, every timed request a store hit ----

# A store hit costs what re-tiling the program costs, which depends on
# its shape, not its size.  These six families all hit in 3-5 ms, so p50
# sits inside one band rather than on a boundary between a cheap and a
# dear class.  jacobi-1d is CB, the rest BB.
HIT_FAMILIES = [
    [dict(workload="mvt", n=n) for n in (120, 140, 160)],
    [dict(workload="bicg", n=n) for n in (120, 140, 160)],
    [dict(workload="atax", n=n) for n in (120, 140, 160)],
    [dict(workload="trisolv", n=n) for n in (160, 200, 240)],
    [dict(workload="jacobi-1d", n=n, tsteps=10) for n in (600, 800, 1000)],
    [dict(workload="deriche", w=s, h=s) for s in (64, 80, 96)],
]


def hit_requests(pair):
    return [
        req("analyze", machine="bdw", **pair),
        req("analyze", machine="rpl", **pair),
        req("search", machine="bdw", **pair),
    ]


def serve_hits(seed, rounds=2000):
    """(set-up requests, timed tape): set-up answers each hit request once
    cold; the tape replays them in a fresh order every round."""
    rng = random.Random(seed)
    warm = [r for fam in HIT_FAMILIES for r in hit_requests(rng.choice(fam))]
    tape = []
    for _ in range(rounds):
        rnd = list(warm)
        rng.shuffle(rnd)
        tape.extend(rnd)
    return [PANEL] + warm, tape


# --- cli-warm: one fresh process per request over a warmed store -----

CLI_SEARCH = [req("search", **pair) for fam in HIT_FAMILIES for pair in fam]


def cli_warm(seed, rounds=100):
    """(set-up analyze requests, timed tape): the tape alternates the
    panel `run` with a `search` over the whole pool, cycling; set-up
    analyzes each program once so that every timed request hits the
    store."""
    rng = random.Random(seed)
    searches = list(spread(rng, sorted(CLI_SEARCH, key=key)))
    tape = [r for _ in range(rounds) for s in searches for r in (PANEL, s)]
    warm = [dict(r, op="analyze") for r in [PANEL] + searches]
    return warm, tape


TAPES = {"cli-warm": cli_warm, "serve-hits": serve_hits, "serve-cold": serve_cold}


def all_requests():
    """Every request any seed can put on a tape or in a set-up."""
    out = [PANEL]
    for pool in COLD_CLASSES.values():
        out += pool
    for fam in HIT_FAMILIES:
        for pair in fam:
            out += hit_requests(pair)
    out += CLI_SEARCH
    out.append(dict(PANEL, op="analyze"))
    seen, uniq = set(), []
    for r in out:
        k = key(r)
        if k not in seen:
            seen.add(k)
            uniq.append(r)
    return uniq


# --- output check ------------------------------------------------------


def key(r):
    return json.dumps(r, sort_keys=True, separators=(",", ":"))


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items() if k != "timing"}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def digest(payload):
    """Digest of a response document with its wall-clock `timing`
    objects removed."""
    canon = json.dumps(_strip_timing(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:24]


def cli_args(r):
    """The inline `polyufc` arguments equivalent to a served request."""
    op, p = r["op"], r["params"]
    if op == "analyze_multi":
        specs = ["%s:n=%d" % (t["workload"], t["sizes"]["n"]) for t in p["tenants"]]
        return ["analyze-multi", *specs, "--machine", p["machine"], "--json"]
    sizes = ",".join("%s=%d" % kv for kv in p["sizes"].items())
    return [op, "-w", p["workload"], "-s", sizes, "--machine", p["machine"], "--json"]
