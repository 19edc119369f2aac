"""The three workloads: their seeded inputs and one checked pass over them.

Each workload has `setup(bk, seed) -> (inputs, manifest)` and
`run_pass(bk, inputs, log, index)`, where index counts the passes of a run.
`bk` holds the freshly imported package modules; `log` is a spans.PassLog
whose tracer wraps every call into the package in a span named
`<module>.<stage>_s`.

The structure of the search instances stays fixed.  The seed draws the random
k-trees, the shuffled order, and a fresh vertex relabeling of the search
instances for every pass.  Book thickness is invariant under relabeling, so the
pinned expected values below hold for every seed, and the cost of a run
depends little on the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# ---- inputs and pinned answers ----

Q_KS = (4, 5, 6)
RANDOM_KTREES = ((1000, 3), (2000, 5))
SHUFFLED_KTREE = (1000, 3)  # many short pages under a shuffled order
CLI_Q = 5

INSTANCE_SEED = 0  # structure of the random search instances
EXACT_NODE_LIMIT = 200_000
# (n, p, book thickness): drawn in this order from Random(INSTANCE_SEED); each
# value is the solver's validated EXACT answer at that seed
EXACT_RANDOM = ((8, 0.5, 2), (8, 0.7, 3), (8, 0.9, 4), (9, 0.3, 1), (9, 0.5, 3), (9, 0.7, 4))
PENDANT_PATH = 9  # K_{2,3} plus a pendant path on this many more vertices

ORACLE_MAX_N = 6
ORACLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}  # connected graphs up to isomorphism
ORACLE_BT_SUM = 231  # book thickness summed over those 143 graphs, by brute force
# book_thickness_brute of the 20 seven-vertex graphs drawn from Random(INSTANCE_SEED)
ORACLE_SAMPLE_BT = (1, 1, 1, 1, 2, 3, 1, 3, 3, 2, 2, 1, 3, 2, 2, 2, 2, 2, 2, 2)


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{label}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def edges_hash(g) -> str:
    return hashlib.sha256(json.dumps([g.n, g.edges]).encode()).hexdigest()[:16]


def relabel(bk, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return bk.pkg.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def manifest(workload: str, seed: int, rows: list[dict]) -> dict:
    body = {"workload": workload, "seed": seed, "instances": rows}
    body["sha256"] = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return body


# ---- checks made by the benchmark itself ----


def positions(order) -> dict[int, int]:
    return {v: i for i, v in enumerate(order)}


def crossing(pos, e, f) -> bool:
    a1, b1 = sorted((pos[e[0]], pos[e[1]]))
    a2, b2 = sorted((pos[f[0]], pos[f[1]]))
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def embedding_fault(g, emb) -> str | None:
    """Independent check of a book embedding: the order is a permutation, the
    page map covers exactly the edges, and each page's arcs are laminar
    (checked by a stack sweep).  None when the embedding is valid."""
    if sorted(emb.order) != list(range(g.n)):
        return "order is not a permutation"
    if set(emb.pages) != set(g.edges):
        return "page map does not cover exactly the edges"
    pos = positions(emb.order)
    arcs = sorted(
        (p, min(pos[u], pos[v]), -max(pos[u], pos[v])) for (u, v), p in emb.pages.items()
    )
    stack: list[tuple[int, int]] = []
    page = None
    for p, a, neg_b in arcs:
        if p != page:
            page, stack = p, []
        b = -neg_b
        while stack and stack[-1][1] <= a:
            stack.pop()
        if stack and stack[-1][1] < b:
            return f"arcs {stack[-1]} and {(a, b)} cross on page {p}"
        stack.append((a, b))
    return None


def move_onto_crossing_page(g, emb):
    """Move one edge onto the page of an edge it crosses.  Returns the broken
    embedding and the moved edge, or None when no two edges on different
    pages cross."""
    pos = positions(emb.order)
    for e in sorted(g.edges, key=lambda e: -emb.pages[e]):
        for f in g.edges:
            if emb.pages[f] != emb.pages[e] and crossing(pos, e, f):
                pages = dict(emb.pages)
                pages[e] = emb.pages[f]
                return type(emb)(emb.order, pages, emb.page_count), e
    return None


def check_embedding(bk, log, name: str, g, emb, layer: str):
    res = log.tracer.call(layer, bk.pkg.validate_embedding, g, emb)
    fault = embedding_fault(g, emb)
    log.check(res.ok, f"{name}: validate_embedding rejects the output: {res}")
    log.check(fault is None, f"{name}: independent check: {fault}")
    log.check(res.pages_used == emb.pages_used(), f"{name}: pages_used {res.pages_used}")
    return res


# ---- ktree_embed ----


def ktree_setup(bk, seed: int):
    pkg = bk.pkg
    inputs, rows = [], []
    for k in Q_KS:
        art = pkg.build_q(k)
        inputs.append({"name": f"Q({k})", "k": k, "graph": art.graph})
        rows.append({"name": f"Q({k})", "n": art.graph.n, "m": art.graph.m, "k": k,
                     "expected": {"width": k, "host_degree": 4, "pages_at_least": k + 1},
                     "edges_sha256": edges_hash(art.graph)})
    for n, k in RANDOM_KTREES:
        gen_seed = derive_seed(seed, f"random_ktree/{n}/{k}")
        g, _ = pkg.random_ktree(n, k, gen_seed)
        inputs.append({"name": f"ktree({n},{k})", "k": k, "graph": g, "gen_seed": gen_seed})
        rows.append({"name": f"ktree({n},{k})", "n": n, "m": g.m, "k": k, "gen_seed": gen_seed,
                     "expected": {"width": k}, "edges_sha256": edges_hash(g)})
    order = list(range(SHUFFLED_KTREE[0]))
    random.Random(derive_seed(seed, "shuffle")).shuffle(order)
    order_hash = hashlib.sha256(json.dumps(order).encode()).hexdigest()[:16]
    rows.append({"name": "shuffled order", "n": len(order), "order_sha256": order_hash})
    rows.append({"name": f"cli Q({CLI_Q})", "argv": ["gen", "embed", "check"], "expected": {"exit": 0}})
    return {"trees": inputs, "shuffled": order}, manifest("ktree_embed", seed, rows)


def _ktree_instance(bk, log, inst):
    pkg, tr, name, k = bk.pkg, log.tracer, inst["name"], inst["k"]
    if "gen_seed" in inst:
        g, cert = tr.call("constructions.build_s", pkg.random_ktree, inst["graph"].n, k,
                          inst["gen_seed"])
        art = None
    else:
        art = tr.call("constructions.build_s", pkg.build_q, k)
        g, cert = art.graph, art.certificate
    log.check(g == inst["graph"], f"{name}: generator output differs from set-up")
    found = tr.call("graph.recognize_s", pkg.is_k_tree, g, k)
    log.check(found is not None, f"{name}: not recognized as a {k}-tree")
    log.check(tr.call("graph.replay_s", found.is_valid_for, g), f"{name}: recognizer certificate")
    log.check(tr.call("graph.replay_s", cert.is_valid_for, g), f"{name}: generator certificate")
    td = tr.call("treedec.from_certificate_s", pkg.decomposition_from_certificate, cert)
    rep = tr.call("treedec.validate_s", pkg.validate_decomposition, g, td)
    log.check(rep.valid and rep.smooth and rep.width == k, f"{name}: decomposition {rep}")
    if art is not None:
        rep = tr.call("treedec.validate_s", pkg.validate_decomposition, g, art.decomposition)
        log.check(rep.valid and rep.smooth and rep.width == k and rep.max_degree == 4,
                  f"{name}: build_q decomposition {rep}")
    emb = tr.call("heuristics.embed_ktree_s", pkg.embed_ktree, g, cert)
    res = check_embedding(bk, log, name, g, emb, "embedding.validate_s")
    if art is not None:  # bt(Q(k)) = k+1
        log.check(res.pages_used >= k + 1, f"{name}: {res.pages_used} pages, below k+1")
    log.units += g.n
    log.pages += res.pages_used
    log.answers += 1
    log.decided += res.ok
    return g, emb


def ktree_pass(bk, inputs, log, index: int):
    tr = log.tracer
    built = {}
    for inst in inputs["trees"]:
        with log.instance(inst["name"]):
            built[inst["name"]] = _ktree_instance(bk, log, inst)

    with log.instance("shuffled"):
        g, spine_emb = built["ktree({},{})".format(*SHUFFLED_KTREE)]
        emb = tr.call("heuristics.first_fit_shuffled_s", bk.pkg.first_fit_pages, g,
                      inputs["shuffled"])
        check_embedding(bk, log, "shuffled", g, emb, "embedding.validate_shuffled_s")
        log.units += g.n

    with log.instance("reject"):
        moved = move_onto_crossing_page(g, spine_emb)
        if log.check(moved is not None, "reject: no crossing pair on different pages"):
            broken, e = moved
            res = tr.call("embedding.validate_reject_s", bk.pkg.validate_embedding, g, broken)
            conflict = res.first_conflict
            log.check(
                not res.ok and conflict is not None and e in conflict
                and broken.pages[conflict[0]] == broken.pages[conflict[1]]
                and crossing(positions(broken.order), *conflict),
                f"reject: moved {e}, validator said {res}",
            )

    with log.instance("cli"):
        _cli_round_trip(bk, log, built[f"Q({CLI_Q})"][0])


def _cli_round_trip(bk, log, q):
    out = Path(bk.out_dir)
    with tempfile.TemporaryDirectory(dir=out, prefix="cli-") as tmp:
        graph, emb, verdict = (str(Path(tmp) / f) for f in ("q.json", "emb.json", "check.json"))
        steps = [
            (["gen", "--family", "q", "--k", str(CLI_Q)], graph),
            (["embed", "--graph", graph, "--method", "ktree", "--k", str(CLI_Q)], emb),
            (["check", "--graph", graph, "--embedding", emb], verdict),
        ]
        for argv, target in steps:
            with open(target, "w") as fh, redirect_stdout(fh), redirect_stderr(io.StringIO()):
                code = log.tracer.call("cli.main_s", bk.cli.main, argv)
            log.check(code == 0, f"cli {argv[0]}: exit code {code}")
        log.check(bk.pkg.Graph.from_json(Path(graph).read_text()) == q, "cli gen: graph differs")
        result = json.loads(Path(verdict).read_text())
        log.check(result["ok"] is True, f"cli check: {result}")
    log.units += q.n


# ---- exact_search ----


def pass_labels(seed: int, workload: str, index: int) -> random.Random:
    """Pass `index` of a run relabels its search instances from this stream,
    so each instance's median cost is taken over several labelings."""
    return random.Random(derive_seed(seed, f"{workload}/pass{index}"))


def exact_setup(bk, seed: int):
    pkg, bf = bk.pkg, bk.bruteforce
    structure = [("K7", pkg.complete_graph(7), 4), ("K8", pkg.complete_graph(8), 4)]
    rng = random.Random(INSTANCE_SEED)
    for n, p, bt in EXACT_RANDOM:
        structure.append((f"G({n},{p})", bf.random_connected_graph(n, rng, p), bt))
    k23 = pkg.complete_bipartite(2, 3)
    path = [(4, 5)] + [(v, v + 1) for v in range(5, 4 + PENDANT_PATH)]
    structure.append(("K23+path", pkg.Graph(5 + PENDANT_PATH, list(k23.edges) + path), 2))

    inputs = [{"name": name, "graph": g, "expected": bt} for name, g, bt in structure]
    rows = [{"name": name, "n": g.n, "m": g.m, "k": None, "expected": {"bt": bt},
             "edges_sha256": edges_hash(g), "relabeled": name != "K23+path"}
            for name, g, bt in structure]
    opts = pkg.SolverOptions(node_limit=EXACT_NODE_LIMIT)
    return {"seed": seed, "instances": inputs, "opts": opts}, manifest("exact_search", seed, rows)


def exact_pass(bk, inputs, log, index: int):
    pkg, tr = bk.pkg, log.tracer
    labels = pass_labels(inputs["seed"], "exact_search", index)
    for inst in inputs["instances"]:
        name, want = inst["name"], inst["expected"]
        # the pendant graph runs into the node budget; a relabeling would move
        # its incumbent between 2 and 3 pages and its cost per node by 2.5x
        g = inst["graph"] if name == "K23+path" else relabel(bk, inst["graph"], labels)
        with log.instance(name):
            rep = tr.call("solver.exact_s", pkg.book_thickness_exact, g, inputs["opts"])
            log.counts["solver.nodes"] += rep.nodes_explored
            exact = rep.status is pkg.SolverStatus.EXACT
            res = check_embedding(bk, log, name, g, rep.witness, "embedding.validate_s")
            need = tr.call("solver.leaf_color_s", pkg.min_pages_for_order, g, rep.witness.order)
            if exact:
                log.check(res.pages_used == rep.book_thickness == want == need,
                          f"{name}: EXACT {rep.book_thickness}, witness {res.pages_used}, "
                          f"order needs {need}, expected {want}")
            else:
                log.check(rep.lower_bound <= want <= need <= rep.book_thickness
                          and res.pages_used <= rep.book_thickness,
                          f"{name}: {rep.status.value} bounds {rep.lower_bound}.."
                          f"{rep.book_thickness}, expected {want}")
            log.units += 1
            log.pages += rep.book_thickness
            log.answers += 1
            log.decided += exact


# ---- oracle_verify ----


def oracle_setup(bk, seed: int):
    rng = random.Random(INSTANCE_SEED)
    sample = [bk.bruteforce.random_connected_graph(ORACLE_MAX_N + 1, rng)
              for _ in ORACLE_SAMPLE_BT]
    rows = [{"name": f"connected n={n}", "count": c, "k": None,
             "expected": {"enumerated_by": "enumerate_graphs"}, "relabeled": True}
            for n, c in ORACLE_COUNTS.items()]
    rows.append({"name": "exhaustive", "expected": {"bt_sum": ORACLE_BT_SUM}})
    rows += [{"name": f"sample{i}", "n": g.n, "m": g.m, "k": None, "expected": {"bt": bt},
              "edges_sha256": edges_hash(g), "relabeled": True}
             for i, (g, bt) in enumerate(zip(sample, ORACLE_SAMPLE_BT))]
    return {"seed": seed, "sample": sample}, manifest("oracle_verify", seed, rows)


def _oracle_graph(bk, log, name, g, pinned):
    pkg, bf, tr = bk.pkg, bk.bruteforce, log.tracer
    want = tr.call("bruteforce.bt_brute_s", bf.book_thickness_brute, g)
    rep = tr.call("solver.exact_s", pkg.book_thickness_exact, g)
    log.counts["solver.nodes"] += rep.nodes_explored
    log.check(rep.status is pkg.SolverStatus.EXACT and rep.book_thickness == want,
              f"{name}: solver {rep.status.value} {rep.book_thickness}, brute force {want}")
    if pinned is not None:
        log.check(want == pinned, f"{name}: brute force {want}, pinned {pinned}")
    res = check_embedding(bk, log, name, g, rep.witness, "embedding.validate_s")
    log.check(res.pages_used == rep.book_thickness, f"{name}: witness uses {res.pages_used}")
    for k in range(1, min(5, max(2, g.n))):
        cert = tr.call("graph.recognize_s", pkg.is_k_tree, g, k)
        brute = tr.call("bruteforce.ktree_brute_s", bf.is_k_tree_brute, g, k)
        ok = (cert is not None) == brute
        if cert is not None:
            ok = tr.call("graph.replay_s", cert.is_valid_for, g) and ok
        log.check(ok, f"{name}: recognizer {cert is not None}, definition {brute} at k={k}")
    log.units += 1
    log.pages += rep.book_thickness
    log.answers += 1
    log.decided += rep.status is pkg.SolverStatus.EXACT
    return rep.book_thickness


def oracle_pass(bk, inputs, log, index: int):
    labels = pass_labels(inputs["seed"], "oracle_verify", index)
    graphs = []
    with log.instance("enumerate"):
        for n, count in ORACLE_COUNTS.items():
            found = log.tracer.call("bruteforce.enumerate_s", bk.bruteforce.enumerate_graphs, n)
            log.check(len(found) == count, f"enumerate n={n}: {len(found)} graphs, want {count}")
            graphs += found
    graphs = [relabel(bk, g, labels) for g in graphs]
    sample = [relabel(bk, g, labels) for g in inputs["sample"]]
    bt_sum = 0
    for i, g in enumerate(graphs):
        with log.instance(f"graph{i}"):
            bt_sum += _oracle_graph(bk, log, f"graph{i} (n={g.n})", g, None)
    log.check(bt_sum == ORACLE_BT_SUM, f"exhaustive: bt sum {bt_sum}, want {ORACLE_BT_SUM}")
    for i, (g, bt) in enumerate(zip(sample, ORACLE_SAMPLE_BT)):
        with log.instance(f"sample{i}"):
            _oracle_graph(bk, log, f"sample{i}", g, bt)


WORKLOADS = {
    "ktree_embed": (ktree_setup, ktree_pass),
    "exact_search": (exact_setup, exact_pass),
    "oracle_verify": (oracle_setup, oracle_pass),
}
