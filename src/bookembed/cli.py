"""Command line interface.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit codes:
0 success, 1 validation failure or oracle mismatch, 2 usage or input errors,
which argparse or a command raises before any output and `main` prints as one
`error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path
from typing import NoReturn

from .bruteforce import oracle_suite
from .constructions import (build_q, complete_bipartite, complete_split, dujwoo_gadget,
                            path_power, random_ktree)
from .embedding import BookEmbedding, validate_embedding
from .errors import BookEmbedError, InvalidInput
from .graph import (Graph, _check_vertex_count, _json_text, complete_graph, is_k_tree,
                    ktree_edge_count)
from .heuristics import embed_ktree, first_fit_pages
from .solver import SolverOptions, book_thickness_exact
from .treedec import TreeDecomposition, decomposition_from_certificate, validate_decomposition


def _emit(obj: dict) -> None:
    print(_json_text(obj))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextmanager
def _reading(what: str):
    """Re-raise what a parser or constructor rejects as InvalidInput, which
    main reports in one line with exit code 2."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InvalidInput(f"{what}: {detail}") from exc


def _load(what: str, path: str, parse):
    """`parse` run on the UTF-8 text at `path`; a file that is no such text,
    or that `parse` rejects, exits 2, named `what path`."""
    with _reading(f"{what} {path}"):  # UnicodeDecodeError is a ValueError
        return parse(Path(path).read_text(encoding="utf-8"))


def _parse_graph(text: str) -> Graph:
    return Graph.from_json(text) if text.lstrip().startswith("{") else Graph.from_text(text)


def _parse_order(text: str) -> list:
    order = json.loads(text)
    if not isinstance(order, list):
        raise TypeError("expected a JSON list of vertex ids")
    return order


# ---- gen ----


# The most edges `gen` builds.  A dense family passes the vertex limit with
# far more edges than memory holds, at about 0.5 KB each (`path_power` with
# 10^6 edges peaks at 493 MB).
MAX_EDGES = 10**6


# family -> (required parameters, the vertex and edge counts it will have,
# builder returning the graph and its k-tree certificate or None); the keys
# are `gen --family`'s choices, in order
_FAMILIES = {
    "complete": (("n",), lambda a: (a.n, a.n * (a.n - 1) // 2),
                 lambda a: (complete_graph(a.n), None)),
    "split": (("k", "m"), lambda a: (a.k + a.m, a.k * (a.k - 1) // 2 + a.k * a.m),
              lambda a: (complete_split(a.k, a.m), None)),
    "q": (("k",), lambda a: _ktree_size(max(a.n or 0, a.k + 11 * (2 * a.k * a.k + 1)), a.k),
          lambda a: attrgetter("graph", "certificate")(build_q(a.k, a.n))),
    "path-power": (("n", "k"), lambda a: _ktree_size(a.n, a.k),
                   lambda a: (path_power(a.n, a.k), None)),
    "dujwoo": (("k", "m"), lambda a: _ktree_size(a.k + 2 * a.m, a.k),
               lambda a: (dujwoo_gadget(a.k, a.m), None)),
    "complete-bipartite": (("k", "m"), lambda a: (a.k + a.m, a.k * a.m),
                           lambda a: (complete_bipartite(a.k, a.m), None)),
    "random-ktree": (("n", "k"), lambda a: _ktree_size(a.n, a.k),
                     lambda a: random_ktree(a.n, a.k, a.seed)),
}


def _ktree_size(n: int, k: int) -> tuple[int, int]:
    return n, ktree_edge_count(n, k)


def _cmd_gen(args: argparse.Namespace) -> int:
    fam = args.family
    need, size, build = _FAMILIES[fam]
    for p in need:
        value = getattr(args, p)
        if value is None:
            raise InvalidInput(f"gen --family {fam} requires --{p}")
        if value < 0:  # the counts below would square it into a large one
            raise InvalidInput(f"gen --family {fam}: --{p} must be non-negative, got {value}")
    if args.with_treedec and args.format == "text":
        raise InvalidInput("--with-treedec requires JSON output")
    with _reading(f"--family {fam}"):
        n, m = size(args)
        _check_vertex_count(n)
        if m > MAX_EDGES:
            raise ValueError(f"edge count {m} is above the limit of {MAX_EDGES}")
        g, cert = build(args)

    if args.format == "text":
        sys.stdout.write(g.to_text())
    elif args.with_treedec:
        cert = cert or is_k_tree(g)
        if cert is None:
            raise InvalidInput(f"--with-treedec is not available for family {fam}")
        td = decomposition_from_certificate(cert)
        _emit({"graph": g.to_json_dict(), "decomposition": td.to_json_dict()})
    else:
        _emit(g.to_json_dict())
    _say(f"generated {fam}: {g.n} vertices, {g.m} edges")
    return 0


# ---- bt ----


def _cmd_bt(args: argparse.Namespace) -> int:
    with _reading("bt"):
        opts = SolverOptions(
            max_pages=args.max_pages,
            time_budget=args.time_budget,
            node_limit=args.node_limit,
        )
    g = _load("graph", args.graph, _parse_graph)
    report = book_thickness_exact(g, opts)
    if args.witness:  # written first, so a failed write leaves stdout empty
        Path(args.witness).write_text(report.witness.to_json())
        _say(f"witness written to {args.witness}")
    _emit(report.to_json_dict())
    _say(
        f"status {report.status.value}: book thickness {report.book_thickness} "
        f"(lower bound {report.lower_bound}), {report.nodes_explored} nodes "
        f"in {report.elapsed:.3f}s"
    )
    return 0


# ---- embed ----


def _cmd_embed(args: argparse.Namespace) -> int:
    g = _load("graph", args.graph, _parse_graph)
    if args.method == "ktree":
        with _reading("--k"):
            cert = is_k_tree(g, args.k)
        if cert is None:
            _say("graph is not a k-tree for the requested (or any matching) k")
            return 1
        emb = embed_ktree(g, cert)
    else:
        order = _load("order", args.order, _parse_order) if args.order else list(range(g.n))
        emb = first_fit_pages(g, order)
    _emit(emb.to_json_dict())
    _say(f"embedding uses {emb.pages_used()} pages")
    return 0


# ---- check ----


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load("graph", args.graph, _parse_graph)
    emb = _load("embedding", args.embedding, BookEmbedding.from_json)
    result = validate_embedding(g, emb)
    _emit(result.to_json_dict())
    _say("embedding is valid" if result.ok else "embedding is INVALID")
    return 0 if result.ok else 1


# ---- treedec validate ----


def _cmd_treedec_validate(args: argparse.Namespace) -> int:
    g = _load("graph", args.graph, _parse_graph)
    td = _load("decomposition", args.treedec, TreeDecomposition.from_json)
    report = validate_decomposition(g, td)
    _emit(report.to_json_dict())
    _say(
        f"decomposition {'valid' if report.valid else 'INVALID'}, "
        f"width {report.width}, smooth {report.smooth}, max degree {report.max_degree}"
    )
    return 0 if report.valid else 1


# ---- oracle ----


def _cmd_oracle(args: argparse.Namespace) -> int:
    if not 0 <= args.max_n <= 7:  # enumerate_graphs(8) would sweep 2^28 edge sets
        raise InvalidInput(f"oracle: --max-n must be between 0 and 7, got {args.max_n}")
    if args.samples < 0:
        raise InvalidInput(f"oracle: --samples must be at least 0, got {args.samples}")
    summary = oracle_suite(max_n=args.max_n, samples=args.samples, seed=args.seed)
    _emit(summary)
    _say(
        f"solver vs brute force on {summary['bt_checked']} graphs, "
        f"recognizer vs definition on {summary['ktree_checked']} cases: "
        + ("all agree" if summary["ok"] else "MISMATCH")
    )
    return 0 if summary["ok"] else 1


# ---- parser ----


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own usage errors as InvalidInput, so that main
    prints them as one `error:` line, like every other exit 2; the
    subcommand parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bookembed",
        description="Book embeddings of k-trees: generate, solve, embed, check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family member")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-treedec", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bt", help="exact book thickness of a small graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-pages", type=int)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--node-limit", type=int)
    p.add_argument("--witness", help="write the witness embedding JSON here")
    p.set_defaults(func=_cmd_bt)

    p = sub.add_parser("embed", help="heuristic embedding")
    p.add_argument("--graph", required=True)
    p.add_argument("--method", choices=["ktree", "first-fit"], default="ktree")
    p.add_argument("--k", type=int)
    p.add_argument("--order", help="JSON file with a circular order (first-fit)")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("check", help="validate an embedding against its graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--embedding", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("treedec", help="tree decomposition tools")
    tsub = p.add_subparsers(dest="treedec_command", required=True)
    pv = tsub.add_parser("validate", help="validate a decomposition against a graph")
    pv.add_argument("--graph", required=True)
    pv.add_argument("--treedec", required=True)
    pv.set_defaults(func=_cmd_treedec_validate)

    p = sub.add_parser("oracle", help="cross-check fast paths against brute force")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (BookEmbedError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
