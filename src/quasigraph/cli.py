"""Command-line interface.

Subcommands:
  analyze   per-graph summary: kappa, quasi-k verdict, edge classes, atoms
  verify    run claims over a corpus, streaming JSON-lines reports
  search    hunt a corpus for graphs with no quasi 5-contractible edge
  generate  write a seeded family to graph6 files

Exit codes: 0 clean, 1 a verified campaign found a falsified claim,
2 usage or I/O errors, a campaign in which some (graph, claim) raised
an error (reported with status "error"), or an analysis or search in
which some graph raised one (named on its own stderr line, after which
the run goes on).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as gio
from .connectivity import _Flows
from .contractibility import _classify, _first_contractible_edge
from .fragments import _nontrivial_atom
from .generators import CorpusSpec, generate_corpus, read_corpus_file
from .harness import CLAIMS, run_campaign


def _analyze_one(graph_id: str, g, k: int) -> dict:
    flows = _Flows(g)
    quasi = flows.quasi(k)
    # Quasi k-connected at kappa = k-1: every minimum cut is trivial, so no fragment is.
    atom = None if quasi.holds and quasi.kappa == k - 1 else _nontrivial_atom(flows)
    classes = _classify(flows, k) if quasi.holds else None

    def edges(keep) -> list | None:
        return None if classes is None else [list(c.edge) for c in classes if keep(c)]

    return {
        "graph_id": graph_id,
        "n": g.n,
        "m": g.edge_count,
        "kappa": quasi.kappa,
        "quasi_k": quasi.to_json(),
        "nontrivial_atom": None if atom is None else atom.to_json(),
        "E0": edges(lambda c: c.in_E0),
        "quasi_contractible_edges": edges(lambda c: c.quasi_k_contractible),
        "kappa_dropping_edges": edges(lambda c: c.kappa_after < k - 1),
    }


def _each_graph(graphs, visit) -> tuple[int, int]:
    """Call visit(graph_id, g) on each graph in order and return (graphs,
    errors). A graph whose visit raises is named on stderr and counted, and
    the loop goes on."""
    seen = errors = 0
    for graph_id, g in graphs:
        seen += 1
        try:
            visit(graph_id, g)
        except Exception as exc:
            print(f"error: {graph_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            errors += 1
    return seen, errors


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise ValueError(f"--k must be at least 2, got {args.k}")

    def visit(graph_id, read) -> None:
        print(json.dumps(_analyze_one(graph_id, read(), args.k), sort_keys=True))

    _, errors = _each_graph(gio.graph_records(args.file, args.format), visit)
    return 2 if errors else 0


def cmd_verify(args: argparse.Namespace) -> int:
    corpus = read_corpus_file(args.corpus)
    summary = run_campaign(corpus, args.claim, args.out, k=args.k, timeout=args.timeout)
    print(json.dumps(summary, sort_keys=True))
    if summary["errors"]:
        return 2
    return 1 if summary["counts"]["falsified"] else 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.target != "contraction-critical-quasi-5":
        raise ValueError(f"unknown search target {args.target!r}")
    hits = []

    def visit(graph_id, g) -> None:
        flows = _Flows(g)
        if flows.quasi(5).holds and _first_contractible_edge(flows, 5, True) is None:
            hit = {"graph_id": graph_id, "n": g.n, "graph6": gio.to_graph6(g)}
            hits.append(hit)
            print(json.dumps(hit, sort_keys=True))

    scanned, errors = _each_graph(read_corpus_file(args.corpus), visit)
    result = {"target": args.target, "scanned": scanned, "errors": errors,
              "found": len(hits)}
    if args.out:
        Path(args.out).write_text(
            "".join(json.dumps(h, sort_keys=True) + "\n" for h in hits),
            encoding="utf-8")
    print(json.dumps(result, sort_keys=True), file=sys.stderr)
    return 2 if errors else 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = CorpusSpec.from_json({
        "family": args.family,
        "params": json.loads(args.params),
        "count": args.count,
        "seed": args.seed,
    })
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for graph_id, g in generate_corpus(spec):
        safe = graph_id.replace("/", "_").replace("(", "_").replace(")", "").replace(",", "-")
        path = out_dir / f"{safe}.g6"
        gio.write_graph6_file(path, [g])
        manifest.append({"graph_id": graph_id, "n": g.n, "m": g.edge_count,
                         "file": path.name})
    (out_dir / "manifest.json").write_text(
        json.dumps({"family": args.family, "seed": args.seed,
                    "graphs": manifest}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(json.dumps({"written": len(manifest), "dir": str(out_dir)}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quasigraph",
                                     description="quasi k-connectivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-graph connectivity and edge-class summary")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--format", choices=("auto", "graph6", "edgelist", "json"),
                   default="auto")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run claims over a corpus")
    p.add_argument("--claim", action="append", required=True, choices=CLAIMS)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None,
                   help="per graph/claim budget in seconds")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="hunt for target graphs in a corpus")
    p.add_argument("--target", default="contraction-critical-quasi-5")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("generate", help="write a family to graph6 files")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="{}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
