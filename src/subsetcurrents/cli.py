"""Command line reports over subgroup input files.

Every command is deterministic for a fixed configuration: seeded random
corpora, sorted outputs, exact rationals rendered as p/q.  Exit code 0
means all checks passed, 1 is an input or usage problem, and 2 flags a
failed mathematical cross-check together with a diagnostic dump.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .automorphisms import act_on_subgroup, parse_automorphism_file
from .currents import (
    FiniteSubtree,
    counting_current,
    current_to_json_dict,
    eval_cylinder,
    functional_rk,
    intersection_functional_N,
    neighborhood_profile,
    pushforward_I,
)
from .errors import MismatchBugError, RetryLimitError
from .fiber import component_subgroup, fiber_product, intersection_number_cosets, intersection_number_euler
from .stallings import (
    LabeledGraph,
    check_core_graph,
    core,
    from_generators,
    graph_to_dot,
    graph_to_json_dict,
    parse_subgroup_file,
    random_subgroup,
    rank,
    reduced_rank,
    subgroup_generators,
)
from .words import Alphabet, format_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2

Result = tuple[int, object, list]  # exit code, JSON report, TSV rows


class UsageError(Exception):
    pass


class MathCheckError(RuntimeError):
    """A cross-check that must hold by theorem failed; carries the dump."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """argparse type of the count options: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_subgroup(path: str, alphabet: Alphabet) -> LabeledGraph:
    gens = parse_subgroup_file(_read(path), alphabet)
    return from_generators(gens, alphabet)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return ";".join(value) if isinstance(value, list) else str(value)


def _render(fmt: str, report, rows: list[list]) -> str:
    """The one text form of every report: sorted-key JSON, or TSV rows whose
    cells are the values as str, flags as yes/no and word lists ;-joined."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return "".join("\t".join(map(_cell, row)) + "\n" for row in rows)


def _dump(message: str, h, k, **routes) -> MathCheckError:
    """A failed check whose message ends in one JSON object: H, K and the
    route values (Fractions as strings), so the failure can be replayed."""
    data = {"H": graph_to_json_dict(h), "K": graph_to_json_dict(k), **routes}
    return MathCheckError(f"{message} {json.dumps(data, sort_keys=True, default=str)}")


def _gens_text(h: LabeledGraph, alphabet: Alphabet) -> str:
    return ";".join(format_word(w, alphabet) for w in subgroup_generators(h))


def cmd_core(args: argparse.Namespace) -> Result:
    h = _load_subgroup(args.subgroup, Alphabet(args.rank))
    if args.dot:
        _emit(graph_to_dot(h) + "\n", args.dot)
    keys = ("vertices", "edges", "rank", "reduced_rank")
    values = (h.num_vertices, len(h.edges), rank(h), reduced_rank(h))
    report = dict(zip(keys, values), graph=graph_to_json_dict(h))
    return EXIT_OK, report, [keys, values]


def cmd_product(args: argparse.Namespace) -> Result:
    alphabet = Alphabet(args.rank)
    h = _load_subgroup(args.h, alphabet)
    k = _load_subgroup(args.k, alphabet)
    if args.automorphism:
        phi = parse_automorphism_file(_read(args.automorphism), alphabet)
        h = act_on_subgroup(phi, h, require_automorphism=True)
        k = act_on_subgroup(phi, k, require_automorphism=True)
    n_euler = intersection_number_euler(check_core_graph(core(h)), check_core_graph(core(k)))
    n_cosets = intersection_number_cosets(h, k)
    n_cylinder = intersection_functional_N(counting_current(h), counting_current(k))
    if not (n_euler == n_cosets == n_cylinder):
        raise _dump(
            "intersection-number routes disagree:", h, k,
            euler=n_euler, cosets=n_cosets, cylinder=n_cylinder,
        )
    rk_product = reduced_rank(h) * reduced_rank(k)
    if n_euler > rk_product:
        raise _dump(
            f"strengthened bound violated: {n_euler} > {rk_product}", h, k,
            euler=n_euler, reduced_rank_product=rk_product,
        )
    fp = fiber_product(h, k)
    components = []
    for comp in fp.components():
        g, gens = component_subgroup(fp, comp, h, k)
        components.append(
            {
                "vertices": comp.num_vertices,
                "edges": comp.num_edges,
                "euler": comp.euler,
                "contractible": comp.contractible,
                "representative": format_word(g, alphabet),
                "generators": [format_word(w, alphabet) for w in gens],
                "reduced_rank": (
                    reduced_rank(from_generators(gens, alphabet)) if gens else 0
                ),
            }
        )
    if args.dot:
        colors = {}
        palette = ["red", "blue", "green", "orange", "purple", "brown", "cyan"]
        for i, comp in enumerate(fp.components()):
            for v in comp.vertices:
                colors[v] = palette[i % len(palette)]
        _emit(graph_to_dot(fp.graph, component_colors=colors) + "\n", args.dot)
    report = {
        "intersection_number": n_euler,
        "routes": {
            "euler": n_euler,
            "cosets": n_cosets,
            "cylinder": str(n_cylinder),
        },
        "reduced_rank_product": rk_product,
        "margin": rk_product - n_euler,
        "components": components,
    }
    rows = [
        ["key", "value"],
        ["intersection_number", n_euler],
        ["route_euler", n_euler],
        ["route_cosets", n_cosets],
        ["route_cylinder", n_cylinder],
        ["reduced_rank_product", rk_product],
        ["margin", rk_product - n_euler],
    ]
    # a component's fields, in order, are its TSV columns
    rows += [["component", *entry.values()] for entry in components]
    return EXIT_OK, report, rows


def cmd_shnc_scan(args: argparse.Namespace) -> Result:
    alphabet = Alphabet(args.rank)
    rng = random.Random(args.seed)
    header = ["h", "k", "intersection", "rk_product", "ratio"]
    records = []
    rows = [header]
    violations = 0
    for _ in range(args.samples):
        h = random_subgroup(rng, alphabet, args.max_gens, args.max_gen_len)
        k = random_subgroup(rng, alphabet, args.max_gens, args.max_gen_len)
        n = intersection_number_euler(check_core_graph(core(h)), check_core_graph(core(k)))
        rk_product = reduced_rank(h) * reduced_rank(k)
        if n > rk_product:
            violations += 1
        ratio = "-" if rk_product == 0 else str(Fraction(n, rk_product))
        row = [_gens_text(h, alphabet), _gens_text(k, alphabet), n, rk_product, ratio]
        records.append(dict(zip(header, row)))
        rows.append(row)
    if violations:
        sys.stderr.write(f"math check failed: {violations} bound violations\n")
    return (EXIT_MATH if violations else EXIT_OK), records, rows


def _converge_columns(grade: int, alphabet: Alphabet, graphs) -> list[FiniteSubtree]:
    """Edge trees plus every neighborhood tree observed in the given cores."""
    columns = [FiniteSubtree.edge(i) for i in alphabet.letters()]
    observed = {t for r in range(1, grade + 1) for g in graphs for t in neighborhood_profile(g, r)}
    observed.difference_update(columns)
    return columns + sorted(observed, key=lambda t: (t.depth, t.serialize(alphabet)))


def cmd_converge(args: argparse.Namespace) -> Result:
    alphabet = Alphabet(args.rank)
    loop = from_generators([(1,)], alphabet)
    limit = counting_current(loop)
    cores = [check_core_graph(core(loop))]
    family = []
    for n in range(1, args.n_max + 1):
        h_n = from_generators([(1,) * n + (2,)], alphabet)
        cores.append(check_core_graph(core(h_n)))
        family.append((str(n), counting_current(h_n).scale(Fraction(1, n))))
    trees = _converge_columns(args.grade, alphabet, cores)
    names = [t.serialize(alphabet) for t in trees]
    rows = [["n"] + names + ["N", "pushforward_terms"]]
    records = []
    for n, mu in family + [("limit", limit)]:
        terms = len(pushforward_I(mu, limit).terms())
        cylinders = {name: str(eval_cylinder(mu, t)) for name, t in zip(names, trees)}
        pairing = str(intersection_functional_N(mu, limit))
        records.append({"n": n, "cylinders": cylinders, "N": pairing, "pushforward_terms": terms})
        rows.append([n, *cylinders.values(), pairing, terms])
    return EXIT_OK, records, rows


def cmd_intersect(args: argparse.Namespace) -> Result:
    alphabet = Alphabet(args.rank)
    h = _load_subgroup(args.h, alphabet)
    k = _load_subgroup(args.k, alphabet)
    mu, nu = counting_current(h), counting_current(k)
    pushed = pushforward_I(mu, nu)
    rk_pushed = functional_rk(pushed)
    n_value = intersection_functional_N(mu, nu)
    if rk_pushed != n_value:
        raise _dump(
            f"rk of the pushforward ({rk_pushed}) != intersection number ({n_value})", h, k,
            rk=rk_pushed, intersection_number=n_value,
        )
    terms = current_to_json_dict(pushed)
    report = {"pushforward": terms, "rk": str(rk_pushed), "intersection_number": str(n_value)}
    rows = [["key", "value"], ["rk", rk_pushed], ["intersection_number", n_value]]
    for term in terms:
        rows.append(["term", term["coefficient"], json.dumps(term["graph"], sort_keys=True)])
    return EXIT_OK, report, rows


def _add_common(parser: argparse.ArgumentParser, fmt_default: str, func) -> None:
    parser.set_defaults(func=func)
    parser.add_argument("--rank", type=int, default=2, help="ambient free-group rank")
    parser.add_argument("--format", choices=("tsv", "json"), default=fmt_default)
    parser.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> _Parser:
    parser = _Parser(prog="subcur", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("core", help="fold a subgroup file into its core graph")
    p.add_argument("subgroup", help="path to a generator file")
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    _add_common(p, "json", cmd_core)

    p = sub.add_parser("product", help="intersection number of two subgroups, three routes")
    p.add_argument("h", help="path to the first generator file")
    p.add_argument("k", help="path to the second generator file")
    p.add_argument("--dot", default=None, help="DOT of the fiber product, component colored")
    p.add_argument("--automorphism", default=None, help="apply this automorphism file first")
    _add_common(p, "json", cmd_product)

    p = sub.add_parser("shnc-scan", help="random subgroup pairs against the rank bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--max-gens", type=_count, default=3)
    p.add_argument("--max-gen-len", type=_count, default=6)
    _add_common(p, "tsv", cmd_shnc_scan)

    p = sub.add_parser("converge", help="cylinder table for the loop-with-tail family")
    p.add_argument("--n-max", type=_count, default=10)
    p.add_argument("--grade", type=_count, default=2)
    _add_common(p, "tsv", cmd_converge)

    p = sub.add_parser("intersect", help="pushforward current of two subgroups")
    p.add_argument("h", help="path to the first generator file")
    p.add_argument("k", help="path to the second generator file")
    _add_common(p, "json", cmd_intersect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    try:
        code, report, rows = args.func(args)
        _emit(_render(args.format, report, rows), args.out)
    except (ValueError, RetryLimitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (MathCheckError, MismatchBugError) as exc:
        sys.stderr.write(f"math check failed: {exc}\n")
        return EXIT_MATH
    return code


if __name__ == "__main__":
    sys.exit(main())
