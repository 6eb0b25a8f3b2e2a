"""Command line reports over subgroup input files.

Every command is deterministic for a fixed configuration: seeded random
corpora, sorted outputs, exact rationals rendered as p/q.  Exit code 0
means all checks passed, 1 is an input or usage problem, and 2 flags a
failed mathematical cross-check together with a diagnostic dump.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import shutil
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .automorphisms import act_on_subgroup, is_automorphism, parse_automorphism_file
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
from .errors import MismatchBugError, NotAutomorphismError
from .fiber import component_subgroup, fiber_product, intersection_number_euler
from .stallings import (
    LabeledGraph,
    from_generators,
    graph_to_dot,
    graph_to_json_dict,
    parse_subgroup_file,
    random_subgroup,
    rank,
    reduced_rank,
    subgroup_generators,
)
from .words import Alphabet, Word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2

# The report writer hands its sink a chunk once it holds this many pieces
# (a TSV row, or a JSON scalar or bracket with the text before it), so a
# report of any length is never held in memory as one text.
_CHUNK_PIECES = 4096

Result = tuple[int, object, list]  # exit code, JSON report, TSV rows


class UsageError(Exception):
    pass


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


def _emit(out: str | None, fill) -> None:
    """Call `fill(write)` with the `write` of the sink: stdout, or the file
    at `out`.  A regular file is written whole or not at all: the text goes
    to a fresh sibling, which takes the place (and the mode) of any old file
    only once `fill` returns, so a failure leaves the old bytes and no
    sibling.  A path to anything else, a device, a pipe or a directory, is
    opened as it is."""
    if out is None:
        fill(sys.stdout.write)
        return
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fill(fh.write)
        return
    # a symlink is kept, and the file it names replaced
    target = os.path.realpath(out) if os.path.islink(out) else out
    head, name = os.path.split(target)
    temp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fill(fh.write)
        if os.path.exists(target):
            shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return ";".join(value) if isinstance(value, list) else str(value)


def _dict_heads(keys: tuple, inner: str) -> tuple[tuple[str, str], ...]:
    """The members of a dict with these keys, at indent `inner`, in sorted
    order: each key and its head, the separator, the key and its colon
    (`{` opens the first)."""
    for key in keys:
        if type(key) is not str:
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
    ordered = sorted(keys)
    heads = ["," + inner + encode_basestring_ascii(key) + ": " for key in ordered]
    heads[0] = "{" + heads[0][1:]
    return tuple(zip(ordered, heads))


def _write_json(value, write) -> None:
    """Pass `json.dumps(value, indent=2, sort_keys=True) + "\\n"` to `write`,
    in chunks, for the values a report holds: dicts with str keys, lists,
    str, int, bool and None.  Anything else raises TypeError, so no float
    reaches a report.

    `json.dumps` with an indent runs the pure-Python encoder, a chain of
    generators.  Here one recursive function writes a container: each
    scalar or empty container in it goes out in place, one piece with the
    separator or dict head before it, and only a nonempty container is a
    call.  The texts of an indent are built once a write, and so are the
    heads of a dict for each key tuple at each indent; a later dict of a
    cached shape still has each value checked.  Dispatch is on the exact
    type, so a bool is never read as an int.

    The pieces are joined and handed on whenever a container closes, or a
    container longer than _CHUNK_PIECES has had that many more members,
    with _CHUNK_PIECES of them held; so a chunk holds at most _CHUNK_PIECES
    pieces for each level of nesting, however long the report.
    """
    pieces: list[str] = []
    put = pieces.append
    int_text = int.__repr__
    # indent -> the indent of its members, the separators and closing
    # brackets of a container there, and the dict shapes met there; the
    # top level is the one member of an unbracketed list
    levels: dict = {None: ("\n", "", "", "", "", {})}

    def spill() -> None:
        write("".join(pieces))
        pieces.clear()

    def spilling(members):
        for start in range(0, len(members), _CHUNK_PIECES):
            yield from members[start:start + _CHUNK_PIECES]
            if len(pieces) >= _CHUNK_PIECES:
                spill()

    def container(value, newline) -> None:
        level = levels.get(newline)
        if level is None:
            inner = newline + "  "
            level = levels[newline] = (
                inner, "[" + inner, "," + inner, newline + "]", newline + "}", {}
            )
        inner, sep, comma, close_list, close_dict, shapes = level
        # the list and the dict loop repeat one dispatch, so that no scalar
        # costs a call; one loop over (member, prefix) pairs was 20-35%
        # slower on edge triples and component dicts
        if type(value) is list:
            for item in value if len(value) <= _CHUNK_PIECES else spilling(value):
                kind = type(item)
                if kind is int:
                    put(sep + int_text(item))
                elif kind is str:
                    put(sep + encode_basestring_ascii(item))
                elif kind is bool:
                    put(sep + ("true" if item else "false"))
                elif item is None:
                    put(sep + "null")
                elif (kind is list or kind is dict) and not item:
                    put(sep + ("[]" if kind is list else "{}"))
                else:
                    put(sep)
                    container(item, inner)
                sep = comma
            put(close_list)
        elif type(value) is dict:
            keys = tuple(value)
            shape = shapes.get(keys)
            if shape is None:
                shape = shapes[keys] = _dict_heads(keys, inner)
            for key, head in shape if len(shape) <= _CHUNK_PIECES else spilling(shape):
                item = value[key]
                kind = type(item)
                if kind is int:
                    put(head + int_text(item))
                elif kind is str:
                    put(head + encode_basestring_ascii(item))
                elif kind is bool:
                    put(head + ("true" if item else "false"))
                elif item is None:
                    put(head + "null")
                elif (kind is list or kind is dict) and not item:
                    put(head + ("[]" if kind is list else "{}"))
                else:
                    put(head)
                    container(item, inner)
            put(close_dict)
        else:
            raise TypeError(f"a report cannot hold a {type(value).__name__}")
        if len(pieces) >= _CHUNK_PIECES:
            spill()

    try:
        container([value], None)
    finally:
        # the closure refers to itself: clearing it frees the write's state
        # at once rather than at the next run of the cycle collector
        container = None
    put("\n")
    spill()


def _write_report(fmt: str, report, rows: list[list], write) -> None:
    """The one text form of every report, passed to `write` in chunks:
    sorted-key JSON, or TSV rows whose cells are the values as str, flags as
    yes/no and word lists ;-joined."""
    if fmt == "json":
        _write_json(report, write)
        return
    for start in range(0, len(rows), _CHUNK_PIECES):
        chunk = rows[start:start + _CHUNK_PIECES]
        write("".join("\t".join(map(_cell, row)) + "\n" for row in chunk))


def _dump(message: str, h, k, **routes) -> MismatchBugError:
    """A failed check whose message ends in one JSON object: H, K and the
    route values (Fractions as strings), so the failure can be replayed."""
    data = {"H": graph_to_json_dict(h), "K": graph_to_json_dict(k), **routes}
    return MismatchBugError(f"{message} {json.dumps(data, sort_keys=True, default=str)}")


def _word_text(w: Word, alphabet: Alphabet) -> str:
    """`format_word` without its letter check, for words the engine built:
    their letters are within the rank by construction."""
    return "".join(map(alphabet._names.__getitem__, w)) or "1"


def _gens_text(h: LabeledGraph, alphabet: Alphabet) -> str:
    return ";".join(_word_text(w, alphabet) for w in subgroup_generators(h))


def _check_coverage(h: LabeledGraph, k: LabeledGraph, reports) -> None:
    """The component reports must cover all V1 * V2 vertex pairs and all
    product edges, whose number is the sum over labels of e1 * e2, read
    from the factors' label counts; a lost report moves no N route."""
    labels_k = Counter(lab for _, _, lab in k.edges)
    edges = sum(n * labels_k[lab] for lab, n in Counter(lab for _, _, lab in h.edges).items())
    pairs = h.num_vertices * k.num_vertices
    covered = (sum(c.num_vertices for c in reports), sum(c.num_edges for c in reports))
    if covered != (pairs, edges):
        raise _dump(
            "component reports do not cover the fiber product:", h, k,
            pairs=pairs, product_edges=edges,
            covered_pairs=covered[0], covered_edges=covered[1],
        )


def cmd_core(args: argparse.Namespace) -> Result:
    h = _load_subgroup(args.subgroup, Alphabet(args.rank))
    if args.dot:
        dot = graph_to_dot(h) + "\n"
        _emit(args.dot, lambda write: write(dot))
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
        if not is_automorphism(phi):
            raise NotAutomorphismError("invariance checks need an automorphism")
        h, k = act_on_subgroup(phi, h), act_on_subgroup(phi, k)
    fp = fiber_product(h, k)
    _check_coverage(h, k, fp.components())
    components = []
    for comp in fp.components():
        g, gens = component_subgroup(fp, comp)
        components.append(
            {
                "vertices": comp.num_vertices,
                "edges": comp.num_edges,
                "euler": comp.euler,
                "contractible": comp.contractible,
                "representative": _word_text(g, alphabet),
                "generators": [_word_text(w, alphabet) for w in gens],
                "reduced_rank": (
                    reduced_rank(from_generators(gens, alphabet)) if gens else 0
                ),
            }
        )
    # the cosets route is the sum over the double cosets just reported
    n_cosets = sum(entry["reduced_rank"] for entry in components)
    n_euler = intersection_number_euler(h, k)
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
    if args.dot:
        palette = ["red", "blue", "green", "orange", "purple", "brown", "cyan"]
        index = {comp.base_vertex: i for i, comp in enumerate(fp.components())}
        colors = {
            v: palette[index[c] % len(palette)]
            for v, c in enumerate(fp.graph.component_ids())
        }
        dot = graph_to_dot(fp.graph, component_colors=colors) + "\n"
        _emit(args.dot, lambda write: write(dot))
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
        n = intersection_number_euler(h, k)
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
    """Edge trees plus every neighborhood tree observed in the given core
    graphs.  A covering quotient shows the same neighborhood trees as the
    core it covers, so normalized terms serve as well as the cores."""
    columns = [FiniteSubtree.edge(i) for i in alphabet.letters()]
    observed = {t for r in range(1, grade + 1) for g in graphs for t in neighborhood_profile(g, r)}
    observed.difference_update(columns)
    return columns + sorted(observed, key=lambda t: (t.depth, t.serialize(alphabet)))


def cmd_converge(args: argparse.Namespace) -> Result:
    alphabet = Alphabet(args.rank)
    loop = from_generators([(1,)], alphabet)
    limit = counting_current(loop)
    family = []
    for n in range(1, args.n_max + 1):
        h_n = from_generators([(1,) * n + (2,)], alphabet)
        family.append((str(n), counting_current(h_n).scale(Fraction(1, n))))
    family.append(("limit", limit))
    trees = _converge_columns(args.grade, alphabet, [g for _, mu in family for _, g in mu.terms()])
    names = [t.serialize(alphabet) for t in trees]
    rows = [["n"] + names + ["N", "pushforward_terms"]]
    records = []
    for n, mu in family:
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


def _add_common(parser: argparse.ArgumentParser, fmt_default: str) -> None:
    parser.add_argument("--rank", type=int, default=2, help="ambient free-group rank")
    parser.add_argument("--format", choices=("tsv", "json"), default=fmt_default)
    parser.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> _Parser:
    parser = _Parser(prog="subcur", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("core", help="fold a subgroup file into its core graph")
    p.add_argument("subgroup", help="path to a generator file")
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    _add_common(p, "json")

    p = sub.add_parser("product", help="intersection number of two subgroups, three routes")
    p.add_argument("h", help="path to the first generator file")
    p.add_argument("k", help="path to the second generator file")
    p.add_argument("--dot", default=None, help="DOT of the fiber product, component colored")
    p.add_argument("--automorphism", default=None, help="apply this automorphism file first")
    _add_common(p, "json")

    p = sub.add_parser("shnc-scan", help="random subgroup pairs against the rank bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--max-gens", type=_count, default=3)
    p.add_argument("--max-gen-len", type=_count, default=6)
    _add_common(p, "tsv")

    p = sub.add_parser("converge", help="cylinder table for the loop-with-tail family")
    p.add_argument("--n-max", type=_count, default=10)
    p.add_argument("--grade", type=_count, default=2)
    _add_common(p, "tsv")

    p = sub.add_parser("intersect", help="pushforward current of two subgroups")
    p.add_argument("h", help="path to the first generator file")
    p.add_argument("k", help="path to the second generator file")
    _add_common(p, "json")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of `main`, built on first use; parsing leaves it unchanged."""
    return build_parser()


def _handler(command: str):
    """The module-level `cmd_*` function of a subcommand, looked up at call
    time, so that a wrapped or patched `cmd_*` is the one that runs."""
    return globals()["cmd_" + command.replace("-", "_")]


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    try:
        code, report, rows = _handler(args.command)(args)
        _emit(args.out, functools.partial(_write_report, args.format, report, rows))
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MismatchBugError as exc:
        sys.stderr.write(f"math check failed: {exc}\n")
        return EXIT_MATH
    return code


if __name__ == "__main__":
    sys.exit(main())
