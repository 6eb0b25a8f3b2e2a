"""Running one op, and the untimed size accounting and checks after the loop.

An op is either one in-process `subsetcurrents.cli.main(argv)` call, whose
report is the captured stdout, or one library routine whose report is a
JSON rendering of its result.  The package is always reached through the
module objects at call time, so a tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

PACKAGE = "subsetcurrents"


class OpFailed(Exception):
    """The op did not produce a report; `refused` is False for wrong output."""

    def __init__(self, cls: str, message: str, refused: bool):
        super().__init__(message)
        self.cls = cls
        self.refused = refused


def _pkg():
    return sys.modules[PACKAGE]


def _subgroup(path: str, rank: int):
    pkg = _pkg()
    alphabet = pkg.Alphabet(rank)
    gens = pkg.parse_subgroup_file(Path(path).read_text(encoding="utf-8"), alphabet)
    return pkg.from_generators(gens, alphabet)


def _run_cli(op) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules[PACKAGE + ".cli"].main(op.argv)
    if code != 0:
        lines = err.getvalue().strip().splitlines()
        # Exit 1 is a refusal (input or size limit); exit 2 is a failed
        # mathematical cross-check, i.e. a wrong answer.
        raise OpFailed(f"exit{code}", lines[-1] if lines else "", refused=(code == 1))
    return out.getvalue().encode()


def _current(op) -> bytes:
    pkg = _pkg()
    mu = pkg.counting_current(_subgroup(op.params["h"], op.params["rank"]))
    return json.dumps(pkg.current_to_json_dict(mu), sort_keys=True).encode()


def _routes(op) -> bytes:
    """All three routes to N, then rk of the pushforward; they must agree."""
    pkg = _pkg()
    h = _subgroup(op.params["h"], op.params["rank"])
    k = _subgroup(op.params["k"], op.params["rank"])
    euler = pkg.intersection_number_euler(pkg.core(h.graph), pkg.core(k.graph))
    cosets = pkg.intersection_number_cosets(h, k)
    mu, nu = pkg.counting_current(h), pkg.counting_current(k)
    cylinder = pkg.intersection_functional_N(mu, nu)
    rk = pkg.functional_rk(pkg.pushforward_I(mu, nu))
    if not euler == cosets == cylinder == rk:
        raise OpFailed("RouteMismatch", f"euler={euler} cosets={cosets} "
                       f"cylinder={cylinder} rk={rk}", refused=False)
    return json.dumps({"N": str(euler)}).encode()


LIBRARY = {"current": _current, "routes": _routes}


def run(op) -> bytes:
    """Execute the op and return its report bytes, or raise OpFailed."""
    try:
        return _run_cli(op) if op.argv is not None else LIBRARY[op.kind](op)
    except OpFailed:
        raise
    except Exception as exc:
        # The package's input and size-limit errors derive from ValueError;
        # anything else (MismatchBugError included) is a wrong answer or a crash.
        raise OpFailed(type(exc).__name__, str(exc),
                       refused=isinstance(exc, ValueError)) from exc


def _pair_sizes(h, k) -> dict:
    pkg = _pkg()
    fp = pkg.fiber_product(h, k)
    comps = fp.components()
    return {
        "h_vertices": h.graph.num_vertices, "h_edges": len(h.graph.edges),
        "k_vertices": k.graph.num_vertices, "k_edges": len(k.graph.edges),
        "product_vertices": fp.graph.num_vertices, "product_edges": len(fp.graph.edges),
        "components": len(comps),
        "essential_components": sum(not c.contractible for c in comps),
    }


def sizes(op, report: bytes | None) -> dict:
    """Input and intermediate sizes behind one op, computed outside the timing."""
    pkg = _pkg()
    rank = op.params["rank"]
    out = {"rank": rank}
    if op.kind == "core" and report is not None:
        data = json.loads(report)
        out.update(h_vertices=data["vertices"], h_edges=data["edges"],
                   h_rank=data["rank"])
    elif op.kind == "current":
        h = _subgroup(op.params["h"], rank)
        out.update(h_vertices=h.graph.num_vertices, h_edges=len(h.graph.edges))
    elif "k" in op.params:
        out.update(_pair_sizes(_subgroup(op.params["h"], rank),
                               _subgroup(op.params["k"], rank)))
    elif op.kind == "shnc-scan" and report is not None:
        alphabet = pkg.Alphabet(rank)
        total: dict[str, int] = {}
        rows = json.loads(report)
        for row in rows:
            h, k = (pkg.from_generators([pkg.parse_word(w, alphabet)
                                         for w in row[side].split(";")], alphabet)
                    for side in ("h", "k"))
            for key, value in _pair_sizes(h, k).items():
                total[key] = total.get(key, 0) + value
        out.update(total, pairs=len(rows))
    return out


def validate(op) -> None:
    """Checks that need a second computation: a cover's current is the
    base current scaled by the index (normalize against finite_index)."""
    if "base" not in op.params:
        return
    pkg = _pkg()
    rank = op.params["rank"]
    cover, base = _subgroup(op.params["h"], rank), _subgroup(op.params["base"], rank)
    index = pkg.finite_index(cover, base)
    if index != op.params["degree"]:
        raise OpFailed("NotACover", f"generated cover has index {index}", refused=False)
    if pkg.counting_current(cover) != pkg.counting_current(base).scale(index):
        raise OpFailed("ScalingMismatch", "cover current is not index times the base",
                       refused=False)
