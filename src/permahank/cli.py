"""Command-line front end for the permanental-ideal toolkit.

Verbs:

  gen          permanent generators of the 2x2 minors-with-plus of a shape
  gb           reduced Groebner basis of the shape ideal or a JSON ideal
  closed-form  the closed-form basis family for a shape
  nf           normal form of an expression against a reduced basis
  colon        ideal quotient (I : f)
  intersect    intersection of two JSON ideals
  decompose    components Q1, Q2, J with stabilization exponents
  classify     embedded-component yes/no for a shape
  verify       run the verification suite over a shape or grid

Exit codes: 0 success (all checks pass), 1 at least one verification
failure (reports are still emitted), 2 usage or domain error, or a
computation stopped by its limit (a saturation reaching
ideal_ops.SATURATION_CAP).

Text output is byte-deterministic.  JSON verification reports carry a
wall-clock "millis" field and are deterministic in all other fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .ring import _MAXVARS, LEX, MonomialOrder, parse
from .groebner import normal_form
from .hankel import HankelMatrix, permanent_generators
from .ideal_ops import Ideal, colon, ideal_from_dict, intersect, polys_to_dict
from .verify import (
    CHECK_NAMES,
    Case,
    classify_embedded,
    closed_form_gb,
    decomposition_summary,
    default_grid,
    run_all,
)


def _emit(text, args):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args):
    _emit(json.dumps(obj, indent=2) + "\n", args)


def _emit_polys(args, ring, polys, order=LEX, extra=None):
    """A polynomial list as JSON (polys_to_dict) or one per line."""
    if args.format == "json":
        _emit_json(polys_to_dict(ring, polys, order, extra), args)
    else:
        _emit("".join(p.format(order) + "\n" for p in polys), args)


def _shape_matrix(args):
    if args.m is None or args.n is None:
        raise ValueError("--m and --n are required for this command")
    return HankelMatrix(args.m, args.n, args.char)


def _load_ideal(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ideal_from_dict(doc)


def _source_ideal(args):
    """(ring, order, generators) from --in (JSON ideal) or from the shape flags.

    The order is --order when given, else the JSON ideal's, else lex.
    """
    if getattr(args, "infile", None):
        if args.m is not None or args.n is not None:
            raise ValueError("give either --in or --m/--n, not both")
        ring, order, gens = _load_ideal(args.infile)
    else:
        M = _shape_matrix(args)
        ring, order, gens = M.ring, LEX, permanent_generators(M)
    if getattr(args, "order", None):
        order = MonomialOrder(args.order)
    return ring, order, gens


def _parse_grid(text):
    shapes = []
    for part in text.split(","):
        part = part.strip()
        mm, sep, nn = part.partition("x")
        if not sep or not mm.isdigit() or not nn.isdigit():
            raise ValueError(f"bad grid entry {part!r}; expected the form 2x3")
        shapes.append((int(mm), int(nn)))
    if not shapes:
        raise ValueError("empty grid")
    return shapes


# -- verbs ---------------------------------------------------------------------


def _cmd_gen(args):
    M = _shape_matrix(args)
    _emit_polys(args, M.ring, permanent_generators(M), extra={"m": M.m, "n": M.n})
    return 0


def _cmd_gb(args):
    ring, order, gens = _source_ideal(args)
    _emit_polys(args, ring, Ideal(ring, gens).reduced_basis(order).elements, order)
    return 0


def _cmd_closed_form(args):
    case = Case(args.m, args.n, args.char)
    extra = {"m": case.m, "n": case.n, "class": case.shape_class.value}
    _emit_polys(args, case.ring, closed_form_gb(case), extra=extra)
    return 0


def _cmd_nf(args):
    ring, order, gens = _source_ideal(args)
    f = parse(args.expr, ring)
    basis = Ideal(ring, gens).reduced_basis(order)
    r = normal_form(f, basis) if len(basis) else f  # modulo the zero ideal, f itself
    if args.format == "json":
        _emit_json(
            {
                "vars": ring.nvars,
                "char": ring.char,
                "order": order.kind,
                "input": f.format(order),
                "normal_form": r.format(order),
            },
            args,
        )
    else:
        _emit(r.format(order) + "\n", args)
    return 0


def _cmd_colon(args):
    ring, _, gens = _source_ideal(args)
    f = parse(args.expr, ring)
    _emit_polys(args, ring, colon(Ideal(ring, gens), f).reduced_basis().elements)
    return 0


def _cmd_intersect(args):
    if len(args.infile) != 2:
        raise ValueError("intersect needs exactly two --in files")
    ring_a, _, gens_a = _load_ideal(args.infile[0])
    ring_b, _, gens_b = _load_ideal(args.infile[1])
    if ring_a != ring_b:
        raise ValueError("the two ideals live in different rings")
    C = intersect(Ideal(ring_a, gens_a), Ideal(ring_a, gens_b))
    _emit_polys(args, ring_a, C.reduced_basis().elements)
    return 0


def _cmd_decompose(args):
    case = Case(args.m, args.n, args.char)
    s = decomposition_summary(case)
    bases = {k: s[k].reduced_basis().elements for k in ("q1", "q2", "j")}
    if args.format == "json":
        doc = {
            "m": case.m,
            "n": case.n,
            "char": case.char,
            "vars": case.nvars,
            "order": "lex",
            "q1": [str(p) for p in bases["q1"]],
            "q2": [str(p) for p in bases["q2"]],
            "j": [str(p) for p in bases["j"]],
            "q1_stab": s["q1_stab"],
            "q2_stab": s["q2_stab"],
            "j_redundant": s["j_redundant"],
        }
        _emit_json(doc, args)
    else:
        lines = []
        for key, label in (("q1", "Q1"), ("q2", "Q2"), ("j", "J")):
            lines.append(f"{label}:")
            lines.extend(f"  {p}" for p in bases[key])
        lines.append(f"q1_stab: {s['q1_stab']}")
        lines.append(f"q2_stab: {s['q2_stab']}")
        lines.append(f"j_redundant: {'true' if s['j_redundant'] else 'false'}")
        _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_classify(args):
    case = Case(args.m, args.n, args.char)
    emb = classify_embedded(case)
    if args.format == "json":
        doc = {"m": case.m, "n": case.n, "char": case.char, "embedded": emb}
        _emit_json(doc, args)
    else:
        _emit(f"embedded: {'true' if emb else 'false'}\n", args)
    return 0


def _cmd_verify(args):
    if args.max_vars < 4:
        # 2x3, the smallest shape, needs 4 variables: a lower budget checks nothing
        raise ValueError(f"--max-vars must be at least 4, got {args.max_vars}")
    checks = None if args.check == "all" else [args.check]
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            raise ValueError("--m and --n go together")
        if args.grid:
            raise ValueError("give either --m/--n or --grid, not both")
        grid = [(args.m, args.n)]
    elif args.grid:
        grid = _parse_grid(args.grid)
    # a ring has at most _MAXVARS variables, and the default grid of a budget K
    # would list about K^2/4 shapes in memory first
    elif args.max_vars > _MAXVARS:
        raise ValueError(f"--max-vars over {_MAXVARS} needs --grid or --m/--n, got {args.max_vars}")
    else:
        grid = default_grid(args.max_vars)
    shapes = []
    for m, n in grid:
        if m > n:
            m, n = n, m
        if m + n - 1 > args.max_vars:
            raise ValueError(
                f"shape {m}x{n} needs {m + n - 1} variables, over the "
                f"--max-vars budget of {args.max_vars}"
            )
        shapes.append((m, n))
    reports = run_all(sorted(set(shapes)), args.char, checks)
    npass = sum(1 for r in reports if r.passed)
    if args.format == "json":
        _emit_json([r.to_dict() for r in reports], args)
    else:
        lines = []
        for r in reports:
            line = f"({r.m},{r.n}) {r.claim:<18} {'pass' if r.passed else 'FAIL'}"
            if r.detail:
                line += "  " + r.detail
            lines.append(line)
            if not r.passed:
                lines.append("  witness: " + json.dumps(r.witness, sort_keys=True))
        lines.append(f"{npass}/{len(reports)} checks passed")
        _emit("\n".join(lines) + "\n", args)
    return 0 if npass == len(reports) else 1


# -- parser --------------------------------------------------------------------


def _add_shape(p, required=False):
    p.add_argument("--m", type=int, required=required, help="number of rows")
    p.add_argument("--n", type=int, required=required, help="number of columns")
    p.add_argument(
        "--char",
        type=int,
        default=0,
        help="coefficient field characteristic: 0 (rationals) or a prime other than 2",
    )


def _add_io(p):
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_order(p):
    p.add_argument(
        "--order",
        choices=("lex", "deglex"),
        help="monomial order (default: the --in file's order, else lex)",
    )


@functools.cache  # parse_args leaves the parser as it was, so one serves every main()
def _build_parser():
    top = argparse.ArgumentParser(
        prog="permahank",
        description="2x2 permanental ideals of Hankel matrices: bases, "
        "decompositions, and machine verification.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="print the permanent generators")
    _add_shape(p, required=True)
    _add_io(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gb", help="reduced Groebner basis")
    _add_shape(p)
    _add_order(p)
    _add_io(p)
    p.add_argument("--in", dest="infile", help="JSON ideal to use instead of a shape")
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("closed-form", help="closed-form basis for the shape class")
    _add_shape(p, required=True)
    _add_io(p)
    p.set_defaults(func=_cmd_closed_form)

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expr", help="polynomial expression, e.g. 'x1*x5'")
    _add_shape(p)
    _add_order(p)
    _add_io(p)
    p.add_argument("--in", dest="infile", help="JSON ideal to reduce against")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("colon", help="ideal quotient (I : f)")
    p.add_argument("expr", help="the polynomial f")
    _add_shape(p)
    _add_io(p)
    p.add_argument("--in", dest="infile", help="JSON ideal for I")
    p.set_defaults(func=_cmd_colon)

    p = sub.add_parser("intersect", help="intersection of two JSON ideals")
    p.add_argument(
        "--in",
        dest="infile",
        action="append",
        required=True,
        help="JSON ideal file (give twice)",
    )
    _add_io(p)
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("decompose", help="components Q1, Q2, J and stabilization")
    _add_shape(p, required=True)
    _add_io(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("classify", help="embedded-component classification")
    _add_shape(p, required=True)
    _add_io(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_shape(p)
    _add_io(p)
    p.add_argument(
        "--check",
        choices=CHECK_NAMES + ("all",),
        default="all",
        help="which claim group to verify",
    )
    p.add_argument("--grid", help="comma-separated shapes, e.g. 2x3,3x4")
    p.add_argument(
        "--max-vars",
        type=int,
        default=12,
        help="variable budget; shapes needing more are rejected",
    )
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
