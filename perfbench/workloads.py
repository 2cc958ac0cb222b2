"""The benchmark's three workloads: verify, queries and decompose.

Each workload draws its inputs from the seed alone and runs one pass as a
closed loop: a single caller in one thread, the next item starting only
after the previous one has returned.  Every pass mixes Q and GF(32003),
because the engine keeps separate char-0 and char-p copies of its inner
loops.  After each pass, outside the timed region, `check` compares every
answer with a result known without trusting the engine: the paper's list of
shapes without an embedded component, the closed forms q1 and q2, the
index-rewriting oracle, answers fixed by how the input was built, and
agreement between the two fields.

A draw takes one shape from each level and shuffles the order of the
work.  The shapes of a level have the same number of variables and were
measured to cost within a few percent of each other, and the shapes whose
items make up the tail are fixed, so another seed changes the inputs but
hardly the work in a pass or where its tail percentile falls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from time import thread_time

from tracing import Patches, bindings

PRIME = 32003
FIELDS = (("q", 0), ("gfp", PRIME))
# The paper's shapes whose J component is redundant (no embedded prime).
NON_EMBEDDED = frozenset({(2, 3), (3, 5), (3, 6), (4, 5)})
CLAIMS = (
    "verify_gb",
    "verify_decomposition",
    "verify_primary_properties",
    "verify_associated_maximal",
    "verify_reduction_lemma",
    "verify_membership_lemmas",
    "verify_bound_lemma",
)


def family(m, n):
    if m == 2:
        return "2xn"
    if (m, n) == (3, 3):
        return "3x3"
    if (m, n) in ((3, 4), (4, 4)):
        return "3x4_4x4"
    return "general"


def expected_claims(m, n):
    """Claim names `verify` reports for a shape, in report order."""
    out = [f"gb.{family(m, n)}", "decomp.main", "primary.components"]
    if (m, n) not in NON_EMBEDDED:
        out.append("assoc.maximal")
    return out + ["lemma.reduction", "lemma.membership", "lemma.bound"]


def to_gfp(c):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def terms_mod_p(poly):
    """Terms of a polynomial over Q with coefficients reduced mod PRIME."""
    return sorted((e, to_gfp(c)) for c, e in poly.terms() if to_gfp(c))


def terms_of(poly):
    return sorted((e, int(c)) for c, e in poly.terms())


def field_agreement(q_out, p_out):
    """Whether a Q answer reduced mod p equals the GF(p) answer."""
    if isinstance(q_out, bool):
        return q_out == p_out
    return terms_mod_p(q_out) == terms_of(p_out)


class Workload:
    """A pass runs `units` in order; `check` counts wrong answers in its outputs."""

    name = ""
    why = ""
    tail_pct = 0
    min_passes = 1

    def __init__(self, ph, seed):
        self.ph = ph
        self.rng = random.Random(seed)

    @classmethod
    def draw(cls, rng):
        """One shape from each level."""
        return [rng.choice(level) for level in cls.LEVELS]

    def items(self):
        """Items one pass attempts; failures are counted against this."""
        return len(self.units)

    def run_pass(self, before_unit, lat):
        """Run one pass and return its outputs; item times go to `lat`.

        before_unit(field) is called before each unit, and may be called
        with no field before an item inside a unit; never inside an item's
        timing.
        """
        outputs = []
        for unit in self.units:
            before_unit(unit[0])
            t0 = thread_time()
            try:
                out = self.run_unit(unit)
            except Exception as exc:  # an item that raises counts as failed
                out = exc
            lat.append(thread_time() - t0)
            outputs.append(out)
        return outputs

    def describe(self):
        return {"shapes": [f"{m}x{n}" for m, n in self.shapes]}


class PerShape(Workload):
    """A workload whose units are (field tag, characteristic, m, n)."""

    def __init__(self, ph, seed):
        super().__init__(ph, seed)
        self.shapes = self.draw(self.rng)
        self.units = [(tag, char, m, n) for m, n in self.shapes for tag, char in FIELDS]
        self.rng.shuffle(self.units)
        # warm up on 2x3; a failure here shows again in the passes
        for tag, char in FIELDS:
            try:
                self.run_unit((tag, char, 2, 3))
            except Exception:
                pass


class Verify(PerShape):
    name = "verify"
    why = (
        "the user job: permahank verify --format json through cli.main on a "
        "seeded draw of shapes covering all four basis families, both fields"
    )
    # The tail percentile falls among the decomp.main claims of the two
    # heaviest shapes, which are fixed.  The seed picks between 3x6 and 4x5,
    # which cost the same claim by claim, and the order of the units.
    tail_pct = 97
    min_passes = 4
    LEVELS = (
        ((2, 3),),
        ((3, 3),),
        ((3, 4),),
        ((2, 6),),
        ((3, 6), (4, 5)),
        ((4, 6),),
        ((5, 5),),
    )

    def items(self):
        return sum(len(expected_claims(m, n)) for _, _, m, n in self.units)

    def run_unit(self, unit):
        _, char, m, n = unit
        argv = ["verify", "--m", str(m), "--n", str(n), "--char", str(char), "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ph.cli.main(argv)
        return code, buf.getvalue()

    def run_pass(self, before_unit, lat):
        # An item is one claim: time each claim check where run_case calls it.
        patches = Patches()
        for attr in CLAIMS:
            fn = getattr(self.ph.verify, attr)
            timed = _claim_clock(fn, before_unit, lat)
            for ns, bound in bindings(self.ph, fn):
                patches.set(ns, bound, timed)
        try:
            return super().run_pass(before_unit, [])
        finally:
            patches.restore()

    def check(self, outputs):
        """Failed claims in one pass's outputs, and the outputs without millis."""
        failed = 0
        reports = {}
        canonical = []
        for (tag, _, m, n), out in zip(self.units, outputs):
            want = expected_claims(m, n)
            try:
                code, text = out
                got = json.loads(text)
                for r in got:
                    r.pop("millis")
            except (TypeError, ValueError, KeyError):
                failed += len(want)
                canonical.append(repr(out))
                continue
            canonical.append([code, got])
            reports[tag, m, n] = got
            if [r["claim"] for r in got] != want:
                failed += len(want)
                continue
            bad = 0
            for r in got:
                if r["status"] != "pass" or (r["m"], r["n"]) != (m, n):
                    bad += 1
                elif r["claim"] == "decomp.main":
                    d = dict(kv.split("=") for kv in r["detail"].split())
                    embedded = (m, n) not in NON_EMBEDDED
                    bad += (
                        int(d["q1_stab"]) > 2
                        or int(d["q2_stab"]) > 2
                        or d["embedded"] != ("yes" if embedded else "no")
                    )
            # exit status 0 with every claim passing, 1 otherwise
            failed += bad or code != 0
        for m, n in self.shapes:
            q, p = reports.get(("q", m, n)), reports.get(("gfp", m, n))
            if q is not None and p is not None and q != p:
                failed += sum(a != b for a, b in zip(q, p)) or 1
        return failed, canonical


def _claim_clock(fn, before_item, lat):
    # verify_associated_maximal returns None, and reports no claim, on
    # shapes without an embedded component; that call is not an item.
    def timed(*args, **kwargs):
        before_item()
        t0 = thread_time()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            lat.append(thread_time() - t0)
            raise
        if result is not None:
            lat.append(thread_time() - t0)
        return result

    timed.__name__ = fn.__name__
    return timed


class Queries(Workload):
    name = "queries"
    why = (
        "the read path: normal forms and membership against cached reduced "
        "bases (lex and deglex) and the raw generator list; no Buchberger"
    )
    # Shapes of a level have reduced bases of one size.  The tail percentile
    # falls among monomial reductions against the generator list of the
    # largest shape, whose cost grows with the number of generators, so
    # that shape is fixed.
    tail_pct = 99
    min_passes = 3
    LEVELS = (((3, 6), (4, 5)), ((3, 8), (4, 7), (5, 6)), ((5, 8),))
    PER_SHAPE = 48
    KINDS = ("nf_lex", "nf_deglex", "member", "nf_perm")

    def __init__(self, ph, seed):
        super().__init__(ph, seed)
        rng = self.rng
        self.shapes = self.draw(rng)
        self.targets = {}
        expected = []
        for m, n in self.shapes:
            for tag, char in FIELDS:
                M = ph.HankelMatrix(m, n, char)
                gens = ph.permanent_generators(M)
                ideal = ph.Ideal(M.ring, gens)
                self.targets[tag, m, n] = (
                    M.ring,
                    gens,
                    ideal,
                    ideal.reduced_basis(ph.LEX),
                    ideal.reduced_basis(ph.DEGLEX),
                )
            qring, qgens = self.targets["q", m, n][:2]
            for j in range(self.PER_SHAPE):
                known = j % 2 == 0
                f, lin = self._draw_poly(rng, qring, qgens, known)
                mono = tuple(sorted(rng.randint(1, qring.nvars) for _ in range(2 + j % 2)))
                for tag, _ in FIELDS:
                    ring = self.targets[tag, m, n][0]
                    fx = ring.poly(f.terms())
                    for kind in self.KINDS:
                        arg = mono if kind == "nf_perm" else fx
                        expected.append(((tag, kind, m, n, j), arg, lin if known else None))
        rng.shuffle(expected)
        self.units = [(key[0], key, arg) for key, arg, _ in expected]
        self.expect = {key: lin for key, _, lin in expected}

    @staticmethod
    def _draw_poly(rng, ring, gens, known):
        """A random polynomial over Q with integer and fractional coefficients.

        With `known`, it is a combination of generators plus a linear form L,
        whose normal form under any order is L: every leading term of the
        ideal has degree at least 2.  Otherwise it is a dense random
        polynomial of degree 2 to 4.
        """
        nv = ring.nvars

        def coeff():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

        def mono(deg):
            e = [0] * nv
            for _ in range(deg):
                e[rng.randrange(nv)] += 1
            return tuple(e)

        lin = ring.poly([(coeff(), mono(1)) for _ in range(rng.randint(0, 2))])
        if not known:
            terms = [(coeff(), mono(rng.randint(2, 4))) for _ in range(rng.randint(4, 8))]
            return ring.poly(terms) + lin, None
        f = lin
        for _ in range(3):
            f = f + ring.monomial(mono(rng.randint(0, 2)), coeff()) * rng.choice(gens)
        return f, lin

    def run_unit(self, unit):
        tag, (_, kind, m, n, _), arg = unit
        ring, gens, ideal, lex, deglex = self.targets[tag, m, n]
        nf = self.ph.normal_form
        if kind == "nf_lex":
            return nf(arg, lex)
        if kind == "nf_deglex":
            return nf(arg, deglex, self.ph.DEGLEX)
        if kind == "member":
            return arg in ideal
        return nf(ring.monomial(_exps(arg, ring.nvars)), gens)

    def check(self, outputs):
        failed = 0
        got = {}
        rewrite = self.ph.rewrite_monomial_indices
        for (tag, key, arg), out in zip(self.units, outputs):
            got[key] = out
            _, kind, m, n, _ = key
            ring = self.targets[tag, m, n][0]
            if isinstance(out, Exception):
                failed += 1
                continue
            if kind == "nf_perm":
                sign, final = rewrite(m, n, arg)
                ok = out == ring.monomial(_exps(final, ring.nvars), sign)
            else:
                lin = self.expect[key]
                if lin is None:
                    continue
                want = lin.is_zero if kind == "member" else ring.poly(lin.terms())
                ok = out == want
            failed += not ok
        for key, out in got.items():
            if key[0] == "q":
                other = got[("gfp",) + key[1:]]
                if isinstance(out, Exception) or isinstance(other, Exception):
                    continue
                failed += not field_agreement(out, other)
        canonical = [
            out if isinstance(out, bool) else repr(out) for out in outputs
        ]
        return failed, canonical

    def describe(self):
        sizes = [len(self.targets["q", m, n][3]) for m, n in self.shapes]
        return {**super().describe(), "basis_sizes": sizes}


def _exps(indices, nvars):
    e = [0] * nvars
    for i in indices:
        e[i - 1] += 1
    return tuple(e)


class Decompose(PerShape):
    name = "decompose"
    why = (
        "the write path: decomposition_summary plus classify_embedded per shape, "
        "elimination Buchberger under intersect, colon and saturate"
    )
    # The tail percentile falls among the two heaviest shapes, which are
    # fixed; 7x7 is past the default grid.
    tail_pct = 80
    min_passes = 4
    LEVELS = (
        ((2, 3),),
        ((3, 5), (4, 5)),
        ((4, 6), (5, 5)),
        ((4, 7), (5, 6)),
        ((4, 8), (5, 7)),
        ((6, 7),),
        ((7, 7),),
    )

    def run_unit(self, unit):
        _, char, m, n = unit
        case = self.ph.Case(m, n, char)
        summary = self.ph.decomposition_summary(case)
        return case, summary, self.ph.classify_embedded(case)

    def check(self, outputs):
        ph = self.ph
        failed = 0
        found = {}
        canonical = []
        for (tag, _, m, n), out in zip(self.units, outputs):
            if isinstance(out, Exception):
                failed += 1
                canonical.append(repr(out))
                continue
            case, s, embedded = out
            q1 = s["q1"].reduced_basis().elements
            q2 = s["q2"].reduced_basis().elements
            record = (
                [str(g) for g in q1],
                [str(g) for g in q2],
                s["q1_stab"],
                s["q2_stab"],
                s["j_redundant"],
                embedded,
            )
            canonical.append(record)
            found[tag, m, n] = (q1, q2, s["q1_stab"], s["q2_stab"], embedded)
            ok = (
                embedded == ((m, n) not in NON_EMBEDDED)
                and s["j_redundant"] == ((m, n) in NON_EMBEDDED)
                and s["q1_stab"] <= 2
                and s["q2_stab"] <= 2
                and ph.equal(s["q1"], ph.q1(case))
                and ph.equal(s["q2"], ph.q2(case))
            )
            failed += not ok
        for m, n in self.shapes:
            q, p = found.get(("q", m, n)), found.get(("gfp", m, n))
            if q is None or p is None:
                continue
            same = q[2:] == p[2:] and all(
                len(a) == len(b) and all(field_agreement(x, y) for x, y in zip(a, b))
                for a, b in zip(q[:2], p[:2])
            )
            failed += not same
        return failed, canonical


WORKLOADS = {w.name: w for w in (Verify, Queries, Decompose)}
