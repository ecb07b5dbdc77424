"""Command-line surface: reduction data, traces, image scans, family statistics."""

from __future__ import annotations

import contextlib
import math
import re
import sys
from fractions import Fraction

import click

from . import family as familymod
from . import galois, symprime
from .arith import InvariantViolation, is_prime
from .curve import SingularModel, WeierstrassModel, trace_table, trace_tables
from .localdata import global_reduce, phi_order, tate


class ParseReject(Exception):
    pass


def _parse_curve(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ParseReject(f"expected a1,a2,a3,a4,a6 but got {text!r}")
    try:
        coeffs = [int(p) for p in parts]
    except ValueError:
        raise ParseReject(f"non-integer coefficient in {text!r}")
    try:
        return WeierstrassModel(*coeffs)
    except SingularModel:
        raise ParseReject(f"singular model {text!r}")


def _parse_prime(n, flag):
    if not is_prime(n):
        raise ParseReject(f"{flag} must be a prime, got {n}")
    return n


def _check_bound(n):
    if n < 2:
        raise ParseReject(f"-X must be at least 2, the least prime, got {n}")


def _emit(data, fmt):
    sys.stdout.buffer.write(familymod.report_emit(data, fmt))


def _fail(exit_code, kind, message):
    """Exit with one stderr line, `<kind>: <message>`."""
    click.echo(f"{kind}: {' '.join(message.splitlines())}", err=True)
    sys.exit(exit_code)


@contextlib.contextmanager
def _exit_policy():
    """The one exit-code policy: 1 for a rejected input (ours or one of click's usage
    errors), 2 for an internal failure, each with one line on stderr."""
    try:
        yield
    except (click.exceptions.Exit, click.Abort):
        raise  # RuntimeErrors of click's own (--help, an abort) that click handles
    except click.UsageError as exc:
        _fail(1, "parse error", exc.format_message())
    except ParseReject as exc:
        _fail(1, "parse error", str(exc))
    except InvariantViolation as exc:
        _fail(2, "invariant violation", str(exc))
    except Exception as exc:
        _fail(2, "internal error", f"{type(exc).__name__}: {exc}")


class _Main(click.Group):
    """Holds the exit-code policy for every command: parsing the command line, which
    finds the command, and running it both go through `_exit_policy`."""

    def make_context(self, info_name, args, parent=None, **extra):
        with _exit_policy():
            return super().make_context(info_name, args, parent=parent, **extra)

    def invoke(self, ctx):
        with _exit_policy():
            return super().invoke(ctx)


fmt_option = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
input_format_option = click.option(
    "--input-format", type=click.Choice(["csvAinvariants", "jsonLines"]), default=None
)


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Arithmetic of elliptic curves over Q: reduction, traces, mod-ell images."""


@main.command("tate")
@click.argument("curve")
@click.option("-p", "prime", type=int, required=True)
@fmt_option
def tate_cmd(curve, prime, fmt):
    """Local reduction data at a prime."""
    model = _parse_curve(curve)
    loc = tate(model, _parse_prime(prime, "-p"))
    data = {
        "p": loc.p,
        "kodaira": loc.kodaira,
        "conductorExponent": loc.f,
        "vDeltaMin": loc.v_delta_min,
        "reductionType": loc.red_type,
        "potentiallyGood": loc.pot_good,
    }
    if loc.red_type == "additive" and loc.pot_good:
        data["phiOrder"] = phi_order(loc)
    _emit(data, fmt)


@main.command()
@click.argument("curve")
@click.option("-X", "bound", type=int, required=True)
@fmt_option
def ap(curve, bound, fmt):
    """Frobenius traces a_p for p <= X."""
    _check_bound(bound)
    red = global_reduce(_parse_curve(curve))
    table = trace_table(red, bound)
    _emit(
        {
            "conductor": red.conductor,
            "bound": bound,
            "good": {str(p): a for p, a in table.good.items()},
            "ramified": {str(p): a for p, a in table.ramified.items()},
        },
        fmt,
    )


@main.command()
@click.argument("curve")
@click.option("-l", "ell", type=int, required=True)
@click.option("-X", "bound", type=int, required=True)
@fmt_option
def image(curve, ell, bound, fmt):
    """Mod-ell image certificate scan."""
    _check_bound(bound)
    if _parse_prime(ell, "-l") == 3:
        raise ParseReject("the image scan does not support ell = 3")
    red = global_reduce(_parse_curve(curve))
    table = trace_table(red, bound)
    try:
        rep = galois.image_test(red, table, ell, bound)
    except galois.InsufficientSamples as exc:
        _emit({"ell": ell, "verdict": "insufficientSamples", "detail": str(exc)}, fmt)
        return
    _emit(
        {
            "ell": rep.ell,
            "verdict": rep.verdict,
            "bound": rep.bound,
            "certificates": rep.certificates,
            "obstruction": rep.obstruction,
            "samples": rep.samples,
        },
        fmt,
    )


@main.command()
@click.argument("curve1")
@click.argument("curve2")
@click.option("-X", "bound", type=int, required=True)
@fmt_option
def pair(curve1, curve2, bound, fmt):
    """Least trace-distinguishing prime and the comparison bound for a pair."""
    _check_bound(bound)
    m1, m2 = _parse_curve(curve1), _parse_curve(curve2)
    r1, r2 = global_reduce(m1), global_reduce(m2)
    t1, t2 = trace_tables([r1, r2], bound)
    try:
        res = galois.comparison_bound(r1, t1, r2, t2, bound)
        _emit(
            {
                "witness": {"p": res.witness.p, "a1": res.witness.a1, "a2": res.witness.a2},
                "comparisonBound": res.bound,
                "spotChecks": [[ell, status] for ell, status in res.spot_checks],
            },
            fmt,
        )
    except galois.NoWitnessBelow:
        _emit({"witness": None, "noWitnessBelow": bound}, fmt)


@main.command()
@click.argument("curve")
@click.option("-l", "ell", type=int, required=True)
@click.option("-X", "bound", type=int, required=True)
@fmt_option
def epsilon(curve, ell, bound, fmt):
    """Quadratic character candidates for a non-surjective ell, after pruning."""
    _check_bound(bound)
    if _parse_prime(ell, "-l") <= 3:
        raise ParseReject(f"the epsilon machinery needs ell > 3, got {ell}")
    red = global_reduce(_parse_curve(curve))
    table = trace_table(red, bound)
    cands = galois.epsilon_candidates(red, ell)
    pruned = galois.prune_epsilon(cands, table, ell)
    _emit(
        {
            "ell": ell,
            "support": cands.support,
            "candidates": list(cands.candidates),
            "survivors": list(pruned.candidates),
            "testedCounts": {str(m): c for m, c in sorted(pruned.tested.items())},
        },
        fmt,
    )


def _ingest_checked(path, input_format):
    if input_format is None:
        input_format = "jsonLines" if str(path).endswith((".jsonl", ".json")) else "csvAinvariants"
    try:
        return familymod.ingest(path, input_format)
    except familymod.CorpusFormatError as exc:
        raise ParseReject(f"{path}: {exc}")


@main.command("family")
@click.argument("file", type=click.Path(exists=True))
@click.option("--filter", "tag", type=click.Choice(["all", "ss", "add12", "cm"]), default="all")
@click.option("-N", "ceiling", type=int, required=True)
@input_format_option
@fmt_option
def family_cmd(file, tag, ceiling, input_format, fmt):
    """Conductor-ordered family built from a curve corpus file."""
    if ceiling < 1:
        raise ParseReject(f"-N must be a positive conductor ceiling, got {ceiling}")
    corpus = _ingest_checked(file, input_format)
    tagmap = {"all": "all", "ss": "semistable", "add12": "additiveCond12", "cm": "cmOnly"}
    fam = familymod.build_family(corpus, tagmap[tag], ceiling)
    _emit(
        {
            "filter": fam.filter_tag,
            "ceiling": fam.ceiling,
            "records": [
                {"label": r.label, "conductor": r.reduction.conductor} for r in fam.records
            ],
            "fingerprintCollisions": [list(g) for g in fam.collisions],
            "rejects": [[row, msg] for row, msg in corpus.rejects],
        },
        fmt,
    )
    if corpus.rejects:
        sys.exit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("-X", "bound", type=int, required=True)
@click.option("--sample", "cap", type=int, default=1000)
@click.option("--seed", type=int, default=0)
@input_format_option
@fmt_option
def pairs(file, bound, cap, seed, input_format, fmt):
    """Pair witness statistics over a corpus."""
    _check_bound(bound)
    if cap < 1:
        raise ParseReject(f"--sample must be a positive number of pairs, got {cap}")
    corpus = _ingest_checked(file, input_format)
    fam = familymod.build_family(corpus, "all", math.inf)
    _emit(familymod.pair_statistics(fam, bound, cap, seed), fmt)
    if corpus.rejects:
        sys.exit(1)


@main.command("cm-census")
@click.option("-N", "ceiling", type=int, required=True)
@fmt_option
def cm_census_cmd(ceiling, fmt):
    """Census of CM curves by conductor ceiling."""
    if ceiling < 1:
        raise ParseReject(f"-N must be a positive conductor ceiling, got {ceiling}")
    _emit(familymod.cm_census(ceiling), fmt)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--pair", "labels", required=True, help="two corpus labels, comma separated")
@click.option("-X", "scale", type=float, required=True)
@input_format_option
@fmt_option
def symsum(file, labels, scale, input_format, fmt):
    """Smooth diagonal and cross sums of symmetric-square coefficients."""
    if not 0 < scale < math.inf:
        raise ParseReject(f"-X must be a positive finite scale, got {scale}")
    corpus = _ingest_checked(file, input_format)
    want = [s.strip() for s in labels.split(",")]
    if len(want) != 2:
        raise ParseReject("--pair needs exactly two labels")
    by_label = {r.label: r for r in corpus.records}
    missing = [w for w in want if w not in by_label]
    if missing:
        raise ParseReject(f"labels not in corpus: {missing}")
    r1, r2 = by_label[want[0]], by_label[want[1]]
    bound = int(2 * scale) + 1
    t1, t2 = trace_tables([r1.reduction, r2.reduction], bound)
    psi = symprime.bump_psi()
    coprime_to = r1.reduction.conductor * r2.reduction.conductor
    s_val = symprime.smooth_sum_S(t1, scale, psi, coprime_to)
    h_val = symprime.smooth_sum_H(t1, t2, scale, psi, coprime_to)
    _emit(
        {"labels": want, "X": scale, "S": s_val, "H": h_val, "coprimeTo": coprime_to},
        fmt,
    )
    if corpus.rejects:
        sys.exit(1)


@main.command()
@click.argument("delta")
@fmt_option
def cdelta(delta, fmt):
    """The exponent constant c(delta), exactly."""
    # Fraction expands 1e<n> to all n digits before anything can look at it
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", delta)
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > 4:
        raise ParseReject(f"decimal exponent of more than 4 digits in {delta[:40]!r}")
    try:
        value = Fraction(delta)
    except (ValueError, ZeroDivisionError):
        raise ParseReject(f"not a rational number: {delta!r}")
    try:
        result = symprime.c_delta(value)
    except ValueError as exc:
        raise ParseReject(str(exc))
    try:
        data = {"delta": str(value), "value": str(result)}
    except ValueError:  # str() writes at most 4300 digits
        raise ParseReject(f"too many digits to write: {delta!r}")
    _emit(data, fmt)


if __name__ == "__main__":
    main()
