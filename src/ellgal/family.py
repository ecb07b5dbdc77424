"""Corpus ingestion, conductor-ordered families, pair statistics, CM twist census."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .arith import kronecker, least_nonresidue, primes_up_to, valuation
from .curve import SingularModel, WeierstrassModel, trace_tables
from .curve import trace_table  # noqa: F401  (kept as family.trace_table)
from .galois import pair_bound, pair_witness
from .localdata import GlobalReduction, global_reduce, tate


class CorpusFormatError(ValueError):
    """The corpus file as a whole is unreadable (as opposed to a rejected row)."""


@dataclass(frozen=True)
class CurveRecord:
    label: str
    model: WeierstrassModel
    reduction: GlobalReduction


@dataclass(frozen=True)
class Corpus:
    records: tuple
    rejects: tuple  # (row_number, message)


@dataclass(frozen=True)
class Family:
    filter_tag: str
    ceiling: int
    records: tuple  # sorted by (conductor, label)
    collisions: tuple  # groups of labels with identical small-prime trace fingerprints


def ingest(path, fmt: str) -> Corpus:
    """Read a curve corpus; malformed rows land in rejects, never dropped silently."""
    records = []
    rejects = []
    seen_labels = set()

    def add(rownum, fields, label):
        try:
            if any(isinstance(v, (bool, float)) for v in fields):  # JSON true or -1.5
                raise TypeError("not an integer")
            coeffs = [int(v) for v in fields]
        except (TypeError, ValueError):
            rejects.append((rownum, "non-integer coefficient"))
            return
        if len(coeffs) != 5:
            rejects.append((rownum, "expected 5 coefficients"))
            return
        label = label or f"row{rownum}"
        if label in seen_labels:
            rejects.append((rownum, f"duplicate label {label!r}"))
            return
        try:
            model = WeierstrassModel(*coeffs)
        except SingularModel:
            rejects.append((rownum, "singular model (discriminant 0)"))
            return
        records.append(CurveRecord(label, model, global_reduce(model)))
        seen_labels.add(label)

    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"not UTF-8 text ({exc.reason})") from exc
    with io.StringIO(text) as fh:
        if fmt == "csvAinvariants":
            try:
                rows = list(csv.reader(fh))
            except csv.Error as exc:  # a field longer than csv.field_size_limit()
                raise CorpusFormatError(f"unreadable CSV ({exc})") from exc
            if not rows or [h.strip() for h in rows[0][:5]] != ["a1", "a2", "a3", "a4", "a6"]:
                raise CorpusFormatError("expected header a1,a2,a3,a4,a6[,label]")
            for rownum, row in enumerate(rows[1:], start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) > 6:
                    rejects.append((rownum, "more than 6 fields (a1,a2,a3,a4,a6,label)"))
                    continue
                label = row[5].strip() if len(row) > 5 else None
                add(rownum, [c.strip() for c in row[:5]], label)
        elif fmt == "jsonLines":
            for rownum, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:  # json.loads raises ValueError also on an integer of over 4300 digits
                    obj = json.loads(line)
                    fields = [obj[k] for k in ("a1", "a2", "a3", "a4", "a6")]
                except (ValueError, KeyError, TypeError):
                    rejects.append((rownum, "malformed JSON row"))
                    continue
                label = obj.get("label")
                if not isinstance(label, (str, type(None))):
                    rejects.append((rownum, "label is not a string"))
                    continue
                add(rownum, fields, label and label.strip())
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return Corpus(tuple(records), tuple(rejects))


def _is_cm(record: CurveRecord) -> bool:
    """Over Q, E has CM exactly when j(E) is one of the thirteen CM j-invariants."""
    return record.model.j_invariant() in _CM_J


def _passes(record: CurveRecord, tag: str) -> bool:
    red = record.reduction
    if tag == "all":
        return True
    if tag == "semistable":
        return red.semistable
    if tag == "additiveCond12":
        return red.satisfies_cond12
    if tag == "cmOnly":
        return _is_cm(record)
    if tag == "nonCM":
        return not _is_cm(record)
    raise ValueError(f"unknown filter {tag!r}")


def _fingerprints(records):
    """Each record's a_p (local coefficients at bad primes) for p <= 75."""
    return [t.aps for t in trace_tables([r.reduction for r in records], 75)]


def build_family(corpus: Corpus, tag: str, ceiling: int) -> Family:
    chosen = [
        r for r in corpus.records if r.reduction.conductor <= ceiling and _passes(r, tag)
    ]
    chosen.sort(key=lambda r: (r.reduction.conductor, r.label))
    groups = {}
    for r, fingerprint in zip(chosen, _fingerprints(chosen)):
        groups.setdefault(fingerprint, []).append(r.label)
    collisions = tuple(tuple(g) for g in groups.values() if len(g) > 1)
    return Family(tag, ceiling, tuple(chosen), collisions)


def _pairs_at(indices, n):
    """(i, j) at each ascending index of the lexicographic list of pairs i < j < n."""
    i = start = 0  # start is the index of (i, i + 1)
    for k in indices:
        while k >= start + n - 1 - i:
            start += n - 1 - i
            i += 1
        yield i, i + 1 + k - start


def pair_statistics(family: Family, X: int, sample_cap: int, seed: int) -> dict:
    """Distribution of trace-distinguishing primes and comparison bounds over pairs."""
    recs = family.records
    n_pairs = len(recs) * (len(recs) - 1) // 2
    picks = range(n_pairs)
    if n_pairs > sample_cap:
        # sample draws depend only on the population's size, so indices pick the
        # same pairs a listed population would
        picks = sorted(random.Random(seed).sample(picks, sample_cap))
    pairs = list(_pairs_at(picks, len(recs)))
    needed = [recs[i] for i in sorted({i for pair in pairs for i in pair})]
    tables = trace_tables([r.reduction for r in needed], X)
    tables = {r.label: t for r, t in zip(needed, tables)}
    entries = []
    no_witness = []
    below_logsq = 0
    for i, j in pairs:
        r1, r2 = recs[i], recs[j]
        w = pair_witness(tables[r1.label], tables[r2.label], X)
        if w is None:
            no_witness.append([r1.label, r2.label])
            entries.append({"pair": [r1.label, r2.label], "witness": None, "bound": None})
        else:
            bound = pair_bound(r1.reduction, r2.reduction, w.p)
            entries.append({"pair": [r1.label, r2.label], "witness": w.p, "bound": bound})
            logsq = math.log(max(r1.reduction.conductor, r2.reduction.conductor)) ** 2
            if w.p <= logsq:
                below_logsq += 1
    found = [e for e in entries if e["witness"] is not None]
    return {
        "pairsTotal": len(pairs),
        "entries": entries,
        "noWitnessPairs": no_witness,
        "fractionWitnessBelowLogSq": below_logsq / len(found) if found else None,
        "seed": seed,
        "bound": X,
    }


# ---------------------------------------------------------------------------
# CM twist census (the thirteen class-number-one j-invariants)

# discriminant -> (a-invariants of a minimal-conductor representative, j)
CM_BASES = {
    -3: ((0, 0, 1, 0, 0), 0),
    -4: ((0, 0, 0, -1, 0), 1728),
    -7: ((1, -1, 0, -2, -1), -3375),
    -8: ((0, 4, 0, 2, 0), 8000),
    -11: ((0, -1, 1, -7, 10), -32768),
    -12: ((0, 0, 0, -15, 22), 54000),
    -16: ((0, 0, 0, -11, -14), 287496),
    -19: ((0, 0, 1, -38, 90), -884736),
    -27: ((0, 0, 1, -30, 63), -12288000),
    -28: ((1, -1, 0, -37, -78), 16581375),
    -43: ((0, 0, 1, -860, 9707), -884736000),
    -67: ((0, 0, 1, -7370, 243528), -147197952000),
    -163: ((0, 0, 1, -2174420, 1234136692), -262537412640768000),
}
_CM_J = frozenset(j for _, j in CM_BASES.values())

_BASES_VALIDATED = False


def validate_cm_bases():
    """Check each stored base: j matches, and a_p vanishes exactly off the CM field."""
    global _BASES_VALIDATED
    if _BASES_VALIDATED:
        return
    models = [WeierstrassModel(*ainvs) for ainvs, _ in CM_BASES.values()]
    for D, model in zip(CM_BASES, models):
        if model.j_invariant() != CM_BASES[D][1]:
            raise RuntimeError(f"stored model for D={D} has wrong j-invariant")
    for D, table in zip(CM_BASES, trace_tables(models, 500)):
        for p, ap in zip(table.primes, table.aps):
            if p < 5 or p in table.bad:
                continue
            if (ap == 0) != (kronecker(D, p) == -1):
                raise RuntimeError(f"CM vanishing pattern fails for D={D} at p={p}")
    _BASES_VALIDATED = True


def _tally(counts, tops, big, factors, mult):
    """Add mult * #{F in sorted factors : big * F <= top} to each top's count."""
    for i in range(bisect_left(tops, big * factors[0]), len(tops)):
        counts[i] += mult * bisect_right(factors, tops[i] // big)


def _family(D):
    """(power, twist builder, q): twists are taken up to power-th powers, and q is
    the base's one bad prime >= 5, or None."""
    power = {-3: 6, -4: 4}.get(D, 2)
    base = global_reduce(WeierstrassModel(*CM_BASES[D][0]))
    c4, c6 = base.minimal_model.c_invariants()

    def build(d):
        # c4 = 0 when power = 6 and c6 = 0 when power = 4
        a4, a6 = -27 * c4 * d ** (4 // power), -54 * c6 * d ** (6 // power)
        return WeierstrassModel(0, 0, 0, a4, a6)

    return power, build, next((p for p in base.locals if p >= 5), None)


def _class_moduli(power):
    """(m_2, m_3): units of Z_p agree mod m_p exactly when they differ by a power-th
    power, 1 + m_p Z_p, as Z_2^* = {+-1} x (1 + 4Z_2) and Z_3^* = {+-1} x (1 + 3Z_3)
    (Serre, A Course in Arithmetic, II.3) and the power is even."""
    return 4 * 2 ** valuation(power, 2), 3 * 3 ** valuation(power, 3)


def _census_family(D, tops, primes):
    """Members of one CM family with conductor <= each top.

    A twist d = sign * 2^a * 3^b * u, 0 <= a, b < power, u = prod p^e_p prime to 6
    (m = prod p squarefree, 1 <= e_p < power) has conductor big * 2^f2 * 3^f3 with
    big = q^fq * prod p^2 over p | m, p != q. A twist by a power-th power is the
    same curve over Q_p, so f2 and f3 depend only on (sign, a, b) and u's power
    classes, u mod M = m_2 * m_3 (24, 48 or 72), and each residue mod M keeps one
    sorted list of 2^f2 * 3^f3 over (sign, a, b). m grows depth-first from 1, one
    prime of the ascending `primes` (5 <= p) at a time, and each step folds the
    new prime's exponent vectors into its parent's count per residue. q goes first,
    since it alone leaves big as it is; after it big grows with p, so a branch ends
    at the first p that takes big * (least list entry) above the top. Families with
    a q are quadratic: fq must agree over q^v * unit, v in {0, 1}, unit a residue or not.
    """
    power, build, q = _family(D)
    m2, m3 = _class_moduli(power)
    M = m2 * m3
    memo = {}

    def f(p, v, unit):
        """f_p of the twist by p^v * unit, whose class at p is unit mod m_2, m_3 or q."""
        key = (p, v % power, unit % {2: m2, 3: m3}.get(p, p))
        if key not in memo:
            memo[key] = tate(build(p**v * key[2]), p).f
        return memo[key]

    span = range(power)
    twists = [(sign, a, b) for sign in (1, -1) for a in span for b in span]
    # p^f_p over the twists, for each class of u at p
    at2 = {r: [2 ** f(2, a, sign * 3**b * r) for sign, a, b in twists] for r in range(1, m2, 2)}
    at3 = {
        r: [3 ** f(3, b, sign * 2**a * r) for sign, a, b in twists] for r in range(1, m3) if r % 3
    }
    fq = {f(q, v, unit) for v in (0, 1) for unit in (1, least_nonresidue(q))} if q else {0}
    if len(fq) != 1:
        raise RuntimeError(f"f_q varies over the twists of D={D} at q={q}: {sorted(fq)}")
    qf = (q or 1) ** fq.pop()
    units = [r for r in range(1, M, 2) if r % 3]
    lists = {r: sorted(x * y for x, y in zip(at2[r % m2], at3[r % m3])) for r in units}
    floor = min(factors[0] for factors in lists.values())
    order = sorted(primes, key=lambda p: p != q)  # q first, the rest still ascending
    top = tops[-1]
    counts = [0] * len(tops)

    def walk(start, big, classes):
        for r, mult in classes.items():
            _tally(counts, tops, big, lists[r], mult)
        for i in range(start, len(order)):
            p = order[i]
            child = big if p == q else big * p * p
            if child * floor > top:
                break
            steps = [pow(p, e, M) for e in range(1, power)]
            folded = {}
            for r, k in classes.items():
                for t in steps:
                    folded[r * t % M] = folded.get(r * t % M, 0) + k
            walk(i + 1, child, folded)

    walk(0, qf, {1: 1})
    del walk  # walk refers to itself: unbinding it frees the tables now, not at a gc pass
    return counts


def cm_census(ceiling: int) -> dict:
    """Count CM curves (over the thirteen rational CM j-invariants) by conductor, at
    the ceilings 10^3, 10^4, ... below `ceiling` and at `ceiling` itself, and fit the
    counts' log-log slope when there are two ceilings or more and none counts 0."""
    if ceiling < 1:
        raise ValueError(f"conductor ceilings must be positive: {ceiling}")
    validate_cm_bases()
    tops = []
    N = 1000
    while N < ceiling:
        tops.append(N)
        N *= 10
    tops.append(ceiling)
    primes = primes_up_to(math.isqrt(ceiling))[2:]
    counts = [0] * len(tops)
    per_j = {}
    for D in sorted(CM_BASES):
        family = _census_family(D, tops, primes)
        counts = [t + c for t, c in zip(counts, family)]
        if family[-1]:
            per_j[str(CM_BASES[D][1])] = family[-1]
    if len(tops) >= 2 and all(c > 0 for c in counts):
        logs_n = np.log([float(n) for n in tops])
        logs_c = np.log([float(c) for c in counts])
        slope, intercept = np.polyfit(logs_n, logs_c, 1)
        resid = float(np.sum((logs_c - (slope * logs_n + intercept)) ** 2))
        exponent, residual = float(slope), resid
    else:
        exponent, residual = None, None
    return {
        "ceilings": tops,
        "counts": counts,
        "ratioToSqrt": [c / math.sqrt(n) for c, n in zip(counts, tops)],
        "perJInvariant": per_j,
        "fittedExponent": exponent,
        "fitResidual": residual,
        "baseCount": len(CM_BASES),
    }


# ---------------------------------------------------------------------------
# deterministic report emission


def _normalize(obj):
    if isinstance(obj, float):
        return json.loads(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}/{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}/{i}"))
    else:
        rows.append((prefix, obj))
    return rows


def report_emit(report: dict, fmt: str = "json") -> bytes:
    """Byte-deterministic serialization; floats pinned at 12 significant digits."""
    data = _normalize(report)
    if fmt == "json":
        out = (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(data):
            if value is None:
                value = ""
            elif isinstance(value, float):
                value = f"{value:.12g}"
            writer.writerow([key, value])
        out = buf.getvalue().encode()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return out


def report_parse_csv(blob: bytes) -> dict:
    """Inverse of the CSV emitter (flat key -> typed value)."""
    reader = csv.reader(io.StringIO(blob.decode()))
    header = next(reader)
    if header != ["key", "value"]:
        raise ValueError("not a report CSV")
    out = {}
    for key, value in reader:
        if value == "":
            out[key] = None
            continue
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
    return out
