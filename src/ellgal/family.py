"""Corpus ingestion, conductor-ordered families, pair statistics, CM twist census."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .arith import kronecker, least_nonresidue, primes_up_to, smallest_prime_factors
from .curve import SingularModel, WeierstrassModel, trace_table
from .galois import ceil_four_sqrt, curve_constant, pair_witness
from .localdata import GlobalReduction, _tate_steps, _tate_table, global_reduce


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


_TRACE_CACHE = {}


def _cached_traces(red: GlobalReduction, X):
    key = (red.minimal_model.ainvs(), X)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = trace_table(red, X)
    return _TRACE_CACHE[key]


def ingest(path, fmt: str) -> Corpus:
    """Read a curve corpus; malformed rows land in rejects, never dropped silently."""
    records = []
    rejects = []
    seen_labels = set()

    def add(rownum, fields, label):
        try:
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
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"not UTF-8 text ({exc.reason})") from exc
    with io.StringIO(text) as fh:
        if fmt == "csvAinvariants":
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:5]] != ["a1", "a2", "a3", "a4", "a6"]:
                raise CorpusFormatError("expected header a1,a2,a3,a4,a6[,label]")
            for rownum, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                label = row[5].strip() if len(row) > 5 else None
                add(rownum, [c.strip() for c in row[:5]], label)
        elif fmt == "jsonLines":
            for rownum, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    fields = [obj[k] for k in ("a1", "a2", "a3", "a4", "a6")]
                except (json.JSONDecodeError, KeyError, TypeError):
                    rejects.append((rownum, "malformed JSON row"))
                    continue
                add(rownum, fields, obj.get("label"))
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return Corpus(tuple(records), tuple(rejects))


def _is_cm(record: CurveRecord) -> bool:
    table = _cached_traces(record.reduction, 500)
    good = [p for p in table.good_primes() if p >= 5]
    if not good:
        return False
    zeros = sum(1 for p in good if table.good[p] == 0)
    return zeros / len(good) > 0.35


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


def _fingerprint(record: CurveRecord):
    table = _cached_traces(record.reduction, 75)
    return tuple(table.trace(p) for p in primes_up_to(75))


def build_family(corpus: Corpus, tag: str, ceiling: int) -> Family:
    chosen = [
        r for r in corpus.records if r.reduction.conductor <= ceiling and _passes(r, tag)
    ]
    chosen.sort(key=lambda r: (r.reduction.conductor, r.label))
    groups = {}
    for r in chosen:
        groups.setdefault(_fingerprint(r), []).append(r.label)
    collisions = tuple(tuple(g) for g in groups.values() if len(g) > 1)
    return Family(tag, ceiling, tuple(chosen), collisions)


def pair_statistics(family: Family, X: int, sample_cap: int, seed: int) -> dict:
    """Distribution of trace-distinguishing primes and comparison bounds over pairs."""
    recs = family.records
    pairs = [(i, j) for i in range(len(recs)) for j in range(i + 1, len(recs))]
    rng = random.Random(seed)
    if len(pairs) > sample_cap:
        pairs = sorted(rng.sample(pairs, sample_cap))
    needed = {recs[i].label for i, _ in pairs} | {recs[j].label for _, j in pairs}
    tables = {r.label: _cached_traces(r.reduction, X) for r in recs if r.label in needed}
    entries = []
    no_witness = []
    below_logsq = 0
    for i, j in pairs:
        r1, r2 = recs[i], recs[j]
        w = pair_witness(
            tables[r1.label], tables[r2.label], r1.reduction.conductor, r2.reduction.conductor, X
        )
        if w is None:
            no_witness.append([r1.label, r2.label])
            entries.append({"pair": [r1.label, r2.label], "witness": None, "bound": None})
        else:
            bound = max(
                curve_constant(r1.reduction), curve_constant(r2.reduction), ceil_four_sqrt(w.p)
            )
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

_BASES_VALIDATED = False


def validate_cm_bases():
    """Check each stored base: j matches, and a_p vanishes exactly off the CM field."""
    global _BASES_VALIDATED
    if _BASES_VALIDATED:
        return
    for D, (ainvs, j) in CM_BASES.items():
        model = WeierstrassModel(*ainvs)
        if model.j_invariant() != j:
            raise RuntimeError(f"stored model for D={D} has wrong j-invariant")
        table = _cached_traces(global_reduce(model), 500)
        for p in table.good_primes():
            if p < 5:
                continue
            if (table.good[p] == 0) != (kronecker(D, p) == -1):
                raise RuntimeError(f"CM vanishing pattern fails for D={D} at p={p}")
    _BASES_VALIDATED = True


def _squarefree_coprime6(bound):
    """Squarefree m <= bound with gcd(m, 6) = 1, each with its prime list."""
    if bound < 1:
        return []
    spf = smallest_prime_factors(bound)
    out = []
    for m in range(1, bound + 1):
        if m % 2 == 0 or m % 3 == 0:
            continue
        n, primes, ok = m, [], True
        while n > 1:
            p = spf[n]
            n //= p
            if n % p == 0:
                ok = False
                break
            primes.append(p)
        if ok:
            out.append((m, tuple(primes)))
    return out


class _Local23Memo:
    """f_2 and f_3 for a twist family, memoized on the p-adic square (or 4th/6th
    power) class of the twisting parameter; the class pins the local curve up to
    Q_p-isomorphism, so the exponent is well defined on the key."""

    def __init__(self, builder, power):
        self.builder = builder  # rep integer -> WeierstrassModel
        self.power = power  # 2, 4, or 6
        self.cache2 = {}
        self.cache3 = {}

    def key2(self, sign, v2, odd_residue):
        return (v2 % self.power if self.power > 2 else v2, (sign * odd_residue) % 16)

    def key3(self, sign, v3, unit_residue):
        return (v3 % self.power if self.power > 2 else v3, (sign * unit_residue) % 27)

    def f2(self, sign, v2, odd_residue):
        k = self.key2(sign, v2, odd_residue)
        if k not in self.cache2:
            rep = sign * 2**v2 * odd_residue
            self.cache2[k] = _tate_steps(self.builder(rep), 2).f
        return self.cache2[k]

    def f3(self, sign, v3, unit_residue):
        k = self.key3(sign, v3, unit_residue)
        if k not in self.cache3:
            rep = sign * 3**v3 * unit_residue
            self.cache3[k] = _tate_steps(self.builder(rep), 3).f
        return self.cache3[k]


def _census_quadratic(D, ceiling, conductors):
    """Quadratic twists of one base (j not 0 or 1728) with conductor <= ceiling."""
    ainvs, j = CM_BASES[D]
    base = global_reduce(WeierstrassModel(*ainvs))
    c4, c6 = base.minimal_model.c_invariants()
    q_primes = [p for p in base.locals if p >= 5]

    def build(d):
        return WeierstrassModel(0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3)

    memo = _Local23Memo(build, 2)
    # exponent at a base bad prime q >= 5 under twisting, keyed by v_q(d) and unit class
    qf = {}

    def q_exp(q, d):
        vq = 1 if d % q == 0 else 0
        unit = (d // q if vq else d) % q
        key = (q, vq, kronecker(unit, q))
        if key not in qf:
            rep = q**vq * (1 if kronecker(unit, q) == 1 else least_nonresidue(q))
            qf[key] = _tate_table(build(rep), q).f
        return qf[key]

    root = math.isqrt(ceiling)
    for m, mprimes in _squarefree_coprime6(root):
        big = 1
        for p in mprimes:
            if p not in q_primes:
                big *= p * p
        if big > ceiling:
            continue
        for sign in (1, -1):
            for a in (0, 1):
                for b in (0, 1):
                    d = sign * 2**a * 3**b * m
                    N = big
                    for q in q_primes:
                        N *= q ** q_exp(q, d)
                    if N > ceiling:
                        continue
                    N *= 2 ** memo.f2(sign, a, (3**b * m) % 16)
                    N *= 3 ** memo.f3(sign, b, (2**a * m) % 27)
                    if N <= ceiling:
                        conductors.append((N, j))


def _census_power_family(power, ceiling, conductors):
    """Quartic (j = 1728) or sextic (j = 0) twists y^2 = x^3 + dx / y^2 = x^3 + d."""
    j = 1728 if power == 4 else 0
    memo = _Local23Memo(lambda rep: _power_model(power, rep), power)
    root = math.isqrt(ceiling)
    exps = range(1, power)
    for m, mprimes in _squarefree_coprime6(root):
        big = 1
        for p in mprimes:
            big *= p * p
        if big > ceiling:
            continue
        # iterate exponent vectors; only the residues mod 16 and 27 matter locally
        vectors = [(1, 1)]  # (value mod 16, value mod 27)
        for p in mprimes:
            vectors = [
                ((r16 * pow(p, e, 16)) % 16, (r27 * pow(p, e, 27)) % 27)
                for (r16, r27) in vectors
                for e in exps
            ]
        for r16, r27 in vectors:
            for sign in (1, -1):
                for a in range(power):
                    for b in range(power):
                        N = big
                        N *= 2 ** memo.f2(sign, a, (r16 * pow(3, b, 16)) % 16)
                        if N > ceiling:
                            continue
                        N *= 3 ** memo.f3(sign, b, (r27 * pow(2, a, 27)) % 27)
                        if N <= ceiling:
                            conductors.append((N, j))


def _power_model(power, d):
    if power == 4:
        return WeierstrassModel(0, 0, 0, d, 0)
    return WeierstrassModel(0, 0, 0, 0, d)


def cm_census(ceiling: int, ladder=None) -> dict:
    """Count CM curves (over the thirteen rational CM j-invariants) by conductor."""
    validate_cm_bases()
    if ladder is None:
        ladder = []
        N = 1000
        while N < ceiling:
            ladder.append(N)
            N *= 10
        ladder.append(ceiling)
    ladder = sorted(set(n for n in ladder if n <= ceiling))
    if not ladder:
        ladder = [ceiling]
    conductors = []
    for D in sorted(CM_BASES):
        if D == -4:
            _census_power_family(4, ceiling, conductors)
        elif D == -3:
            _census_power_family(6, ceiling, conductors)
        else:
            _census_quadratic(D, ceiling, conductors)
    values = sorted(N for N, _ in conductors)
    counts = []
    for top in ladder:
        lo, hi = 0, len(values)
        while lo < hi:
            mid = (lo + hi) // 2
            if values[mid] <= top:
                lo = mid + 1
            else:
                hi = mid
        counts.append(lo)
    per_j = {}
    for N, j in conductors:
        per_j[str(j)] = per_j.get(str(j), 0) + 1
    if len(ladder) >= 2 and all(c > 0 for c in counts):
        logs_n = np.log([float(n) for n in ladder])
        logs_c = np.log([float(c) for c in counts])
        slope, intercept = np.polyfit(logs_n, logs_c, 1)
        resid = float(np.sum((logs_c - (slope * logs_n + intercept)) ** 2))
        exponent, residual = float(slope), resid
    else:
        exponent, residual = None, None
    return {
        "ceilings": list(ladder),
        "counts": counts,
        "ratioToSqrt": [c / math.sqrt(n) for c, n in zip(counts, ladder)],
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


def report_emit(report: dict, fmt: str = "json", path=None) -> bytes:
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
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(out)
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
