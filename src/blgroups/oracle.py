"""Independent verification of constants by direct maximization of the form.

Three routes, none of which touches the subgroup formula:

  * exact evaluation of the multilinear form and its Rayleigh quotient;
  * monotone block-coordinate ascent, where each block update is the exact
    Hoelder-dual maximizer (power update for 1 < p < inf, mass concentration
    for p = 1, constants for p = inf), so the sweep objective never
    decreases and subgroup indicators are fixed points;
  * exhaustive search over all nonzero indicator inputs, which is an exact
    maximum because extremizers are subgroup indicators.

The exhaustive search ranks indicator tuples by the float log-quotient
log c + log w_G - sum_j r_j (log|s_j| + log w_j), c counting the points
whose images all lie in the sets s_j.  Like the subgroup formula, it takes
the floats, the margin, its error bound E and the exact argmax from the
datum's quotient table (`datum` module docstring), so a Fraction test, not
the agreement of the two routes, pins the exact builder.

The search cuts a branch without changing its result.  With the sets of
codomains 0..j-1 chosen, the remaining points form the mask m, and every
later set s_k is nonempty, so log|s_k| >= 0 and r_k >= 0 give every tuple
below the bound B = log|m| + log w_G - D - R, where D is the branch's
denominator log and R = sum_{k >= j} r_k log w_k.  The float B is built
from at most 2 + 2J logs, J brackets and J + 3 additions of partial sums
bounded by (J + 2)L, so, with u, L and E = uL(J + 5)^2 as in the
`datum` module docstring, it errs by less than uL(J^2 + 12J + 10) < 2E, and a
tuple's float log-quotient is below the float B plus 3E < margin.  A branch
whose float B is below the running maximum less 2 margins therefore holds
only tuples below the running maximum less one margin: the unpruned scan
drops each of them on arrival without changing its state, so the finalists,
their order and the result are those of the unpruned scan.

The ascent runs all of `oracle_constant`'s starts in lockstep (`_ascend`;
`alternating_ascent` is its one-lane call), on flat lane-major lists: entry
l|G| + x is start l at the point x, block k holds |G_k| entries per lane,
and index[k] sends l|G| + x to l|G_k| + sigma_k(x).  With g_j = f_j o sigma_j
and P_k = w g_0 ... g_{k-1} over updated blocks, block k integrates
P_k g_{k+1} ... g_{J-1}, multiplied elementwise in index order: per lane,
the products of the direct loop over x in the same association (a zero
product stays zero and adds nothing to a fibre sum).  A lane's fibre sums
add its entries in increasing x, and its maximizer, norm and value (a
left-to-right loop) read only its own segment, so every float is that of
its start run alone.  Lanes that converge or fail leave at the end of the
sweep, the rest move up in order (index lists shrink to prefixes), and the
lowest-index failed start's error is raised once no lane below it runs:
the error that one start at a time raises first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul

from .datum import BLDatum, _QuotientTable
from .exact import ExactValue
from .groups import BudgetExceededError, haar_weight, mask_members


class BudgetError(BudgetExceededError):
    """The requested enumeration exceeds the configured budget."""


class NumericError(ArithmeticError):
    """A non-finite input or intermediate appeared during ascent."""


@dataclass
class InputTuple:
    """One nonnegative vector per codomain, indexed by element; construction
    checks outside input (NumericError if an entry is infinite or NaN)."""

    functions: list[list]

    def __post_init__(self):
        for j, f in enumerate(self.functions):
            # comparisons, not math.isfinite, so exact ints beyond float range pass
            if not all(-math.inf < v < math.inf for v in f):
                raise NumericError(f"input {j} is not finite")
        if any(v < 0 for f in self.functions for v in f):
            raise ValueError("inputs must be nonnegative")
        if all(not any(f) for f in self.functions):
            raise ValueError("at least one input must be nonzero")

    @classmethod
    def _built(cls, functions: list[list]) -> "InputTuple":
        """Inputs the oracle built itself, finite and nonnegative with a
        nonzero entry by construction, so the scans above are skipped.
        Outside input goes through the constructor."""
        t = cls.__new__(cls)
        t.functions = functions
        return t


@dataclass
class AscentTrace:
    values: list[float]
    iterations: int
    converged: bool


class _Form:
    """The multilinear form of one datum, with its per-datum constants (the
    source weight w, the map tables, the codomain weights and exponents)
    computed once.  The form value is exact when w and the inputs are
    rational; the ascent builds it with a float w."""

    def __init__(self, d: BLDatum, w):
        self.w = w
        self.order = d.G.order
        self.maps = [h.map for h in d.maps]
        self.sizes = [c.order for c in d.codomains]
        self.weights = [
            float(haar_weight(c, mode)) for c, mode in zip(d.codomains, d.haar_codomains)
        ]
        self.powers = [None if p.is_infinite else float(p.value) for p in d.exponents]
        self.unit = [p.value == 1 for p in d.exponents]

    def value(self, funcs):
        """sum_x w * prod_j f_j(sigma_j(x)), leaving x out once a factor is 0."""
        w = self.w
        total = w * 0
        for x in range(self.order):
            prod = w
            for f, m in zip(funcs, self.maps):
                prod *= f[m[x]]
                if not prod:
                    break
            if prod:
                total += prod
        return total

    def norms(self, j: int, f: list[float]) -> list[float]:
        """The p_j-norm, weighted by the Haar mode of codomain j, of each
        lane of sizes[j] nonnegative floats in f."""
        s, pv = self.sizes[j], self.powers[j]
        if pv is None:
            return [max(f[a:a + s]) for a in range(0, len(f), s)]
        w = self.weights[j]
        powered = [w * v**pv for v in f]
        return [sum(powered[a:a + s]) ** (1.0 / pv) for a in range(0, len(f), s)]

    def rayleigh(self, funcs) -> float:
        norms = [self.norms(j, [float(v) for v in f])[0] for j, f in enumerate(funcs)]
        if any(n == 0 for n in norms):
            raise ValueError("all inputs must have positive norm")
        return float(self.value(funcs)) / math.prod(norms)

    def maximizer(self, k: int, sums: list[float]) -> list[float]:
        """Exact maximizer of the form over f_k with its p_k-norm fixed, for
        finite p_k, in each lane of sizes[k] fibre sums of the integrand
        without f_k."""
        s = self.sizes[k]
        cuts = range(0, len(sums), s)  # where each lane starts
        if self.unit[k]:
            out = []
            for a in cuts:
                lane = sums[a:a + s]
                top = max(lane)
                if top <= 0.0:
                    out += [1.0] * s
                    continue
                arg = [1.0 if v >= top else 0.0 for v in lane]
                share = sum(arg)
                out += [v / share for v in arg]
            return out
        # the caller renormalizes, so scaling each lane's top sum to 1.0 first
        # keeps v**q from underflowing a block or overflowing for p_k near 1
        tops = [max(sums[a:a + s]) or 1.0 for a in cuts]
        q = 1.0 / (self.powers[k] - 1.0)
        return [(v / top) ** q for a, top in zip(cuts, tops) for v in sums[a:a + s]]


def _check_lengths(d: BLDatum, t: InputTuple) -> None:
    if len(t.functions) != d.J:
        raise ValueError(f"expected {d.J} inputs, got {len(t.functions)}")
    for j, f in enumerate(t.functions):
        if len(f) != d.codomains[j].order:
            raise ValueError(f"input {j} has length {len(f)}, expected "
                             f"{d.codomains[j].order}")


def _exact_form(d: BLDatum, t: InputTuple) -> _Form:
    _check_lengths(d, t)
    return _Form(d, haar_weight(d.G, d.haar_G))


def evaluate_form(d: BLDatum, t: InputTuple):
    """sum_x w(x) prod_j f_j(sigma_j(x)); exact when the inputs are rational."""
    return _exact_form(d, t).value(t.functions)


def rayleigh(d: BLDatum, t: InputTuple) -> float:
    """Form value divided by the product of input norms; scale invariant."""
    return _exact_form(d, t).rayleigh(t.functions)


def _ascend(form: _Form, starts: list, tol: float, max_sweeps: int) -> list:
    """Block ascent from every start in lockstep lanes (module docstring)."""
    maps, sizes, powers, order = form.maps, form.sizes, form.powers, form.order
    lanes = len(starts)
    funcs = []  # funcs[k]: sizes[k] entries per lane
    for j, s in enumerate(sizes):
        f = [float(v) for t in starts for v in t[j]]
        norms = form.norms(j, f)
        if 0 in norms:
            raise ValueError(f"input {j} has zero norm")
        funcs.append([v / n for a, n in zip(range(0, lanes * s, s), norms)
                      for v in f[a:a + s]])
    ids = list(range(lanes))  # the start in each lane
    # index[k][l * order + x] = l * sizes[k] + sigma_k(x)
    index = full = []
    for m, s in zip(maps, sizes):
        m = list(m)  # each map is read once
        full.append([lane * s + y for lane in ids for y in m])
    # pulled[k][l * order + x] = f_k(sigma_k(x)) in lane l, or None once f_k
    # is a p = inf block's constant 1, since multiplying by 1.0 is exact
    pulled: list = [[f[i] for i in ix] for f, ix in zip(funcs, index)]
    out: list = [None] * lanes  # (sweep values, final inputs, converged)
    values: list = [[] for _ in starts]
    errors: dict[int, Exception] = {}
    sweep = 0
    while ids and (not errors or ids[0] < min(errors)):
        sweep += 1
        prefix = [form.w] * (lanes * order)  # w g_0 ... g_{k-1}, blocks < k updated
        for k, s in enumerate(sizes):
            if powers[k] is None:
                funcs[k] = [1.0] * (lanes * s)
                pulled[k] = None
                continue
            integrand = prefix
            for g in pulled[k + 1:]:
                if g is not None:
                    integrand = map(mul, integrand, g)
            sums = [0.0] * (lanes * s)
            for y, v in zip(index[k], integrand):
                sums[y] += v
            f = form.maximizer(k, sums)
            norms = form.norms(k, f)
            for lane, n in enumerate(norms):
                if n == 0 or not math.isfinite(n):
                    errors.setdefault(ids[lane], NumericError(
                        f"block {k} degenerated during sweep {sweep}"))
                    # the failed lane waits out the sweep on finite values
                    f[lane * s:(lane + 1) * s] = [1.0] * s
                    norms[lane] = 1.0
            f = [v / n for a, n in zip(range(0, lanes * s, s), norms) for v in f[a:a + s]]
            funcs[k] = f
            pulled[k] = [f[y] for y in index[k]]
            prefix = list(map(mul, prefix, pulled[k]))
        for lane, i in enumerate(ids):
            if i in errors:
                continue
            value = 0.0  # the form at inputs of unit norm
            for v in prefix[lane * order:(lane + 1) * order]:
                value += v
            if not math.isfinite(value):
                errors[i] = NumericError(f"non-finite objective in sweep {sweep}")
                continue
            trace = values[i]
            trace.append(value)
            converged = (len(trace) >= 2
                         and value - trace[-2] <= tol * max(abs(value), 1e-300))
            if converged or sweep == max_sweeps:
                out[i] = (trace, [f[lane * s:(lane + 1) * s] for f, s in zip(funcs, sizes)],
                          converged)
        keep = [lane for lane, i in enumerate(ids) if out[i] is None and i not in errors]
        if len(keep) < lanes:
            # funcs needs no packing: each sweep rewrites every block first
            pulled = [g and [v for i in keep for v in g[i * order:(i + 1) * order]]
                      for g in pulled]
            ids = [ids[lane] for lane in keep]
            lanes = len(ids)
            index = [ix[:lanes * order] for ix in full]
    if errors:
        raise errors[min(errors)]
    return out


def alternating_ascent(
    d: BLDatum,
    init: InputTuple,
    tol: float = 1e-12,
    max_sweeps: int = 10_000,
) -> tuple[float, InputTuple, AscentTrace]:
    """Block-coordinate ascent on the Rayleigh quotient.

    Each sweep maximizes over every block in turn; the trace of sweep values
    is nondecreasing up to renormalization jitter.  Inputs are renormalized
    each sweep to unit norm to avoid overflow.  A negative tol never
    converges, so exactly max_sweeps sweeps run.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    _check_lengths(d, init)
    form = _Form(d, float(haar_weight(d.G, d.haar_G)))
    [(values, funcs, converged)] = _ascend(form, [init.functions], tol, max_sweeps)
    return values[-1], InputTuple._built(funcs), AscentTrace(values, len(values), converged)


def oracle_constant(
    d: BLDatum,
    restarts: int = 8,
    seed: int = 0,
    tol: float = 1e-12,
    max_sweeps: int = 10_000,
) -> float:
    """Best ascent value over seeded random positive restarts and two fixed
    starts: all-ones inputs, and the point masses at the codomain identities.
    No start depends on the subgroup formula, so the oracle checks it
    independently."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not tol >= 0:
        # a negative or NaN tol never converges, so every start would run all
        # max_sweeps sweeps
        raise ValueError(f"tol must be >= 0, got {tol}")
    if d.J == 0:
        return float(haar_weight(d.G, d.haar_G)) * d.G.order
    rng = random.Random(seed)
    seeds = [
        [[1.0] * c.order for c in d.codomains],
        [[float(y == c.identity) for y in range(c.order)] for c in d.codomains],
    ]
    for _ in range(restarts):
        seeds.append([[0.05 + rng.random() for _ in range(c.order)] for c in d.codomains])
    form = _Form(d, float(haar_weight(d.G, d.haar_G)))
    return max(values[-1] for values, _, _ in _ascend(form, seeds, tol, max_sweeps))


def exhaustive_indicator_search(
    d: BLDatum, budget: int = 2**24
) -> tuple[ExactValue, list[tuple[int, ...]]]:
    """Exact maximum of the Rayleigh quotient over nonzero indicator inputs.

    Subsets are enumerated as bitmasks per codomain; the intersection count
    behind the numerator is a popcount of AND-ed fiber masks.  A float
    prefilter, with the margin proved in the `datum` module docstring, keeps
    the exact comparisons to the near-maximal candidates, and a cut proved
    in the module docstring skips the branches that hold none of them.
    """
    if d.J == 0:
        return _QuotientTable(d).value(d.G.order, ()), []
    work = 1
    for c in d.codomains:
        work *= 2**c.order
        if work > budget:
            raise BudgetError(
                f"indicator search needs {work}+ tuples, budget {budget}; "
                "use the subgroup formula instead"
            )

    # union masks for every subset of every codomain, by lowest-bit recursion
    subset_masks = []
    for h in d.maps:
        arr = [0] * (2**h.codomain.order)
        for s in range(1, len(arr)):
            low = s & -s
            arr[s] = arr[s ^ low] | h.fibres[low.bit_length() - 1]
        subset_masks.append(arr)

    table = _QuotientTable(d)
    log_w_G, margin = table.log_w_G, table.margin
    J = d.J
    best_log = -math.inf
    largest = max([d.G.order, *(c.order for c in d.codomains)])
    near: list[tuple[float, tuple[int, ...], int]] = []
    logs = [0.0] + [math.log(c) for c in range(1, largest + 1)]
    # terms[j][s] = r_j (log|s| + log w_j), set s's share of the
    # denominator's log
    terms = [
        [0.0] + [r * (logs[s.bit_count()] + lw) if r else 0.0 for s in range(1, len(arr))]
        for (r, lw), arr in zip(table.terms, subset_masks)
    ]
    # rest[j] = sum_{k >= j} r_k log w_k: the sets j.. add at least this
    rest = [0.0] * (J + 1)
    for k, (r, lw) in reversed(list(enumerate(table.terms))):
        rest[k] = rest[k + 1] + r * lw

    def scan(j: int, mask: int, chosen: tuple[int, ...], log_den: float):
        nonlocal best_log, near
        masks, term = subset_masks[j], terms[j]
        if j + 1 < J:
            for s in range(1, len(masks)):
                m = mask & masks[s]
                if not m:
                    continue
                den = log_den + term[s]
                # the cut proved in the module docstring
                if logs[m.bit_count()] + log_w_G - den - rest[j + 1] < best_log - 2 * margin:
                    continue
                scan(j + 1, m, chosen + (s,), den)
            return
        for s in range(1, len(masks)):
            m = mask & masks[s]
            if not m:
                continue
            count = m.bit_count()
            log_val = logs[count] + log_w_G - (log_den + term[s])
            if log_val < best_log - margin:
                continue
            if log_val > best_log:
                best_log = log_val
                near = [c for c in near if c[0] >= best_log - margin]
            near.append((log_val, chosen + (s,), count))

    scan(0, (1 << d.G.order) - 1, (), 0.0)
    if not near:
        raise ValueError("no nonzero indicator tuple found")

    finalists = [(c, cnt) for lv, c, cnt in near if lv >= best_log - margin]
    keys = [(count, tuple(s.bit_count() for s in chosen)) for chosen, count in finalists]
    best, value, _ = table.argmax(keys)
    return value, [mask_members(s) for s in finalists[best][0]]
