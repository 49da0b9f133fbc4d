"""Obfuscation engines: per-trace symbol replacement mechanisms.

Every engine runs in one frame, ``_obfuscate_rows``: one pass over the
rows of a 2-D array, in place, with one np.random.Generator per row.  It
draws every row's Bernoulli(p) mask and then branches on the method,
passing each fill only the parameters it reads; the fill replaces the
masked positions and the other positions keep their symbols.
``obfuscate`` on one Trace is the one-row case.

Data-independent methods draw replacements ahead of the data and never
read the symbols they replace.  The single-pass ones, listed in
``_INDEPENDENT``, fill a row block with one assignment:

* iid      — fresh uniform symbols;
* sbu      — a concatenation-form covering superstring consumed in order;
* sl_sbu   — a shortest covering superstring consumed in order.

Row i's fill is the first k_i values of its method's stream
(``_replacement_stream``), drawn after the mask.  The row count picks the
path.  One row draws them with one Generator call per superstring, or one
for iid, and leaves its generator where those calls would; a raw draw's
fixed cost outweighs its gain there.  A block of two or more rows fills
iid and sl_sbu from one raw draw (core._raw_values, under the stream
contract in seqobf.core's docstring) and one gather, each row drawing
what the block's longest row needs.  That leaves its generators stale, so
its caller re-keys them before they are read again, as the fraction
protocol does.  A row's first k values do not depend on how many values
follow them, so each row comes out as it would alone.  sbu draws a
permutation per superstring, and raw draws take bounds below 2**32, so
sbu and an iid alphabet of 2**32 symbols or more always take the per-row
path; sl_sbu's bound r^l is capped far below it.

two_stage, an iid pass and then an sl_sbu pass over its output, is
data-independent too (see EngineConfig).

Data-dependent methods pick each replacement from the realized obfuscated
prefix; plov steps a whole block, lov follows the row-count rule, and
only manp fills one row at a time:

* lov  — uniform over symbols not yet present in the prefix;
* plov — weighted toward less-frequent symbols via a tilted histogram;
* manp — the symbol completing the most previously-unseen length-2
  patterns with a predecessor in the trailing window.

For reproducibility each pass consumes a row's stream in a fixed order:
the whole replacement mask first (one uniform per position), then
replacement draws in stream order.  The data-dependent fills make one
draw per masked position, in index order, and loop in Python only over
the masked positions; between two of them they advance the prefix state
in bulk.  Once lov's prefix holds every symbol, its remaining
replacements are uniform and come from one batched integer draw, which
yields the same values as one scalar draw per position.  plov draws each
row's uniforms in one call the same way.  One lov row makes these
Generator calls (_fill_lov); a block of two or more rows reads the same
values from raw words (_fill_lov_block) and, like an iid block, leaves
its generators stale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (RandomSource, Trace, _below, _check_at_least, _check_noise, _HalfReader,
                   _raw_values, _row_halves)
from .superstring import (_canonical_cycle, _check_params, _concat_array, _shortest_array,
                          _superstring_length)

# The EngineConfig values that each method reads besides its tag, in field
# order.  Every rule on which values a method takes reads this table.
_READS = {"iid": ("p_obf",), "sbu": ("p_obf", "order"), "sl_sbu": ("p_obf", "order"),
          "two_stage": ("order", "stage_noise"), "lov": ("p_obf",),
          "plov": ("p_obf", "gamma"), "manp": ("p_obf", "gap")}
METHODS = tuple(_READS)


@dataclass(frozen=True)
class EngineConfig:
    """Method tag plus its parameters.

    p_obf is the noise level of every method but two_stage, whose per-stage
    levels (a, b) come from stage_noise: an iid pass at a on
    source.derive(0), then an sl_sbu pass at b on source.derive(1), so
    setting either level to zero leaves the other stage's draws unchanged.
    A position is touched with probability a + b - a*b.  order is the
    superstring order of sbu/sl_sbu/two_stage, checked by obfuscate; gamma
    is the plov tilt; gap is the manp window width, which manp needs.

    A value that the method does not read is refused when it is set: p_obf
    above 0 on two_stage, a gap off manp, stage noise off two_stage.  order
    and gamma have defaults that cannot be told from a set value, so only
    the command line refuses them off their methods.
    """

    method: str
    p_obf: float = 0.0
    order: int = 2
    gamma: float = 0.1
    gap: int | None = None
    stage_noise: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.method not in _READS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        reads = _READS[self.method]
        _check_noise(self.p_obf)
        if "gamma" in reads and self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if "gap" in reads:
            # It scores symbols against the trailing window of h predecessors.
            _check_at_least(self.gap, 1, "a finite gap h", "manp needs")
        if "stage_noise" in reads:
            a, b = self.stage_noise
            _check_noise(a, "stage noise")
            _check_noise(b, "stage noise")
        # Stage levels compare by value, so a list of them is set as a tuple is.
        for field, label, is_set in (("p_obf", "p_obf", self.p_obf > 0.0),
                                     ("gap", "gap", self.gap is not None),
                                     ("stage_noise", "stage noise", any(self.stage_noise))):
            if is_set and field not in reads:
                readers = ", ".join(m for m in METHODS if field in _READS[m])
                raise ValueError(f"{label} applies to {readers} only, not {self.method}, "
                                 f"got {getattr(self, field)}")


def _replacement_stream(
    gen: np.random.Generator, alphabet_size: int, config: EngineConfig, count: int
) -> np.ndarray:
    """The first `count` replacement symbols of a data-independent method,
    the per-row path of a fill.

    iid draws them in one integers call.  sbu and sl_sbu concatenate
    independent superstrings of their form, drawing a fresh one whenever the
    previous is used up; each draw gathers only the symbols that the stream
    uses.  _block_stream draws the same iid and sl_sbu values for a block.
    """
    if config.method == "iid":
        return gen.integers(0, alphabet_size, size=count)
    draw = _concat_array if config.method == "sbu" else _shortest_array
    parts: list[np.ndarray] = []
    while count > 0:
        parts.append(draw(alphabet_size, config.order, gen, count))
        count -= parts[-1].size
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _block_stream(gens, r: int, config: EngineConfig, k: np.ndarray) -> np.ndarray:
    """Row i's first k[i] replacements of iid or sl_sbu, as _replacement_stream
    draws them from gens[i] after the mask, in row i of an (n, max k) array.

    Every row draws to the longest row from raw words (core._raw_values)
    with no pending half: its keyed generator had none, and the mask's
    doubles leave it so.  sl_sbu draws ceil(max k / L) superstring offsets
    at bound r^l per row, with L the superstring's length; symbol j of row
    i is then cycle[(offset[i, j // L] + j % L) % r^l].
    """
    kmax = int(k.max(initial=0))
    spare = np.full(len(gens), -1, dtype=np.int64)
    if config.method == "iid":
        values = np.empty((len(gens), kmax), dtype=np.int64)
        _raw_values(gens, spare, [(kmax, r)], values)
        return values
    cycle = _canonical_cycle(r, config.order)
    length = _superstring_length("shortest", r, config.order)
    offsets = np.empty((len(gens), -(-kmax // length)), dtype=np.int64)
    _raw_values(gens, spare, [(offsets.shape[1], cycle.size)], offsets)
    j = np.arange(kmax)
    return cycle[(offsets[:, j // length] + j % length) % cycle.size]


def lov_choose(observed: np.ndarray, gen: np.random.Generator) -> int:
    """Uniform over symbols not yet observed; uniform over all once covered."""
    missing = np.flatnonzero(~observed)
    if missing.size == 0:
        return int(gen.integers(observed.size))
    return int(missing[gen.integers(missing.size)])


def plov_distribution(counts: np.ndarray, gamma: float) -> np.ndarray:
    """Replacement distributions tilted toward less-observed symbols.

    Works along the last axis, one prefix histogram per row.  From a
    histogram, q_i ~ (counts_i / k)^gamma normalized; the row's output is
    (1+b)/r - b*q_i with b chosen just inside the largest value keeping
    every probability in [0, 1].  Empty or flat histograms yield the
    uniform distribution.
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    counts = np.asarray(counts, dtype=np.float64)
    r = counts.shape[-1]
    k = counts.sum(-1, keepdims=True)
    # Empty and flat rows divide by zero here; they are overwritten below.
    with np.errstate(divide="ignore", invalid="ignore"):
        tilted = (counts / k) ** gamma
        q = tilted / tilted.sum(-1, keepdims=True)
        q_max, q_min = q.max(-1, keepdims=True), q.min(-1, keepdims=True)
        b = 0.99 * np.minimum(1.0 / (r * q_max - 1.0), (r - 1.0) / (1.0 - r * q_min))
        p = (1.0 + b) / r - b * q
    p = np.where((k <= 0) | (q_max - q_min < 1e-15), 1.0 / r, p)
    bad = (p.min(-1) < 0.0) | (np.abs(p.sum(-1) - 1.0) > 1e-9)
    if bad.any():
        raise ValueError(f"degenerate replacement distribution for counts {counts[bad][0]}")
    return p


def manp_choose(seen: np.ndarray, window: np.ndarray, gen: np.random.Generator) -> int:
    """The symbol completing the most unseen length-2 patterns.

    seen[a, i] is True when the pattern (a, i) has been observed in the
    prefix; window holds the trailing window's symbols.  A candidate i
    scores one point per distinct symbol a in the window such that (a, i)
    has not been observed yet; ties are broken uniformly at random.  With
    an empty window every candidate scores zero and the choice is uniform.
    """
    in_window = np.zeros(seen.shape[0], dtype=bool)
    in_window[window] = True
    scores = (~seen[in_window]).sum(0)
    best = np.flatnonzero(scores == scores.max())
    return int(best[gen.integers(best.size)])


def _fill_lov(z, mask, r, gen) -> None:
    observed = np.zeros(r, dtype=bool)
    targets = np.flatnonzero(mask)
    prev = 0
    for j, t in enumerate(targets):
        observed[z[prev:t]] = True
        if observed.all():
            # Uniform from here on: one batched draw equals a scalar draw
            # per remaining position.
            z[targets[j:]] = gen.integers(r, size=targets.size - j)
            return
        z[t] = lov_choose(observed, gen)
        prev = t


def _fill_lov_block(z, mask, r, gens) -> None:
    """lov on a row block from raw words, as _fill_lov fills each row.

    Row i's replacements read the halves of its words after the mask, with
    no pending half (core's stream contract): while b symbols are missing,
    one value below b, which for b = 1 reads no half and gives 0; once
    none is, values below r.  Each row reads the ceil(max k / 2) words
    that the longest row's values take when no half is rejected.  Step j
    picks every row's j-th replacement at once until the row observes
    every symbol, and one gather then fills every row's tail.  A row that
    read a rejected half is filled again by _fill_lov, from its halves and
    then its generator (core._HalfReader).
    """
    n, m = z.shape
    # The block's replacements in row order, at flat positions of z; row
    # i's j-th is number first[i] + j.
    targets = np.flatnonzero(mask)
    k = np.bincount(targets // m, minlength=n)
    first = np.cumsum(k) - k
    halves = _row_halves(gens, -(-int(k.max(initial=0)) // 2))
    values = np.empty(targets.size, dtype=np.int64)
    symbols = z.reshape(-1)
    observed = np.zeros((n, r), dtype=bool)
    # Per row: the first flat position not yet observed, the halves read,
    # the step at which its tail starts, and whether it kept every half.
    start = np.arange(n) * m
    read = np.zeros(n, dtype=np.int64)
    tail = k.copy()
    kept = np.ones(n, dtype=bool)
    live = np.flatnonzero(k)
    j = 0
    while live.size:
        # Observe each live row's kept symbols before its j-th replacement.
        q = first[live] + j
        t = targets[q]
        size = t - start[live]
        ends = np.cumsum(size)
        pos = np.arange(ends[-1]) + np.repeat(t - ends, size)
        observed[pos // m, symbols[pos]] = True
        start[live] = t + 1
        missing = ~observed[live]
        b = np.count_nonzero(missing, axis=1)
        some = b > 0
        tail[live[~some]] = j
        live, q, missing, b = live[some], q[some], missing[some], b[some]
        v, ok = _below(halves[live, read[live]], b)
        pick = np.argmax(np.cumsum(missing, axis=1) > v[:, None], axis=1)
        values[q] = pick
        observed[live, pick] = True
        kept[live[~ok]] = False
        read[live] += b > 1
        j += 1
        live = live[k[live] > j]
    # A row's steps from its tail on read its next halves in turn.
    c = k - tail
    shift = np.cumsum(c) - c
    span = np.arange(c.sum())
    h = halves.reshape(-1)[np.repeat(np.arange(n) * halves.shape[1] + read - shift, c) + span]
    values[np.repeat(first + tail - shift, c) + span], ok = _below(h, r)
    kept[np.repeat(np.arange(n), c)[~ok]] = False
    np.put(z, targets, values)
    for i in np.flatnonzero(~kept).tolist():
        _fill_lov(z[i], mask[i], r, _HalfReader(gens[i], halves[i]))


def _fill_plov(z, mask, r, gamma, gens) -> None:
    """plov on a row block: step j draws every row's j-th replacement at once."""
    k = np.count_nonzero(mask, axis=1)
    # Rows are ranked by replacements, most first, so that the rows with a
    # j-th replacement are the first active[j] ranks.
    ranks = np.arange(k.size)
    rank = np.empty_like(k)
    rank[np.argsort(-k, kind="stable")] = ranks
    steps = int(k.max(initial=0))
    active = k.size - np.searchsorted(np.sort(k), np.arange(steps), side="right")
    row = np.flatnonzero(mask) // z.shape[1]
    # Row i's k_i uniforms in one draw, as k_i scalar draws would give
    # them; u[rank i, j] belongs to its j-th replacement.
    step = np.arange(row.size) - np.repeat(np.cumsum(k) - k, k)
    u = np.zeros((k.size, steps))
    u[rank[row], step] = np.concatenate([gen.random(n) for gen, n in zip(gens, k)])
    # Each kept symbol joins the counts at the replacement it precedes; one
    # stable sort groups them by that step (after a row's last
    # replacement, never).
    before = np.cumsum(mask, axis=1)
    keep = ~mask & (before < k[:, None])
    kept_step = before[keep]
    order = np.argsort(kept_step, kind="stable")
    kept = (rank[np.flatnonzero(keep) // z.shape[1]] * r + z[keep])[order]
    edges = np.searchsorted(kept_step[order], np.arange(steps + 1))
    counts = np.zeros((k.size, r))
    flat = counts.reshape(-1)
    picks = np.empty((k.size, steps), dtype=np.int64)
    for j, n in enumerate(active.tolist()):
        flat += np.bincount(kept[edges[j]:edges[j + 1]], minlength=flat.size)
        # Inverse-CDF sampling with one uniform, as Generator.choice does; on
        # a sorted cdf, counting the entries <= u is searchsorted(side="right").
        cdf = plov_distribution(counts[:n], gamma).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        pick = (cdf <= u[:n, j, None]).sum(axis=1)
        picks[:n, j] = pick
        counts[ranks[:n], pick] += 1
    z[mask] = picks[rank[row], step]


# Bound on the index pairs that one numpy call marks in manp's pair table.
_PAIR_BLOCK = 1 << 16


def _fill_manp(z, mask, r, gap, gen, settled) -> None:
    seen = np.zeros((r, r), dtype=bool)
    # Offsets back to the window.  One that reaches before position 0 is
    # clipped to 0; that repeats the pair (0, v), which is in the window
    # since v < d <= gap.
    d = np.arange(1, min(gap, z.size) + 1)
    rows = max(1, _PAIR_BLOCK // d.size)
    prev = 0
    for t in np.flatnonzero(mask):
        # Mark the pairs that end at v in [prev, t); v = 0 ends none.
        for lo in range(max(prev, 1), t, rows):
            v = np.arange(lo, min(lo + rows, t))[:, None]
            seen[z[np.maximum(v - d, 0)], z[v]] = True
        z[t] = manp_choose(seen, z[max(0, t - gap):t], gen)
        if settled is not None and settled(z[: t + 1]):
            return
        prev = t


# The single-pass methods whose fill never reads z: _obfuscate_rows fills
# a row block of them with one assignment.
_INDEPENDENT = ("iid", "sbu", "sl_sbu")
# The methods whose block fill steps all the rows of a block together, so
# that a step costs about as much for a few rows as for many.
_LOCKSTEP = ("lov", "plov")
# The superstring form that each superstring method draws.
_SUPERSTRING_KIND = {"sbu": "concatenation", "sl_sbu": "shortest"}


def _obfuscate_rows(z: np.ndarray, r: int, config: EngineConfig, gens, settled=None) -> np.ndarray:
    """One pass of a single-pass method over the 2-D array z, in place.

    Row i draws from gens[i] over the alphabet 0..r-1, so it comes out as
    it would alone.  Returns the mask of replaced positions.  settled, if
    given, tests a row's filled prefix (see sim._fraction_iterations).
    A block of two or more rows fills iid, sl_sbu and lov from raw words
    (_block_stream, _fill_lov_block) and leaves gens stale, so the caller
    re-keys them before reading them again; one row leaves its generator
    where Generator.integers would.  One lov row keeps _fill_lov: a block's
    steps cost the same for one row as for many, so at the canonical cell
    a one-row block takes several times as long, and _fill_lov keeps
    lov_choose, which perfbench/tracing.py counts, and the one-row
    generator contract.  The caller checks the superstring size cap.
    """
    uniforms = np.empty(z.shape)
    for row, gen in zip(uniforms, gens):
        gen.random(out=row)
    mask = uniforms < config.p_obf
    # Raw draws take bounds below 2**32; sl_sbu's r^l is capped far below.
    block = len(z) > 1 and r < 2**32
    if config.method in _INDEPENDENT:
        k = mask.sum(axis=1)
        if block and config.method != "sbu":
            values = _block_stream(gens, r, config, k)
            z[mask] = values[np.arange(values.shape[1]) < k[:, None]]
        else:
            z[mask] = np.concatenate([_replacement_stream(gen, r, config, n)
                                      for gen, n in zip(gens, k.tolist())])
    elif config.method == "plov":
        _fill_plov(z, mask, r, config.gamma, gens)
    elif config.method == "lov" and block:
        _fill_lov_block(z, mask, r, gens)
    else:
        # manp, and lov on one row, fill one row at a time from its generator.
        for row, row_mask, gen in zip(z, mask, gens):
            if config.method == "lov":
                _fill_lov(row, row_mask, r, gen)
            else:
                _fill_manp(row, row_mask, r, config.gap, gen, settled)
    return mask


def obfuscate(
    trace: Trace,
    config: EngineConfig,
    source: RandomSource,
    *,
    return_mask: bool = False,
):
    """Apply one obfuscation method to a trace.

    Returns the obfuscated Trace, or (Trace, mask) with return_mask=True,
    where mask marks the positions that a pass (either, for two_stage)
    replaced.
    """
    z = trace.symbols[None, :].copy()
    r = trace.alphabet.size
    if "order" in _READS[config.method]:
        _check_params(r, config.order)
    if config.method == "two_stage":
        a, b = config.stage_noise
        first = EngineConfig(method="iid", p_obf=a)
        second = EngineConfig(method="sl_sbu", p_obf=b, order=config.order)
        touched = _obfuscate_rows(z, r, first, [source.derive(0).generator])
        touched |= _obfuscate_rows(z, r, second, [source.derive(1).generator])
    else:
        touched = _obfuscate_rows(z, r, config, [source.generator])
    out = Trace(z[0], trace.alphabet)
    return (out, touched[0]) if return_mask else out
