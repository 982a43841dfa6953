"""Statistical consistency: the model recovers the process that made the stream.

The other tests show that the code computes its definitions; these show that
the definitions recover something.  A known source generates the stream, and
the model's estimates are checked against the source's true parameters
within bounds derived, with their seeds, before any run.

**Stationary recovery.**  A 3-state Markov chain over the 1-d unit cells
[k, k + 1), k = 0, 1, 2: each row sits at its state's cell centre k + 0.5
plus U(-0.4, 0.4) noise, so with lambda = 1 (the EMA is the row itself) and
a grid width of 1 the automaton's states are the chain's states, and with
``count`` a transition row is the empirical transition frequency P-hat.

- Rows.  By the strong Markov property the successive moves out of state i
  are i.i.d. draws from P[i], so each P-hat[i][j] is the mean of the first
  N_i of those draws, N_i being i's visit count.  Hoeffding's inequality
  with a union bound over the K * K cells and every count up to n gives,
  with probability at least 1 - DELTA, for every visited row i,
  max_j |P-hat[i][j] - P[i][j]| <= sqrt(ln(2 K^2 n / DELTA) / (2 N_i)).
- Score.  P is circulant, so every row is a permutation of ROW and has the
  same entropy H, the chain's entropy rate.  log P[X_t][X_t+1] + H is then a
  martingale difference of conditional variance SIGMA2 = Var(log ROW) under
  ROW, whatever X_t is, and the mean of m of them is within
  Z * sqrt(SIGMA2 / m) of 0 with probability about 1 - DELTA (CLT).  The
  score reads the prefix's P-hat, not P: the plug-in's expected regret per
  scored instant t is (K - 1) / (2 N(t)) to leading order, N(t) being the
  current state's visit count, with a martingale part of variance
  (K - 1) / N(t); the bound adds both, from the path's own visit counts.

**Tracking a switch.**  The same rows, from P until instant T and from P'
after it: a move into an instant t <= T is drawn from P, one into t > T
from P'.  P' is the cycle i -> i + 1 (mod K), deterministic on purpose:
with a random P' a discounted row keeps a sampling spread of order
sqrt((1 - delta) / visit rate) around P', and at delta = 0.9 no useful
total-variation radius holds at confidence 1 - DELTA, so the check would
show the noise, not the forgetting.  After T every state is left once in
each K rows (visit rate 1 / K) and every move out of i goes to i + 1.

- ``discounted_sum``.  Row i read at any instant is the mix
  f * (its pre-switch moves) + (1 - f) * P'[i], f being the pre-switch share
  of the row's discounted weight, so its total variation from P'[i] is at
  most f.  With d = (i's latest move) - T, the m = (d - 1) // K + 1
  post-switch moves weigh sum_k delta**(k K) = (1 - delta**(m K)) /
  (1 - delta**K), and the pre-switch moves at most sum_{t <= T}
  delta**(d + T - t) = delta**d / (1 - delta), bounding the pre-switch
  visit rate by 1, so f <= B(d) on every path, with no probability.  Each
  state is left once in every K rows, so at instant T + L every row has
  d >= L - K + 1; LAG[delta] is the least L with B(d) <= EPS for every such
  d in the stream: 40 rows at delta = 0.9 and 405 at 0.99.  (ln EPS /
  ln delta, the lag with the pre-switch visit rate 1 / K instead, is 28.4
  and 298.1.)
- ``count`` does not track.  Its row i is the same mix with f = N_pre /
  (N_pre + N_post), the shares of i's moves before and after T, and the
  pre-switch part puts at most P[i][i + 1] + row_bound(N_pre, T) on i + 1
  (the Hoeffding bound above, at confidence 1 - DELTA), so its distance
  from P'[i] is at least f * (1 - P[i][i + 1] - row_bound(N_pre, T)).
- ``discounted_complement`` gets the ``count`` check, not the tracking one.
  Its weight 1 - delta**(now - t) grows with an instant's age, so it weighs
  each pre-switch move at least as much as any later one: it remembers
  rather than forgets, and f >= N_pre / (N_pre + N_post).  A pre-switch
  weight is at least a = 1 - delta**(now - T), so the pre-switch part puts
  at most (P[i][i + 1] + row_bound(N_pre, T)) / a on i + 1.
"""

import math
import random
import statistics

import pytest

from sigauto import PluginParams, Signal, StreamPipeline, score

# The source and every bound, fixed before the first run.
ROW = (0.6, 0.3, 0.1)
K = len(ROW)
P = [[ROW[(j - i) % K] for j in range(K)] for i in range(K)]
SEED = 20211
SIZES = (1_000, 10_000, 100_000)
NOISE = 0.4
DELTA = 1e-6
Z = statistics.NormalDist().inv_cdf(1.0 - DELTA / 2.0)
H = -sum(p * math.log(p) for p in ROW)
SIGMA2 = sum(p * math.log(p) ** 2 for p in ROW) - H * H
# The switch: P until instant SWITCH_AT, then the cycle P_AFTER.
P_AFTER = [[1.0 if j == (i + 1) % K else 0.0 for j in range(K)] for i in range(K)]
SWITCH_SEED = 20212
SWITCH_AT = 3_000
SWITCH_ROWS = SWITCH_AT + 1_200
EPS = 0.05
DELTAS = (0.9, 0.99)


def chain(n, seed=SEED, switch=None):
    """The first ``n`` states of the chain, from a uniform start, and the
    1-d rows it emits; the moves into instants after ``switch``, when
    given, follow ``P_AFTER``.  Imports nothing from ``sigauto``."""
    rng = random.Random(seed)
    states = [rng.randrange(K)]
    for t in range(1, n):
        rows = P_AFTER if switch is not None and t > switch else P
        states.append(rng.choices(range(K), weights=rows[states[-1]])[0])
    rows = [(k + 0.5 + rng.uniform(-NOISE, NOISE),) for k in states]
    return states, rows


def row_bound(visits, n):
    """Hoeffding plus a union bound over the K * K cells and every visit
    count up to ``n``, at confidence 1 - DELTA."""
    return math.sqrt(math.log(2 * K * K * n / DELTA) / (2 * visits))


def score_bound(states, start, stop):
    """The CLT bound on the mean of log P[X_t][X_t+1] + H over [start, stop),
    plus the plug-in's leading-order regret and Z of its martingale part."""
    seen = [0] * K
    for s in states[:start]:
        seen[s] += 1
    inverse = 0.0
    for s in states[start:stop]:
        inverse += 1.0 / seen[s]
        seen[s] += 1
    m = stop - start
    regret = (K - 1) / 2 * inverse / m
    regret_spread = Z * math.sqrt((K - 1) * inverse) / m
    return Z * math.sqrt(SIGMA2 / m) + regret + regret_spread


STATES, ROWS = chain(SIZES[-1])


@pytest.fixture(scope="module")
def estimates():
    """``{n: (transition rows, visit counts)}``: the streaming model's rows
    after the first n rows, and each state's number of moves out."""
    pipe = StreamPipeline(PluginParams(lam=1.0, grid_width=1.0, stat_variant="count"))
    out = {}
    for t, row in enumerate(ROWS, 1):
        pipe.advance(row)
        if t in SIZES:
            assert set(pipe.hmm.state_order) <= {str(k) for k in range(K)}
            visits = [STATES[: t - 1].count(k) for k in range(K)]
            rows = {k: pipe.hmm.transition_row(str(k)) for k in range(K) if visits[k]}
            out[t] = rows, visits
    return out


@pytest.mark.parametrize("n", SIZES)
def test_each_transition_row_is_within_its_hoeffding_bound(estimates, n):
    rows, visits = estimates[n]
    assert rows
    for i, row in rows.items():
        error = max(abs(row.get(str(j), 0.0) - P[i][j]) for j in range(K))
        assert error <= row_bound(visits[i], n), (i, error, visits[i])


@pytest.mark.parametrize("n", SIZES)
def test_the_second_half_score_approaches_minus_the_entropy_rate(n):
    start, stop = n // 2, n - 1
    mean = score(PluginParams(lam=1.0, grid_width=1.0, stat_variant="count"),
                 Signal(ROWS[:n]), start, stop)
    gap = abs(mean + H)
    assert gap <= score_bound(STATES[:n], start, stop), (mean, -H, gap)


def pre_switch_share_bound(d, delta):
    """B(d): the most the pre-switch moves can weigh in a ``discounted_sum``
    row whose latest move is d instants after the switch."""
    m = (d - 1) // K + 1
    post = (1.0 - delta ** (m * K)) / (1.0 - delta ** K)
    pre = delta ** d / (1.0 - delta)
    return pre / (pre + post)


def tracking_lag(delta):
    """The least L such that every row read at instant SWITCH_AT + L or
    later, up to the stream's end, is within EPS of P_AFTER."""
    late = [d for d in range(1, SWITCH_ROWS - SWITCH_AT)
            if pre_switch_share_bound(d, delta) > EPS]
    return max(late) + 1 + (K - 1)


LAG = {delta: tracking_lag(delta) for delta in DELTAS}
SWITCH_STATES, SWITCH_ROWS_EMITTED = chain(SWITCH_ROWS, SWITCH_SEED, SWITCH_AT)


def total_variation(row, i):
    return 0.5 * sum(abs(row.get(str(j), 0.0) - P_AFTER[i][j]) for j in range(K))


def distances_after_the_switch(stat):
    """``{instant: [row i's total variation from P_AFTER[i] for each i]}``
    for every instant after SWITCH_AT + K, streamed through the model."""
    pipe = StreamPipeline(PluginParams(lam=1.0, grid_width=1.0, **stat))
    out = {}
    for t, row in enumerate(SWITCH_ROWS_EMITTED):
        pipe.advance(row)
        if t >= SWITCH_AT + K:
            assert set(pipe.hmm.state_order) == {str(k) for k in range(K)}
            out[t] = [total_variation(pipe.hmm.transition_row(str(i)), i) for i in range(K)]
    return out


def moves_out(i, start, stop):
    """The moves out of state i into instants start .. stop - 1."""
    return sum(1 for t in range(start, stop) if SWITCH_STATES[t - 1] == i)


@pytest.mark.parametrize("delta", DELTAS)
def test_a_discounted_sum_row_is_within_eps_of_the_new_row_after_its_lag(delta):
    distances = distances_after_the_switch({"stat_variant": "discounted_sum",
                                            "delta": delta})
    checked = {t: tv for t, tv in distances.items() if t >= SWITCH_AT + LAG[delta]}
    assert len(checked) >= 500, LAG
    for t, tv in checked.items():
        assert max(tv) <= EPS, (t, tv)


@pytest.mark.parametrize("stat", [{"stat_variant": "count"}] + [
    {"stat_variant": "discounted_complement", "delta": delta} for delta in DELTAS],
    ids=lambda s: f"{s['stat_variant']}-{s.get('delta', '')}")
def test_a_count_or_complement_row_stays_away_from_the_new_row(stat):
    """At the stream's last instant, after every tracking lag, each row is
    still farther than EPS from P_AFTER, by the derived lower bound."""
    now = SWITCH_ROWS - 1
    tv = distances_after_the_switch(stat)[now]
    a = 1.0 - stat["delta"] ** (now - SWITCH_AT) if "delta" in stat else 1.0
    for i in range(K):
        before, after = moves_out(i, 1, SWITCH_AT + 1), moves_out(i, SWITCH_AT + 1, now + 1)
        moved_on = (P[i][(i + 1) % K] + row_bound(before, SWITCH_AT)) / a
        lower = before / (before + after) * (1.0 - moved_on)
        assert lower > EPS, (i, lower)
        assert tv[i] >= lower, (i, tv[i], lower)
