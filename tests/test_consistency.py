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


def chain(n, seed=SEED):
    """The first ``n`` states of the chain, from a uniform start, and the
    1-d rows it emits; imports nothing from ``sigauto``."""
    rng = random.Random(seed)
    states = [rng.randrange(K)]
    for _ in range(n - 1):
        states.append(rng.choices(range(K), weights=P[states[-1]])[0])
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
