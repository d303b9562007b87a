"""One slot's row rules as plain functions on row state, the reference
that the slot loop's generated text (``sim._loop_source``) and the drift
evaluator's scores are compared against.

State is indexed by row, as in ``aoisim.age``; a dict keyed by pair serves
as rows too. The relay queue's case-1 charge and the star scores are read
from the templates that the generated code writes, ``policies._CASE1_CHARGE``,
``_STAR_GAIN``, ``_STAR_SCORE`` and ``_MAX_WEIGHT_SCORE``, so that each rule
has one owner in the package.
"""

from aoisim.policies import _CASE1_CHARGE, _MAX_WEIGHT_SCORE, _STAR_GAIN, _STAR_SCORE

# the templates as functions of their fields
_case1_charge = eval(
    f"lambda tab, age, a, ri, h: {_CASE1_CHARGE.format(tab='tab', a='a', ri='ri', h='h')}")
_star_score = eval("lambda a, q, p, tab: " + _STAR_SCORE.format(
    p="p", q="q", d=f"({_STAR_GAIN.format(tab='tab', a='a')})"))
_max_weight_score = eval(f"lambda a, p, w: {_MAX_WEIGHT_SCORE.format(a='a', pw='p * w')}")


def single_hop_age_debt_action(ages, debts, reliabilities, tables):
    """Closed-form drift bound minimizer for a single-hop star: the 0-based
    position of argmax p_i * Q_i * (f_i(A_i + 1) - f_i(1)), lowest index on
    ties. Sequences are aligned over the sources; ``tables`` holds their
    costs indexed by age: a run's cost tables, or ``CostFunction``s, whose
    ``f[age]`` is ``f(age)``."""
    scores = list(map(_star_score, ages, debts, reliabilities, tables))
    return scores.index(max(scores))  # the first maximum


def max_weight_action(ages, reliabilities, weights):
    """Single-hop max-weight baseline: argmax p_i * w_i * A_i * (A_i + 2),
    lowest index on ties."""
    scores = list(map(_max_weight_score, ages, reliabilities, weights))
    return scores.index(max(scores))


def flow_control_update(debt, targets, rows, cfg):
    """Per-slot threshold rule, in place on ``targets``: alpha = alpha_max
    for each row in ``rows`` whose debt exceeds V, else 1."""
    high, v = cfg.alpha_max, cfg.V
    for r in rows:
        targets[r] = high if debt[r] > v else 1.0


def advance_age(age, held, deliveries):
    """One slot of age evolution.

    ``deliveries`` is an iterable of (row, g): packets that arrived during
    the slot, g being the sender's pre-slot age (0 for a fresh update from
    the source). Returns the new age list, min(age, g) + 1 on each
    receiving row and age + 1 elsewhere; ``held`` is updated in place, every
    receiving row now holding a packet.
    """
    nxt = [a + 1 for a in age]
    for (r, g) in deliveries:
        a = g + 1
        if a < nxt[r]:
            nxt[r] = a
        held[r] = True
    return nxt


def update_destination_debt(debt, tables, age_next, targets, rows):
    """Q_kj <- [Q_kj + f_kj(next age) - alpha_kj]^+ for every destination
    row in ``rows``, with f_kj read from the row's table. Returns those
    costs in ``rows`` order."""
    priced = [tables[r][age_next[r]] for r in rows]
    for r, c in zip(rows, priced):
        q = debt[r] + c - targets[r]
        debt[r] = q if q > 0.0 else 0.0
    return priced


def update_intermediate_debt(relay_debt, relays, hops, age, held, tables, targets, priced):
    """Advance every intermediate queue one slot.

    Queue q has ``relays[q]`` = (destination position in ``priced``,
    destination row, relay row). When the action has the relay forwarding
    (``hops[q]``, its first-hop-restricted hop distance h, is not None) and
    it held a packet before the slot (``held[ri]``), the queue charges the
    most optimistic deliverable cost f(min(relay age, dest age) + h) on
    pre-slot ages. Otherwise, including a forwarding assignment with no
    packet on board (a no-op on the wire), it shadows the destination's
    realized cost, ``priced[p]``, from ``update_destination_debt``.
    """
    for q, (p, rd, ri) in enumerate(relays):
        h = hops[q]
        if h is not None and held[ri]:
            term = _case1_charge(tables[rd], age, age[rd], ri, h)
        else:
            term = priced[p]
        nq = relay_debt[q] + term - targets[rd]
        relay_debt[q] = nq if nq > 0.0 else 0.0
