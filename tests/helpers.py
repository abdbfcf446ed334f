"""Shared fixture builders for the test suite."""

import contextlib
from fractions import Fraction
from unittest import mock

from condexp.correspondences import FiniteIndexedCorrespondence
from condexp.measure import Cell, CellKind, MeasureSpaceModel, StepFunction
from condexp.rationals import vec_add, vec_dot, vec_norm2, vec_scale, vec_sub, zero_vec

F = Fraction


def rich_cell(cid="c", mass=F(1), block=None):
    return Cell(cid, F(mass), CellKind.RICH, block or cid)

def saturated_cell(cid="D", mass=F(1)):
    return Cell(cid, F(mass), CellKind.SATURATED, cid)

def point_cell(cid="p", mass=F(1), block=None):
    return Cell(cid, F(mass), CellKind.POINT_MASS, block or cid)

def space(*cells):
    return MeasureSpaceModel(tuple(cells))

def unit_rich_space(cid="c"):
    return space(rich_cell(cid))


def step(space_, per_cell, dim=1):
    """per_cell: cell_id -> scalar | vector | [(upto, scalar|vector), ...]."""
    values = {}
    for c in space_.cells:
        entry = per_cell[c.id]
        if c.has_inner:
            if not isinstance(entry, list):
                entry = [(F(1), entry)]
            values[c.id] = tuple((F(u), _vec(v, dim)) for u, v in entry)
        else:
            values[c.id] = _vec(entry, dim)
    return StepFunction(dim, values)


def _vec(v, dim):
    if isinstance(v, (int, Fraction, str)):
        v = (v,)
    out = tuple(F(x) for x in v)
    assert len(out) == dim
    return out


def constant_branches(space_, consts, dim=1):
    return FiniteIndexedCorrespondence(
        space_,
        tuple(step(space_, {c.id: k for c in space_.cells}, dim) for k in consts),
    )


def binary_F(space_):
    """The {0, 1} correspondence on the whole space."""
    return constant_branches(space_, [0, 1])


def dyadic_indicator(space_, cell_id, lo, hi):
    """Scalar indicator of a sub-interval of one cell's inner coordinate."""
    from condexp.piecewise import pack_pieces

    pieces = []
    if lo > 0:
        pieces.append((lo, (F(0),)))
    pieces.append((hi, (F(1),)))
    if hi < 1:
        pieces.append((F(1), (F(0),)))
    zero = ((F(1), (F(0),)),)
    values = {c.id: pack_pieces(c, pieces if c.id == cell_id else zero) for c in space_.cells}
    return StepFunction(1, values)


def substitute_conditioned(game, profile, keep):
    """Replace every opponent of ``keep`` by its conditioned strategy."""
    from condexp.games import g_conditional

    out = list(profile)
    for j in range(len(game.players)):
        if j != keep:
            out[j] = g_conditional(game, j, profile[j])
    return out


# -- reference lookups ----------------------------------------------------------
#
# Test-only oracles for piece lists: the union of the breakpoints cut into
# spans, and each span's payload found by a linear scan from the left.  The
# library walks piece lists only with ``piecewise.merged_pieces``, so oracles
# built on these share no code with the path under test.


def common_refinement(*upto_lists):
    """Merge several increasing breakpoint lists into one sorted list."""
    points = set()
    for uptos in upto_lists:
        points.update(uptos)
    return sorted(points)


def piece_bounds(uptos, start=F(0)):
    """Consecutive (lo, hi) spans of increasing breakpoints."""
    bounds = []
    lo = start
    for hi in uptos:
        if hi <= lo:
            raise ValueError("breakpoints must be strictly increasing")
        bounds.append((lo, hi))
        lo = hi
    return bounds


def piece_payload(pieces, t):
    """Payload of the piece covering point ``t`` in a [(upto, payload)] list."""
    for upto, payload in pieces:
        if t < upto:
            return payload
    return pieces[-1][1]


def breakpoints(plan, cell):
    return [upto for upto, _ in plan.pieces(cell)]


def payload_at(plan, cell, t):
    """A plan's payload at ``t`` on a cell, vectors and weights as tuples."""
    payload = piece_payload(plan.pieces(cell), t)
    return tuple(payload) if isinstance(payload, (tuple, list)) else payload


def refinement_on(Fc, cell, *extra_breakpoints):
    """Spans of the cell on which every branch (and the extras) is constant."""
    lists = [breakpoints(g, cell) for g in Fc.branches]
    return piece_bounds(common_refinement(*lists, *extra_breakpoints))


def branch_values(Fc, cell, t):
    return [payload_at(g, cell, t) for g in Fc.branches]


# -- reference simplex ----------------------------------------------------------
#
# The textbook two-phase tableau over ``Fraction`` with Bland's rule, kept as
# the oracle for ``rational_geometry.simplex_min``: the library pivots on
# integer rows along the same path, so both must return the same (value, x)
# and raise the same exception.


def reference_simplex_min(cost, A, b):
    """Minimize cost.x over {x >= 0 : A x = b} on a Fraction tableau."""
    from condexp.errors import InfeasibleProgram, UnboundedProgram

    zero, one = F(0), F(1)
    m = len(A)
    n = len(cost)
    rows = [[F(v) for v in row] for row in A]
    rhs = [F(v) for v in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # columns: 0..n-1 structural, n..n+m-1 artificial
    tableau = [rows[i] + [one if j == i else zero for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = list(range(n, n + m))

    def pivot(row, col):
        p = tableau[row][col]
        tableau[row] = [v / p for v in tableau[row]]
        for i, other in enumerate(tableau):
            if i != row and other[col] != 0:
                factor = other[col]
                tableau[i] = [v - factor * w for v, w in zip(other, tableau[row])]
        basis[row] = col

    def run(costvec, allowed):
        while True:
            basic_cost = [costvec[basis[i]] for i in range(m)]
            entering = -1
            for j in sorted(allowed):
                if j in basis:
                    continue
                reduced = costvec[j] - sum(basic_cost[i] * tableau[i][j] for i in range(m))
                if reduced < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leaving = -1
            best = None
            for i in range(m):
                coeff = tableau[i][entering]
                if coeff > 0:
                    ratio = tableau[i][-1] / coeff
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving < 0:
                raise UnboundedProgram("linear program is unbounded")
            pivot(leaving, entering)

    art_cost = [zero] * n + [one] * m
    run(art_cost, set(range(n + m)))
    phase1 = sum(art_cost[basis[i]] * tableau[i][-1] for i in range(m))
    if phase1 > 0:
        raise InfeasibleProgram("no feasible point")
    # drive leftover artificial variables out of the basis
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                pivot(i, pivot_col)
    real_cost = list(cost) + [zero] * m
    run(real_cost, set(range(n)))
    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][-1]
    value = sum(cost[j] * x[j] for j in range(n))
    return value, tuple(x)


# -- reference audit --------------------------------------------------------------
#
# The equivalence audit's residuals with every payoff taken on its own, kept
# as the oracle for ``purification.audit_equivalence``: there each profile is
# walked once and a deviation's strong residual is read against the
# difference of the two profiles' interim forms.  Here each payoff is a
# separate ``player_payoff`` call, which builds its forms afresh.


def reference_residuals(game, f, g, deviations):
    """(payoff residuals, distribution defects, strong residuals) of f and g."""
    from condexp.games import player_payoff

    n = len(game.players)

    def totals(i, s):
        moments = reference_strategy_moments(game.players[i], game.units[i], s)
        return [sum((w0[a] for w0, _w1 in moments), F(0)) for a in range(len(moments[0][0]))]

    payoff = tuple(
        abs(player_payoff(game, i, f[i], f) - player_payoff(game, i, g[i], g)) for i in range(n)
    )
    defects = tuple(
        tuple(abs(x - y) for x, y in zip(totals(i, f[i]), totals(i, g[i]))) for i in range(n)
    )
    strong = tuple(
        tuple(
            abs(player_payoff(game, i, h, f) - player_payoff(game, i, h, g)) for h in deviations[i]
        )
        for i in range(n)
    )
    return payoff, defects, strong


# -- reference game tables ----------------------------------------------------------
#
# The density-weighted payoffs as Fraction entries and the interim forms as a
# Fraction loop over them, kept as the oracle for the integer tables of
# ``BayesianGame.weighted``: there each player's entries are integers over
# one denominator, and ``interim_affine`` sums integers over one
# denominator per call.
#
# Beside them, the profile walk one value at a time, kept as the oracle for
# the one-pass kernels: a strategy's moments as Fractions, one integer form
# per (own unit, action) found by splicing the own unit and action into
# every opponent profile, and one signature per own unit gathered the same
# way.


def reference_strategy_moments(spec, units, f):
    """Per unit and action: (W0, W1) = integrals of f and t*f over the unit,
    as Fractions."""
    from condexp.games import as_behavioral
    from condexp.piecewise import clip_pieces

    fb = as_behavioral(spec, f)
    m = len(spec.actions)
    out = []
    for u in units:
        cell = spec.cells[u.cell_index]
        w0 = [F(0)] * m
        w1 = [F(0)] * m
        for lo, hi, w in clip_pieces(fb.pieces(cell), u.lo, u.hi):
            d0 = cell.mass * (hi - lo)
            d1 = d0 * (hi + lo) / 2
            for a, wa in enumerate(w):
                if wa:
                    w0[a] += d0 * wa
                    w1[a] += d1 * wa
        out.append((w0, w1))
    return out


def reference_scaled_moments(spec, units, f):
    """``(D, rows)``: ``reference_strategy_moments`` over their least common
    denominator D, rows[unit] = (W0 * D, W1 * D)."""
    from condexp.rationals import over_one_denominator

    moments = reference_strategy_moments(spec, units, f)
    D, rows = over_one_denominator(w for w0_w1 in moments for w in w0_w1)
    return D, list(zip(rows[0::2], rows[1::2]))


def _splice(i, own, rest):
    return rest[:i] + (own,) + rest[i:]


def reference_spliced_affine(game, i, action, own_unit, moments):
    """(A, B) of one interim form from the integer tables, the own unit and
    action spliced into every opponent profile; ``moments[j]`` is opponent
    j's ``reference_scaled_moments``."""
    import itertools
    import math

    others = [j for j in range(len(game.players)) if j != i]
    den, table = game.weighted[i]
    rows = [moments[j][1] for j in others]
    A = B = 0
    for x_rest in itertools.product(*[range(len(game.players[j].actions)) for j in others]):
        entries = table[_splice(i, action, x_rest)]
        for mu in itertools.product(*[range(len(game.units[j])) for j in others]):
            c, s, coord = entries[_splice(i, own_unit, mu)]
            P0 = math.prod(row[k][0][a] for row, k, a in zip(rows, mu, x_rest))
            A += c * P0
            if coord == i:
                B += s * P0
            elif s:
                A += s * math.prod(
                    row[k][1 if j == coord else 0][a]
                    for j, row, k, a in zip(others, rows, mu, x_rest)
                )
    D = den * math.prod(moments[j][0] for j in others)
    return F(A, D), F(B, D)


def reference_spliced_info(game):
    """Per player: (blocks, kinds), each own unit's signature the integer
    entries of every opponent table, spliced in table, profile and
    opponent-unit order."""
    import itertools

    n = len(game.players)
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rests = list(itertools.product(*[range(len(game.units[j])) for j in others]))
        blocks, kinds, index = [], [], {}
        for own in range(len(game.units[i])):
            sig = tuple(
                game.weighted[j].entries[x][_splice(i, own, mu)]
                for j in others
                for x in game.action_profiles()
                for mu in rests
            )
            saturated = any(coord == i for _c, _s, coord in sig)
            b = len(blocks) if saturated else index.setdefault(sig, len(blocks))
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(own)
            kinds.append("saturated" if saturated else "rich")
        out.append((tuple(tuple(b) for b in blocks), tuple(kinds)))
    return out


def entry_product(u, q):
    """The Entry ``u * q``, at most one factor affine."""
    from condexp.errors import SchemaError
    from condexp.games import Entry

    if u.slope != 0 and q.slope != 0:
        raise SchemaError("entry", "product of two affine entries is not representable")
    const = u.const * q.const
    if u.slope != 0:
        return Entry(const, u.slope * q.const, u.coord)
    if q.slope != 0:
        return Entry(const, q.slope * u.const, q.coord)
    return Entry(const)


def entry_average(e, units):
    """The average of Entry ``e`` over a unit tuple: its value at the
    midpoint of its affine coordinate's unit."""
    if e.slope == 0:
        return e.const
    return e.const + e.slope * units[e.coord].mid


def reference_weighted(game, i, x, key):
    """Player i's density-weighted payoff entry on action profile x, unit tuple key."""
    return entry_product(game.payoffs[i][x][key], game.density[key])


def reference_interim_affine(game, i, action, own_unit, profile):
    """(A, B) of player i's interim payoff A + B*t on one own unit, in Fractions."""
    import itertools

    n = len(game.players)
    others = [j for j in range(n) if j != i]
    moments = {
        j: reference_strategy_moments(game.players[j], game.units[j], profile[j]) for j in others
    }
    A = B = F(0)
    for x_rest in itertools.product(*[range(len(game.players[j].actions)) for j in others]):
        x = x_rest[:i] + (action,) + x_rest[i:]
        for mu in itertools.product(*[range(len(game.units[j])) for j in others]):
            e = reference_weighted(game, i, x, mu[:i] + (own_unit,) + mu[i:])
            P0 = F(1)
            for j, k, a in zip(others, mu, x_rest):
                P0 *= moments[j][k][0][a]
            if P0 == 0:
                continue
            if e.slope == 0:
                A += e.const * P0
            elif e.coord == i:
                A += e.const * P0
                B += e.slope * P0
            else:
                partial = F(1)
                w1 = F(0)
                for j, k, a in zip(others, mu, x_rest):
                    if j == e.coord:
                        w1 = moments[j][k][1][a]
                    else:
                        partial *= moments[j][k][0][a]
                A += e.const * P0 + e.slope * w1 * partial
    return A, B


def reference_info(game):
    """Per player: (blocks, kinds), units grouped by the tuple of opponents'
    reference entries, saturated where one is affine in the own coordinate."""
    import itertools

    n = len(game.players)
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rests = list(itertools.product(*[range(len(game.units[j])) for j in others]))
        blocks, kinds, index = [], [], {}
        for own in range(len(game.units[i])):
            sig = tuple(
                reference_weighted(game, j, x, mu[:i] + (own,) + mu[i:])
                for j in others
                for x in game.action_profiles()
                for mu in rests
            )
            saturated = any(e.coord == i for e in sig)
            b = len(blocks) if saturated else index.setdefault(sig, len(blocks))
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(own)
            kinds.append("saturated" if saturated else "rich")
        out.append((tuple(tuple(b) for b in blocks), tuple(kinds)))
    return out


def reference_agent_coeff(game):
    """``AgentForm.coeff`` from Fraction entries: per player, slots (b, x_i) in
    first-seen order, each mapping (opp_blocks, opp_actions) to the summed
    mass * reference entry average, in first-seen order."""
    import math

    n = len(game.players)
    info = game.info
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        coeff = {}
        for x in game.action_profiles():
            for key in game.unit_tuples():
                units = game.tuple_units(key)
                e = reference_weighted(game, i, x, key)
                val = math.prod(u.mass for u in units) * entry_average(e, units)
                if val == 0:
                    continue
                slot = coeff.setdefault((info[i].block_of_unit[key[i]], x[i]), {})
                opp = (
                    tuple(info[j].block_of_unit[key[j]] for j in others),
                    tuple(x[j] for j in others),
                )
                slot[opp] = slot.get(opp, F(0)) + val
        out.append(coeff)
    return out


def reference_values(agent_form):
    """``values(i, b, mixtures)``: agent (i, b)'s float payoff of each action
    as the scalar loop before the array lane took it, one multiply per
    opponent factor and one add per coefficient, in coeff's order."""
    game = agent_form.game
    # terms[i][(b, x_i)] = [(float(c), ((j, b_j, x_j) per opponent)), ...]
    terms = [
        {
            key: [
                (float(c), tuple(zip(agent_form.others[i], opp_blocks, opp_actions)))
                for (opp_blocks, opp_actions), c in slot.items()
            ]
            for key, slot in agent_form.coeff[i].items()
        }
        for i in range(len(game.players))
    ]

    def agent_action_value_float(i, b, a, mixtures):
        total = 0.0
        for w, factors in terms[i].get((b, a), ()):
            for j, bj, aj in factors:
                w *= mixtures[j][bj][aj]
            total += w
        return total

    def values(i, b, mixtures):
        return [
            agent_action_value_float(i, b, a, mixtures)
            for a in range(len(game.players[i].actions))
        ]

    return values


def reference_solve_br(agent_form, options):
    """The damped best-response iteration as the scalar loop it was before
    the array lane, on ``reference_values``.  Returns the unsnapped float
    mixtures (player -> block -> weights) and the iteration count.
    """
    from condexp.equilibrium import DAMPING

    game = agent_form.game
    agent_values_float = reference_values(agent_form)

    def best_response(mixtures_float):
        out = []
        for i, part in enumerate(game.info):
            rows = []
            for b in range(len(part.blocks)):
                vals = agent_values_float(i, b, mixtures_float)
                k = vals.index(max(vals))
                rows.append([1.0 if a == k else 0.0 for a in range(len(vals))])
            out.append(rows)
        return out

    def br_regret(mixtures_float):
        worst = 0.0
        for i, part in enumerate(game.info):
            for b in range(len(part.blocks)):
                vals = agent_values_float(i, b, mixtures_float)
                played = sum(mixtures_float[i][b][a] * vals[a] for a in range(len(vals)))
                worst = max(worst, max(vals) - played)
        return worst

    mixtures = [[[1.0 / m for _ in range(m)] for _ in range(B)] for B, m in agent_form.counts]
    iterations = 0
    for iterations in range(1, options.max_iters + 1):
        target = best_response(mixtures)
        new = [
            [
                [(1 - DAMPING) * w + DAMPING * t for w, t in zip(row, trow)]
                for row, trow in zip(rows, trows)
            ]
            for rows, trows in zip(mixtures, target)
        ]
        mixtures = new
        if iterations % 25 == 0 and br_regret(mixtures) < 1e-12:
            break
    return mixtures, iterations


# -- reference escape audits -----------------------------------------------------
#
# ``uhc_audit`` and ``rademacher_escape`` as they were before the dyadic
# integer lane, kept as its oracle: every level-m alternating selection is
# built as 2^m Fraction pieces, turned into a step function by
# ``selection_value`` and integrated through the generic measure layer
# (``conditional_expectation`` on a rich cell, ``inner_products`` against
# the canonical dyadic indicators on a saturated one).


def _reference_escape_sides(space_, val, ind, tests):
    """(integral of psi * val, half the integral of psi * ind) for each test psi."""
    from condexp.attainable import HALF

    rhs = [HALF * r for r in space_.inner_products(ind, tests)]
    return list(zip(space_.inner_products(val, tests), rhs))


def reference_rademacher_escape(space_, cell_id, m, tests=()):
    """(selection, RademacherReport) through ``selection_value``."""
    from condexp.attainable import (
        HALF,
        RademacherReport,
        RademacherTestEntry,
        _dyadic_level,
        dyadic_selection,
        indicator_correspondence,
    )
    from condexp.correspondences import selection_value
    from condexp.errors import NotSaturated
    from condexp.measure import indicator_of_cells

    cell = space_.cell(cell_id)
    if cell.kind is not CellKind.SATURATED:
        raise NotSaturated(f"cell {cell_id} is not saturated")
    Fc = indicator_correspondence(space_, cell_id)
    phi = dyadic_selection(space_, cell_id, m)
    val = selection_value(Fc, phi)
    integral = space_.integrate(val)[0]
    ind = indicator_of_cells(space_, [cell_id])
    entries = [
        RademacherTestEntry(_dyadic_level(psi, cell), lhs, rhs)
        for psi, (lhs, rhs) in zip(tests, _reference_escape_sides(space_, val, ind, tests))
    ]
    report = RademacherReport(
        cell=cell_id,
        m=m,
        integral=integral,
        expected_integral=HALF * cell.mass,
        tests=tuple(entries),
    )
    return phi, report


def reference_uhc_audit(space_, cell_id, depth=8):
    """``UhcAuditReport`` with one ``selection_value`` per level."""
    from condexp.attainable import (
        HALF,
        UhcAuditReport,
        dyadic_selection,
        indicator_correspondence,
        limit_escape_certificate,
        membership,
    )
    from condexp.correspondences import selection_value
    from condexp.errors import NotSaturated
    from condexp.measure import functions_equal, indicator_of_cells, linear_combination

    cell = space_.cell(cell_id)
    if not cell.has_inner:
        raise NotSaturated("audit requires a cell with an inner coordinate")
    F0 = indicator_correspondence(space_, cell_id)
    ind = indicator_of_cells(space_, [cell_id])
    limit = linear_combination(space_, [(HALF, ind)])
    limit_g = space_.conditional_expectation(limit)

    averages_constant = True
    identities_ok = True
    for m in range(1, depth + 1):
        phi = dyadic_selection(space_, cell_id, m)
        val = selection_value(F0, phi)
        if cell.kind is CellKind.RICH:
            if not functions_equal(space_, space_.conditional_expectation(val), limit_g):
                averages_constant = False
        else:
            tests = [
                dyadic_indicator(space_, cell_id, F(i, 2**level), F(i + 1, 2**level))
                for level in range(min(3, m - 1) + 1)
                for i in range(2**level)
            ]
            if any(lhs != rhs for lhs, rhs in _reference_escape_sides(space_, val, ind, tests)):
                identities_ok = False

    result = membership(F0, limit_g)
    if result.member:
        defect = F(0)
    else:
        defect = limit_escape_certificate(space_, cell_id)
    return UhcAuditReport(
        cell=cell_id,
        cell_kind=cell.kind.value,
        depth=depth,
        limit_in_H0=result.member,
        defect=defect,
        averages_constant=averages_constant,
        identities_ok=identities_ok,
    )


# -- reference hull filter -------------------------------------------------------
#
# The one-LP-per-point vertex filter, kept as the oracle for
# ``rational_geometry.extreme_points``, which wraps dimensions 1-3 by integer
# triple products and never solves a program, and for the block-set
# summands, which keep every distinct branch value.


def in_hull(x, points):
    """Exact test: is x a convex combination of the points?"""
    from condexp.rational_geometry import feasible_combination

    if not points:
        return False
    A = [[p[d] for p in points] for d in range(len(x))]
    A.append([F(1)] * len(points))
    return feasible_combination(A, list(x) + [F(1)]) is not None


def reference_extreme_points(points):
    """The points not in the hull of the others (one exact LP each), sorted."""
    pts = sorted(set(tuple(p) for p in points))
    return [p for i, p in enumerate(pts) if not in_hull(p, pts[:i] + pts[i + 1 :])]


# -- reference Wolfe over Fractions ---------------------------------------------
#
# Wolfe's min-norm point, its Minkowski oracle and the vertex sums as they ran
# on ``Fraction`` points, kept as the oracles of the integer lattice that
# ``rational_geometry.min_norm_point`` and ``attainable.CondExpBlockSet`` now
# run on.  ``seen``, when given, collects the start and every oracle answer.


def _reference_solve_linear(matrix, rhs):
    """Gauss-Jordan elimination on a nonsingular square Fraction system."""
    n = len(matrix)
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


def _reference_affine_minimizer(corral):
    base = corral[0]
    dirs = [vec_sub(p, base) for p in corral[1:]]
    gram = [[vec_dot(u, v) for v in dirs] for u in dirs]
    coeffs = _reference_solve_linear(gram, [-vec_dot(u, base) for u in dirs])
    return [F(1) - sum(coeffs, F(0))] + coeffs


def reference_min_norm_point(oracle, start, seen=None):
    """The least-norm point of a polytope (Wolfe 1976) on Fraction points."""
    if seen is None:
        seen = []
    corral = [tuple(start)]
    seen.append(corral[0])
    weights = [F(1)]
    y = corral[0]
    while True:
        p = tuple(oracle(y))
        seen.append(p)
        if vec_dot(y, y) - vec_dot(y, p) <= 0:
            return y
        corral.append(p)
        weights.append(F(0))
        while True:
            alpha = _reference_affine_minimizer(corral)
            if all(a > 0 for a in alpha):
                weights = alpha
                break
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a <= 0)
            mixed = [(1 - theta) * w + theta * a for w, a in zip(weights, alpha)]
            kept = [i for i, w in enumerate(mixed) if w > 0]
            corral = [corral[i] for i in kept]
            weights = [mixed[i] for i in kept]
        y = tuple(
            sum((w * p[d] for w, p in zip(weights, corral)), F(0)) for d in range(len(corral[0]))
        )


def reference_nearest_point_in_hull(x, points, seen=None):
    """Squared distance and nearest point of conv(points) from x, by the
    Fraction Wolfe on the shifted points (oracle ties to the smallest)."""
    shifted = [vec_sub(p, x) for p in points]
    y = reference_min_norm_point(
        lambda c: min(shifted, key=lambda q: (vec_dot(c, q), q)), shifted[0], seen
    )
    return vec_norm2(y), vec_add(x, y)


def reference_rich_argmin(bs, c):
    """A point of the block set's rich Minkowski sum minimizing c . x: each
    summand's minimizing point (the smallest one on ties), scaled, added up."""
    acc = zero_vec(bs.dim)
    for coeff, points in bs.summands:
        vertex = min(points, key=lambda q: (vec_dot(c, q), q))
        acc = vec_add(acc, vec_scale(vertex, coeff))
    return acc


def reference_distance(bs, value, seen=None):
    """``CondExpBlockSet.distance`` on Fractions: per offset, the Fraction
    Wolfe through ``reference_rich_argmin``; the least (d2, nearest) wins."""
    target = vec_scale(value, bs.block_mass)
    inv = F(1) / bs.block_mass
    start = reference_rich_argmin(bs, zero_vec(bs.dim))
    best = None
    for offset in bs.offsets():
        shift = vec_sub(offset, target)
        y = reference_min_norm_point(
            lambda c: vec_add(shift, reference_rich_argmin(bs, c)), vec_add(shift, start), seen
        )
        cand = (vec_norm2(y) * inv * inv, vec_scale(vec_add(target, y), inv))
        if best is None or cand < best:
            best = cand
    return best


def reference_rich_vertices(bs):
    """The rich Minkowski sum's vertices: the Fraction sums of the
    coefficient-scaled points, cut by the LP filter after each summand."""
    acc = [zero_vec(bs.dim)]
    for coeff, points in bs.summands:
        acc = reference_extreme_points([vec_add(a, vec_scale(p, coeff)) for a in acc for p in points])
    return acc


def one_positive_scale(lattice, fractions):
    """Whether the integer points are the Fraction points times one positive
    constant, point for point and in the same order."""
    if len(lattice) != len(fractions):
        return False
    ratios = set()
    for p, r in zip(lattice, fractions):
        for a, b in zip(p, r, strict=True):
            if b == 0:
                if a != 0:
                    return False
            else:
                ratios.add(F(a) / b)
    return len(ratios) <= 1 and all(ratio > 0 for ratio in ratios)


@contextlib.contextmanager
def recording_min_norm_point(module, seen):
    """Within the block, ``module.min_norm_point`` appends its start and
    every oracle answer to ``seen``."""
    real = module.min_norm_point

    def traced(oracle, start):
        seen.append(tuple(start))

        def answer(c):
            p = oracle(c)
            seen.append(tuple(p))
            return p

        return real(answer, start)

    with mock.patch.object(module, "min_norm_point", traced):
        yield


# -- reference pennies unranking -------------------------------------------------
#
# The one-index-at-a-time walk that ``pennies._unrank_changing`` replaced by
# whole-array steps across all picks, kept as its oracle.


def reference_unrank_changing(m, r, budget, tails, index):
    """The index-th strategy, in lexicographic order, among the grid
    strategies with between 1 and ``budget`` action changes.

    At each position the candidates come in action order: every action below
    the previous one (each a change), the previous action, every action above
    it.  A change leaves tails[rest][left - 1] continuations; keeping the
    action leaves tails[rest][left], less the constant strategy while no
    change has happened yet.
    """
    prev, index = divmod(index, tails[r - 1][budget] - 1)
    seq = [prev]
    left = budget
    for p in range(1, r):
        if not left:
            seq.extend([prev] * (r - p))
            break
        rest = r - 1 - p
        diff = tails[rest][left - 1]
        same = tails[rest][left] - (left == budget)
        below = prev * diff
        if index < below:
            a, index = divmod(index, diff)
        elif index < below + same:
            a = prev
            index -= below
        else:
            t, index = divmod(index - below - same, diff)
            a = prev + 1 + t
        if a != prev:
            left -= 1
            prev = a
        seq.append(a)
    return tuple(seq)


# -- reference interim weight ------------------------------------------------------
#
# The interval-union arithmetic that ``pennies.interim_weight`` replaced by one
# sweep over the intervals sorted by left end: sort, drop the empty ones and
# merge, clip to the conditioning side, then sum; kept as its oracle.


def normalize_intervals(intervals):
    """Sort, drop empty, and merge adjacent/overlapping intervals."""
    ivs = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    merged = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def intervals_measure(intervals):
    return sum((hi - lo for lo, hi in intervals), F(0))


def intervals_clip(intervals, lo, hi):
    out = []
    for a, b in intervals:
        a2, b2 = max(a, lo), min(b, hi)
        if b2 > a2:
            out.append((a2, b2))
    return tuple(out)


def reference_interim_weight(intervals, point, side=2):
    """Conditional weight of a set of types, on interval-union arithmetic."""
    from condexp.errors import BoundaryPoint, SchemaError

    point = F(point)
    if point <= 0 or point >= 1:
        raise BoundaryPoint(f"conditioning point {point} is on the boundary")
    ivs = normalize_intervals(intervals)
    if side == 2:
        return intervals_measure(intervals_clip(ivs, F(0), point)) / point
    if side == 1:
        return intervals_measure(intervals_clip(ivs, point, F(1))) / (1 - point)
    raise SchemaError("side", "must be 1 or 2")


# -- reference convexify blend over every point-cell choice ---------------------
#
# The mixed-block blend as it ran before it read the offsets at distance 0:
# one branch mixture LP per point-cell choice, in ``itertools.product`` order,
# until one is feasible.  It is the oracle of ``attainable._mixed_block_blend``,
# which runs the LP only for choices whose offset is attained.


def reference_mixed_block_blend(F_, label, cells, value, alpha):
    import itertools

    from condexp import attainable
    from condexp.measure import CellKind
    from condexp.piecewise import pack_pieces, split_pieces

    point_cells = [c for c in cells if c.kind is CellKind.POINT_MASS]
    region = attainable.cached_block_set(F_, label)
    d2, _nearest = region.distance(value)
    if d2 > 0:
        return attainable.AtomObstruction(
            point_cells[0].id,
            alpha,
            "no point-cell choice makes the blend attainable",
            attainable._mass_distance(region, d2),
        )
    target = vec_scale(value, region.block_mass)
    rich_cells = [c for c in cells if c.kind is CellKind.RICH]
    rich_pieces = [(c, *piece) for c in rich_cells for piece in F_.walk(c)]
    point_values = [values for c in point_cells for _lo, _hi, values in F_.walk(c)]
    for choice in itertools.product(*[range(F_.branch_count) for _ in point_cells]):
        offset = zero_vec(F_.dim)
        for c, values, k in zip(point_cells, point_values, choice):
            offset = vec_add(offset, vec_scale(values[k], c.mass))
        residual = vec_sub(target, offset)
        if rich_pieces:
            mixture = attainable._branch_mixture(F_, rich_pieces, residual)
            if mixture is None:
                continue
        elif any(x != 0 for x in residual):
            continue
        else:
            mixture = []
        assignments = {c.id: pack_pieces(c, ((F(1), k),)) for c, k in zip(point_cells, choice)}
        for c in rich_cells:
            mixed = [(hi, w) for (d, _lo, hi, _v), w in zip(rich_pieces, mixture) if d is c]
            assignments[c.id] = pack_pieces(c, split_pieces(mixed, attainable._WHOLE))
        return assignments
    raise ArithmeticError(f"block {label} is at distance 0 but no point-cell choice attains it")


# -- reference atom-free blend ----------------------------------------------------
#
# The proportional split as ``convexify_witness`` once returned it on an
# atom-free space: one cut over the whole space at once, with no block loop
# and no check of the witness.  It is the oracle of the per-block path, whose
# cut of each cell must not depend on how the cells are grouped into blocks.


def reference_proportional_blend(F_, s1, s2, alpha):
    from condexp.correspondences import Selection
    from condexp.piecewise import append_piece, pack_pieces

    assignments = {}
    for c in F_.space.cells:
        pieces = []
        for lo, hi, _values, k1, k2 in F_.walk(c, s1.pieces(c), s2.pieces(c)):
            if k1 == k2 or alpha == 1:
                append_piece(pieces, hi, k1)
            elif alpha == 0:
                append_piece(pieces, hi, k2)
            else:
                append_piece(pieces, lo + alpha * (hi - lo), k1)
                append_piece(pieces, hi, k2)
        assignments[c.id] = pack_pieces(c, pieces)
    return Selection(assignments)


# -- reference pennies recheck on Fraction rows -----------------------------------
#
# The exact recheck as it ran on ``Fraction`` rows, kept as the oracle for
# ``pennies``' integer walk: the opposing measures accumulated in Fractions,
# pieces found by the breakpoint union and a lookup per span (not by
# ``merged_pieces``), and the envelope cut at every crossing, found by
# division, with the forms compared at a divided midpoint.


def reference_argmax_segments(forms, lo, hi):
    """[(lo, hi, winners)] where the argmax set of the forms is constant."""
    if hi <= lo:
        return []
    cuts = {lo, hi}
    for i, (a1, b1) in enumerate(forms):
        for a2, b2 in forms[i + 1:]:
            if b1 != b2:
                t = F(a2 - a1) / (b1 - b2)
                if lo < t < hi:
                    cuts.add(t)
    points = sorted(cuts)
    segments = []
    for slo, shi in zip(points, points[1:]):
        mid = F(slo + shi) / 2
        values = [a + b * mid for a, b in forms]
        best = max(values)
        segments.append((slo, shi, tuple(k for k, v in enumerate(values) if v == best)))
    return segments


def reference_integrate_affine(form, lo, hi):
    a, b = form
    return a * (hi - lo) + F(b * (hi * hi - lo * lo)) / 2


def reference_integrate_envelope(forms, lo, hi):
    total = F(0)
    for slo, shi, winners in reference_argmax_segments(forms, lo, hi):
        total += reference_integrate_affine(forms[winners[0]], slo, shi)
    return total


def reference_opposing_segments(rows, m, side):
    """(lo, hi, forms) per piece of Fraction rows: player 2 sees the measures
    from 0 of player 1's weights, player 1 those up to 1 of player 2's."""
    segments = []
    acc = [F(0)] * m
    prev = F(0)
    for upto, w in rows:
        segments.append((prev, upto, tuple((acc[j] - w[j] * prev, w[j]) for j in range(m))))
        for j in range(m):
            acc[j] += w[j] * (upto - prev)
        prev = upto
    if side == 2:
        return segments
    return [
        (lo, hi, tuple((acc[j] - a, -b) for j, (a, b) in enumerate(forms)))
        for lo, hi, forms in segments
    ]


def _reference_value_forms(forms, side):
    m = len(forms)
    out = []
    for j in range(m):
        (a0, b0), (a1, b1) = forms[(j - side + 1) % m], forms[(j - side + 2) % m]
        out.append((a0 - a1, b0 - b1))
    return out


def reference_gain_side(game, side, rows1, rows2):
    """(best-response value, played value) of the player on ``side``, twice
    the integrals, on Fraction rows."""
    m = game.m
    own, opposing = (rows1, rows2) if side == 1 else (rows2, rows1)
    measures = [(hi, forms) for _lo, hi, forms in reference_opposing_segments(opposing, m, side)]
    uptos = common_refinement([upto for upto, _ in own], [hi for hi, _ in measures])
    best = played = F(0)
    for lo, hi in piece_bounds(uptos):
        mid = (lo + hi) / 2
        w = piece_payload(own, mid)
        values = _reference_value_forms(piece_payload(measures, mid), side)
        best += 2 * reference_integrate_envelope(values, lo, hi)
        for j in range(m):
            played += 2 * w[j] * reference_integrate_affine(values[j], lo, hi)
    return best, played


def reference_balance_defect(rows, m, side):
    """Twice the L1 distance of the conditioning measures from the uniform
    rows' ones, on Fraction rows."""
    ((_lo, _hi, uniform),) = reference_opposing_segments(((F(1), (F(1, m),) * m),), m, side)
    total = F(0)
    for lo, hi, forms in reference_opposing_segments(rows, m, side):
        abs_forms = []
        for (a, b), (base_a, base_b) in zip(forms, uniform):
            abs_forms += [(a - base_a, b - base_b), (base_a - a, base_b - b)]
        total += 2 * reference_integrate_envelope(abs_forms, lo, hi)
    return total


def reference_cyclic_deviation(m, rows, side):
    """[(upto, action)] of the cyclic better-response to Fraction rows, with
    adjacent pieces of one action merged."""
    order = [(j + side - 1) % m for j in range(m)]
    pieces = []
    for lo, hi, forms in reference_opposing_segments(rows, m, side):
        values = _reference_value_forms(forms, side)
        cuts = {lo, hi}
        for a, b in values:
            if b != 0 and lo < -F(a) / b < hi:
                cuts.add(-F(a) / b)
        points = sorted(cuts)
        for s0, s1 in zip(points, points[1:]):
            mid = (s0 + s1) / 2
            action = next((c for c in order if values[c][0] + values[c][1] * mid > 0), 0)
            if pieces and pieces[-1][1] == action:
                pieces[-1] = (s1, action)
            else:
                pieces.append((s1, action))
    return pieces
