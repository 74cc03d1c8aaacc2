import pytest

from conftest import cell_instance, halfplane_instance, least_cover_reference, square_instance

from membercover import (
    BudgetExceeded,
    Halfplane,
    OracleBudget,
    Point,
    Uncoverable,
    UnitSquare,
    exact_minsize_bruteforce,
    exact_mmgsc_bruteforce,
    exact_mpgsc_bruteforce,
    memb_eval,
    verify_cover,
)


def P(x, y):
    return Point.of(x, y)


def test_verify_cover_trivial():
    assert verify_cover([], [], [])
    assert not verify_cover([P(0, 0)], [], [UnitSquare(0, P(1, 1))])
    assert verify_cover([P(0, 0)], [0], [UnitSquare(0, P(1, 1))])


def test_memb_eval_trivial():
    squares = [UnitSquare(i, P(1, 1)) for i in range(3)]
    assert memb_eval([P(0, 0)], [], squares) == 0
    assert memb_eval([P(0, 0)], [0, 1, 2], squares) == 3


def test_memb_eval_matches_recount():
    points, sprime, squares = cell_instance(5)
    chosen = [q.id for q in squares[::2]]
    got = memb_eval(sprime, chosen, squares)
    expected = max(
        (sum(1 for q in squares if q.id in set(chosen) and q.contains(p)) for p in sprime),
        default=0,
    )
    assert got == expected


def test_mmgsc_bruteforce_basics():
    sq = UnitSquare(0, P(1, 1))
    assert exact_mmgsc_bruteforce([P(0, 0)], [P(5, 5)], [sq]) == (0, (0,))
    opt, _ = exact_mmgsc_bruteforce([P(0, 0)], [P(0, 0)], [sq])
    assert opt == 1
    with pytest.raises(Uncoverable):
        exact_mmgsc_bruteforce([P(9, 9)], [], [sq])


def test_budget_refusal():
    squares = [UnitSquare(i, P(1, 1)) for i in range(5)]
    with pytest.raises(BudgetExceeded):
        exact_mmgsc_bruteforce([P(0, 0)], [], squares, OracleBudget(max_ranges=4))


def test_minsize_basics():
    squares = [UnitSquare(0, P(1, 1)), UnitSquare(1, P(5, 5))]
    assert exact_minsize_bruteforce([], squares)[0] == 0
    assert exact_minsize_bruteforce([P(0, 0)], squares)[0] == 1
    assert exact_minsize_bruteforce([P(0, 0), P("9/2", "9/2")], squares)[0] == 2


def test_mpgsc_basics():
    apart = [UnitSquare(0, P(1, 1)), UnitSquare(1, P(5, 5))]
    assert exact_mpgsc_bruteforce([P(0, 0), P("9/2", "9/2")], apart)[0] == 1
    stacked = [UnitSquare(0, P(1, 1)), UnitSquare(1, P(1, 1))]
    assert exact_mpgsc_bruteforce([P(0, 0)], stacked)[0] == 1


@pytest.mark.parametrize("oracle", ["mmgsc", "minsize", "mpgsc"])
def test_empty_enumeration_raises(monkeypatch, oracle):
    # a broken enumeration must not pass for an answer, also under -O
    from membercover import oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "_subsets_by_size", lambda n: iter(()))
    squares = [UnitSquare(0, P(1, 1))]
    with pytest.raises(RuntimeError):
        if oracle == "mmgsc":
            exact_mmgsc_bruteforce([P(0, 0)], [P(0, 0)], squares)
        elif oracle == "minsize":
            exact_minsize_bruteforce([P(0, 0)], squares)
        else:
            exact_mpgsc_bruteforce([P(0, 0)], squares)


def _depth_scorer(probes, ranges):
    """value(chosen): the most ranges of `chosen` that hold one probe point."""
    inside = {r.id: [r.contains(q) for q in probes] for r in ranges}
    return lambda chosen: max([sum(col) for col in zip(*[inside[r.id] for r in chosen])], default=0)


@pytest.mark.parametrize(
    "make, seeds",
    [(cell_instance, 60), (halfplane_instance, 60), (square_instance, 30)],
    ids=["cell", "halfplane", "square"],
)
def test_optima_match_itertools_reference(make, seeds):
    # value and witness ids: the least (value, size, ids) over all covers
    for seed in range(seeds):
        points, sprime, ranges = make(seed)
        memb = least_cover_reference(points, ranges, _depth_scorer(sprime, ranges))
        assert memb is not None
        assert exact_mmgsc_bruteforce(points, sprime, ranges) == memb
        size = least_cover_reference(points, ranges, len)
        assert exact_minsize_bruteforce(points, ranges) == size
        if make is halfplane_instance:
            continue
        # the chosen squares' intersection, when not empty, holds its
        # lower-left corner (greatest left edge, greatest bottom edge), so
        # the ply of a set of squares is its depth at some such point
        corners = [Point(q.tr.x - 1, r.tr.y - 1) for q in ranges for r in ranges]
        ply_ref = least_cover_reference(points, ranges, _depth_scorer(corners, ranges))
        assert exact_mpgsc_bruteforce(points, ranges) == ply_ref


def _relabeled(ranges):
    """Same geometry under reversed ids: an independent enumeration order."""
    n = len(ranges)
    out = []
    for r in ranges:
        if isinstance(r, UnitSquare):
            out.append(UnitSquare(n - 1 - r.id, r.tr))
        else:
            out.append(Halfplane(n - 1 - r.id, r.a, r.b, r.c))
    return sorted(out, key=lambda r: r.id)


def test_self_consistency_two_orders():
    for seed in range(12):
        points, sprime, squares = cell_instance(seed, max_squares=7, max_points=6)
        a, _ = exact_mmgsc_bruteforce(points, sprime, squares)
        b, _ = exact_mmgsc_bruteforce(points, sprime, _relabeled(squares))
        assert a == b
        sa, _ = exact_minsize_bruteforce(points, squares)
        sb, _ = exact_minsize_bruteforce(points, _relabeled(squares))
        assert sa == sb
    for seed in range(8):
        points, sprime, planes = halfplane_instance(seed, max_planes=6, max_points=5)
        a, _ = exact_mmgsc_bruteforce(points, sprime, planes)
        b, _ = exact_mmgsc_bruteforce(points, sprime, _relabeled(planes))
        assert a == b


def test_monotone_in_ranges():
    for seed in range(10):
        points, sprime, squares = cell_instance(seed, max_squares=6, max_points=6)
        base, _ = exact_mmgsc_bruteforce(points, sprime, squares)
        extra = squares + [UnitSquare(len(squares), P(1, 1))]
        more, _ = exact_mmgsc_bruteforce(points, sprime, extra)
        assert more <= base
