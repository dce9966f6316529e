"""End-to-end acceptance checks.

Each test covers one release gate and prints a PASS line with its
runtime so the suite doubles as a quick health report:

    pytest tests/test_acceptance.py -v -s
"""
import math
import random
import time

from freeop.dims import (
    builtin_operad,
    explicit_operad,
    free_product_dims,
    symbolic_dims,
)
from freeop.polynomials import MultiPoly
from freeop.shuffle import (
    all_embeddings,
    check_confluence,
    compare,
    count_normal_monomials,
    enumerate_shuffle_trees,
    normal_form,
    parse_monomial,
    parse_rules,
    rewrite_at,
    validate_monomial,
)
from freeop.spnet import (
    enumerate_networks,
    macmahon,
    network_to_tree,
    tree_to_network,
)
from freeop.trees import (
    BULLET,
    CIRC,
    PATTERNS_BY_NAME,
    count_avoiding,
    enumerate_basis,
    enumerate_unlabeled,
    graft,
    leaf_labels,
    validate_tree,
)

JACOBI = parse_rules("x(x(1 2) 3) = x(1 x(2 3)) + x(x(1 3) 2)")
LIE_ADM = parse_rules(
    "x(x(1 2) 3) = x(y(1 2) 3) + y(x(1 2) 3) - y(y(1 2) 3) - y(1 x(2 3))"
    " + y(1 y(2 3)) + x(1 x(2 3)) - x(1 y(2 3)) - x(y(1 3) 2) + x(x(1 3) 2)"
    " + y(y(1 3) 2) - y(x(1 3) 2)"
)


def _report(label, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{label}: {elapsed:.1f}s exceeded {budget}s budget"
    print(f"PASS {label} ({elapsed:.2f}s)")


def test_criterion_1_dimension_tables():
    started = time.monotonic()
    cases = [
        ("as", "as", [1, 4, 36, 528, 10800]),
        ("lie", "nov", [1, 3, 20, 216, 3274]),
        ("lie", "com", [1, 2, 11, 101, 1299, 21484, 434314]),
    ]
    for left, right, expected in cases:
        table = free_product_dims(
            builtin_operad(left), builtin_operad(right), len(expected)
        )
        assert table.totals() == expected, (left, right)
    _report("criterion 1: reference dimension tables", started, 1.0)


def test_criterion_2_symbolic_recursion():
    started = time.monotonic()
    x = {n: MultiPoly.var("x", n) for n in range(2, 6)}
    y = {n: MultiPoly.var("y", n) for n in range(2, 6)}
    table = symbolic_dims(5)

    d3 = x[3] + 3 * x[2] * y[2]
    assert table[3][0] == d3
    d4 = x[4] + 4 * x[2] * y[3] + 6 * x[3] * y[2] + 3 * x[2] * y[2] * y[2] \
        + 12 * x[2] * x[2] * y[2]
    assert table[4][0] == d4
    d5 = (
        x[5] + 5 * x[2] * y[4] + 10 * x[3] * y[3] + 10 * x[4] * y[2]
        + 50 * x[2] * x[3] * y[2] + 10 * x[2] * y[2] * y[3]
        + 30 * x[2] * x[2] * y[3] + 15 * x[3] * y[2] * y[2]
        + 90 * x[2] * x[2] * y[2] * y[2] + 15 * x[2] * x[2] * x[2] * y[2]
    )
    assert table[5][0] == d5

    total5 = table[5][0] + table[5][1]
    coeff = dict(total5.terms)[
        ((("x", 2), 2), (("y", 2), 2))
    ]
    assert coeff == 180
    _report("criterion 2: symbolic arity-5 polynomials", started, 5.0)


def test_criterion_3_basis_matches_recursion():
    started = time.monotonic()
    lie = builtin_operad("lie")
    comas = builtin_operad("com-as")
    table = free_product_dims(lie, comas, 5)
    for n in range(2, 6):
        for root, col in ((BULLET, table.bullet), (CIRC, table.circ)):
            count = sum(1 for _ in enumerate_basis(lie, comas, n, root))
            assert count == col[n]
    assert table.bullet[4] + table.circ[4] == 67

    rng = random.Random(2024)
    for _ in range(10):
        seq_x = [rng.randint(1, 3) for _ in range(4)]
        seq_y = [rng.randint(1, 3) for _ in range(4)]
        ox = explicit_operad("rx", seq_x)
        oy = explicit_operad("ry", seq_y)
        rand_table = free_product_dims(ox, oy, 5)
        for n in range(2, 6):
            count = sum(1 for _ in enumerate_basis(ox, oy, n, BULLET))
            count += sum(1 for _ in enumerate_basis(ox, oy, n, CIRC))
            assert count == rand_table.total[n], (seq_x, seq_y, n)
    _report("criterion 3: tree basis equals dimension recursion", started, 30.0)


def test_criterion_4_poisson_quotient():
    started = time.monotonic()
    lie = builtin_operad("lie")
    comas = builtin_operad("com-as")
    pattern = [PATTERNS_BY_NAME["bullet-composite-child"]]
    for n in (3, 4, 5):
        assert count_avoiding(lie, comas, n, pattern) == math.factorial(n)
    total = count_avoiding(lie, comas, 4, [])
    kept = count_avoiding(lie, comas, 4, pattern)
    assert (total, kept, total - kept) == (67, 24, 43)
    _report("criterion 4: pattern quotient gives n! with 67 = 24 + 43", started, 10.0)


def test_criterion_5_groebner_checks():
    started = time.monotonic()
    for rules in (JACOBI, LIE_ADM):
        report = check_confluence(rules, 5)
        assert report.passed, report

        big = parse_monomial("x(x(x(1 2) 3) 4)")
        embs = all_embeddings(big, rules[0].lhs)
        assert len(embs) == 2
        results = {
            str(normal_form(rewrite_at(big, emb, rules[0]), rules))
            for emb in embs
        }
        assert len(results) == 1

    bad = parse_rules("x(x(1 2) 3) = x(1 x(2 3)) + 2*x(x(1 3) 2)")
    assert not check_confluence(bad, 5).passed
    _report("criterion 5: confluence PASS/FAIL and two-path agreement", started, 60.0)


def test_criterion_6_normal_monomial_counts():
    started = time.monotonic()
    expected = {2: 2, 3: 11, 4: 101, 5: 1299, 6: 21484}
    alphabet = [("x", 2), ("y", 2)]
    for n, value in expected.items():
        assert count_normal_monomials(alphabet, LIE_ADM, n) == value
    _report("criterion 6: normal monomials count the free product", started, 300.0)


def test_criterion_7_macmahon_and_round_trip():
    started = time.monotonic()
    assert [macmahon(n) for n in range(1, 8)] == [1, 2, 4, 10, 24, 66, 180]
    comas = builtin_operad("com-as")
    for n in range(1, 9):
        nets = list(enumerate_networks(n))
        assert len(nets) == macmahon(n)
        assert len(list(enumerate_unlabeled(comas, comas, n))) == macmahon(n)
        for net in nets:
            assert tree_to_network(network_to_tree(net)) == net
        for tree in enumerate_unlabeled(comas, comas, n):
            assert network_to_tree(tree_to_network(tree)) == tree
    _report("criterion 7: series-parallel counts and bijection", started, 30.0)


def test_criterion_8_property_suites():
    started = time.monotonic()
    rng = random.Random(7)

    # shuffle-condition validation over a full enumeration
    for n in range(2, 6):
        for m in enumerate_shuffle_trees([("x", 2), ("y", 2)], n):
            validate_monomial(m)

    # order admissibility: substitution at a leaf preserves comparisons
    monos = list(enumerate_shuffle_trees([("x", 2), ("y", 2)], 3))
    from test_shuffle import _insert_at_leaf

    for _ in range(100):
        a, b = rng.sample(monos, 2)
        ctx = rng.choice(monos)
        label = rng.randint(1, 3)
        assert compare(
            _insert_at_leaf(ctx, label, a), _insert_at_leaf(ctx, label, b)
        ) == compare(a, b)

    # rewrite steps strictly decrease the leading monomial
    big = parse_monomial("x(x(x(1 2) 3) 4)")
    for rules in (JACOBI, LIE_ADM):
        for emb in all_embeddings(big, rules[0].lhs):
            for m in rewrite_at(big, emb, rules[0]).terms:
                assert compare(m, big) == -1

    # grafting associativity and identity on randomized planar trees
    from test_trees import _random_planar_tree

    for _ in range(200):
        n_mid = rng.randint(2, 4)
        outer = _random_planar_tree(rng, n_mid)
        inners = [_random_planar_tree(rng, rng.randint(1, 3)) for _ in range(n_mid)]
        once = graft(outer, inners)
        validate_tree(once)
        arities = [len(leaf_labels(t)) for t in inners]
        deepers = [_random_planar_tree(rng, rng.randint(1, 2)) for _ in range(sum(arities))]
        lhs = graft(once, deepers)
        pos = 0
        partials = []
        for t, k in zip(inners, arities):
            partials.append(graft(t, deepers[pos:pos + k]))
            pos += k
        rhs = graft(outer, partials)
        assert lhs == rhs
        assert graft(outer, [1] * n_mid) == outer

    # root-decomposition fibers sum back to the full basis count
    from collections import Counter

    lie = builtin_operad("lie")
    com = builtin_operad("com")
    table = free_product_dims(lie, com, 6)
    for n in range(2, 7):
        fibers = Counter(
            tree_to_network(t) for t in enumerate_basis(lie, com, n)
        )
        assert sum(fibers.values()) == table.total[n]
        assert len(fibers) <= macmahon(n)
    _report("criterion 8: invariant property suites", started, 120.0)
