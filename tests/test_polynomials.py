from freeop.polynomials import MultiPoly


def x(i):
    return MultiPoly.var("x", i)


def y(i):
    return MultiPoly.var("y", i)


def test_arithmetic_and_equality():
    p = (x(2) + y(2)) * (x(2) - y(2))
    assert p == x(2) * x(2) - y(2) * y(2)
    assert x(2) - x(2) == MultiPoly.zero()
    assert not MultiPoly.zero()
    assert 2 * x(2) + x(2) == 3 * x(2)


def test_substitute():
    p = x(3) + 3 * x(2) * y(2)
    assert p.substitute({("x", 3): 2, ("x", 2): 1, ("y", 2): 1}) == 5
    assert p.substitute({("x", 3): 0, ("x", 2): 4, ("y", 2): 5}) == 60


def test_str_is_graded_and_deterministic():
    p = x(3) + 3 * x(2) * y(2)
    assert str(p) == "x3 + 3*x2*y2"
    q = x(2) * x(2) * y(2) - y(4)
    assert str(q) == "-y4 + x2^2*y2"
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.const(-7)) == "-7"


def test_equality_with_an_int_and_with_a_foreign_type():
    assert MultiPoly.const(3) == 3 and MultiPoly.zero() == 0
    assert x(2) != 0 and MultiPoly.const(3) != 4
    assert (x(2) == "x2") is False and (MultiPoly.const(3) == 3.5) is False


def test_hash_agrees_with_equality():
    p, q = (x(2) + y(2)) * x(3), x(3) * y(2) + x(3) * x(2)
    assert p == q and hash(p) == hash(q)
    assert len({p, q, x(2) - x(2), MultiPoly.zero()}) == 2


def test_a_constant_hashes_as_its_int():
    assert len({3, MultiPoly.const(3)}) == 1 and len({0, MultiPoly.zero()}) == 1
    assert {3: "a"}.get(MultiPoly.const(3)) == "a" and {MultiPoly.zero(): "z"}[0] == "z"
    assert MultiPoly.const(-2) in {-2} and 5 in {MultiPoly.const(5)}
    assert x(2) - x(2) + 7 in {7} and len({1, x(2), MultiPoly.const(1)}) == 2


def test_repr_shows_the_text():
    assert repr(x(3) + 3 * x(2) * y(2)) == "MultiPoly(x3 + 3*x2*y2)"
    assert repr(MultiPoly.zero()) == "MultiPoly(0)"
