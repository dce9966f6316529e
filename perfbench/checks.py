"""Answer checks, run outside the timed region.

``check`` returns ``(status, objects)``: status is "ok", "failed" (the
program refused: exit 2, an unexpected exit code or an exception) or
"wrong" (it answered, and the answer disagrees with the independent
route); objects counts the trees or networks a listing emitted, and
one for any other answer.
"""
from __future__ import annotations

import json
import math
import random
from functools import lru_cache

import oracle

SAMPLE = 25


class Checker:
    def __init__(self, freeop, rules: dict):
        self.f = freeop
        self.rules = rules

    def check(self, req, outcome) -> tuple[str, int]:
        rc, out = outcome
        if req.kind == "normal-form":
            return self._normal_form(req, out), 1
        expected_rc = req.expect.get("exit", 0)
        if rc != expected_rc:
            return ("wrong" if rc in (0, 1) else "failed"), 0
        payload = json.loads(out)
        ok, objects = getattr(self, "_" + req.kind.replace("-", "_"))(req.expect, payload)
        return ("ok" if ok else "wrong"), objects

    # --- counting answers ---------------------------------------------

    def _dims(self, e, payload):
        bullet, circ, total = _free_product(tuple(e["x"]), tuple(e["y"]), e["n"])
        rows = payload["rows"][1:]
        return len(rows) == e["n"] - 1 and all(
            (r["bullet"], r["circ"], r["total"]) == (bullet[r["n"]], circ[r["n"]], total[r["n"]])
            for r in rows
        ), 1

    def _symbolic(self, e, payload):
        polys = payload["polynomials"]
        n_max = e["n"]
        if len(polys) != 2 * (n_max - 1):
            return False, 1
        for left, right in e["pairs"]:
            x = oracle.dims_sequence([], left, n_max)
            y = oracle.dims_sequence([], right, n_max)
            bullet, circ, _ = _free_product(tuple(x), tuple(y), n_max)
            for n in range(2, n_max + 1):
                if oracle.eval_polynomial(polys[f"d{n}_bullet"], x, y) != bullet[n]:
                    return False, 1
                if oracle.eval_polynomial(polys[f"d{n}_circ"], x, y) != circ[n]:
                    return False, 1
        return True, 1

    def _sp(self, e, payload):
        return payload["count"] == _macmahon(e["n"]), 1

    def _basis(self, e, payload):
        return payload["count"] == e["total"], 1

    def _quotient(self, e, payload):
        dims = self.f.dims
        x = dims.OperadDims("x", e["x"].__getitem__)
        y = dims.OperadDims("y", e["y"].__getitem__)
        pattern = self.f.trees.PATTERNS_BY_NAME[e["pattern"]]
        avoiding = self.f.trees.count_avoiding_recursive(x, y, e["n"], [pattern])
        return (payload["total"], payload["quotient"], payload["reduced"]) == (
            e["total"], avoiding, e["total"] - avoiding), 1

    def _count_normal(self, e, payload):
        n = e["n"]
        if e["system"] == "lie":
            expected = math.factorial(n - 1)
        else:
            lie = oracle.dims_sequence([], "lie", n)
            com = oracle.dims_sequence([], "com", n)
            expected = _free_product(tuple(lie), tuple(com), n)[2][n]
        return payload["count"] == expected, 1

    # --- listings -----------------------------------------------------

    def _basis_list(self, e, payload):
        items = payload["trees"]
        trees = self.f.trees
        ok = payload["count"] == len(items) == e["total"]
        ok = ok and len(set(items)) == len(items)
        for s in _sample(items, e["sample_seed"]):
            t = trees.parse_tree(s)
            ok = ok and trees.format_tree(t) == s
            ok = ok and sorted(trees.leaf_labels(t)) == list(range(1, e["n"] + 1))
        return ok, len(items)

    def _sp_list(self, e, payload):
        items = payload["networks"]
        spnet = self.f.spnet
        ok = payload["count"] == len(items) == _macmahon(e["n"])
        ok = ok and len(set(items)) == len(items)
        for s in _sample(items, e["sample_seed"]):
            net = spnet.parse_network(s)
            ok = ok and spnet.format_network(net) == s and spnet.size(net) == e["n"]
        return ok, len(items)

    # --- rewriting ----------------------------------------------------

    def _confluence(self, e, payload):
        return payload["passed"] == (e["exit"] == 0) and (
            payload["passed"] or bool(payload["failures"])), 1

    def _normal_form(self, req, answer: str) -> str:
        """Every term is normal, and a random reduction strategy reaches
        the same element (both bundled systems are confluent)."""
        sh = self.f.shuffle
        rules = self.rules[req.expect["system"]]
        got = sh.ShuffleElement() if answer == "0" else sh.parse_element(answer)
        if not all(sh.is_normal(m, rules) for m in got.terms):
            return "wrong"
        rng = random.Random(req.expect["rng_seed"])
        other = sh.normal_form(sh.parse_element(req.text), rules, rng=rng)
        return "ok" if other == got else "wrong"


def _sample(items: list, seed: int) -> list:
    return random.Random(seed).sample(items, min(SAMPLE, len(items)))


@lru_cache(maxsize=None)
def _free_product(x: tuple, y: tuple, n_max: int):
    return oracle.free_product(list(x), list(y), n_max)


@lru_cache(maxsize=1)
def _macmahon_table():
    return oracle.macmahon_numbers(200)


def _macmahon(n: int) -> int:
    return _macmahon_table()[n]
