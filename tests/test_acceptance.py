"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v``; every test prints a
final PASS line naming its criterion (visible with ``-s`` or in captured
output).  All comparisons are exact; the only tolerances are runtime
budgets, asserted where stated.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from randgen import (
    build_fnn,
    path_net,
    random_expression,
    random_fnn,
    random_input,
    random_n11,
    random_n211,
    random_structure,
    with_weight_override,
)
from ref_eval import normalize, ref_evaluate
from wsq.evaluator import evaluate, ifp_iterate
from wsq.fnn import (
    forward,
    node_values,
    pad,
    pwl_integral,
    to_pwl,
    with_input,
    without_edge,
    zero_query,
)
from wsq.numerics import BOT, arith, rational, sum_all
from wsq.queries import (
    make_eval,
    make_eval_node,
    make_integrate_2_1,
    make_squaring,
    make_useless,
)
from wsq.syntax import Cond, check_scalar_fragment, desugar, parse, walk

HERE = Path(__file__).parent


def _passed(num: int, text: str) -> None:
    print(f"PASS: criterion {num} - {text}")


@pytest.fixture(scope="module")
def fnn_corpus():
    """The shared corpus of 100 random networks (depth <= 4, width <= 4)."""
    rng = random.Random(9001)
    nets = [random_fnn(rng, max_depth=4, max_width=4, mag=1000) for _ in range(100)]
    inputs = [
        [[random_input(rng, 1000) for _ in range(net.input_dim)] for _ in range(10)]
        for net in nets
    ]
    return nets, inputs


def test_c01_semantics_core_vs_reference():
    """>=200 random structures x >=500 random expressions agree exactly
    with the independent naive evaluator, in under two minutes."""
    started = time.monotonic()
    rng = random.Random(1001)
    structures = [random_structure(rng, max_size=4) for _ in range(200)]
    checked = 0
    for i in range(500):
        kind = "formula" if rng.random() < 0.5 else "term"
        expr = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
        for j in (i % 200, (7 * i + 3) % 200):
            s = structures[j]
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            assert normalize(evaluate(expr, s, env)) == normalize(ref_evaluate(expr, s, env))
            checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 1000
    assert elapsed < 120, f"semantics sweep took {elapsed:.1f}s"
    _passed(1, f"{checked} engine/reference agreements in {elapsed:.1f}s")


def test_c02_extended_arithmetic_table():
    """The absorption/division table holds on 10**4 random operand pairs."""
    rng = random.Random(1002)

    def operand():
        if rng.random() < 0.25:
            return BOT
        return rational(rng.randint(-9999, 9999), rng.randint(1, 999))

    for _ in range(10**4):
        a, b = operand(), operand()
        for op in "+-*/":
            got = arith(op, a, b)
            if a.is_bot or b.is_bot or (op == "/" and b == rational(0)):
                assert got.is_bot
            else:
                expected = {
                    "+": a.frac + b.frac,
                    "-": a.frac - b.frac,
                    "*": a.frac * b.frac,
                    "/": a.frac / b.frac if b.frac != 0 else None,
                }[op]
                assert got.frac == expected
    assert sum_all([]) == rational(0)
    assert sum_all([rational(3), BOT]).is_bot
    _passed(2, "absorption and division-by-zero table on 10^4 pairs")


def test_c03_bounded_depth_evaluation(fnn_corpus):
    """eval_{d,1} equals the forward oracle on 100 nets x 10 inputs; the
    open term is undefined at nodes deeper than the bound."""
    started = time.monotonic()
    nets, inputs = fnn_corpus
    for index, (net, net_inputs) in enumerate(zip(nets, inputs)):
        closed = make_eval(net.depth, 1)
        for r in net_inputs:
            expanded = with_input(net, r)
            assert evaluate(closed, expanded) == forward(net, r)[0]
        if index % 10 == 0:
            # the contract is depth <= d, so a looser bound works too
            loose = make_eval(net.depth + 1, 1)
            expanded = with_input(net, net_inputs[0])
            assert evaluate(loose, expanded) == forward(net, net_inputs[0])[0]
        # undefined beyond the depth bound
        deep_nodes = [v for v, d in net.depths.items() if d >= 1]
        probe = random.Random(net.depth).sample(deep_nodes, min(2, len(deep_nodes)))
        expanded = with_input(net, net_inputs[0])
        for v in probe:
            shallow = make_eval(net.depths[v] - 1)
            assert evaluate(shallow, expanded, {"x": v}) is BOT
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"bounded-depth sweep took {elapsed:.1f}s"
    _passed(3, f"1000 forward agreements plus depth cutoffs in {elapsed:.1f}s")


def test_c04_unbounded_depth_via_fixed_point(fnn_corpus):
    """The fixed-point evaluation term equals forward on the corpus padded
    to depth 12, where the bounded term goes undefined (the locality gap)."""
    nets, inputs = fnn_corpus
    closed_fp = make_eval_node()
    open_fp = make_eval_node(closed=False)
    gaps = 0
    for index, (net, net_inputs) in enumerate(zip(nets, inputs)):
        first_out = net.output_nodes[0]
        preds = net.in_neighbors[first_out]
        d = net.depth
        if not preds or d >= 12:
            padded = net
        else:
            anchor = max(preds, key=lambda u: net.depths[u])
            padded = pad(net, (anchor, first_out), 12 - d)
            assert padded.depth <= 12
        for r in net_inputs[:3]:
            want = forward(net, r)
            assert forward(padded, r) == want
            expanded = with_input(padded, r)
            if net.output_dim == 1:
                assert evaluate(closed_fp, expanded) == want[0]
            # the per-node form covers every output of any net
            for out_node, value in zip(padded.output_nodes, want):
                assert evaluate(open_fp, expanded, {"x": out_node}) == value
        if padded is not net and padded.depths[first_out] > d:
            r = net_inputs[0]
            bounded = make_eval(d, 1)
            assert evaluate(bounded, with_input(net, r)) == forward(net, r)[0]
            assert evaluate(bounded, with_input(padded, r)) is BOT
            gaps += 1
    assert gaps >= 50, "padding rarely produced the locality gap"
    _passed(4, f"fixed-point term exact on padded corpus; {gaps} locality gaps shown")


def test_c05_fixed_point_discipline():
    """Every sampled fixed-point run is inflationary and stabilizes within
    |A|**k rounds, re-verified by an external synchronous re-iteration."""
    rng = random.Random(1005)
    runs = 0
    for _ in range(40):
        s = random_structure(rng, drop_prob=0.0)
        body = random_expression(rng, rng.randint(1, 3), "term", ("v0", "x"), ifp_depth=1)
        table = ifp_iterate("F", ("v0",), body, s, {"x": rng.choice(s.universe)})
        cells = len(s.universe)
        assert table.rounds <= cells
        # external re-iteration with snapshot tables
        snapshots = [{}]
        while True:
            current = snapshots[-1]
            shadowed = with_weight_override(s, "F", 1, dict(current))
            after = dict(current)
            for elem in s.universe:
                if (elem,) in current:
                    continue
                value = evaluate(body, shadowed, {"v0": elem, "x": rng.choice(s.universe)} | {})
                if not value.is_bot:
                    after[(elem,)] = value
            if after == current:
                break
            snapshots.append(after)
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert all(later[key] == value for key, value in earlier.items())
        assert len(snapshots) - 1 <= cells
        runs += 1
    # the rounds bound is tight on paths: one new node per round
    net = path_net(6)
    body = make_eval_node(closed=False).body
    table = ifp_iterate("F", ("x",), body, with_input(net, [1]))
    assert table.rounds == 7 == len(net.structure.universe)
    _passed(5, f"{runs} runs inflationary within the |A|^k bound")


def test_c06_squaring_blowup():
    """Iterated squaring yields exactly 2**(2**d) on weight-1 paths, with
    the 1025-bit d=10 case inside five seconds."""
    sigma = make_squaring()
    for d in range(10):
        net = path_net(d)
        assert evaluate(sigma, net.structure, {"x": f"n{d}"}) == rational(2 ** (2**d))
    started = time.monotonic()
    net = path_net(10)
    value = evaluate(sigma, net.structure, {"x": "n10"})
    elapsed = time.monotonic() - started
    assert value == rational(2**1024)
    assert value.frac.numerator.bit_length() == 1025
    assert elapsed < 5, f"d=10 squaring took {elapsed:.2f}s"
    _passed(6, f"2^(2^d) exact for d<=10; d=10 in {elapsed:.2f}s")


def test_c07_fragment_checker():
    """Scalar-fragment verdicts: the fixed-point evaluator qualifies, the
    squaring term does not, and twenty nested/shadowed cases agree."""
    assert check_scalar_fragment(make_eval_node()) == []
    assert check_scalar_fragment(make_eval_node(closed=False)) == []
    assert len(check_scalar_fragment(make_squaring())) == 1

    OK, BAD = True, False
    cases = [
        # (expected scalar?, query text)
        (OK, "ifp (F(x) <- 1 + F(x)) (x)"),
        (OK, "ifp (F(x) <- F(x) * wt(x, x)) (x)"),
        (OK, "ifp (F(x) <- wt(x, x) * F(x)) (x)"),
        (BAD, "ifp (F(x) <- F(x) * F(x)) (x)"),
        (OK, "ifp (F(x) <- F(x) / wt(x, x)) (x)"),
        (BAD, "ifp (F(x) <- wt(x, x) / F(x)) (x)"),
        (BAD, "ifp (F(x) <- 1 / sum {y : y = y} F(y)) (x)"),
        (OK, "f(x) * f(x)"),
        # a product is restricted wherever it is computed, guards included
        (BAD, "ifp (F(x) <- sum {y : F(y) * F(y) <= 1} wt(y, x)) (x)"),
        # ... but intensional values merely compared in a guard are fine
        (OK, "ifp (F(x) <- sum {y : F(y) <= 1} wt(y, x)) (x)"),
        (BAD, "ifp (F(x) <- sum {y : y = y} (F(y) * F(y))) (x)"),
        (OK, "ifp (F(x) <- avg {y : wt(y, x) != bot} F(y)) (x)"),
        (OK, "ifp (F(x) <- max {y : wt(y, x) != bot} F(y)) (x)"),
        (BAD, "ifp (F(x) <- min {y : y = y} (F(y) * F(y))) (x)"),
        # nesting: the inner binder's occurrences are intensional too
        (BAD, "ifp (F(x) <- ifp (G(y) <- F(y) * G(y)) (x)) (x)"),
        (OK, "ifp (F(x) <- ifp (G(y) <- F(y) + G(y)) (x)) (x)"),
        (BAD, "ifp (F(x) <- 2 * ifp (G(y) <- G(y)) (x) * F(x)) (x)"),
        # shadowing: the inner F is a new binder but still intensional
        (BAD, "ifp (F(x) <- ifp (F(y) <- F(y) * F(y)) (x)) (x)"),
        (OK, "ifp (F(x) <- ifp (F(y) <- F(y) * wt(y, y)) (x)) (x)"),
        # outside its binder the symbol is extensional again
        (OK, "F(x) * F(x) + ifp (F(y) <- F(y) + 1) (x)"),
        # each product keeps one side whose occurrences are all extensional
        (OK, "F(x) * ifp (F(y) <- F(y)) (x) * F(x)"),
        # two different binders on the two sides still violate
        (BAD, "ifp (F(x) <- F(x) * ifp (G(y) <- G(y) + 1) (x)) (x)"),
        (OK, "(1 + 1) / count {y : F(y) <= 1}"),
    ]
    assert len(cases) >= 20
    for expected, text in cases:
        verdict = not check_scalar_fragment(parse(text))
        assert verdict is expected, text
    _passed(7, f"both reference verdicts plus {len(cases)} handcrafted cases")


def test_c08_integration_against_pwl_oracle():
    """The closed integration term equals the piecewise-linear oracle on 50
    random one-hidden-layer networks, in under a minute."""
    started = time.monotonic()
    rng = random.Random(1008)
    term = make_integrate_2_1()
    for _ in range(50):
        net = random_n211(rng)
        lo = Fraction(rng.randint(-100, 100), rng.randint(1, 10))
        hi = Fraction(rng.randint(-100, 100), rng.randint(1, 10))
        lo, hi = min(lo, hi), max(lo, hi)
        s = net.structure.expand(weights={"lo": (0, {(): lo}), "hi": (0, {(): hi})})
        assert evaluate(term, s) == pwl_integral(to_pwl(net), rational(lo), rational(hi))
    clamp = build_fnn(
        ["u", "h1", "h2", "o"],
        {
            ("u", "h1"): Fraction(1),
            ("u", "h2"): Fraction(1),
            ("h1", "o"): Fraction(1),
            ("h2", "o"): Fraction(-1),
        },
        {"h1": Fraction(0), "h2": Fraction(-1), "o": Fraction(0)},
    )
    s = clamp.structure.expand(weights={"lo": (0, {(): 0}), "hi": (0, {(): 2})})
    assert evaluate(term, s) == rational(3, 2)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"integration sweep took {elapsed:.1f}s"
    _passed(8, f"50 exact integrals plus the clamp case in {elapsed:.1f}s")


def test_c09_zero_query_vs_dense_sampling():
    """Dense sampling can only refute zeroness; it must agree with the
    exact verdict both ways on 100 random single-input networks."""
    rng = random.Random(1009)
    grid = [Fraction(i - 500, 20) for i in range(1000)]
    zero_nets = 0
    for index in range(100):
        if index % 5 == 0:
            # force some genuinely zero networks into the sample
            w = Fraction(rng.randint(1, 5))
            net = build_fnn(
                ["u", "h1", "h2", "o"],
                {
                    ("u", "h1"): w,
                    ("u", "h2"): w,
                    ("h1", "o"): Fraction(1),
                    ("h2", "o"): Fraction(-1),
                },
                {"h1": Fraction(0), "h2": Fraction(0), "o": Fraction(0)},
            )
        else:
            net = random_n11(rng, max_depth=6)
        verdict = zero_query(net)
        samples = [forward(net, [x])[0] for x in grid]
        nonzero = [x for x, v in zip(grid, samples) if v != rational(0)]
        if nonzero:
            assert verdict is False, f"sampled nonzero at {nonzero[0]} but verdict says zero"
        if verdict:
            assert not nonzero
            zero_nets += 1
    assert zero_nets >= 20
    _passed(9, f"sampling agreed with the exact zero verdict; {zero_nets} zero nets")


def test_c10_desugaring_identities():
    """Aggregate sugar and the conditional-elimination form evaluate
    identically to the native constructs on the random corpus."""
    rng = random.Random(1010)
    for _ in range(200):
        s = random_structure(rng)
        kind = "formula" if rng.random() < 0.5 else "term"
        e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
        env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
        assert evaluate(desugar(e), s, env) == evaluate(e, s, env)

    # conditional elimination: exact whenever the untaken branch is defined
    def defined_term(depth):
        if depth == 0:
            return parse(str(rng.randint(0, 9)))
        kind = rng.random()
        if kind < 0.4:
            guard = random_expression(rng, 1, "formula", ("z",))
            from wsq.syntax import Aggregate

            return Aggregate("count", ("z",), guard, None)
        from wsq.syntax import Arith

        op = "+" if kind < 0.8 else "*"
        return Arith(op, defined_term(depth - 1), defined_term(depth - 1))

    def conditional_free_formula():
        # a nested conditional with an undefined untaken branch would be
        # poisoned by the 0 * branch factor; the identity is claimed for
        # conditionals whose branch values are defined
        while True:
            f = random_expression(rng, rng.randint(0, 3), "formula", ("x",))
            if not any(isinstance(n, Cond) for _, n in walk(f)):
                return f

    for _ in range(150):
        s = random_structure(rng, drop_prob=0.0)
        test = conditional_free_formula()
        conditional = Cond(test, defined_term(2), defined_term(2))
        env = {"x": rng.choice(s.universe)}
        native = evaluate(conditional, s, env)
        eliminated = evaluate(desugar(conditional, expand_cond=True), s, env)
        assert native == eliminated
    _passed(10, "native and desugared forms identical on 350 corpus cases")


def test_c11_useless_edges_vs_deletion_oracle():
    """On 20 constructed networks with dead rectifier units the query marks
    exactly the edges whose deletion preserves all outputs."""
    rng = random.Random(1011)
    built = 0
    confirmed_useless = 0
    while built < 20:
        net = random_fnn(rng, max_depth=3, max_width=3, mag=5)
        hidden = [v for v in net.structure.universe
                  if net.in_neighbors[v] and net.out_neighbors[v]]
        if not hidden:
            continue
        # force one hidden unit dead at every plausible input
        dead = rng.choice(hidden)
        bias = dict(net.structure.weights["bias"])
        bias[(dead,)] = rational(-(10**6))
        s = net.structure
        net = build_fnn(
            list(s.universe),
            dict(s.weights["wt"]),
            {v: b.frac for (v,), b in bias.items()},
        )
        built += 1
        r = [random_input(rng, 5) for _ in range(net.input_dim)]
        expanded = with_input(net, r)
        baseline = [node_values(expanded)[o] for o in net.output_nodes]
        query = make_useless(net.depth)
        for edge in net.edges:
            got = evaluate(query, expanded, {"x0": edge[0], "y0": edge[1]})
            pruned = node_values(without_edge(expanded, edge))
            want = [pruned[o] for o in net.output_nodes] == baseline
            assert got is want, (edge, got, want)
        for succ in net.out_neighbors[dead]:
            assert evaluate(query, expanded, {"x0": dead, "y0": succ}) is True
            confirmed_useless += 1
    assert confirmed_useless >= 20
    _passed(11, f"20 nets edge-exact; {confirmed_useless} dead-unit edges confirmed")


def test_c12_cli_contract():
    """Golden outputs, exit codes 0-4, and a scripted REPL session."""
    data = HERE / "data"
    golden = HERE / "golden"

    def run(*args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "wsq", *args],
            capture_output=True, text=True, input=stdin, timeout=120,
        )

    clamp = str(data / "clamp.fnn.json")
    graph = str(data / "graph.json")

    result = run("eval", clamp, "builtin:eval_node", "--input", "5")
    assert (result.returncode, result.stdout) == (0, "1\n")
    assert run("eval", graph, "1 +").returncode == 1
    assert run("eval", str(data / "missing.json"), "1").returncode == 2
    assert run("eval", graph, "wt(x, y)").returncode == 3
    assert run("eval", graph, "sum {x, y : x = x} 1", "--max-summands", "2").returncode == 4

    assert run("check", "builtin:squaring").stdout == (golden / "check_squaring.txt").read_text()
    assert run("check", "builtin:eval_node").stdout == (golden / "check_eval_node.txt").read_text()
    assert run("fnn", "pwl", clamp).stdout == (golden / "fnn_pwl_clamp.txt").read_text()
    assert run("fnn", "integrate", clamp, "--lo", "0", "--hi", "2").stdout == "3/2\n"
    assert run("fnn", "zero", str(data / "cancel.fnn.json")).stdout == "true\n"

    script = "\n".join(
        [f":load {graph}", "count {x : x = x}", ":let t = 1/0", "t",
         ":check builtin:eval_node", ":quit", ""]
    )
    repl = run("repl", stdin=script)
    assert repl.returncode == 0
    lines = repl.stdout.splitlines()
    assert "4" in lines and "bot" in lines
    assert any("in sIFP(SUM)" in line for line in lines)
    _passed(12, "golden outputs, exit codes 0-4, scripted REPL")
