import numpy as np
import pytest

from imdp.autodiff import (LEAKY_SLOPE, Graph, NonFiniteError, ParamStore, ShapeError,
                           GraphError, _evaluate, as_tensor, backward, forward, grad_check)


def affine_net(widths, seed=0, batch=4, act="tanh"):
    """Small stack used across tests; returns (graph, store, input node, out node)."""
    rng = np.random.default_rng(seed)
    g = Graph()
    params = {}
    x = g.input("x", (batch, widths[0]))
    h = x
    for i in range(len(widths) - 1):
        params[f"w{i}"] = rng.normal(0.0, 0.4, size=(widths[i], widths[i + 1]))
        params[f"b{i}"] = rng.normal(0.0, 0.1, size=widths[i + 1])
        w = g.param(f"w{i}", (widths[i], widths[i + 1]))
        b = g.param(f"b{i}", (widths[i + 1],))
        h = g.affine(h, w, b)
        if i < len(widths) - 2:
            h = getattr(g, act)(h)
    return g, ParamStore(params), x, h


class TestForward:
    def test_identity_graph_returns_input(self):
        g = Graph()
        x = g.input("x", (2, 3))
        t = np.arange(6.0).reshape(2, 3)
        acts = forward(g, ParamStore({}), {"x": t})
        np.testing.assert_array_equal(acts[x], t)

    def test_affine_zero_weights_yields_bias(self):
        g = Graph()
        store = ParamStore({"w": np.zeros((3, 2)), "b": np.array([1.5, -2.0])})
        x = g.input("x", (4, 3))
        out = g.affine(x, g.param("w", (3, 2)), g.param("b", (2,)))
        acts = forward(g, store, {"x": np.random.default_rng(0).normal(size=(4, 3))})
        np.testing.assert_array_equal(acts[out], np.tile([1.5, -2.0], (4, 1)))

    def test_two_layer_tanh_matches_straight_line_recomputation(self):
        g, store, _, out = affine_net([3, 5, 2], seed=0)
        x = np.random.default_rng(0).normal(size=(4, 3))
        got = forward(g, store, {"x": x})[out]
        # independent re-computation of the same arithmetic
        h = np.tanh(x @ store.params["w0"] + store.params["b0"])
        want = h @ store.params["w1"] + store.params["b1"]
        np.testing.assert_allclose(got, want, rtol=0, atol=0)

    def test_forward_is_pure(self):
        g, store, _, out = affine_net([3, 4, 2], seed=1)
        x = np.random.default_rng(2).normal(size=(4, 3))
        a = forward(g, store, {"x": x})[out]
        b = forward(g, store, {"x": x})[out]
        assert a.tobytes() == b.tobytes()

    def test_shape_mismatch_rejected(self):
        g, store, _, out = affine_net([3, 4, 2])
        with pytest.raises(ShapeError):
            forward(g, store, {"x": np.zeros((4, 5))})

    def test_non_finite_input_rejected(self):
        g = Graph()
        g.input("x", (1, 2))
        with pytest.raises(NonFiniteError):
            forward(g, ParamStore({}), {"x": np.array([[np.nan, 0.0]])})

    def test_affine_overflow_into_tanh_names_the_affine_node(self):
        g = Graph()
        store = ParamStore({"w": np.full((2, 2), 1e300), "b": np.zeros(2)})
        x = g.input("x", (1, 2))
        pre = g.affine(x, g.param("w", (2, 2)), g.param("b", (2,)))
        g.tanh(pre)
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match=f"node {pre} \\(affine\\)"):
            forward(g, store, {"x": np.full((1, 2), 1e10)})

    def test_unbound_input_rejected(self):
        g = Graph()
        g.input("x", (1, 2))
        with pytest.raises(GraphError):
            forward(g, ParamStore({}), {})

    def test_softmax_xent_zero_logits_is_log_k(self):
        g = Graph()
        store = ParamStore({})
        logits = g.input("logits", (4, 10))
        onehot = np.zeros((4, 10))
        onehot[np.arange(4), [0, 3, 7, 9]] = 1.0
        t = g.input("t", (4, 10))
        loss = g.softmax_xent(logits, t)
        acts = forward(g, store, {"logits": np.zeros((4, 10)), "t": onehot})
        assert float(acts[loss]) == pytest.approx(np.log(10), abs=0)

    def test_loss_targets_must_be_inputs(self):
        g = Graph()
        logits = g.input("logits", (2, 3))
        with pytest.raises(GraphError, match="input nodes"):
            g.softmax_xent(logits, g.param("t", (2, 3)))
        with pytest.raises(GraphError, match="input nodes"):
            g.gaussian_loglik(logits, g.tanh(logits))


class TestWeightedSum:
    def test_matches_the_arithmetic_it_replaces_bit_for_bit(self):
        def same_bits(got, want):
            return np.asarray(got).tobytes() == np.asarray(want).tobytes()

        rng = np.random.default_rng(21)
        for trial in range(200):
            shape = ((), (3,), (2, 3))[trial % 3]
            v = {n: rng.normal(size=shape) * 10.0 ** float(rng.integers(-3, 4))
                 for n in ("a", "b", "x0", "x1", "m", "c", "k")}
            scale, h = (float(rng.normal()) for _ in range(2))
            lam_c, lam_k = (float(rng.choice([0.0, 0.1, 1.0, abs(rng.normal())]))
                            for _ in range(2))
            g = Graph()
            x = {n: g.input(n, shape) for n in v}
            cases = [
                (g.weighted_sum([(x["a"], -1.0), (x["b"], 1.0)]), -(v["a"] - v["b"])),
                (g.weighted_sum([(x["a"], scale)]), scale * v["a"]),
                (g.weighted_sum([(x["a"], 1.0)], h), v["a"] + h),
                (g.weighted_sum([(x["x0"], -1.0), (x["x1"], -1.0)], h),
                 -(v["x0"] + v["x1"]) + h),
                (g.weighted_sum([(x["m"], -1.0), (x["c"], -lam_c), (x["k"], -lam_k)]),
                 ((-v["m"]) - lam_c * v["c"]) - lam_k * v["k"]),
            ]
            acts = forward(g, ParamStore({}), v)
            for i, (node, want) in enumerate(cases):
                assert same_bits(acts[node], want), (trial, i)

        g = Graph()
        z = g.input("z", (2,))
        bare, shifted = g.weighted_sum([(z, 1.0)]), g.weighted_sum([(z, 1.0)], 0.0)
        acts = forward(g, ParamStore({}), {"z": np.array([-0.0, 0.0])})
        assert list(np.signbit(acts[bare])) == [True, False]  # no constant: -0.0 kept
        assert same_bits(acts[shifted], np.array([-0.0, 0.0]) + 0.0)

    def test_rejects_no_terms_and_unequal_shapes(self):
        g = Graph()
        a, b = g.input("a", (2, 3)), g.input("b", (3, 2))
        with pytest.raises(GraphError):
            g.weighted_sum([])
        with pytest.raises(ShapeError):
            g.weighted_sum([(a, 1.0), (b, 1.0)])


BAD_VALUES = (np.inf, -np.inf, np.nan)


def _graph_with_one_bad_value(seed: int):
    """A random graph over every op kind with one inf or NaN injected at a
    random node: one entry of an input or param, or a weighted_sum node
    whose constant or weight is the bad value.  After an injected node,
    relu or tanh follows half the time, so relu(-inf) and tanh(+-inf)
    masking is exercised.  Returns (graph, store, inputs)."""
    rng = np.random.default_rng(seed)
    g = Graph()
    b, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    inputs = {name: rng.normal(size=(b, w)) for name in ("x0", "x1", "t")}
    store = ParamStore({"w": rng.normal(size=(w, w)), "b": rng.normal(size=w)})
    rows = [g.input("x0", (b, w)), g.input("x1", (b, w))]
    t = g.input("t", (b, w))
    wn, bn = g.param("w", (w, w)), g.param("b", (w,))
    bad = BAD_VALUES[int(rng.integers(3))]
    steps = int(rng.integers(2, 12))
    inject = int(rng.integers(-1, steps))  # -1: into a leaf entry
    if inject < 0:
        where = [*inputs, "w", "b"][int(rng.integers(5))]
        arr = inputs[where] if where in inputs else store.params[where]
        arr.reshape(-1)[int(rng.integers(arr.size))] = bad
    for step in range(steps):
        a = rows[int(rng.integers(len(rows)))]
        if step == inject:
            rows.append(g.weighted_sum([(a, 1.0)], bad) if rng.random() < 0.5
                        else g.weighted_sum([(a, bad)]))
            if rng.random() < 0.5:
                rows.append(g.relu(rows[-1]) if rng.random() < 0.5 else g.tanh(rows[-1]))
            continue
        kind = int(rng.integers(9))
        if kind == 0:
            rows.append(g.affine(a, wn, bn))
        elif kind < 4:
            rows.append(getattr(g, ("tanh", "relu", "leaky_relu")[kind - 1])(a))
        elif kind == 4:
            rows.append(g.weighted_sum([(a, -1.0)]))
        elif kind == 5:
            rows.append(g.weighted_sum([(a, float(rng.normal()))]) if rng.random() < 0.5
                        else g.weighted_sum([(a, 1.0)], float(rng.normal())))
        elif kind == 6:
            other = rows[int(rng.integers(len(rows)))]
            rows.append(g.weighted_sum([(a, 1.0), (other, 1.0 if rng.random() < 0.5 else -1.0)]))
        else:  # scalar sinks
            (g.mean, lambda v: g.softmax_xent(v, t), lambda v: g.gaussian_loglik(v, t))[
                int(rng.integers(3))](a)
    return g, store, inputs


def _first_non_finite(graph, store, inputs):
    acts = _evaluate(graph, store, inputs, [False] * len(graph))
    return next((i for i, v in enumerate(acts) if not np.isfinite(v).all()), None)


class TestFiniteChecks:
    def test_checks_inputs_sinks_and_relu_tanh_operands(self):
        g, store, x, out = affine_net([3, 4, 4, 2])  # x, w0, b0, affine, tanh, ...
        checked = [i for i, flag in enumerate(g._checked()) if flag]
        assert checked == [x, 3, 7, out]

    @pytest.mark.parametrize("act, bad", [("relu", -np.inf), ("tanh", np.inf),
                                          ("tanh", -np.inf)])
    def test_masking_op_names_the_node_before_it(self, act, bad):
        g = Graph()
        x = g.input("x", (2, 2))
        hot = g.weighted_sum([(x, 1.0)], bad)
        g.mean(getattr(g, act)(hot))
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError, match=f"node {hot} \\(weighted_sum\\)"):
            forward(g, ParamStore({}), {"x": np.zeros((2, 2))})

    def test_fast_pass_raises_iff_full_pass_and_names_the_first_node(self):
        for seed in range(400):
            g, store, inputs = _graph_with_one_bad_value(seed)
            with np.errstate(all="ignore"):
                first = _first_non_finite(g, store, inputs)
                raised = []
                for checked in (g._checked(), [True] * len(g)):
                    try:
                        _evaluate(g, store, inputs, checked)
                        raised.append(None)
                    except NonFiniteError as exc:
                        raised.append(str(exc))
                assert (raised[0] is None) == (raised[1] is None) == (first is None), seed
                if first is None:
                    forward(g, store, inputs)
                    continue
                assert raised[1].startswith(f"node {first} ("), seed
                with pytest.raises(NonFiniteError) as exc:
                    forward(g, store, inputs)
                assert str(exc.value) == raised[1], seed


class TestBackward:
    def test_linear_loss_gradient_equals_input(self):
        g = Graph()
        store = ParamStore({"w": np.zeros((3, 1)), "b": np.zeros(1)})
        x_val = np.array([[1.0, -2.0, 3.0]])
        x = g.input("x", (1, 3))
        out = g.affine(x, g.param("w", (3, 1)), g.param("b", (1,)))
        loss = g.mean(out)  # one entry: the mean is the entry
        acts = forward(g, store, {"x": x_val})
        grads = backward(g, store, acts, loss)
        np.testing.assert_array_equal(grads["w"], x_val.T)
        np.testing.assert_array_equal(grads["b"], [1.0])

    def test_unused_parameter_gets_zero_gradient(self):
        g = Graph()
        store = ParamStore({"w": np.ones((2, 2)), "dead": np.ones((3, 3)), "b": np.zeros(2)})
        x = g.input("x", (2, 2))
        out = g.affine(x, g.param("w", (2, 2)), g.param("b", (2,)))
        loss = g.mean(out)
        acts = forward(g, store, {"x": np.ones((2, 2))})
        grads = backward(g, store, acts, loss)
        assert (grads["dead"] == 0.0).all()

    def test_stale_slots_are_replaced_and_unreached_ones_zeroed(self):
        x = np.random.default_rng(4).normal(size=(4, 3))
        g, stale, _, out = affine_net([3, 5, 2], seed=3)
        _, fresh, _, _ = affine_net([3, 5, 2], seed=3)
        stale, fresh = (ParamStore({**store.params, "dead": np.ones(3)})
                        for store in (stale, fresh))
        for slot in stale.grads.values():
            slot[...] = 7.0
        loss = g.mean(out)
        got = backward(g, stale, forward(g, stale, {"x": x}), loss)
        want = backward(g, fresh, forward(g, fresh, {"x": x}), loss)
        assert (got["dead"] == 0.0).all()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_leaky_relu_matches_select_form_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(64, 128))
        x[0, :4] = [0.0, -0.0, 1e-310, -1e-310]
        t = rng.normal(size=x.shape)
        g = Graph()
        y = g.leaky_relu(g.param("w", x.shape))
        loss = g.gaussian_loglik(y, g.input("t", x.shape))
        store = ParamStore({"w": x})
        acts = forward(g, store, {"t": t})
        want_y = np.where(x > 0.0, x, LEAKY_SLOPE * x)
        assert acts[y].tobytes() == want_y.tobytes()
        cot = 1.0 * (t - want_y) / x.shape[0]
        want_g = cot * np.where(x > 0.0, 1.0, LEAKY_SLOPE)
        assert backward(g, store, acts, loss)["w"].tobytes() == want_g.tobytes()

    def test_one_column_input_cotangent_matches_product(self):
        rng = np.random.default_rng(9)
        h, w, t = rng.normal(size=(320, 128)), rng.normal(size=(128, 1)), rng.normal(size=(320, 1))
        g = Graph()
        out = g.affine(g.param("h", h.shape), g.param("w", w.shape), g.param("b", (1,)))
        loss = g.gaussian_loglik(out, g.input("t", t.shape))
        store = ParamStore({"h": h, "w": w, "b": np.zeros(1)})
        acts = forward(g, store, {"t": t})
        cot = 1.0 * (t - acts[out]) / t.shape[0]
        got = backward(g, store, acts, loss, wrt=["h"])["h"]
        assert got.tobytes() == (cot @ w.T).tobytes()

    def test_random_two_layer_net_matches_finite_differences(self):
        g, store, _, out = affine_net([4, 6, 3], seed=3, batch=5)
        loss = g.mean(g.tanh(out))
        x = np.random.default_rng(4).normal(size=(5, 4))
        assert grad_check(g, store, {"x": x}, loss, h=1e-5) < 1e-6

    def test_non_scalar_loss_rejected(self):
        g, store, _, out = affine_net([3, 4, 2])
        acts = forward(g, store, {"x": np.zeros((4, 3))})
        with pytest.raises(ShapeError):
            backward(g, store, acts, out)

    def test_backward_resets_accumulation(self):
        g, store, _, out = affine_net([3, 4, 2], seed=5)
        loss = g.mean(out)
        x = np.random.default_rng(6).normal(size=(4, 3))
        acts = forward(g, store, {"x": x})
        first = backward(g, store, acts, loss)["w0"].copy()
        second = backward(g, store, acts, loss)["w0"].copy()
        np.testing.assert_array_equal(first, second)

    def test_backward_of_sum_equals_sum_of_backwards(self):
        g, store, _, out = affine_net([3, 5, 2], seed=7)
        l1 = g.mean(g.tanh(out))
        l2 = g.mean(g.relu(out))
        total = g.weighted_sum([(l1, 1.0), (l2, 1.0)])
        x = np.random.default_rng(8).normal(size=(4, 3))
        acts = forward(g, store, {"x": x})
        g1 = {k: v.copy() for k, v in backward(g, store, acts, l1).items()}
        g2 = {k: v.copy() for k, v in backward(g, store, acts, l2).items()}
        gt = backward(g, store, acts, total)
        for name in store.params:
            np.testing.assert_allclose(gt[name], g1[name] + g2[name], atol=1e-15)


def branched_net(seed=0, batch=5):
    """Two branches over one input, a param used twice, a second input and
    weighted sums over matrices and scalars."""
    rng = np.random.default_rng(seed)
    g = Graph()
    store = ParamStore({name: rng.normal(0.0, 0.5, size=shape)
                        for name, shape in [("a.W", (3, 4)), ("a.b", (4,)), ("b.W", (3, 4)),
                                            ("b.b", (4,)), ("h.W", (4, 2)), ("h.b", (2,))]})
    p = {name: g.param(name, store.params[name].shape) for name in store.params}
    x = g.input("x", (batch, 3))
    ha = g.tanh(g.affine(x, p["a.W"], p["a.b"]))
    hb = g.leaky_relu(g.affine(x, p["b.W"], p["b.b"]))
    h = g.weighted_sum([(ha, 1.0), (hb, 1.0), (g.input("c", (batch, 4)), -1.0)])
    out = g.affine(g.relu(h), p["h.W"], p["h.b"])
    again = g.affine(ha, g.param("h.W", (4, 2)), p["h.b"])
    loss = g.weighted_sum([(g.mean(out), 1.0),
                           (g.mean(g.weighted_sum([(again, -1.0)])), 0.5)])
    c = rng.normal(size=(batch, 4))
    return g, store, {"x": rng.normal(size=(batch, 3)), "c": c}, loss


class TestPrunedBackward:
    @pytest.mark.parametrize("wrt", [["a.W"], ["b.W", "b.b"], ["h.W"],
                                     ["a.b", "h.b"], []])
    def test_wrt_slots_match_full_pass_and_others_untouched(self, wrt):
        g, store, inputs, loss = branched_net(seed=13)
        acts = forward(g, store, inputs)
        full = {k: v.copy() for k, v in backward(g, store, acts, loss).items()}
        for name, slot in store.grads.items():
            slot[...] = 7.0
        backward(g, store, acts, loss, wrt=wrt)
        for name, slot in store.grads.items():
            if name in wrt:
                assert slot.tobytes() == full[name].tobytes(), name
            else:
                assert (slot == 7.0).all(), name

    def test_repeated_wrt_pass_is_stable(self):
        g, store, inputs, loss = branched_net(seed=14)
        acts = forward(g, store, inputs)
        first = backward(g, store, acts, loss, wrt=["a.W"])["a.W"].copy()
        second = backward(g, store, acts, loss, wrt=("a.W",))["a.W"]
        assert first.tobytes() == second.tobytes()

    def test_unknown_wrt_name_rejected(self):
        g, store, inputs, loss = branched_net()
        acts = forward(g, store, inputs)
        with pytest.raises(GraphError, match="nope"):
            backward(g, store, acts, loss, wrt=["a.W", "nope"])

    def test_param_off_the_loss_path_gets_zero(self):
        g, store, inputs, _ = branched_net()
        loss = g.mean(g.param("a.W", (3, 4)))
        acts = forward(g, store, inputs)
        store.grads["b.W"][...] = 7.0
        grads = backward(g, store, acts, loss, wrt=["b.W"])
        assert (grads["b.W"] == 0.0).all()


# weighted_sum is keyed by the arithmetic form it takes: one term with a
# negative weight, a constant shift, negation, a sum, a difference, and
# several terms over matrices with a constant
OP_BUILDERS = {
    "tanh": lambda g, x: g.mean(g.tanh(x)),
    "relu": lambda g, x: g.mean(g.relu(x)),
    "leaky_relu": lambda g, x: g.mean(g.leaky_relu(x)),
    "mean": lambda g, x: g.mean(x),
    "scale": lambda g, x: g.weighted_sum([(g.mean(x), -2.5)]),
    "add_scalar": lambda g, x: g.weighted_sum([(g.mean(x), 1.0)], 3.0),
    "neg": lambda g, x: g.weighted_sum([(g.mean(x), -1.0)]),
    "add": lambda g, x: g.weighted_sum([(g.mean(x), 1.0), (g.mean(g.tanh(x)), 1.0)]),
    "sub": lambda g, x: g.weighted_sum([(g.mean(x), 1.0), (g.mean(g.tanh(x)), -1.0)]),
    "weighted_sum": lambda g, x: g.mean(g.weighted_sum(
        [(x, 0.5), (g.tanh(x), -2.0), (g.relu(x), 1.25)], -0.75)),
}


class TestGradCheck:
    def test_quadratic_loss_tight(self):
        g = Graph()
        store = ParamStore({"w": np.array([[0.7, -1.2]])})
        w = g.param("w", (1, 2))
        loss = g.mean(g.tanh(w))  # smooth scalar function of parameters
        assert grad_check(g, store, {}, loss, h=1e-5) < 1e-8

    def test_linear_loss_near_machine_epsilon(self):
        g = Graph()
        store = ParamStore({"w": np.array([[2.0, -3.0, 0.5]])})
        loss = g.mean(g.weighted_sum([(g.param("w", (1, 3)), 1.75)]))
        assert grad_check(g, store, {}, loss, h=1e-5) < 1e-10

    def test_deep_tanh_net(self):
        g, store, _, out = affine_net([3, 6, 6, 6, 2], seed=9)
        loss = g.mean(out)
        x = np.random.default_rng(10).normal(size=(4, 3))
        assert grad_check(g, store, {"x": x}, loss, h=1e-5) < 1e-6

    def test_rejects_non_positive_h(self):
        g, store, _, out = affine_net([2, 2])
        loss = g.mean(out)
        with pytest.raises(ValueError):
            grad_check(g, store, {"x": np.zeros((4, 2))}, loss, h=0.0)

    @pytest.mark.parametrize("op", sorted(OP_BUILDERS))
    def test_every_operation_kind(self, op):
        g, store, _, out = affine_net([3, 4, 3], seed=hash(op) % 2**31)
        loss = OP_BUILDERS[op](g, out)
        x = np.random.default_rng(11).normal(size=(4, 3))
        assert grad_check(g, store, {"x": x}, loss, h=1e-5) < 1e-6

    def test_softmax_xent_and_gaussian_loglik_ops(self):
        rng = np.random.default_rng(12)
        g = Graph()
        store = ParamStore({"w": rng.normal(0.0, 0.5, size=(3, 5)), "b": np.zeros(5),
                            "wm": rng.normal(0.0, 0.5, size=(3, 2)), "bm": np.zeros(2)})
        x = g.input("x", (6, 3))
        logits = g.affine(x, g.param("w", (3, 5)), g.param("b", (5,)))
        onehot = np.zeros((6, 5))
        onehot[np.arange(6), rng.integers(0, 5, 6)] = 1.0
        xent = g.softmax_xent(logits, g.input("t", (6, 5)))
        means = g.affine(x, g.param("wm", (3, 2)), g.param("bm", (2,)))
        gll = g.gaussian_loglik(means, g.input("u", (6, 2)))
        loss = g.weighted_sum([(xent, 1.0), (gll, -1.0)])
        inputs = {"t": onehot, "u": rng.normal(size=(6, 2)), "x": rng.normal(size=(6, 3))}
        assert grad_check(g, store, inputs, loss, h=1e-5) < 1e-6


class TestParamStore:
    def test_mapping_is_laid_out_as_one_run_in_mapping_order(self):
        w, b = np.arange(6.0).reshape(2, 3), np.array([-1.0, 0.5, 2.0])
        store = ParamStore({"w": w, "b": b, "s": 4.0 * np.ones(1)})
        assert store.names() == ["w", "b", "s"]
        (run,) = store.runs()
        assert run.names == ("w", "b", "s") and run.params.size == 10
        assert run.params.tobytes() == np.concatenate([w.ravel(), b, [4.0]]).tobytes()
        for name, arr in store.params.items():
            assert np.shares_memory(arr, run.params), name
        assert [run.names for run in store.runs(["s", "w", "b"])] == [("s",), ("w", "b")]

    def test_grads_stay_unmade_until_read(self):
        store = ParamStore({"w": np.ones((2, 3)), "b": np.ones(3)})
        assert store._grads is None
        assert not store.grads["w"].any() and not store.grads["b"].any()
        (run,) = store.runs()
        for name in store.params:
            assert np.shares_memory(store.grads[name], run.grads), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(NonFiniteError, match="param 'b'"):
            ParamStore({"w": np.zeros(2), "b": np.array([0.0, bad])})

    def test_store_copies_the_arrays_it_is_given(self):
        w = np.ones((2, 2))
        store = ParamStore({"w": w})
        store.params["w"][...] = 3.0
        assert (w == 1.0).all()
        assert not np.shares_memory(store.params["w"], w)

    def test_grad_slot_shapes_match(self):
        store = ParamStore({"w": np.zeros((2, 3)), "b": np.zeros(3)})
        for name in store.params:
            assert store.grads[name].shape == store.params[name].shape

    def test_backward_fills_slots_never_read(self):
        x = np.random.default_rng(4).normal(size=(4, 3))
        g, lazy, _, out = affine_net([3, 5, 2], seed=3)
        _, ready, _, _ = affine_net([3, 5, 2], seed=3)
        assert not any(slot.any() for slot in ready.grads.values())
        loss = g.mean(out)
        assert lazy._grads is None
        got = backward(g, lazy, forward(g, lazy, {"x": x}), loss)
        want = backward(g, ready, forward(g, ready, {"x": x}), loss)
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_runs_merge_only_neighbours_in_a_buffer(self):
        store = ParamStore({name: np.zeros(2) for name in ("p", "q", "r")})
        assert [run.names for run in store.runs(["p", "r"])] == [("p",), ("r",)]
        assert [run.names for run in store.runs(["q", "r", "p"])] == [("q", "r"), ("p",)]
        assert [run.names for run in store.runs()] == [("p", "q", "r")]

    def test_as_tensor_rejects_inf(self):
        with pytest.raises(NonFiniteError):
            as_tensor([1.0, np.inf])
