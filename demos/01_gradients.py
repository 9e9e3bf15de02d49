"""Tour of the differentiation core.

Builds a tiny generator-plus-critic graph by hand, evaluates it, and
compares every analytic gradient against central finite differences.
"""
import numpy as np

from imdp.autodiff import Graph, ParamStore, forward, backward, grad_check
from imdp.latent import LatentSpec, mi_lower_bound, sample_codes
from imdp.nets import NetConfig, build_critic, build_generator
from imdp.train import generator_loss

spec = LatentSpec(z_dim=4, categorical=(4,), continuous=((-1.0, 1.0),))
cfg = NetConfig(latent=spec, data_dim=2, gen_hidden=(8,), trunk_hidden=(12,), seed=0)
gen = build_generator(cfg)
critic = build_critic(cfg)

# redraw parameters at a healthy scale: fresh nets sit so close to zero
# that finite differences straddle the piecewise-linear kinks
redraw = np.random.default_rng(2)
for net in (gen, critic):
    for name, arr in net.store.params.items():
        arr[...] = redraw.normal(0.0, 0.4, size=arr.shape)

batch = 6
g = Graph()
gen_in = g.input("gen_in", (batch, gen.input_width))
fake = gen.append_to_graph(g, gen_in)
trunk = critic.append_trunk(g, fake)
score = critic.append_score_head(g, trunk)
cat_nodes, cont_node = critic.append_q_heads(g, trunk)
cat_t = g.input("cat0", (batch, 4))
cont_t = g.input("cont", (batch, 1))
mi = mi_lower_bound(g, spec, cat_nodes, [cat_t], cont_node, cont_t)
loss = generator_loss(g, score, mi, lambda_cat=1.0, lambda_cont=0.1)

store = ParamStore({**gen.store.params, **critic.store.params})
codes = sample_codes(spec, batch, np.random.default_rng(1))
inputs = {"gen_in": codes.concat(), "cat0": codes.cat_onehot[0], "cont": codes.cont}

acts = forward(g, store, inputs)
print(f"graph with {len(g)} nodes over {len(store.params)} parameter tensors")
print(f"composite loss          = {float(acts[loss]):+.6f}")
print(f"code-recovery bound     = {float(acts[mi.total]):+.6f}")

backward(g, store, acts, loss)
total = sum(abs(v).sum() for v in store.grads.values())
print(f"sum of |gradient| mass  = {total:.6f}")

err = grad_check(g, store, inputs, loss, h=1e-5)
print(f"max relative error vs central differences: {err:.2e} (tolerance 1e-6)")
