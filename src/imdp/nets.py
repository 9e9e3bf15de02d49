"""Generator and critic networks with a shared trunk, plus checkpoint IO.

The generator maps noise-plus-codes to a tanh-bounded feature vector.
The critic and the code-recovery head share one trunk: the trunk's
parameter arrays have a single storage location, so an update made
through either head is observed by the other.  Architectures are plain
affine stacks sized to train in minutes on a desk machine.

The builders give each net a store of its own.  A trained pair
(``train.Trainer``) and a loaded one (``load_checkpoint``) share
one ``ParamStore``, so each net reads its names out of it:
``param_names`` is ``gen.*`` for the generator and ``dis.*``/``q.*``
for the critic.

A checkpoint holds the named float64 parameter tensors, then a spec
block of key=value lines: ``latent.*``, then ``PrivacySpec.block``.  It
must be what the writer writes for the specs ``artifacts.read_kv`` reads
out of it; any other bytes are a ``CheckpointError``.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .artifacts import read_kv, write_atomic
from .autodiff import Graph, ParamStore, as_tensor, forward, graph_per_batch
from .latent import Codes, LatentSpec
from .privacy import PrivacySpec

INIT_SCALE = 0.05  # weights drawn uniformly from [-INIT_SCALE, INIT_SCALE]

CHECKPOINT_MAGIC = b"IMDP"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt, foreign, or incompatible checkpoint file."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture description shared by the builder functions."""

    latent: LatentSpec
    data_dim: int
    gen_hidden: tuple[int, ...] = (128, 128)
    trunk_hidden: tuple[int, ...] = (128, 128)
    seed: int = 0

    def __post_init__(self):
        if self.data_dim < 1:
            raise ValueError("data_dim must be >= 1")
        for w in (*self.gen_hidden, *self.trunk_hidden):
            if w < 1:
                raise ValueError("hidden widths must be >= 1")


# Each net states its architecture once, as ``layers()``: affine layer
# name -> (fan_in, fan_out), in initialization order.  Parameter init,
# graph building and checkpoint validation all read it.
Layers = dict[str, tuple[int, int]]


def param_shapes(layers: Layers) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape for a net's affine layers."""
    shapes: dict[str, tuple[int, ...]] = {}
    for name, (n_in, n_out) in layers.items():
        shapes[f"{name}.W"] = (n_in, n_out)
        shapes[f"{name}.b"] = (n_out,)
    return shapes


def _init_layers(layers: Layers, rng: np.random.Generator) -> ParamStore:
    """A fresh store for ``layers``: uniform weights drawn in layer order,
    zero biases."""
    return ParamStore({name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
                       if name.endswith(".W") else np.zeros(shape)
                       for name, shape in param_shapes(layers).items()})


def _affine(g: Graph, h: int, name: str, n_in: int, n_out: int) -> int:
    return g.affine(h, g.param(f"{name}.W", (n_in, n_out)), g.param(f"{name}.b", (n_out,)))


class GeneratorNet:
    """Noise-plus-codes to data space; output bounded in [-1, 1] by tanh."""

    store: ParamStore  # set by the builder, Trainer or load_checkpoint

    def __init__(self, cfg: NetConfig):
        self.cfg = cfg

    @property
    def input_width(self) -> int:
        return self.cfg.latent.input_width

    @property
    def data_dim(self) -> int:
        return self.cfg.data_dim

    def layers(self) -> Layers:
        widths = [self.input_width, *self.cfg.gen_hidden, self.cfg.data_dim]
        names = [*(f"gen.h{i}" for i in range(len(self.cfg.gen_hidden))), "gen.out"]
        return {name: (n_in, n_out) for name, n_in, n_out in zip(names, widths, widths[1:])}

    def param_names(self) -> list[str]:
        return self.store.names_with_prefix("gen.")

    def append_to_graph(self, g: Graph, x: int) -> int:
        """Add the generator stack to a graph; returns the output node."""
        h = x
        for name, shape in self.layers().items():
            h = _affine(g, h, name, *shape)
            h = g.tanh(h) if name == "gen.out" else g.relu(h)
        return h

    @graph_per_batch
    def _graph(self, batch: int) -> tuple[Graph, int, int]:
        g = Graph()
        x = g.input("gen_in", (batch, self.input_width))
        return g, x, self.append_to_graph(g, x)


def build_generator(cfg: NetConfig) -> GeneratorNet:
    """Fresh generator with deterministic initialization from cfg.seed."""
    net = GeneratorNet(cfg)
    net.store = _init_layers(net.layers(), np.random.default_rng(cfg.seed))
    return net


def generate(gen: GeneratorNet, codes: Codes) -> np.ndarray:
    """Run the generator on one batch of codes; returns (batch, d) in [-1, 1]."""
    x = codes.concat()
    if x.shape[1] != gen.input_width:
        raise ValueError(
            f"codes width {x.shape[1]} does not match generator input {gen.input_width}")
    g, _, out = gen._graph(x.shape[0])
    return forward(g, gen.store, {"gen_in": x})[out]


@dataclass(frozen=True)
class QPosterior:
    """Code posterior read off the recovery head for one batch."""

    cat_logits: list[np.ndarray]        # (batch, K_i) per categorical code
    cont_means: np.ndarray | None       # (batch, n_cont)


class CriticQNet:
    """Scalar critic and code-recovery head on one shared trunk."""

    store: ParamStore  # set by the builder, Trainer or load_checkpoint

    def __init__(self, cfg: NetConfig):
        self.cfg = cfg

    @property
    def data_dim(self) -> int:
        return self.cfg.data_dim

    def layers(self) -> Layers:
        """Trunk, then score head, then recovery heads."""
        widths = [self.cfg.data_dim, *self.cfg.trunk_hidden]
        layers = {f"dis.h{i}": (widths[i], widths[i + 1]) for i in range(len(widths) - 1)}
        top = widths[-1]
        layers["dis.score"] = (top, 1)
        for i, k in enumerate(self.cfg.latent.categorical):
            layers[f"q.cat{i}"] = (top, k)
        if self.cfg.latent.n_cont:
            layers["q.cont"] = (top, self.cfg.latent.n_cont)
        return layers

    def critic_path_names(self) -> list[str]:
        """Trunk plus score head: everything updated on real data."""
        return self.store.names_with_prefix("dis.")

    def param_names(self) -> list[str]:
        return self.store.names_with_prefix("dis.", "q.")

    def trunk_names(self) -> list[str]:
        return self.store.names_with_prefix("dis.h")

    def q_head_names(self) -> list[str]:
        return self.store.names_with_prefix("q.")

    def append_trunk(self, g: Graph, x: int) -> int:
        h = x
        for name, shape in self.layers().items():
            if name.startswith("dis.h"):
                h = g.leaky_relu(_affine(g, h, name, *shape))
        return h

    def append_score_head(self, g: Graph, trunk: int) -> int:
        return _affine(g, trunk, "dis.score", *self.layers()["dis.score"])

    def append_q_heads(self, g: Graph, trunk: int) -> tuple[list[int], int | None]:
        layers = self.layers()
        cat_nodes = [_affine(g, trunk, f"q.cat{i}", *layers[f"q.cat{i}"])
                     for i in range(len(self.cfg.latent.categorical))]
        cont_node = _affine(g, trunk, "q.cont", *layers["q.cont"]) if "q.cont" in layers else None
        return cat_nodes, cont_node

    @graph_per_batch
    def _graph(self, batch: int):
        """Trunk and recovery heads, for ``q_posterior``; the score head is
        built only into the training graphs."""
        g = Graph()
        x = g.input("x", (batch, self.cfg.data_dim))
        cat_nodes, cont_node = self.append_q_heads(g, self.append_trunk(g, x))
        return g, cat_nodes, cont_node


def build_critic(cfg: NetConfig) -> CriticQNet:
    """Fresh critic/recovery net with deterministic initialization."""
    net = CriticQNet(cfg)
    net.store = _init_layers(net.layers(), np.random.default_rng(cfg.seed))
    return net


def q_posterior(net: CriticQNet, x: np.ndarray) -> QPosterior:
    """Recovery-head outputs: categorical logits and continuous means."""
    x = as_tensor(x, where="recovery input")
    if x.ndim != 2 or x.shape[1] != net.data_dim:
        raise ValueError(f"expected (batch, {net.data_dim}), got {x.shape}")
    g, cat_nodes, cont_node = net._graph(x.shape[0])
    acts = forward(g, net.store, {"x": x})
    return QPosterior(
        cat_logits=[acts[n] for n in cat_nodes],
        cont_means=acts[cont_node] if cont_node is not None else None)


# -- checkpoint serialization -----------------------------------------

@dataclass
class CheckpointBundle:
    gen: GeneratorNet
    critic: CriticQNet
    latent: LatentSpec
    privacy: PrivacySpec


def _spec_block(latent: LatentSpec, privacy: PrivacySpec) -> bytes:
    """The specs as key=value lines: ``latent.*``, then ``privacy.block()``."""
    cats = ",".join(str(k) for k in latent.categorical)
    conts = ",".join(f"{lo}:{hi}" for lo, hi in latent.continuous)
    lines = [f"latent.z_dim={latent.z_dim}", f"latent.categorical={cats}",
             f"latent.continuous={conts}", *privacy.block()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_spec_block(blob: memoryview) -> tuple[LatentSpec, PrivacySpec]:
    """Read the block with the config reader; it must be the bytes
    ``_spec_block`` writes for the specs read."""
    fields = read_kv(str(blob, "utf-8"), "spec block")
    latent = LatentSpec.parse(fields["latent.z_dim"], fields["latent.categorical"],
                              fields["latent.continuous"])
    privacy = PrivacySpec.from_block(fields)
    if _spec_block(latent, privacy) != blob:
        raise CheckpointError("spec block is not as the writer writes it")
    return latent, privacy


def save_checkpoint(path, gen: GeneratorNet, critic: CriticQNet,
                    privacy: PrivacySpec) -> None:
    """Write both nets plus the latent/privacy spec echo; bit-exact payload.
    Tensors go generator first, each net's names sorted."""
    tensors = [(name, gen.store.params[name]) for name in sorted(gen.param_names())]
    tensors += [(name, critic.store.params[name]) for name in sorted(critic.param_names())]
    out = [struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(tensors))]
    for name, arr in tensors:
        nameb = name.encode("utf-8")
        out.append(struct.pack("<H", len(nameb)))
        out.append(nameb)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    blob = _spec_block(gen.cfg.latent, privacy)
    out.append(struct.pack("<I", len(blob)))
    out.append(blob)
    write_atomic(path, b"".join(out))


class _Reader:
    """Reads a checkpoint through a ``memoryview``: ``take`` slices copy
    nothing, so the only copy of the tensors is the one the stores make."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint payload")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _widths_from_chain(params: dict[str, np.ndarray], prefix: str) -> list[int]:
    widths = []
    while (w := params.get(f"{prefix}.h{len(widths)}.W")) is not None and w.ndim == 2:
        widths.append(w.shape[1])
    return widths


def load_checkpoint(path) -> CheckpointBundle:
    """Rebuild the nets from a checkpoint.  Whatever the parsing rejects in
    the file's bytes (a missing spec key, a non-UTF-8 name, a non-finite
    weight, a zero width) is raised as ``CheckpointError`` and nothing else."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse_checkpoint(blob)
    except CheckpointError:
        raise
    except (KeyError, ValueError, ArithmeticError) as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc!r}") from exc


def _parse_checkpoint(blob: bytes) -> CheckpointBundle:
    r = _Reader(blob)
    magic, version, count = r.unpack("<4sII")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = r.unpack("<H")
        name = str(r.take(nlen), "utf-8")
        if name in params:
            raise CheckpointError(f"repeated tensor name {name!r}")
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I")
        size = math.prod(shape)
        if size > len(r.data):
            raise CheckpointError("shape table inconsistent with payload length")
        payload = r.take(8 * size)
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)
    (blen,) = r.unpack("<I")
    latent, privacy = _parse_spec_block(r.take(blen))
    if r.pos != len(r.data):
        raise CheckpointError("trailing bytes after checkpoint payload")

    if "gen.out.W" not in params or "dis.score.W" not in params:
        raise CheckpointError("checkpoint missing network parameters")
    if params["gen.out.W"].ndim != 2:
        raise CheckpointError("parameter 'gen.out.W' has unexpected shape")
    data_dim = params["gen.out.W"].shape[1]
    cfg = NetConfig(latent=latent, data_dim=data_dim,
                    gen_hidden=tuple(_widths_from_chain(params, "gen")),
                    trunk_hidden=tuple(_widths_from_chain(params, "dis")))
    gen, critic = GeneratorNet(cfg), CriticQNet(cfg)
    want = {**param_shapes(gen.layers()), **param_shapes(critic.layers())}
    if set(params) != set(want):
        raise CheckpointError("parameter names inconsistent with architecture")
    for name in sorted(params):
        if params[name].shape != want[name]:
            raise CheckpointError(f"parameter {name!r} has unexpected shape")
    # one store for the pair, copying the tensors out of the file's bytes
    gen.store = critic.store = ParamStore(params)
    return CheckpointBundle(gen=gen, critic=critic, latent=latent, privacy=privacy)
