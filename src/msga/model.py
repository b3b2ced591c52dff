"""Toy SAM-shaped segmentation network with tagged parameter groups.

Architecture: patchify + linear embedding + learned positional embedding,
B pre-norm transformer blocks (single-head attention with separate q/k/v/o
projections, then a 2-layer gelu MLP, residual connections around both), a
learned default prompt embedding added to every token as one broadcast row,
and a 2-layer per-token classifier head emitting k channels on the token
grid. Mask logits therefore live at (h/p, w/p, k); ground truth is
downsampled to match rather than logits being upsampled, and all metrics
are computed at token resolution.

Every parameter is stored as a 2-D float64 matrix (vectors as 1-row
matrices) under a path-like name and a role tag that the optimizer's
strategy assignment keys on. The classifier output layer starts at zero so
an untrained model scores all classes equally.

Parameter count in closed form (d = embed dim, p = patch, T = token count,
B = blocks, c = decoder channels, k = classes, MLP hidden = 4d):

    encoder = p^2 d + d + T d + B (12 d^2 + 9 d)
    prompt  = d
    decoder = d c + c + c k + k
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from msga.data import ConfigError, atomic_write, check_fields
from msga.losses import LossConfig
from msga.tape import Plan, Tape, lower

CHECKPOINT_MAGIC = b"MSGA1"
MLP_RATIO = 4

@dataclass(frozen=True)
class ModelConfig:
    image_h: int = 32
    image_w: int = 32
    patch_size: int = 4
    embed_dim: int = 16
    blocks: int = 2
    classes: int = 3
    decoder_channels: int = 16

    def __post_init__(self) -> None:
        check_fields(self, ("image_h", "image_w", "patch_size", "embed_dim", "blocks",
                            "decoder_channels"), lambda v: v >= 1, "be a positive integer")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ConfigError("patch_size", f"image {self.image_h}x{self.image_w} not divisible "
                                            f"by patch {self.patch_size}")
        check_fields(self, ("classes",), lambda v: v >= 2, "be at least 2 (background + 1)")

    @property
    def grid_h(self) -> int:
        return self.image_h // self.patch_size

    @property
    def grid_w(self) -> int:
        return self.image_w // self.patch_size

    @property
    def tokens(self) -> int:
        return self.grid_h * self.grid_w


@dataclass
class ParamGroup:
    name: str
    values: np.ndarray     # always 2-D float64; vectors are 1-row matrices
    role: str
    strategy: object | None = None


@dataclass
class ModelParams:
    config: ModelConfig
    groups: list[ParamGroup] = field(default_factory=list)

    def group(self, name: str) -> ParamGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)

    def total_parameters(self) -> int:
        return sum(g.values.size for g in self.groups)


def parameter_count(config: ModelConfig) -> int:
    """Closed-form parameter count for the architecture above."""
    d = config.embed_dim
    p = config.patch_size
    t = config.tokens
    c = config.decoder_channels
    k = config.classes
    encoder = p * p * d + d + t * d + config.blocks * (12 * d * d + 9 * d)
    return encoder + d + (d * c + c + c * k + k)


def init_model(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministically initialize all parameter groups for `config`.

    Linear weights are drawn N(0, 1/fan_in); layernorm gains start at one and
    all biases at zero. The decoder output layer (weights and bias) starts at
    zero, so logits are class-uniform until the first update.
    """
    rng = np.random.default_rng(seed)
    d = config.embed_dim
    hidden = MLP_RATIO * d
    groups: list[ParamGroup] = []

    def lin(rows: int, cols: int) -> np.ndarray:
        return rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))

    def add(name: str, values: np.ndarray, role: str) -> None:
        groups.append(ParamGroup(name, np.ascontiguousarray(values, dtype=np.float64), role))

    add("encoder/patch_embed/weight", lin(config.patch_size**2, d), "encoder-embed")
    add("encoder/patch_embed/bias", np.zeros((1, d)), "encoder-embed")
    add("encoder/pos_embed", rng.normal(0.0, 0.02, size=(config.tokens, d)), "encoder-embed")
    for b in range(config.blocks):
        base = f"encoder/block{b}"
        add(f"{base}/ln1/gain", np.ones((1, d)), "encoder-mlp")
        add(f"{base}/ln1/bias", np.zeros((1, d)), "encoder-mlp")
        add(f"{base}/attn/q", lin(d, d), "encoder-attention")
        add(f"{base}/attn/k", lin(d, d), "encoder-attention")
        add(f"{base}/attn/v", lin(d, d), "encoder-attention")
        add(f"{base}/attn/o", lin(d, d), "encoder-attention")
        add(f"{base}/ln2/gain", np.ones((1, d)), "encoder-mlp")
        add(f"{base}/ln2/bias", np.zeros((1, d)), "encoder-mlp")
        add(f"{base}/mlp/w1", lin(d, hidden), "encoder-mlp")
        add(f"{base}/mlp/b1", np.zeros((1, hidden)), "encoder-mlp")
        add(f"{base}/mlp/w2", lin(hidden, d), "encoder-mlp")
        add(f"{base}/mlp/b2", np.zeros((1, d)), "encoder-mlp")
    add("prompt/embedding", rng.normal(0.0, 0.02, size=(1, d)), "prompt")
    add("decoder/fc1/weight", lin(d, config.decoder_channels), "decoder")
    add("decoder/fc1/bias", np.zeros((1, config.decoder_channels)), "decoder")
    add("decoder/fc2/weight", np.zeros((config.decoder_channels, config.classes)), "decoder")
    add("decoder/fc2/bias", np.zeros((1, config.classes)), "decoder")

    params = ModelParams(config=config, groups=groups)
    assert params.total_parameters() == parameter_count(config)
    return params


def build_forward(tape: Tape, config: ModelConfig, ids: dict[str, int], image_id: int) -> int:
    """Record the forward pass on `tape`; returns the id of (tokens, k) logits."""
    d = config.embed_dim
    patches = tape.patchify(image_id, config.patch_size)
    x = tape.linear(patches, ids["encoder/patch_embed/weight"], ids["encoder/patch_embed/bias"])
    x = tape.add(x, ids["encoder/pos_embed"])
    for b in range(config.blocks):
        base = f"encoder/block{b}"
        h = tape.layernorm(x, ids[f"{base}/ln1/gain"], ids[f"{base}/ln1/bias"])
        q = tape.matmul(h, ids[f"{base}/attn/q"])
        k = tape.matmul(h, ids[f"{base}/attn/k"])
        v = tape.matmul(h, ids[f"{base}/attn/v"])
        ctx = tape.attention(q, k, v, 1.0 / np.sqrt(d))
        x = tape.add(x, tape.matmul(ctx, ids[f"{base}/attn/o"]))
        h = tape.layernorm(x, ids[f"{base}/ln2/gain"], ids[f"{base}/ln2/bias"])
        h = tape.gelu(tape.linear(h, ids[f"{base}/mlp/w1"], ids[f"{base}/mlp/b1"]))
        x = tape.add(x, tape.linear(h, ids[f"{base}/mlp/w2"], ids[f"{base}/mlp/b2"]))
    x = tape.add(x, ids["prompt/embedding"])
    h = tape.gelu(tape.linear(x, ids["decoder/fc1/weight"], ids["decoder/fc1/bias"]))
    return tape.linear(h, ids["decoder/fc2/weight"], ids["decoder/fc2/bias"])


def _record_forward(params: ModelParams, image: np.ndarray) -> tuple[Tape, dict[str, int], int]:
    """Fresh tape with every parameter group, then the image, then the forward pass;
    each leaf carries its group's name, the image's is "image"."""
    tape = Tape()
    ids = {g.name: tape.leaf(g.values, g.name) for g in params.groups}
    return tape, ids, build_forward(tape, params.config, ids, tape.leaf(image, "image"))


# the forward-only plan of the last (config, group names and shapes) seen; a plan
# holds compiled code and leaf specs, never an array, so it pins no weights or images
_forward_plan: dict[tuple, Plan] = {}


def forward(params: ModelParams, image: np.ndarray) -> np.ndarray:
    """Run the model on one image through the memoised plan; returns (h', w', k) logits."""
    cfg = params.config
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (cfg.image_h, cfg.image_w):
        raise ValueError(f"image shape {image.shape} does not match config "
                         f"({cfg.image_h}, {cfg.image_w})")
    key = (cfg, *((g.name, g.values.shape) for g in params.groups))
    if key not in _forward_plan:   # the recorded tape goes before the compile
        tape, _, out = _record_forward(params, image)
        lowered = lower(tape, out, (), (out,))
        del tape
        _forward_plan.clear()
        _forward_plan[key] = Plan(lowered)
    (logits,), _ = _forward_plan[key].replay([*(g.values for g in params.groups), image], ())
    logits = logits.reshape(cfg.grid_h, cfg.grid_w, cfg.classes)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("forward produced non-finite logits")
    return logits


def build_loss_tape(
    params: ModelParams,
    image: np.ndarray,
    labels_grid: np.ndarray,
    loss_config: LossConfig,
) -> tuple[Tape, dict[str, int], tuple[int, str], tuple[int, str], int]:
    """Tape for one training example: forward plus the combined loss, one seg-loss op.

    `labels_grid` is the already-downsampled (h', w') label map. Returns (tape,
    name->leaf id, ce, dice, loss id): ce and dice are `(loss id, key)` reads of
    the 0-d terms the loss op keeps, for the tape or a plan to read the log's terms.
    """
    tape, ids, logits = _record_forward(params, image)
    loss = tape.seg_loss(logits, np.asarray(labels_grid, dtype=np.int64).reshape(-1),
                         loss_config.dice_smooth, loss_config.ce_weight)
    return tape, ids, (loss, "ce"), (loss, "dice"), loss


def postprocess(m: np.ndarray) -> np.ndarray:
    """Label map from mask logits: channel-wise argmax, ties to the lowest class.

    Softmax is monotone per fiber, so this is also the argmax of the softmax.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 3:
        raise ValueError(f"mask logits must be (h, w, k), got shape {m.shape}")
    return np.argmax(m, axis=-1)


# ---------------------------------------------------------------------------
# checkpoint container: magic, then per group
#   name length (u32 LE), name bytes, rows (u32 LE), cols (u32 LE),
#   row-major float64 little-endian values


def save_checkpoint(params: ModelParams, path: str) -> None:
    blob = bytearray(CHECKPOINT_MAGIC)
    for g in params.groups:
        name = g.name.encode("utf-8")
        rows, cols = g.values.shape
        blob += struct.pack("<I", len(name)) + name
        blob += struct.pack("<II", rows, cols)
        blob += np.ascontiguousarray(g.values, dtype="<f8").tobytes()
    atomic_write(path, blob)


def load_checkpoint(path: str) -> list[tuple[str, np.ndarray]]:
    """Groups in file order; rejects truncation, bad UTF-8 and duplicate names."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {data[:5]!r}")
    pos = len(CHECKPOINT_MAGIC)

    def take(nbytes: int) -> bytes:
        nonlocal pos
        if pos + nbytes > len(data):
            raise ValueError(f"{path}: truncated at byte {pos}")
        pos += nbytes
        return data[pos - nbytes : pos]

    out: dict[str, np.ndarray] = {}
    while pos < len(data):
        (nlen,) = struct.unpack("<I", take(4))
        start = pos
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: group name at byte {start} is not valid UTF-8") from None
        if name in out:
            raise ValueError(f"{path}: duplicate group {name!r} at byte {start}")
        rows, cols = struct.unpack("<II", take(8))
        values = np.frombuffer(take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
        out[name] = values.astype(np.float64)
    return list(out.items())


def restore_checkpoint(params: ModelParams, path: str) -> ModelParams:
    """Load a checkpoint into a freshly initialized ModelParams, matched by name."""
    stored = dict(load_checkpoint(path))
    if set(stored) != {g.name for g in params.groups}:
        missing = sorted({g.name for g in params.groups} ^ set(stored))
        raise ValueError(f"{path}: group names do not match the model config: {missing}")
    for g in params.groups:
        if stored[g.name].shape != g.values.shape:
            raise ValueError(
                f"{path}: {g.name} has shape {stored[g.name].shape}, expected {g.values.shape}"
            )
        g.values = stored[g.name]
    return params
