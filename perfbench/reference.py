"""Independent readers and oracles for the benchmark's output checks.

Nothing here imports eslong. The readers follow the documented ESLG
checkpoint and ESEM store layouts, and the forward pass is a float64 re-write
of the encoder: pre-LN blocks, bias-free projections, exact-erf GELU and a
final layer norm. Attention runs in blocks of query rows against only the
keys each block can see, so a 2046-residue local slice costs O(n * k) here
whatever the program does.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
ATTENTION_BLOCK = 256  # query rows per block


# ---------------------------------------------------------------- file formats


def read_store(path: str):
    """ESEM store -> ([(protein id, slice count, float32 vector)], dim)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"ESEM":
        raise ValueError("not an ESEM store")
    _, count, dim = struct.unpack_from("<III", data, 4)
    pos = 16
    records = []
    for _ in range(count):
        (id_len,) = struct.unpack_from("<H", data, pos)
        pid = data[pos + 2: pos + 2 + id_len].decode("utf-8")
        pos += 2 + id_len
        (slices,) = struct.unpack_from("<H", data, pos)
        pos += 2
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += 4 * dim
        records.append((pid, slices, vec))
    if pos != len(data):
        raise ValueError("trailing bytes after the last store record")
    return records, dim


def _int4_decode(packed: np.ndarray, scales: np.ndarray, block: int, numel: int) -> np.ndarray:
    nibbles = np.stack([packed & 0x0F, packed >> 4], axis=1).reshape(-1)[:numel].astype(np.int64)
    codes = np.where(nibbles >= 8, nibbles - 16, nibbles)
    return codes * np.repeat(scales.astype(np.float64), block)[:numel]


def load_checkpoint(path: str) -> dict:
    """ESLG checkpoint -> {"config": dict, tensor name: float64 array}."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"ESLG":
        raise ValueError("not an ESLG checkpoint")
    _, count = struct.unpack_from("<II", data, 4)
    pos = 12
    out: dict = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2: pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        dtype, rank = struct.unpack_from("<BB", data, pos)
        dims = struct.unpack_from(f"<{rank}I", data, pos + 2)
        pos += 2 + 4 * rank
        numel = math.prod(dims)
        if dtype == 0:
            out[name] = np.frombuffer(data, "<f4", numel, pos).astype(np.float64).reshape(dims)
            pos += 4 * numel
        elif dtype == 1:
            block, nblocks = struct.unpack_from("<II", data, pos)
            scales = np.frombuffer(data, "<f4", nblocks, pos + 8)
            pos += 8 + 4 * nblocks
            packed = np.frombuffer(data, np.uint8, (numel + 1) // 2, pos)
            pos += (numel + 1) // 2
            out[name] = _int4_decode(packed, scales, block, numel).reshape(dims)
        elif dtype == 2:
            value = json.loads(data[pos: pos + numel].decode("utf-8"))
            out["config" if name == "__config__" else name] = value
            pos += numel
        else:
            raise ValueError(f"unknown dtype code {dtype}")
    return out


def read_fasta(path: str) -> dict[str, str]:
    seqs: dict[str, list[str]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                current = line[1:].split()[0]
                seqs[current] = []
            elif line:
                seqs[current].append(line.upper())
    return {k: "".join(v) for k, v in seqs.items()}


# ---------------------------------------------------------------- forward


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _softmax(s):
    s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def _attention(q, k, v, window_k):
    """q, k, v: [n, heads, dh]. Query i sees key j when |i - j| <= window_k / 2,
    or every key when window_k is None. Queries go in blocks, each against only
    the keys its band can reach, so local attention costs O(n * k)."""
    n, heads, dh = q.shape
    reach = n if window_k is None else window_k // 2
    qh, kh, vh = (a.transpose(1, 0, 2) for a in (q, k, v))  # [heads, n, dh]
    out = np.empty_like(q)
    for b0 in range(0, n, ATTENTION_BLOCK):
        b1 = min(n, b0 + ATTENTION_BLOCK)
        k0, k1 = max(0, b0 - reach), min(n, b1 + reach)
        distance = np.arange(b0, b1)[:, None] - np.arange(k0, k1)[None, :]
        hidden = np.where(np.abs(distance) > reach, -np.inf, 0.0)
        scores = qh[:, b0:b1] @ kh[:, k0:k1].transpose(0, 2, 1) / math.sqrt(dh) + hidden
        out[b0:b1] = (_softmax(scores) @ vh[:, k0:k1]).transpose(1, 0, 2)
    return out


def forward(model: dict, token_ids) -> np.ndarray:
    cfg = model["config"]["model"]
    layers, heads, dim = cfg["num_layers"], cfg["num_heads"], cfg["embed_dim"]
    window_k = cfg["attention"]["window_k"] if cfg["attention"]["mode"] == "local" else None
    tok = np.asarray(token_ids)
    n = tok.size
    x = model["token_embedding"][tok] + model["position_embedding"][:n]
    for i in range(layers):
        p = f"layers.{i}."
        h = _layer_norm(x, model[p + "attn_ln.gain"], model[p + "attn_ln.bias"])
        q, k, v = (h @ model[p + name] for name in ("q_proj", "k_proj", "v_proj"))
        split = (n, heads, dim // heads)
        ctx = _attention(q.reshape(split), k.reshape(split), v.reshape(split), window_k)
        x = x + ctx.reshape(n, dim) @ model[p + "o_proj"]
        h = _layer_norm(x, model[p + "ffn_ln.gain"], model[p + "ffn_ln.bias"])
        u = h @ model[p + "ffn_in"]
        x = x + (0.5 * u * (1.0 + erf(u / math.sqrt(2.0)))) @ model[p + "ffn_out"]
    return _layer_norm(x, model["final_ln.gain"], model["final_ln.bias"])


def embed(model: dict, sequence: str, residue_limit: int) -> np.ndarray:
    """Mean-pooled residue rows per slice, averaged over slices."""
    vocab = model["config"]["model"]["vocab"]
    ids = {tok: i for i, tok in enumerate(vocab)}
    slices = [sequence[lo: lo + residue_limit] for lo in range(0, len(sequence), residue_limit)]
    total = np.zeros(model["config"]["model"]["embed_dim"])
    for piece in slices:
        tokens = [ids["<cls>"]] + [ids.get(ch, ids["X"]) for ch in piece] + [ids["<eos>"]]
        total += forward(model, tokens)[1:-1].mean(axis=0)
    return total / len(slices)


# ---------------------------------------------------------------- annotation


def read_edges(path: str) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def read_annotations(path: str) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2:
                continue
            out.setdefault(parts[0], {})[parts[1]] = float(parts[2]) if len(parts) == 3 else 1.0
    return out


def close_truth(truth, edges) -> dict[str, set[str]]:
    """Each protein's terms plus every ancestor, by repeated edge sweeps."""
    parents: dict[str, list[str]] = {}
    for child, parent in edges:
        parents.setdefault(child, []).append(parent)
    closed = {}
    for protein, terms in truth.items():
        seen = set(terms)
        stack = list(terms)
        while stack:
            for parent in parents.get(stack.pop(), ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        closed[protein] = seen
    return closed


def closure_violations(pred, edges) -> int:
    """Number of (protein, edge) pairs whose parent scores below the child."""
    bad = 0
    for scores in pred.values():
        for child, parent in edges:
            if scores.get(parent, 0.0) < scores.get(child, 0.0):
                bad += 1
    return bad


def f_at(pred, truth: dict[str, set[str]], tau: float) -> float:
    """Protein-centric F at one threshold, straight from the definition:
    precision over proteins predicting anything, recall over all proteins."""
    precisions, recalls = [], []
    for protein, true_terms in truth.items():
        chosen = {t for t, s in pred.get(protein, {}).items() if s >= tau}
        hits = len(chosen & true_terms)
        if chosen:
            precisions.append(hits / len(chosen))
        recalls.append(hits / len(true_terms))
    if not precisions:
        return 0.0
    pr = sum(precisions) / len(precisions)
    rc = sum(recalls) / len(recalls)
    return 0.0 if pr + rc == 0 else 2 * pr * rc / (pr + rc)
