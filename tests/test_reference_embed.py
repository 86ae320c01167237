"""`embed` against the benchmark's float64 reference forward.

perfbench/reference.py re-implements the encoder in float64 without importing
eslong, and the benchmark marks a run incorrect when a stored vector is more
than 1e-4 from it. The same check runs here on a small input, so a kernel
change that would fail it fails a test first. The module is loaded from its
path and not changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from eslong.cli import main
from eslong.encoder import build_model, extend_context, preset_config, save_model
from eslong.pipeline import ProteinRecord, write_fasta
from eslong.quant import QuantPolicy, quantize_model

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
TOLERANCE = 1e-4  # the benchmark's reference_tolerance for both embed workloads


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def t6_global():
    return build_model(preset_config("T6"), seed=3)


def t6_2050_local_int4():
    base = build_model(preset_config("T6", mode="local", window_k=128), seed=4)
    return quantize_model(extend_context(base, 2050, strategy="copy"), QuantPolicy())


# The global protein spans two query blocks; the local one is cut into two
# slices (300 + 220 residues), each several local blocks long.
@pytest.mark.parametrize("make_model,length,residue_limit", [
    (t6_global, 300, 1022),
    (t6_2050_local_int4, 520, 300),
], ids=["T6-global-fp32", "T6-2050-local-int4"])
def test_embed_matches_float64_reference(tmp_path, make_model, length, residue_limit):
    reference = load_reference()
    rng = np.random.default_rng(length)
    sequence = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), length))
    model_path, fasta, store = tmp_path / "m.eslg", tmp_path / "in.fasta", tmp_path / "s.esem"
    save_model(make_model(), model_path)
    write_fasta(fasta, [ProteinRecord("P0", sequence)])
    assert main(["embed", "--model", str(model_path), "--fasta", str(fasta), "--out", str(store),
                 "--residue-limit", str(residue_limit)]) == 0
    (record,), _ = reference.read_store(str(store))
    assert record[1] == -(-length // residue_limit)
    want = reference.embed(reference.load_checkpoint(str(model_path)), sequence, residue_limit)
    err = float(np.abs(record[2].astype(np.float64) - want).max())
    assert err <= TOLERANCE, err
